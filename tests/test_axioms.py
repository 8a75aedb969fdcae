"""The integer axiom checks against an independent `Fraction` oracle.

`check_skew`, `check_grading` and `check_jacobi` run in `int` on the scaled
bracket memo; `axiom_oracle` writes each law out as `Element` sums of
`bracket`s.  Whole reports must agree: tuple counts, witnesses, residuals
and their order.
"""
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from lieverify import catalog, core, dsl
from lieverify.core import (
    AlgebraSpec,
    BasisSymbol,
    BracketRule,
    BracketTerm,
    Element,
    Window,
    check_grading,
    check_jacobi,
    check_skew,
    jacobi_terms,
)
from lieverify.derivations import _bracket_table, residual_terms

from _oracle import axiom_oracle
from test_core import _mutant_so_hat

BROKEN = (Path(__file__).resolve().parent / "golden" / "broken_so_hat.liealg").read_text()
CHECKS = {"skew": check_skew, "grading": check_grading, "jacobi": check_jacobi}


def _broken():
    return dsl.parse_algebra(BROKEN, {})


def _perturbed(name, params):
    """The representative with its first rule's first term scaled by 1/3."""
    spec = catalog.builtin(name, params)
    first, *rest = spec.rules
    head, *tail = first.terms
    head = BracketTerm(head.coeff * Fraction(1, 3), head.target, head.offset, head.delta)
    rules = (BracketRule(first.left, first.right, (head, *tail)), *rest)
    return AlgebraSpec(f"{spec.name}/3", spec.families, rules)


def _assert_reports_agree(build, neq):
    """Each check on one spec equals the oracle on a second, fresh spec."""
    expected = axiom_oracle(build(), 2 * neq)
    spec = build()
    for name, check in CHECKS.items():
        report = check(spec, Window(2 * neq, 0))
        found = [(v.witness, v.residual) for v in report.violations]
        assert (report.check, report.pairs_checked, found) == (name, *expected[name]), name
    return {name: len(expected[name][1]) for name in CHECKS}


@pytest.mark.parametrize("neq, jacobi", [(2, 26), (4, 102), (6, 226)])
def test_broken_so_hat_matches_oracle(neq, jacobi):
    counts = _assert_reports_agree(_broken, neq)
    assert counts["jacobi"] == jacobi and counts["skew"] and counts["grading"]


def test_mutant_so_hat_matches_oracle():
    counts = _assert_reports_agree(_mutant_so_hat, 3)
    assert counts["skew"] == counts["grading"] == 0 < counts["jacobi"]


@pytest.mark.parametrize("name, params", catalog.REPRESENTATIVES)
def test_representative_matches_oracle(name, params):
    assert _assert_reports_agree(lambda: catalog.builtin(name, params), 2) == {
        "skew": 0, "grading": 0, "jacobi": 0}


@pytest.mark.parametrize("name, params", catalog.REPRESENTATIVES)
def test_perturbed_representative_matches_oracle(name, params):
    _assert_reports_agree(lambda: _perturbed(name, params), 2)


def test_some_perturbation_breaks_jacobi_with_a_scale():
    # the residuals are divided back by scale**2, so a violation with scale > 1 must occur
    broken = [_perturbed(*rep) for rep in catalog.REPRESENTATIVES]
    assert any(core._scale(spec) > 1 and not check_jacobi(spec, Window(4, 0)).passed
               for spec in broken)


def test_skew_broken_triples_need_the_cyclic_sum():
    """On a skew-broken bracket, the derivation residual of ad_z is not -J.

    These 6 of the 226 violations at neq 6 vanish on that route, so the
    Jacobi check must form all three cyclic terms itself.
    """
    spec = _broken()
    report = check_jacobi(spec, Window(12, 0))
    table = _bracket_table(spec)
    lost = {}
    for v in report.violations:
        x, y, z = v.witness
        if not residual_terms(table, lambda s: core.bracket_symbols(spec, z, s), x, y, 1, 1):
            lost[v.witness] = v.residual
    c_n = BasisSymbol("C_N", None)
    assert lost == {
        (BasisSymbol("L", 0), BasisSymbol("N", -2 * k), BasisSymbol("N", 2 * k)):
            Element({c_n: -2 * k})
        for k in range(1, 7)
    }
    for (x, y, z), residual in lost.items():
        assert Element(jacobi_terms(spec, x, y, z)) == residual


def test_passing_checks_never_touch_the_fraction_memo():
    spec = catalog.builtin("so_hat")
    with mock.patch.object(core, "bracket_symbols", wraps=core.bracket_symbols) as spy:
        for check in CHECKS.values():
            assert check(spec, Window(12, 0)).passed
    spy.assert_not_called()
    assert not spec._cache
