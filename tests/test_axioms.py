"""The integer axiom checks against an independent `Fraction` oracle.

`check_skew`, `check_grading` and `check_jacobi` run in `int` on the scaled
bracket memo; `axiom_oracle` writes each law out as `Element` sums of its own
`Fraction` brackets.  Whole reports must agree: tuple counts, witnesses,
residuals and their order.
"""
import itertools
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lieverify import catalog, cli, core, dsl, tpa
from lieverify.core import (
    AlgebraSpec,
    BasisSymbol,
    BracketRule,
    BracketTerm,
    Element,
    Window,
    bracket,
    check_grading,
    check_jacobi,
    bracket_symbols,
    check_skew,
    jacobi_terms,
)
from lieverify.derivations import derivation_residual
from lieverify.poly import Poly

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


SO_HAT = dsl.render_algebra(catalog.builtin("so_hat"))
FOUR_FAMILIES = "algebra one_term\n" + "".join(
    f"family {name} integer degree-offset 0\n" for name in "ABCD")


@pytest.mark.parametrize("text", [
    SO_HAT + "bracket M(m) Y(n) = (m+1)*Y(m+n)\n",
    SO_HAT + "bracket M(m) M(n) = (n-m)*N(m+n) + (m)*delta(m+n)*C_L\n",
    # on (A, B, C) triples only the named cyclic term composes two rules
    FOUR_FAMILIES + "bracket A(m) B(n) = (1)*D(m+n)\nbracket C(m) D(n) = (m)*A(m+n)\n",
    FOUR_FAMILIES + "bracket B(m) C(n) = (1)*D(m+n)\nbracket A(m) D(n) = (m)*B(m+n)\n",
    FOUR_FAMILIES + "bracket A(m) C(n) = (1)*D(m+n)\nbracket B(m) D(n) = (m)*A(m+n)\n",
], ids=["so_hat+[M,Y]", "so_hat+[M,M]", "[[x,y],z]", "[[y,z],x]", "[[z,x],y]"])
def test_rules_on_new_family_pairs_match_oracle(text):
    """Jacobi skips the triples whose families cannot compose; with rules on family
    pairs that had none, every report still equals the oracle's, which evaluates
    every triple."""
    assert _assert_reports_agree(lambda: dsl.parse_algebra(text, {}), 3)["jacobi"]


def composed_calls(run):
    """run()'s result and, for each `core.composed` call it made through `core`'s and
    `tpa`'s names for the kernel, the list of (t, placements) it was handed, in order.
    A placement is given as (i, j, k, sign): each check builds its tables anew."""
    seen = []
    kernel = core.composed

    def spy(items):
        seen.append([])

        def handed():
            for t, placements in items:
                seen[-1].append((t, tuple(p[:4] for p in placements)))
                yield t, placements
        return kernel(handed())

    with mock.patch.object(core, "composed", spy), mock.patch.object(tpa, "composed", spy):
        return run(), seen


def test_jacobi_evaluates_only_family_live_triples():
    """On so_hat at neq 6, 12 155 of the 24 804 triples have a cyclic term whose outer
    bracket reaches a family with a rule for the third; only those reach the kernel."""
    spec = dsl.parse_algebra(SO_HAT, {})
    report, [calls] = composed_calls(lambda: check_jacobi(spec, Window(12, 0)))
    seen = [t for t, _ in calls]
    assert (report.passed, report.pairs_checked, len(seen), len(set(seen))) == (
        True, 24804, 12155, 12155)
    # 2 964 of the 36 465 cyclic terms of those triples cannot compose on their families
    assert sum(len(terms) for _, terms in calls) == 36465 - 2964


ALGEBRAS = [*catalog.REPRESENTATIVES, ("broken_so_hat", None)]


def _algebra(name, params):
    return _broken() if name == "broken_so_hat" else catalog.builtin(name, params)


@pytest.mark.parametrize("name, params", ALGEBRAS)
def test_pairs_from_two_families_are_antisymmetric_by_construction(name, params):
    """`check_skew` evaluates only one-family pairs: `eval_rule` reads both orders of a
    pair from two families from their one rule and flips the sign."""
    spec = _algebra(name, params)
    for x, y in itertools.combinations(spec.basis_symbols(16), 2):
        if x.family != y.family:
            negated = {s: -v for s, v in bracket_symbols(spec, x, y)}
            assert dict(bracket_symbols(spec, y, x)) == negated, (x, y)


def test_skew_reads_only_families_with_a_rule_with_themselves():
    """On so_hat at neq 6, M has no rule with M and no central symbol has any rule:
    `check_skew` memoizes none of their pairs, and its report equals the oracle's,
    which evaluates every pair."""
    spec = catalog.builtin("so_hat")
    report = check_skew(spec, Window(12, 0))
    found = [(v.witness, v.residual) for v in report.violations]
    assert (report.pairs_checked, found) == axiom_oracle(catalog.builtin("so_hat"), 12)["skew"]
    assert {(x.family, y.family) for x, y in spec._cache} == {("L", "L"), ("N", "N"), ("Y", "Y")}


def assert_skipped_terms_vanish(placements, run, triples):
    """Each placement of `placements` on a window triple that `run` (a check on their
    tables) does not hand to `core.composed`, all of them when the kernel never sees the
    triple, is zero, by `composed` on that placement alone; and every placement handed is
    one of them, compared by (i, j, k, sign)."""
    handed = dict(item for call in composed_calls(run)[1] for item in call)
    for t in triples:
        assert set(handed.get(t, ())) <= {p[:4] for p in placements}, t
        for placement in placements:
            if placement[:4] not in handed.get(t, ()):
                assert list(core.composed([(t, (placement,))])) == [], (t, placement[:4])


@pytest.mark.parametrize("name, params", ALGEBRAS)
def test_every_term_of_a_skipped_jacobi_triple_is_zero(name, params):
    spec = _algebra(name, params)
    assert_skipped_terms_vanish(
        core.placed(core._jacobi_rotations, core.table(spec, bracket_symbols)),
        lambda: check_jacobi(spec, Window(12, 0)), itertools.combinations(spec.basis_symbols(12), 3))


def rescaled(rules, rule, term, factor, shift):
    """`rules` with one term, term `term` of rule `rule` (each index taken modulo the
    count), times `factor` and with its target offset moved by `shift`."""
    rules = list(rules)
    old = rules[rule % len(rules)]
    terms = list(old.terms)
    t = terms[term % len(terms)]
    terms[term % len(terms)] = BracketTerm(t.coeff * factor, t.target, t.offset + shift, t.delta)
    rules[rule % len(rules)] = BracketRule(old.left, old.right, tuple(terms))
    return tuple(rules)


perturbations = dict(
    rule=st.integers(0, 20), term=st.integers(0, 20), shift=st.integers(-1, 1),
    factor=st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)), neq=st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(algebra=st.sampled_from(ALGEBRAS), **perturbations)
@example(algebra=("broken_so_hat", None), rule=0, term=0, factor=Fraction(1), shift=0, neq=6)
def test_jacobi_with_a_perturbed_rule_matches_oracle(algebra, rule, term, factor, shift, neq):
    """With one term of one rule rescaled and moved, `check_jacobi`'s one `composed` pass
    gives the oracle's report: tuple count, witnesses, residuals and their order.  Left
    as it is, broken_so_hat at neq 6 gives its 226 violations."""
    spec = _algebra(*algebra)
    rules = rescaled(spec.rules, rule, term, factor, shift)
    build = lambda: AlgebraSpec(f"{spec.name}*", spec.families, rules, spec.params)
    report = check_jacobi(build(), Window(2 * neq, 0))
    found = [(v.witness, v.residual) for v in report.violations]
    assert (report.pairs_checked, found) == axiom_oracle(build(), 2 * neq)["jacobi"]
    if (algebra[0], rules, neq) == ("broken_so_hat", spec.rules, 6):
        assert len(found) == 226


def test_some_perturbation_breaks_jacobi_with_a_scale():
    # the residuals are divided back by scale**2, so a violation with scale > 1 must occur
    broken = [_perturbed(*rep) for rep in catalog.REPRESENTATIVES]
    assert any(spec.scale > 1 and not check_jacobi(spec, Window(4, 0)).passed
               for spec in broken)


def test_skew_broken_triples_need_the_cyclic_sum():
    """On a skew-broken bracket, the derivation residual of ad_z is not -J.

    These 6 of the 226 violations at neq 6 vanish on that route, so the
    Jacobi check must form all three cyclic terms itself.
    """
    spec = _broken()
    report = check_jacobi(spec, Window(12, 0))
    lost = {}
    for v in report.violations:
        x, y, z = v.witness
        if not derivation_residual(spec, lambda s: bracket(spec, z, s), x, y, Fraction(1)):
            lost[v.witness] = v.residual
    c_n = BasisSymbol("C_N", None)
    assert lost == {
        (BasisSymbol("L", 0), BasisSymbol("N", -2 * k), BasisSymbol("N", 2 * k)):
            Element({c_n: -2 * k})
        for k in range(1, 7)
    }
    for (x, y, z), residual in lost.items():
        assert Element(jacobi_terms(spec, x, y, z)) == residual


PASSING_RUNS = [
    ["validate", "builtin:so_hat", "--neq", "6"],
    ["check-tpa", "builtin:Ltilde1", "--param", "lambda=1", "--param", "mu=1/4",
     "--product", "builtin:theorem", "--alpha", "-1:3/2", "--beta", "1:-2/3", "--neq", "4"],
]


def spy_on_eval_rule(monkeypatch):
    """Record (rule index id, x, y) of every `eval_rule` call, through any module's name for it."""
    seen = []
    evaluate = core.eval_rule

    def spy(rules, x, y, antisymmetric):
        seen.append((id(rules), x, y))
        return evaluate(rules, x, y, antisymmetric)

    for name, module in list(sys.modules.items()):
        if name.startswith("lieverify") and getattr(module, "eval_rule", None) is evaluate:
            monkeypatch.setattr(module, "eval_rule", spy)
    return seen


@pytest.mark.parametrize("argv", PASSING_RUNS)
def test_eval_rule_runs_once_per_pair_per_table(argv, tmp_path, monkeypatch):
    """Each ordered pair is evaluated once per rule table (bracket or product)."""
    seen = spy_on_eval_rule(monkeypatch)
    assert cli.run([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert seen and len(seen) == len(set(seen))


@pytest.mark.parametrize("argv", [
    *PASSING_RUNS, ["solve-deriv", "builtin:so_hat", "--degrees", "-1..1", "--neq", "4", "--ncore", "2"]
])
def test_cold_runs_never_call_poly_evaluate(argv, tmp_path):
    """Rules are compiled to integer monomials: a cold memo fills without `Poly.evaluate`."""
    with mock.patch.object(Poly, "evaluate", side_effect=AssertionError("Poly.evaluate called")):
        assert cli.run([*argv, "--out", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize("argv", PASSING_RUNS)
def test_passing_checks_build_no_fraction_residual(argv, tmp_path):
    """A passing run divides nothing back by a scale and builds no `Element`."""
    calls = []
    over, init = core._over, core.Element.__init__

    def spy(original):
        def wrapper(*args):
            calls.append(original.__name__)
            return original(*args)
        return wrapper

    with mock.patch.object(core.Element, "__init__", spy(init)):
        with mock.patch.multiple(core, _over=spy(over)), \
                mock.patch("lieverify.tpa._over", spy(over)), \
                mock.patch("lieverify.derivations._over", spy(over)):
            assert cli.run([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert calls == []
