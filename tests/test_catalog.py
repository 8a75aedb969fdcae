"""Built-in algebras: structure, case guards, spot-checked brackets."""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from lieverify import catalog, dsl
from lieverify.catalog import CaseLabel, CaseViolation, classify_case
from lieverify.core import BasisSymbol, Element, StructureError, Window, bracket
from lieverify.core import check_grading, check_jacobi, check_skew


F = Fraction
CATALOG_GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog.json"


class TestClassifyCase:
    @pytest.mark.parametrize(
        "lam, mu, label",
        [
            (F(5), F(1, 3), CaseLabel.L1_GENERIC),  # mu not in (1/2)Z
            (F(-3), F(1, 3), CaseLabel.L1_GENERIC),
            (F(2), F(1, 2), CaseLabel.L1_GENERIC),  # half-odd mu, lambda generic
            (F(-3), F(1, 2), CaseLabel.L2),
            (F(-1), F(3, 2), CaseLabel.L3),
            (F(1), F(-5, 2), CaseLabel.L4),
            (F(-1), F(7), CaseLabel.L5),
            (F(1), F(2), CaseLabel.L1_GENERIC),  # integer mu, lambda != -1
        ],
    )
    def test_cases(self, lam, mu, label):
        assert classify_case(lam, mu) == label

    def test_guard_rejects_wrong_case(self):
        with pytest.raises(CaseViolation):
            catalog.builtin("Ltilde2", {"lambda": F(2), "mu": F(1, 2)})
        with pytest.raises(CaseViolation):
            catalog.builtin("Ltilde5", {"lambda": F(-1), "mu": F(1, 2)})
        with pytest.raises(CaseViolation):
            catalog.builtin("Ltilde1", {"lambda": F(-3), "mu": F(1, 2)})

    def test_guard_accepts_right_case(self):
        spec = catalog.builtin("Ltilde4", {"lambda": F(1), "mu": F(3, 2)})
        assert spec.name == "Ltilde4"


class TestCatalogStructure:
    def test_names(self):
        names = catalog.catalog_names()
        assert set(names) >= {
            "witt", "virasoro", "so", "so_tilde", "so_hat", "hv",
            "L", "Ltilde1", "Ltilde2", "Ltilde3", "Ltilde4", "Ltilde5",
        }

    def test_param_requirements(self):
        assert not catalog.needs_params("witt")
        assert catalog.needs_params("Ltilde1")
        with pytest.raises(StructureError):
            catalog.builtin("witt", {"lambda": F(1)})
        with pytest.raises(StructureError):
            catalog.builtin("L")
        with pytest.raises(StructureError):
            catalog.builtin("nope")
        for name in filter(catalog.needs_params, catalog.catalog_names()):
            with pytest.raises(StructureError, match=f"^{name} takes only .* not 'nu'$"):
                catalog.builtin(name, {"lambda": F(1), "mu": F(1, 4), "nu": F(3)})

    def test_hv_is_subalgebra_of_so_hat(self):
        hv = catalog.builtin("hv")
        so_hat = catalog.builtin("so_hat")
        hv_fams = {f.name for f in hv.families}
        for rule in hv.rules:
            big = next((r for r in so_hat.rules if {r.left, r.right} == {rule.left, rule.right}), None)
            assert big is not None
            assert {t.target for t in rule.terms} <= hv_fams
            assert big.terms == rule.terms or {
                (t.coeff, t.target, t.offset, t.delta) for t in big.terms
            } == {(t.coeff, t.target, t.offset, t.delta) for t in rule.terms}


class TestSpotChecks:
    def test_virasoro_central_charge(self):
        spec = catalog.builtin("virasoro")
        out = bracket(spec, spec.symbol("L", 2), spec.symbol("L", -2))
        assert out.terms[BasisSymbol("C_L", None)] == F(1, 2)  # (8-2)/12
        assert out.terms[BasisSymbol("L", 0)] == F(-4)

    def test_so_hat_ln_cocycle(self):
        spec = catalog.builtin("so_hat")
        out = bracket(spec, spec.symbol("L", 3), spec.symbol("N", -3))
        assert out.terms[BasisSymbol("C_LN", None)] == F(6)  # m^2 - m = 9 - 3
        out2 = bracket(spec, spec.symbol("N", 1), spec.symbol("N", -1))
        assert out2 == Element({BasisSymbol("C_N", None): F(-1)})

    def test_ltilde4_derived_bracket(self):
        spec = catalog.builtin("Ltilde4", {"lambda": F(1), "mu": F(1, 2)})
        out = bracket(spec, spec.symbol("L", 2), spec.symbol("M", -3))
        # (n - m + 2mu) M_{m+n}  - m(m^2-1) delta_{m+n+1,0} C_M  at m=2, n=-3
        assert out.terms[BasisSymbol("M", -2)] == F(-4)
        assert out.terms[BasisSymbol("C_M", None)] == F(-6)

    def test_ltilde1_y_bracket_quarter_mu(self):
        spec = catalog.builtin("Ltilde1", {"lambda": F(1), "mu": F(1, 4)})
        out = bracket(
            spec, spec.symbol("Y", F(1, 2)), spec.symbol("Y", F(-3, 2))
        )
        # [Y_{m+1/2}, Y_{n+1/2}] = (n-m) M_{m+n+1} at m=0, n=-2
        assert out == Element({BasisSymbol("M", -2): F(-2)})


@pytest.mark.parametrize("name,params", catalog.REPRESENTATIVES)
def test_axioms_window_3(name, params):
    """Fast smoke version of the acceptance Lie-axiom suite."""
    spec = catalog.builtin(name, params)
    window = Window(6, 0)
    assert check_skew(spec, window).passed
    assert check_grading(spec, window).passed
    assert check_jacobi(spec, window).passed


def _pin(name, params):
    """What the solver and renderer see of one catalog entry, as JSON data.

    Family order fixes the solver's unknown-column order, and `render`
    sorts families, so the ordered families are recorded beside the
    canonical text; term lists keep their order within each rule.
    """
    entry = {"name": name, "params": {k: str(v) for k, v in params.items()}}
    try:
        spec = catalog.builtin(name, params or None)
    except ValueError as exc:
        entry["error"] = [type(exc).__name__, str(exc)]
        return entry
    entry["params"] = {k: str(v) for k, v in spec.params.items()}
    entry["families"] = [[f.name, f.lattice, f.shift2] for f in spec.families]
    entry["terms"] = {
        f"{rule.left},{rule.right}": [
            [str(t.coeff), t.target, t.offset,
             None if t.delta is None else str(t.delta.shift)]
            for t in rule.terms
        ]
        for rule in spec.rules
    }
    entry["render"] = dsl.render_algebra(spec)
    return entry


# One entry a line; regenerate only for an intended catalog change, as
#   "[\n" + ",\n".join(json.dumps(_pin(name, params)) for ...) + "\n]\n"
PINNED = json.loads(CATALOG_GOLDEN.read_text())


@pytest.mark.parametrize(
    "entry", PINNED,
    ids=[e["name"] + "".join(f",{k}={v}" for k, v in e["params"].items()) for e in PINNED],
)
def test_catalog_matches_golden(entry):
    params = {k: F(v) for k, v in entry["params"].items()}
    assert _pin(entry["name"], params) == entry
