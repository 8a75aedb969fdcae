"""Pins the verified non-trivial degree-0 spaces behind the red acceptance
criterion (test_criterion_06_extension_triviality).

Three of the four parameterized extensions carry genuine 1/2-derivations
beyond scalings of the identity: center-valued ones on Ltilde2 and Ltilde5,
shift maps between families on Ltilde4.  Each map below is verified
directly against the derivation identity on every basis pair in a window
strictly larger than the solver's, so the extra dimensions are not solver or
truncation artifacts.  The analysis is in the README section "Test suite
and one known-red criterion".
"""
from fractions import Fraction

import pytest

from lieverify import catalog
from lieverify.core import BasisSymbol, Element, Window
from lieverify.derivations import derivation_residual, solve_degree

F = Fraction
WINDOW = Window.displayed(6, 2)
VERIFY_BOUND2 = 16  # check hand-written maps on pairs well past the window

C = lambda name: BasisSymbol(name, None)


def assert_half_derivation(spec, table, deltas=(F(1, 2),)):
    phi = lambda s: table.get(s, Element.zero())
    symbols = list(spec.basis_symbols(VERIFY_BOUND2))
    for delta in deltas:
        for i, x in enumerate(symbols):
            for y in symbols[i:]:
                if x.twice is None and y.twice is None:
                    continue
                res = derivation_residual(spec, phi, x, y, delta)
                assert not res, (x, y, delta, res)


@pytest.fixture(scope="module")
def degree0():
    out = {}
    for name, params in (
        ("Ltilde2", {"lambda": F(-3), "mu": F(1, 2)}),
        ("Ltilde3", {"lambda": F(-1), "mu": F(1, 2)}),
        ("Ltilde4", {"lambda": F(1), "mu": F(1, 2)}),
        ("Ltilde5", {"lambda": F(-1), "mu": F(0)}),
    ):
        out[name] = solve_degree(catalog.builtin(name, params), 0, WINDOW)
    return out


def test_actual_degree0_dimensions(degree0):
    dims = {name: r.interior_dim for name, r in degree0.items()}
    assert dims == {"Ltilde2": 3, "Ltilde3": 1, "Ltilde4": 3, "Ltilde5": 3}
    assert all(r.residual_checked for r in degree0.values())


def test_ltilde2_center_valued_maps():
    # [x, Y(-1/2)] has no Y component for any basis x: the [L, Y]
    # coefficient vanishes at that index, and [Y, Y] lands in M.  So
    # Y(-1/2) -> (any central) satisfies the delta-derivation identity
    # with both sides identically zero -- for every delta at once.
    spec = catalog.builtin("Ltilde2", {"lambda": F(-3), "mu": F(1, 2)})
    y = spec.symbol("Y", F(-1, 2))
    for central in ("C_L", "C_LY"):
        table = {y: Element({C(central): F(1)})}
        assert_half_derivation(spec, table, deltas=(F(1, 2), F(1), F(7, 3)))


def test_ltilde4_structured_maps():
    spec = catalog.builtin("Ltilde4", {"lambda": F(1), "mu": F(1, 2)})
    # cover every bracket output of window pairs: |m + n| + offsets
    bound = 2 * VERIFY_BOUND2 + 4
    shift_down = {
        spec.symbol("L", n): Element({BasisSymbol("M", 2 * n - 2): F(1)})
        for n in range(-bound // 2, bound // 2 + 1)
    }
    shift_down[C("C_L")] = Element({C("C_M"): F(-12)})
    assert_half_derivation(spec, shift_down)

    through_y = {}
    for n in range(-bound // 2, bound // 2 + 1):
        through_y[spec.symbol("L", n)] = Element({BasisSymbol("Y", 2 * n - 1): F(1)})
        through_y[BasisSymbol("Y", 2 * n - 1)] = Element(
            {BasisSymbol("M", 2 * n - 2): F(1)}
        )
    through_y[C("C_L")] = Element({C("C_LY"): F(-12)})
    through_y[C("C_LY")] = Element({C("C_M"): F(1)})
    assert_half_derivation(spec, through_y)


def test_ltilde5_center_valued_maps():
    spec = catalog.builtin("Ltilde5", {"lambda": F(-1), "mu": F(0)})
    m0 = spec.symbol("M", 0)
    for central in ("C_L", "C_Y"):
        table = {
            m0: Element({C(central): F(1)}),
            C("C_Y"): Element({C(central): F(-2)}),
        }
        assert_half_derivation(spec, table)


def test_grading_shift_does_not_remove_them(degree0):
    # The gradings on these algebras form a one-parameter family; a
    # uniform shift relabels degrees but maps degree-0 spaces to
    # degree-0 spaces, so no grading convention restores triviality.
    # Cross-check: the counterexample maps above never move a basis
    # vector between families asymmetrically under the shift, and the
    # solver sees the same dimension with the unshifted catalog entries.
    alt = solve_degree(
        catalog.builtin("Ltilde2", {"lambda": F(-3), "mu": F(1, 2)}), 0,
        Window.displayed(7, 2),
    )
    assert alt.interior_dim == degree0["Ltilde2"].interior_dim == 3
