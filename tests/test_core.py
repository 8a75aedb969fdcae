"""Unit tests for polynomials, elements, and bracket evaluation."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lieverify import (
    AlgebraSpec,
    BasisSymbol,
    BracketRule,
    BracketTerm,
    DeltaCondition,
    Element,
    Family,
    Poly,
    StructureError,
    Window,
    WindowError,
    bracket,
    check_jacobi,
    check_skew,
    jacobi_terms,
)
from lieverify.core import eval_rule, format_index2, format_symbol
from lieverify.tpa import ProductSpec
from lieverify.poly import M, N, ONE

from _oracle import fires


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
polys = st.builds(Poly, st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), fractions,
                                        max_size=3))
# integral and off-lattice (half-integral) delta shifts
deltas = st.none() | st.builds(DeltaCondition, st.builds(Fraction, st.integers(-4, 4),
                                                         st.sampled_from([1, 2])))
rule_terms = st.builds(BracketTerm, polys, st.sampled_from("ABC"), st.integers(-2, 2), deltas)
_ABC = (Family("A", "integer"), Family("B", "half"), Family("C", "central"))
_ABC_HALF = {"A": 0, "B": Fraction(1, 2)}  # displayed-index offset of each lattice
_AB_PAIRS = (("A", "A"), ("A", "B"), ("B", "A"), ("B", "B"))


class TestPoly:
    def test_basic_arithmetic(self):
        p = (N - M) * (N + M)
        assert p == N**2 - M**2
        assert p.evaluate(3, 5) == 25 - 9

    def test_zero_normal_form(self):
        assert (M - M).is_zero()
        assert not (M - M).coeffs

    def test_swap_vars(self):
        p = 2 * M**3 - N
        assert p.swap_vars() == 2 * N**3 - M
        assert p.swap_vars().swap_vars() == p

    def test_constant_division(self):
        assert (M * 6) / Poly.const(3) == 2 * M
        with pytest.raises(ZeroDivisionError):
            (M * 6) / Poly.const(0)

    def test_power(self):
        assert M**0 == ONE
        assert (M + N) ** 2 == M**2 + 2 * M * N + N**2

    @given(fractions, fractions, st.integers(-6, 6), st.integers(-6, 6))
    def test_evaluate_is_ring_hom(self, a, b, m, n):
        p = a * M + b * N**2
        q = M * N - ONE
        assert (p * q).evaluate(m, n) == p.evaluate(m, n) * q.evaluate(m, n)
        assert (p + q).evaluate(m, n) == p.evaluate(m, n) + q.evaluate(m, n)

    @given(
        st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), fractions, max_size=6),
        st.one_of(st.integers(-20, 20), fractions),
        st.one_of(st.integers(-20, 20), fractions),
    )
    def test_evaluate_matches_fraction_powers(self, coeffs, m, n):
        p = Poly(coeffs)
        value = p.evaluate(m, n)
        expected = sum(
            (c * Fraction(m) ** em * Fraction(n) ** en for (em, en), c in p.coeffs.items()),
            Fraction(0),
        )
        assert type(value) is Fraction
        assert value == expected


class TestElement:
    def test_no_zero_terms(self):
        sym = BasisSymbol("L", 0)
        assert not Element({sym: Fraction(0)})
        assert (Element.basis(sym) - Element.basis(sym)) == Element.zero()

    def test_formatting(self):
        assert format_symbol(BasisSymbol("Y", -3)) == "Y(-3/2)"
        assert format_symbol(BasisSymbol("L", 4)) == "L(2)"
        assert format_symbol(BasisSymbol("C_L", None)) == "C_L"
        assert format_index2(5) == "5/2"


def _witt() -> AlgebraSpec:
    fam = (Family("L", "integer"),)
    rules = (BracketRule("L", "L", (BracketTerm(N - M, "L"),)),)
    return AlgebraSpec("witt", fam, rules)


def _mutant_so_hat():
    """so_hat with [L_m, M_n] = 2n M_{m+n}: breaks Jacobi."""
    from lieverify import catalog

    spec = catalog.builtin("so_hat")
    rules = []
    for rule in spec.rules:
        if {rule.left, rule.right} == {"L", "M"}:
            rules.append(BracketRule(rule.left, rule.right, (BracketTerm(2 * N, "M"),)))
        else:
            rules.append(rule)
    return AlgebraSpec("mutant", spec.families, tuple(rules))


class TestBracket:
    def test_witt_bracket(self):
        spec = _witt()
        x = spec.symbol("L", 2)
        y = spec.symbol("L", -1)
        out = bracket(spec, x, y)
        assert out == Element({BasisSymbol("L", 2): Fraction(-3)})

    def test_bilinearity(self):
        spec = _witt()
        a = BasisSymbol("L", 2)
        b = BasisSymbol("L", 0)
        y = BasisSymbol("L", -2)
        combo = Element({a: Fraction(2), b: Fraction(-1)})
        assert bracket(spec, combo, y) == bracket(spec, a, y).scale(2) - bracket(spec, b, y)

    def test_reversed_orientation_negates(self):
        from lieverify import catalog

        spec = catalog.builtin("so_hat")
        x = spec.symbol("N", 1)
        y = spec.symbol("M", 2)
        assert bracket(spec, x, y) == -bracket(spec, y, x)

    @pytest.mark.parametrize("antisymmetric, sign", [(True, -1), (False, 1)])
    def test_eval_rule_orientation(self, antisymmetric, sign):
        fams = (Family("A", "integer"), Family("B", "integer"))
        rule = BracketRule("A", "B", (BracketTerm(2 * M + N, "A"),))
        spec = AlgebraSpec("ab", fams, (rule,))
        pairs = spec._pair  # the compiled index; scale 1 here
        x, y = spec.symbol("A", 1), spec.symbol("B", 3)
        # left slot: m = 1, n = 3, so 2m + n = 5 at A(4)
        assert eval_rule(pairs, x, y, antisymmetric) == {BasisSymbol("A", 8): 5}
        # reversed pair: variables swap back, the sign flips only for brackets
        assert eval_rule(pairs, y, x, antisymmetric) == {BasisSymbol("A", 8): 5 * sign}
        # a family pair with no rule in the index evaluates to zero
        assert eval_rule(pairs, x, spec.symbol("A", 2), antisymmetric) == {}

    @given(st.data())
    def test_compiled_eval_rule_matches_poly_evaluate(self, data):
        """`eval_rule` on the compiled index is scale * `Poly.evaluate` where
        `_oracle.fires`, for brackets and products, both orientations."""
        rules = tuple(
            BracketRule(left, right, tuple(data.draw(st.lists(rule_terms, min_size=1, max_size=3))))
            for left, right in data.draw(st.lists(
                st.sampled_from(_AB_PAIRS), min_size=1, max_size=3, unique_by=frozenset))
        )
        spec = AlgebraSpec("abc", _ABC, rules)
        rule = data.draw(st.sampled_from(rules))
        x = spec.symbol(rule.left, data.draw(st.integers(-3, 3)) + _ABC_HALF[rule.left])
        y = spec.symbol(rule.right, data.draw(st.integers(-3, 3)) + _ABC_HALF[rule.right])
        m, n = x.twice // 2, y.twice // 2
        for owner, antisymmetric in ((spec, True), (ProductSpec(spec, rules), False)):
            want: dict = {}
            for term in rule.terms:
                if term.delta is None or fires(term.delta, m, n):
                    tf = spec.family(term.target)
                    sym = BasisSymbol(term.target, None if tf.lattice == "central"
                                      else 2 * (m + n + term.offset) + tf.parity)
                    want[sym] = want.get(sym, 0) + owner.scale * term.coeff.evaluate(m, n)
            want = {sym: v for sym, v in want.items() if v}
            got = eval_rule(owner._pair, x, y, antisymmetric)
            assert got == want and all(type(v) is int for v in got.values())
            if x.family != y.family:  # a one-family rule takes its arguments in the order given
                sign = -1 if antisymmetric else 1
                assert eval_rule(owner._pair, y, x, antisymmetric) == {
                    sym: sign * v for sym, v in want.items()}

    def test_off_lattice_delta_terms_are_not_compiled(self):
        rule = BracketRule("A", "B", (BracketTerm(M, "A", delta=DeltaCondition(Fraction(1, 2))),
                                      BracketTerm(N, "A", delta=DeltaCondition(Fraction(-3)))))
        spec = AlgebraSpec("ab", _ABC, (rule,))
        # (monomials, m+n at which it fires, target, doubled index less 2(m+n))
        assert spec._pair[frozenset("AB")][2] == ((((0, 1, 1),), 3, "A", 0),)

    def test_unknown_family_raises(self):
        spec = _witt()
        with pytest.raises(StructureError):
            bracket(spec, Element.basis(BasisSymbol("Q", 0)), spec.symbol("L", 1))

    def test_delta_condition_off_lattice_never_fires(self):
        cond = DeltaCondition(Fraction(1, 2))
        assert not any(fires(cond, m, n) for m in range(-5, 6) for n in range(-5, 6))
        assert fires(DeltaCondition(Fraction(-3)), 1, 2)

    def test_mutant_jacobi_witness(self):
        spec = _mutant_so_hat()
        x = spec.symbol("L", 1)
        y = spec.symbol("L", -1)
        z = spec.symbol("M", 1)
        residual = Element(jacobi_terms(spec, x, y, z))
        assert residual == Element({BasisSymbol("M", 2): Fraction(4)})
        report = check_jacobi(spec, Window(4, 0))
        assert not report.passed
        witnesses = {v.witness for v in report.violations}
        assert (x, y, z) in witnesses or (y, x, z) in witnesses

    def test_skew_detects_symmetric_rule(self):
        fam = (Family("L", "integer"),)
        rules = (BracketRule("L", "L", (BracketTerm(N + M, "L"),)),)
        spec = AlgebraSpec("bad", fam, rules)
        assert not check_skew(spec, Window(4, 0)).passed


class TestWindow:
    def test_invariants(self):
        with pytest.raises(WindowError):
            Window(4, 3)  # 2*ncore > neq
        with pytest.raises(WindowError):
            Window(-1, 0)

    def test_displayed(self):
        w = Window.displayed(8, 3)
        assert (w.n_eq2, w.n_core2) == (16, 6)


class TestSpecValidation:
    def test_duplicate_rule(self):
        fam = (Family("L", "integer"),)
        r = BracketRule("L", "L", (BracketTerm(N - M, "L"),))
        with pytest.raises(StructureError):
            AlgebraSpec("x", fam, (r, r))

    def test_central_cannot_head_rule(self):
        fams = (Family("L", "integer"), Family("C", "central"))
        with pytest.raises(StructureError):
            AlgebraSpec("x", fams, (BracketRule("L", "C", (BracketTerm(ONE, "L"),)),))

    @pytest.mark.parametrize("name", ["m", "n", "delta"])
    def test_reserved_names(self, name):
        with pytest.raises(StructureError):
            AlgebraSpec("x", (Family(name, "integer"),), ())

    def test_symbol_parity(self):
        from lieverify import catalog

        spec = catalog.builtin("so_hat")
        assert spec.symbol("Y", Fraction(1, 2)) == BasisSymbol("Y", 1)
        with pytest.raises(StructureError):
            spec.symbol("Y", 1)
        with pytest.raises(StructureError):
            spec.symbol("L", Fraction(1, 2))
