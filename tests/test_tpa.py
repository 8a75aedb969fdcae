"""Transposed Poisson structures: theorem products, checks, serialization."""
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracle import (
    associativity_oracle, check_left_mult, compatibility_oracle, oracle_bracket, oracle_product,
)
from test_axioms import _broken, assert_skipped_terms_vanish, composed_calls, perturbations, rescaled
from lieverify import catalog, core, derivations, tpa
from lieverify.core import (
    BasisSymbol,
    BracketRule,
    BracketTerm,
    Element,
    Report,
    StructureError,
    Violation,
    bracket,
    bracket_symbols,
    jacobi_terms,
)
from lieverify.derivations import derivation_residual
from lieverify.poly import Poly
from lieverify.tpa import (
    ProductSpec,
    associativity_terms,
    check_associative,
    check_compatibility,
    check_tpa,
    compatibility_terms,
    parse_products,
    product,
    product_symbols,
    render_products,
    theorem_product,
)

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"


def _compatibility(prod, x, y, z):
    return Element(compatibility_terms(prod, x, y, z))


@pytest.fixture(scope="module")
def lt1():
    return catalog.builtin("Ltilde1", {"lambda": F(1), "mu": F(1, 4)})


class TestTheoremProduct:
    def test_empty_support_is_zero_product(self, lt1):
        prod = theorem_product(lt1)
        assert not prod.rules
        x = lt1.symbol("L", 0)
        assert product(prod, x, x) == Element.zero()

    def test_single_alpha(self, lt1):
        prod = theorem_product(lt1, alpha={-1: F(3, 2)})
        out = product(prod, lt1.symbol("L", 2), lt1.symbol("L", 1))
        assert out == Element({BasisSymbol("M", 4): F(3, 2)})  # M_{m+n-1}

    def test_beta_couples_l_and_y(self, lt1):
        prod = theorem_product(lt1, beta={0: F(1)})
        ll = product(prod, lt1.symbol("L", 1), lt1.symbol("L", 0))
        assert ll == Element({BasisSymbol("Y", 3): F(1)})  # Y_{m+n+1/2}
        ly = product(prod, lt1.symbol("L", 1), lt1.symbol("Y", F(1, 2)))
        assert ly == Element({BasisSymbol("M", 4): F(1)})  # M_{m+n+1}

    def test_requires_lambda_one(self):
        other = catalog.builtin("Ltilde1", {"lambda": F(2), "mu": F(1, 4)})
        with pytest.raises(StructureError):
            theorem_product(other, alpha={0: F(1)})

    def test_associativity_identity_structure(self, lt1):
        # (x*y)*z = sum beta_t beta_s M_{m+n+k+t+s+1}; alpha never appears
        prod = theorem_product(lt1, alpha={0: F(7)}, beta={1: F(2)})
        x, y, z = (lt1.symbol("L", i) for i in (0, 1, 2))
        lhs = product(prod, product(prod, x, y), z)
        # (beta_1)^2 = 4 on M at displayed index 0+1+2 + (t+s+1) = 6
        assert lhs == Element({BasisSymbol("M", 12): F(4)})
        assert lhs == product(prod, x, product(prod, y, z))


class TestChecks:
    def test_random_theorem_products_pass(self, lt1):
        rng = random.Random(7)
        alpha = {t: F(rng.randint(-5, 5), rng.randint(1, 5)) for t in (-1, 0, 2)}
        beta = {t: F(rng.randint(-5, 5), rng.randint(1, 5)) for t in (-2, 1)}
        prod = theorem_product(lt1, alpha, beta)
        reports = check_tpa(prod, 6)
        assert [r.check for r in reports] == [
            "commutativity",
            "associativity",
            "compatibility",
        ]
        assert all(r.passed for r in reports)

    def test_negative_control_so_hat(self):
        so_hat = catalog.builtin("so_hat")
        bad = ProductSpec(
            so_hat, (BracketRule("L", "L", (BracketTerm(Poly.const(1), "M"),)),)
        )
        reports = check_tpa(bad, 6)
        comm, assoc, compat = reports
        assert comm.passed and assoc.passed
        assert not compat.passed
        # residual is (n-m) M_{m+n+k}
        x, y, z = (so_hat.symbol("L", i) for i in (1, -1, 2))
        res = _compatibility(bad, x, y, z)
        assert res == Element({BasisSymbol("M", 4): F(-2)})

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_compatibility_residual_matches_oracle_theorem(self, lt1, seed):
        rng = random.Random(seed)
        support = lambda: {t: F(rng.randint(-5, 5), rng.randint(1, 5)) for t in (-1, 0, 1)}
        prod = theorem_product(lt1, support(), support())
        assert self._nonzero_matching_oracle(prod, 4) == 0  # the law holds

    def test_compatibility_residual_matches_oracle_negative(self):
        so_hat = catalog.builtin("so_hat")
        negative = ProductSpec(
            so_hat, (BracketRule("L", "L", (BracketTerm(Poly.const(1), "M"),)),)
        )
        golden = Path(__file__).resolve().parent / "golden" / "broken_product.liealg"
        for prod in (negative, parse_products(golden.read_text(), so_hat)):
            assert self._nonzero_matching_oracle(prod, 4) > 0

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_associativity_residual_matches_oracle_theorem(self, lt1, seed):
        rng = random.Random(seed)
        support = lambda: {t: F(rng.randint(-5, 5), rng.randint(1, 5)) for t in (-1, 0, 1)}
        prod = theorem_product(lt1, support(), support())
        assert self._nonzero_matching_oracle(prod, 4, self._associativity, associativity_oracle) == 0

    def test_associativity_residual_matches_oracle_negative(self):
        so_hat = catalog.builtin("so_hat")
        golden = Path(__file__).resolve().parent / "golden" / "broken_assoc.liealg"
        prod = parse_products(golden.read_text(), so_hat)
        assert self._nonzero_matching_oracle(prod, 4, self._associativity, associativity_oracle) > 0

    @staticmethod
    def _associativity(prod, x, y, z):
        return Element(associativity_terms(prod, x, y, z))

    @staticmethod
    def _nonzero_matching_oracle(prod, bound2, residual=_compatibility,
                                 oracle=compatibility_oracle):
        """Assert agreement on every ordered triple; count the nonzero residuals."""
        nonzero = 0
        symbols = list(prod.algebra.basis_symbols(bound2))
        for x, y, z in itertools.product(symbols, repeat=3):
            res = residual(prod, x, y, z)
            assert res == oracle(prod, x, y, z), (x, y, z)
            nonzero += bool(res)
        return nonzero

    def test_asymmetric_product_rule_caught(self, lt1):
        bad = ProductSpec(
            lt1, (BracketRule("L", "L", (BracketTerm(Poly.var("n"), "M"),)),)
        )
        assert not check_tpa(bad, 4)[0].passed


def _golden_product(name):
    """A product from tests/golden on a freshly built so_hat: both memos start cold."""
    return parse_products((GOLDEN / name).read_text(), catalog.builtin("so_hat"))


def _cold_theorem_product():
    lt1 = catalog.builtin("Ltilde1", {"lambda": F(1), "mu": F(1, 4)})
    return theorem_product(lt1, {-1: F(3, 2), 2: F(1, 3)}, {0: F(-2, 5), 1: F(4)})


@pytest.mark.parametrize("make", [_cold_theorem_product,
                                  lambda: _golden_product("broken_product.liealg")])
def test_tpa_checks_fill_the_memos_only_on_misses(make, monkeypatch):
    """Associativity and compatibility read both memos directly: `bracket_symbols` and
    `product_symbols` are entered only for pairs not yet memoized, and one product
    evaluation fills both orientations of its pair."""
    prod = make()
    entered = []

    def spy(fill):
        def wrapper(owner, x, y):
            entered.append((fill, frozenset((x, y)), (x, y) in owner._cache))
            return fill(owner, x, y)
        return wrapper

    monkeypatch.setattr(core, "bracket_symbols", spy(bracket_symbols))
    monkeypatch.setattr(derivations, "bracket_symbols", spy(bracket_symbols))
    monkeypatch.setattr(tpa, "product_symbols", spy(product_symbols))
    check_associative(prod, 4)
    check_compatibility(prod, 4)
    assert {fill for fill, _, _ in entered} == {bracket_symbols, product_symbols}
    assert not any(hit for _, _, hit in entered)
    products = [pair for fill, pair, _ in entered if fill is product_symbols]
    assert len(products) == len(set(products))
    assert all(prod._cache[y, x] is terms for (x, y), terms in prod._cache.items())
    assert () in prod._cache.values() and () in prod.algebra._cache.values()


def _oracle_report(check, message, tuples, oracle, prod):
    """The report a check must give, from the oracle's residual of every tuple."""
    tuples = list(tuples)
    violations = [Violation(t, r, message) for t in tuples if (r := oracle(prod, *t))]
    return Report(check, tuple(violations), len(tuples))


def _assert_reports_match_oracle(prod, bound2):
    symbols = list(prod.algebra.basis_symbols(bound2))
    assert check_associative(prod, bound2) == _oracle_report(
        "associativity", "associativity broken",
        itertools.combinations_with_replacement(symbols, 3), associativity_oracle, prod)
    assert check_compatibility(prod, bound2) == _oracle_report(
        "compatibility", "compatibility broken",
        ((x, y, z) for x, y in itertools.combinations(symbols, 2) for z in symbols),
        compatibility_oracle, prod)


@pytest.mark.parametrize("neq", [2, 4])
@pytest.mark.parametrize("name", ["broken_product.liealg", "broken_assoc.liealg"])
def test_golden_product_reports_match_oracle(name, neq):
    """Counts, witnesses, residuals and their order, against the oracle."""
    _assert_reports_match_oracle(_golden_product(name), 2 * neq)


def test_compatibility_on_a_skew_broken_bracket_is_formed_as_written():
    """broken_so_hat's bracket is not antisymmetric, so each term of the law must be formed
    as written: with a product L*N at neq 3 the report equals the oracle's, 1 765 violations,
    and reading [x, z*y] as -[z*y, x] would change the residual of 17 of them."""
    prod = ProductSpec(_broken(), parse_products("product L(m) N(n) = (1)*N(m+n)", _broken()).rules)
    _assert_reports_match_oracle(prod, 6)
    violations = check_compatibility(prod, 6).violations
    br, mul = oracle_bracket(prod.algebra), oracle_product(prod)
    as_if_skew = lambda x, y, z: mul(z, br(x, y)).scale(2) - br(mul(z, x), y) + br(mul(z, y), x)
    changed = [v for v in violations if v.residual != as_if_skew(*v.witness)]
    assert (len(violations), len(changed)) == (1765, 17)


PRODUCTS = {
    "theorem": _cold_theorem_product,
    "broken_product": lambda: _golden_product("broken_product.liealg"),
    "broken_assoc": lambda: _golden_product("broken_assoc.liealg"),
}


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from(sorted(PRODUCTS)), **perturbations)
@example(base="broken_product", rule=0, term=0, factor=F(1), shift=0, neq=2)
@example(base="broken_assoc", rule=0, term=0, factor=F(1), shift=0, neq=2)
def test_associativity_with_a_perturbed_rule_matches_oracle(base, rule, term, factor, shift, neq):
    """With one term of one product rule rescaled and moved, `check_associative`'s one
    `composed` pass gives the oracle's report, violations in the same order.  Left as they
    are, both golden products at neq 2 give their golden associativity report."""
    prod = PRODUCTS[base]()
    prod = ProductSpec(prod.algebra, rescaled(prod.rules, rule, term, factor, shift))
    symbols = list(prod.algebra.basis_symbols(2 * neq))
    report = check_associative(prod, 2 * neq)
    assert report == _oracle_report(
        "associativity", "associativity broken",
        itertools.combinations_with_replacement(symbols, 3), associativity_oracle, prod)
    if base != "theorem" and prod.rules == PRODUCTS[base]().rules and neq == 2:
        golden = json.loads((GOLDEN / f"check_tpa_{base}.json").read_text())
        assert report.as_dict() == golden["checks"][1]
        assert len(report.violations) == {"broken_product": 0, "broken_assoc": 16}[base]


@pytest.mark.parametrize("table", ["bracket", "product"])
def test_families_are_looked_up_only_when_no_rule_gives_a_term(table):
    """`bracket_symbols` and `product_symbols` look up the families only for an empty
    result.  A family outside the algebra has no rule, so it still raises in either slot,
    beside a family with rules, and memoizes nothing; a central pair, a pair with no rule
    and a pair whose rule gives zero memoize () without raising."""
    prod = _cold_theorem_product()
    owner, fill = (prod.algebra, bracket_symbols) if table == "bracket" else (prod, product_symbols)
    lt1 = prod.algebra
    x = lt1.symbol("L", 1)  # L has rules with L and Y in both tables
    for q in (BasisSymbol("Q", 0), BasisSymbol("Q", None)):
        for a, b in ((q, x), (x, q)):
            with pytest.raises(StructureError):
                fill(owner, a, b)
            assert (a, b) not in owner._cache
    c, m = lt1.symbol("C_L"), lt1.symbol("M", 2)
    empty = [(c, c), (c, x), (x, c), (m, lt1.symbol("M", 1))]  # M has no rule with M
    empty += [(x, x)] if table == "bracket" else [(lt1.symbol("Y", F(1, 2)), m)]
    for a, b in empty:
        assert fill(owner, a, b) == () and owner._cache[a, b] == (), (a, b)


supports = st.dictionaries(
    st.integers(-3, 3),
    st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
    min_size=2, max_size=2,
)


@settings(max_examples=10, deadline=None)
@given(supports, supports)
def test_theorem_product_reports_match_oracle(lt1, alpha, beta):
    _assert_reports_match_oracle(theorem_product(lt1, alpha, beta), 4)


@pytest.mark.parametrize("rule", [
    "product M(m) Y(n) = (1)*Y(m+n)",
    "product M(m) Y(n) = (m+1)*L(m+n)",  # [x, z*y] alone composes on (M, Y, M)
    "product M(m) M(n) = (n+m)*M(m+n) + (2)*delta(m+n)*C_L",
])
def test_a_rule_on_a_new_family_pair_matches_oracle(lt1, rule):
    """The theorem product has no M*Y and no M*M rule; one added makes new family
    triples live for associativity and compatibility, and both reports still
    equal the oracle's, which evaluates every triple."""
    prod = ProductSpec(lt1, _cold_theorem_product().rules + parse_products(rule, lt1).rules)
    _assert_reports_match_oracle(prod, 8)
    assert not all(r.passed for r in check_tpa(prod, 8))


def test_tpa_checks_evaluate_only_family_live_triples():
    """On a theorem product at neq 4, 165 of 3 654 associativity triples and 1 260 of
    9 477 compatibility triples can compose to a nonzero term on their families;
    only those reach the kernel, and of the compatibility triples' 3 780 terms all do."""
    reports, calls = composed_calls(lambda: check_tpa(_cold_theorem_product(), 8))
    assert [(r.check, r.passed, r.pairs_checked) for r in reports] == [
        ("commutativity", True, 378), ("associativity", True, 3654),
        ("compatibility", True, 9477)]
    seen = dict(zip(("associativity", "compatibility"), calls, strict=True))
    assert {check: (len(c), len({t for t, _ in c}), sum(len(p) for _, p in c))
            for check, c in seen.items()} == {
        "associativity": (165, 165, 330), "compatibility": (1260, 1260, 3780)}


@pytest.mark.parametrize("make", [
    _cold_theorem_product,
    lambda: _golden_product("broken_product.liealg"),
    lambda: _golden_product("broken_assoc.liealg"),
], ids=["theorem", "broken_product", "broken_assoc"])
def test_every_term_of_a_skipped_associativity_triple_is_zero(make):
    prod = make()
    assert_skipped_terms_vanish(
        core.placed(tpa._associator, core.table(prod, product_symbols)),
        lambda: check_associative(prod, 8),
        itertools.combinations_with_replacement(prod.algebra.basis_symbols(8), 3))


def test_products_of_unknown_symbols_raise():
    """A symbol outside the algebra raises in every product and residual, also with
    warm memos, as it does in `bracket`."""
    prod = _cold_theorem_product()
    check_tpa(prod, 8)
    q, x = BasisSymbol("Q", 0), prod.algebra.symbol("L", 1)
    for a, b in ((q, x), (x, q)):
        for op in (product, lambda p, a, b: bracket(p.algebra, a, b)):
            with pytest.raises(StructureError):
                op(prod, a, b)
    for triple in ((q, x, x), (x, q, x), (x, x, q)):
        for terms in (associativity_terms, compatibility_terms,
                      lambda p, *t: jacobi_terms(p.algebra, *t)):
            with pytest.raises(StructureError):
                terms(prod, *triple)
    assert not any(q in pair for pair in prod._cache)


class TestLeftMultiplication:
    def test_values_match_theorem(self, lt1):
        prod = theorem_product(lt1, alpha={0: F(1)})
        z = lt1.symbol("L", 0)
        assert product(prod, z, lt1.symbol("L", 2)) == Element({BasisSymbol("M", 4): F(1)})
        assert not product(prod, z, lt1.symbol("M", 0))  # M * X = 0
        # an Element z acts term by term
        prod = theorem_product(lt1, alpha={0: F(1)}, beta={1: F(-2)})
        y = lt1.symbol("Y", F(1, 2))
        combo = Element({z: F(3), y: F(-1, 2)})
        for s in lt1.basis_symbols(4):
            expected = product(prod, z, s).scale(3) - product(prod, y, s).scale(F(1, 2))
            assert product(prod, combo, s) == expected, s

    def test_central_z_is_zero_map(self, lt1):
        prod = theorem_product(lt1, alpha={0: F(1)}, beta={0: F(1)})
        central = BasisSymbol("C_L", None)
        assert not any(product(prod, central, s) for s in lt1.basis_symbols(4))

    def test_closure(self, lt1):
        prod = theorem_product(lt1, alpha={1: F(2)}, beta={-1: F(1, 3)})
        for z in lt1.basis_symbols(4):
            rep = check_left_mult(prod, z, 6)
            assert rep.passed, (z, rep.violations[:1])

    def test_failure_reports_count_and_message(self):
        # the so_hat negative control L*L = M: left multiplication by L(1)
        # breaks the 1/2-derivation identity on 35 of the 231 pairs
        so_hat = catalog.builtin("so_hat")
        bad = ProductSpec(
            so_hat, (BracketRule("L", "L", (BracketTerm(Poly.const(1), "M"),)),)
        )
        rep = check_left_mult(bad, so_hat.symbol("L", 1), 4)
        assert (rep.check, rep.pairs_checked, len(rep.violations)) == (
            "left-multiplication", 231, 35,
        )
        assert {v.message for v in rep.violations} == {
            "left multiplication is not a 1/2-derivation"
        }
        first = rep.violations[0]
        assert first.witness == (so_hat.symbol("L", -2), so_hat.symbol("L", -1))
        assert first.residual == Element({so_hat.symbol("M", -2): F(1, 2)})
        # z = 2*L(1) as an Element: the same witnesses, twice the residuals
        doubled = check_left_mult(bad, Element({so_hat.symbol("L", 1): F(2)}), 4)
        assert [v.witness for v in doubled.violations] == [v.witness for v in rep.violations]
        assert [v.residual for v in doubled.violations] == [
            v.residual.scale(2) for v in rep.violations
        ]

    def test_closure_via_residual_directly(self, lt1):
        prod = theorem_product(lt1, beta={0: F(1)})
        z = lt1.symbol("L", 1)
        phi = lambda s: product(prod, Element.basis(z), Element.basis(s))
        x = lt1.symbol("L", -1)
        y = lt1.symbol("Y", F(1, 2))
        assert not derivation_residual(lt1, phi, x, y, F(1, 2))


class TestSerialization:
    def test_roundtrip(self, lt1):
        prod = theorem_product(lt1, alpha={0: F(1), -1: F(2, 3)}, beta={1: F(-1)})
        text = render_products(prod)
        assert text.startswith("product L(m) L(n) = ")
        back = parse_products(text, lt1)
        assert render_products(back) == text
        x, y = lt1.symbol("L", 2), lt1.symbol("L", -1)
        assert product(back, x, y) == product(prod, x, y)

    def test_bracket_statement_rejected(self, lt1):
        with pytest.raises(Exception):
            parse_products("bracket L(m) L(n) = 0\n", lt1)

    def test_product_orientation_is_symmetric(self, lt1):
        text = "product Y(m) L(n) = (1)*M(m+n+1)\n"
        prod = parse_products(text, lt1)
        a = product(prod, lt1.symbol("L", 0), lt1.symbol("Y", F(1, 2)))
        b = product(prod, lt1.symbol("Y", F(1, 2)), lt1.symbol("L", 0))
        assert a == b != Element.zero()
