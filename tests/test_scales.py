"""Every result built from the scaled integer memos is divided back by the right scale.

A spec with bracket scale s and a product with scale s_p meet random
rational rule coefficients (denominators 1..30).  The public `bracket`
(÷ s), `product` (÷ s_p), `jacobi_terms` (÷ s²), `associativity_terms`
(÷ s_p²), `compatibility_terms` (÷ s·s_p) and `derivation_residual` (÷ q·s)
must equal the oracle's `Fraction` values, and so must the residuals of every
violation the six checks record.
"""
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from hypothesis import example, given, settings, strategies as st

from _oracle import (
    associativity_oracle,
    axiom_oracle,
    compatibility_oracle,
    oracle_bracket,
    oracle_product,
    rule_table,
)
from lieverify.core import (
    AlgebraSpec,
    BracketRule,
    BracketTerm,
    DeltaCondition,
    Element,
    Family,
    Window,
    bracket,
    check_grading,
    check_jacobi,
    check_skew,
    jacobi_terms,
)
from lieverify.derivations import derivation_residual
from lieverify.poly import M, N, ONE
from lieverify.tpa import (
    ProductSpec,
    associativity_terms,
    check_tpa,
    compatibility_terms,
    product,
)

F = Fraction
coefficients = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 30))
FAMILIES = (Family("A", "integer"), Family("B", "half"), Family("C", "central"))
# indices into the window symbols A(-1), A(0), A(1), B(-1/2), B(1/2), C
picks = st.lists(st.integers(0, 5), min_size=3, max_size=3)


def _specs(c, p):
    """A two-family algebra with a central C, and a product on it; neither
    needs to satisfy any axiom."""
    rules = (
        BracketRule("A", "A", (BracketTerm(c[0] * (N - M), "A"),
                               BracketTerm(c[1] * M * M, "C", 0, DeltaCondition(F(0))))),
        BracketRule("A", "B", (BracketTerm(c[2] * N + c[3] * M, "B"),)),
        BracketRule("B", "B", (BracketTerm(c[4] * ONE, "A", 2),)),  # off-degree
    )
    spec = AlgebraSpec("scaled", FAMILIES, rules)
    products = (
        BracketRule("A", "A", (BracketTerm(p[0] * ONE, "B"), BracketTerm(p[1] * M, "A"))),
        BracketRule("A", "B", (BracketTerm(p[2] * ONE, "A", 1),)),
    )
    return spec, ProductSpec(spec, products)


def _violations(report):
    return [(v.witness, v.residual) for v in report.violations]


def _expected(tuples, residual):
    return [(t, r) for t in tuples if (r := residual(*t))]


@settings(max_examples=40, deadline=None)
@given(st.lists(coefficients, min_size=5, max_size=5),
       st.lists(coefficients, min_size=3, max_size=3),
       picks, st.sampled_from([F(1, 2), F(1), F(2, 3)]))
@example([F(1, 7)] * 5, [F(3, 10)] * 3, [0, 3, 4], F(1, 2))  # s = 7, s_p = 10
def test_public_results_and_violations_divide_by_their_scale(c, p, pick, delta):
    spec, prod = _specs(c, p)
    symbols = list(spec.basis_symbols(2))
    x, y, z = (symbols[i] for i in pick)
    br, mul = oracle_bracket(spec), oracle_product(prod)

    assert bracket(spec, x, y) == br(x, y)
    assert product(prod, x, y) == mul(x, y)
    jacobi = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
    assert Element(jacobi_terms(spec, x, y, z)) == jacobi
    assert Element(associativity_terms(prod, x, y, z)) == associativity_oracle(prod, x, y, z)
    assert Element(compatibility_terms(prod, x, y, z)) == compatibility_oracle(prod, x, y, z)
    phi = lambda s: mul(z, s)
    want = phi(br(x, y)) - (br(phi(x), y) + br(x, phi(y))).scale(delta)
    assert derivation_residual(spec, phi, x, y, delta) == want

    axioms = axiom_oracle(spec, 2)
    for check in (check_skew, check_grading, check_jacobi):
        report = check(spec, Window(2, 0))
        assert (report.pairs_checked, _violations(report)) == axioms[report.check]
    raw = rule_table(spec, prod.rules, antisymmetric=False)  # each rule as written
    commutativity, associativity, compatibility = map(_violations, check_tpa(prod, 2))
    assert commutativity == _expected(combinations_with_replacement(symbols, 2),
                                      lambda a, b: raw(a, b) - raw(b, a))
    assert associativity == _expected(combinations_with_replacement(symbols, 3),
                                      lambda *t: associativity_oracle(prod, *t))
    triples = ((a, b, d) for a, b in combinations(symbols, 2) for d in symbols)
    assert compatibility == _expected(triples, lambda *t: compatibility_oracle(prod, *t))
