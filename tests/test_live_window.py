"""The checks form only the window tuples whose families can give a nonzero term,
and count the rest in closed form.

`live_window` must list exactly the tuples that itertools lists, less those whose
family tuple is not live, in the same order.  On random windows (neq 0..3) with
random rules added on family pairs that had none, for the bracket and for the
product, every report must equal the oracle's, which evaluates every tuple:
`pairs_checked`, the witnesses, the residuals and their order.  At neq 0 the half
family Y has no symbols, so its block is empty.
"""
import gc
import itertools
from fractions import Fraction
from math import comb
from pathlib import Path

from hypothesis import given, settings, strategies as st

from _oracle import axiom_oracle, reference_plans, tpa_oracle
from lieverify import catalog, tpa
from lieverify.core import (
    CENTRAL,
    AlgebraSpec,
    BasisSymbol,
    BracketRule,
    BracketTerm,
    DeltaCondition,
    Window,
    _jacobi_rotations,
    bracket_symbols,
    check_grading,
    check_jacobi,
    check_skew,
    composed_plans,
    live_window,
    placed,
    table,
)
from lieverify.derivations import residual_placements
from lieverify.dsl import parse_algebra
from lieverify.poly import M, N, ONE
from lieverify.tpa import (
    ProductSpec,
    check_associative,
    check_commutative,
    check_compatibility,
    parse_products,
    product_symbols,
    theorem_product,
)

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"

# each `after` the checks use, with the itertools listing it replaces
SHAPES = {
    (None, 0): lambda s: itertools.combinations_with_replacement(s, 2),
    (None, 1): lambda s: itertools.combinations(s, 2),
    (None, 1, 1): lambda s: itertools.combinations(s, 3),
    (None, 0, 0): lambda s: itertools.combinations_with_replacement(s, 3),
    (None, 1, None): lambda s: ((x, y, z) for x, y in itertools.combinations(s, 2) for z in s),
}


def probe(families: int) -> AlgebraSpec:
    """L and families F1.. F(families-1), each with the rule [L(m), Fk(n)] = n*Fk(m+n), and
    [F1, F2] by a rule whose one term has an off-lattice delta."""
    lines = ["algebra probe", "family L integer degree-offset 0"]
    lines += [f"family F{k} integer degree-offset 0" for k in range(1, families)]
    lines += [f"bracket L(m) F{k}(n) = (n)*F{k}(m+n)" for k in range(1, families)]
    lines += ["bracket F1(m) F2(n) = delta(m+n+1/2)*L(m+n)"]  # never fires: a rule with no term
    return parse_algebra("\n".join(lines) + "\n")


def test_plans_from_the_rule_graph_equal_the_enumeration():
    """`composed_plans` walks outer rule -> target -> inner rule; it gives the plans of the
    enumeration of every family triple, placements in order: Jacobi on every representative
    and on the 12-family probe, associativity and compatibility of a theorem product."""
    jacobi = lambda spec: placed(_jacobi_rotations, table(spec, bracket_symbols))
    specs = [catalog.builtin(*rep) for rep in catalog.REPRESENTATIVES] + [probe(12)]
    lt1 = catalog.builtin("Ltilde1", {"lambda": F(1), "mu": F(1, 4)})
    prod = theorem_product(lt1, {-1: F(3, 2), 2: F(1)}, {0: F(1)})
    products = table(prod, product_symbols)
    cases = [jacobi(spec) for spec in specs] + [
        placed(tpa._associator, products), residual_placements(lt1, products, 1, 2)]
    for placements in cases:
        plans = composed_plans(placements)
        assert plans and plans == reference_plans(placements)
    # on the probe a term composes only as [[L, Fk], L] or [[Fk, L], L]: two L and one Fk
    assert len(composed_plans(cases[len(specs) - 1])) == 3 * 11


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_live_window_lists_the_live_tuples_in_itertools_order(data):
    sizes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    symbols = [BasisSymbol(f"F{k}", i) for k, size in enumerate(sizes) for i in range(size)]
    after = data.draw(st.sampled_from(sorted(SHAPES, key=str)))
    families = [f"F{k}" for k in range(len(sizes))]
    keys = list(itertools.product(families, repeat=len(after)))
    live = {f: k for k, f in enumerate(data.draw(st.lists(st.sampled_from(keys), unique=True)))}
    want = [(t, live[f]) for t in SHAPES[after](symbols)
            if (f := tuple(s.family for s in t)) in live]
    assert list(live_window(symbols, live, after)) == want


COEFFS = (ONE, M, N, M - N, M * N + ONE)


@st.composite
def new_rules(draw, spec, taken):
    """One or two rules on unordered pairs of non-central families that `taken` has no
    rule for, with one or two random terms each."""
    names = [f.name for f in spec.families if f.lattice != CENTRAL]
    ruled = {frozenset((r.left, r.right)) for r in taken}
    free = [p for p in itertools.combinations_with_replacement(names, 2)
            if frozenset(p) not in ruled]
    term = st.builds(
        lambda c, p, q, target, offset, shift: BracketTerm(
            c * F(p, q), target, offset, None if shift is None else DeltaCondition(F(shift))),
        st.sampled_from(COEFFS), st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 3),
        st.sampled_from([f.name for f in spec.families]), st.integers(-1, 1),
        st.none() | st.integers(-1, 1))
    rules = []
    for a, b in draw(st.lists(st.sampled_from(free), min_size=1, max_size=2, unique=True)):
        if draw(st.booleans()):
            a, b = b, a
        rules.append(BracketRule(a, b, tuple(draw(st.lists(term, min_size=1, max_size=2)))))
    return tuple(rules)


BASES = {
    "Ltilde1+theorem": lambda: theorem_product(
        catalog.builtin("Ltilde1", {"lambda": F(1), "mu": F(1, 4)}), {-1: F(3, 2)}, {0: F(-2, 5)}),
    "so_hat+broken_product": lambda: parse_products(
        (GOLDEN / "broken_product.liealg").read_text(), catalog.builtin("so_hat")),
}


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_reports_match_oracle_with_rules_on_new_family_pairs(data):
    base = BASES[data.draw(st.sampled_from(sorted(BASES)))]()
    spec = base.algebra
    brackets = data.draw(new_rules(spec, spec.rules))
    products = data.draw(new_rules(spec, base.rules))
    bound2 = 2 * data.draw(st.integers(0, 3))

    def build():  # fresh specs: the oracle and the checks share no memo
        algebra = AlgebraSpec(spec.name, spec.families, spec.rules + brackets, spec.params)
        return ProductSpec(algebra, base.rules + products)

    expected = {**axiom_oracle(build().algebra, bound2), **tpa_oracle(build(), bound2)}
    prod = build()
    window = Window(bound2, 0)
    reports = [check(prod.algebra, window) for check in (check_skew, check_grading, check_jacobi)]
    reports += [check(prod, bound2)
                for check in (check_commutative, check_associative, check_compatibility)]
    n = len(list(prod.algebra.basis_symbols(bound2)))
    m = len(list(prod.algebra.basis_symbols(bound2, include_central=False)))
    closed = {"skew": comb(n + 1, 2), "grading": comb(m + 1, 2), "jacobi": comb(n, 3),
              "commutativity": comb(n + 1, 2), "associativity": comb(n + 2, 3),
              "compatibility": comb(n, 2) * n}
    for report in reports:
        found = [(v.witness, v.residual) for v in report.violations]
        assert (report.pairs_checked, found) == expected[report.check], report.check
        assert report.pairs_checked == closed[report.check], report.check


def test_checks_leave_no_reference_cycles():
    """Nothing a check builds outlives it: a cycle would hold the spec and its memo until
    the collector ran, which a closed loop of CLI operations shows as peak memory."""
    gc.collect()
    gc.disable()
    try:
        prod = BASES["Ltilde1+theorem"]()
        for check in (check_skew, check_grading, check_jacobi):
            check(prod.algebra, Window(8, 0))
        for check in (check_commutative, check_associative, check_compatibility):
            check(prod, 8)
        del prod
        assert gc.collect() == 0
    finally:
        gc.enable()
