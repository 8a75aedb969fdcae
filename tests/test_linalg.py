"""Exact linear algebra: sparse RREF nullspace vs the dense oracle."""
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lieverify import linalg

from _oracle import dense_nullspace, dense_rref, modular_rref

F = Fraction


def _to_sparse(dense):
    return [{j: v for j, v in enumerate(row) if v} for row in dense if any(row)]


def _check_kernel(dense, vec):
    for row in dense:
        assert sum(row[c] * val for c, val in vec.items()) == 0


def test_axpy_mutates_and_returns_acc():
    acc = {0: F(1), 1: F(2)}
    out = linalg.axpy(acc, {1: F(1), 2: F(3)}, F(1, 2))
    assert out is acc
    assert acc == {0: F(1), 1: F(5, 2), 2: F(3, 2)}


def test_axpy_pops_cancelling_entry():
    acc = {0: F(1), 1: F(2)}
    linalg.axpy(acc, {1: F(1)}, -2)
    assert acc == {0: F(1)}
    linalg.axpy(acc, {0: F(-1)})
    assert acc == {}


def test_simple_kernel():
    # x + y = 0, y + z = 0  ->  kernel spanned by (1, -1, 1)
    rows = [{0: F(1), 1: F(1)}, {1: F(1), 2: F(1)}]
    vecs = linalg.sparse_nullspace(rows, 3)
    assert len(vecs) == 1
    v = vecs[0]
    assert v[2] == 1 and v[1] == -1 and v[0] == 1


def test_rank_and_duplicates():
    rows = [{0: F(2), 1: F(4)}, {0: F(1), 1: F(2)}, {1: F(1)}]
    assert len(linalg.rref(rows)) == 2


def test_pivot_columns_fully_cleared():
    """Regression: a row whose leading column is free must still have its
    later pivot columns eliminated."""
    rows = [
        {1: F(1), 2: F(1)},          # pivot at 1
        {0: F(1), 1: F(1)},          # leading col 0 free so far, col 1 is a pivot
        {2: F(1), 3: F(1)},
    ]
    pivots = linalg.rref(rows)
    for pcol, prow in pivots.items():
        for other in pivots:
            if other != pcol:
                assert other not in prow, (pcol, prow)
    vecs = linalg.sparse_nullspace(rows, 4)
    dense = [[r.get(c, F(0)) for c in range(4)] for r in rows]
    for v in vecs:
        _check_kernel(dense, v)


def test_dense_nullspace_matches_sparse_on_random_systems():
    rng = random.Random(20240817)
    for _ in range(25):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 10)
        dense = [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.4 else F(0)
             for _ in range(ncols)]
            for _ in range(nrows)
        ]
        sparse = _to_sparse(dense)
        sv = linalg.sparse_nullspace(sparse, ncols)
        dv = dense_nullspace(dense, ncols)
        assert len(sv) == len(dv)
        for v in sv:
            _check_kernel(dense, v)
        for v in dv:
            for row in dense:
                assert sum(a * b for a, b in zip(row, v)) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=5, max_size=5),
        min_size=1,
        max_size=8,
    )
)
def test_rank_nullity(matrix):
    dense = [[F(v) for v in row] for row in matrix]
    sparse = _to_sparse(dense)
    vecs = linalg.sparse_nullspace(sparse, 5)
    assert len(linalg.rref(sparse)) + len(vecs) == 5


def _dense_rows(rows, ncols):
    return [[row.get(c, F(0)) for c in range(ncols)] for row in rows]


def _assert_fully_reduced(pivots):
    for pcol, prow in pivots.items():
        assert min(prow) == pcol and prow[pcol] == 1
        assert all(v for v in prow.values())
        assert not any(other in prow for other in pivots if other != pcol)


_NONZERO = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
_NONZERO_INT = st.integers(-6, 6).filter(bool)


@st.composite
def _singleton_chain_systems(draw, values=_NONZERO):
    """A chain {c0}, {c0,c1}, {c1,c2}, ... mixed with random rows, shuffled."""
    ncols = draw(st.integers(2, 8))
    chain = draw(st.permutations(range(ncols)))[: draw(st.integers(1, ncols))]
    rows = [{chain[0]: draw(values)}]
    rows += [{a: draw(values), b: draw(values)} for a, b in zip(chain, chain[1:])]
    rows += draw(
        st.lists(
            st.dictionaries(st.integers(0, ncols - 1), values, min_size=1, max_size=4),
            max_size=5,
        )
    )
    return draw(st.permutations(rows)), ncols, set(chain)


@settings(max_examples=80, deadline=None)
@given(_singleton_chain_systems())
def test_peeled_rref_matches_dense_oracle(system):
    """Rows that a singleton peel would strike one column at a time, against the exact
    RREF: every column of the singleton chain is a unit row of RREF(rows), so it is 0
    on the whole kernel, and the sparse kernel equals the dense oracle's."""
    rows, ncols, chain = system
    pivots = linalg.rref(rows)
    for col in chain:
        assert pivots[col] == {col: F(1)}
    _assert_fully_reduced(pivots)
    sparse = [
        [vec.get(c, F(0)) for c in range(ncols)] for vec in linalg.sparse_nullspace(rows, ncols)
    ]
    assert sparse == dense_nullspace(_dense_rows(rows, ncols), ncols)


def test_singleton_and_bidiagonal_rows_kill_every_column():
    ncols = 7
    rows = [{c: F(c + 1), c + 1: F(-2, c + 1)} for c in range(ncols - 1)]
    rows.append({ncols - 1: F(3)})  # the singleton comes last
    assert linalg.rref(rows) == {c: {c: F(1)} for c in range(ncols)}
    assert len(linalg.rref(rows)) == ncols
    assert linalg.sparse_nullspace(rows, ncols) == []


@settings(max_examples=80, deadline=None)
@given(_singleton_chain_systems(_NONZERO_INT))
@example(([{0: 2}, {0: 3, 1: -1}, {2: 4, 3: 6}, {1: 5, 2: -2, 3: 3}], 4, {0, 1}))
@example(([{0: 2, 1: 4}, {1: 3, 2: -1}, {0: 1, 2: 5}], 3, set()))
def test_integer_rows_match_fraction_rows(system):
    """Integer rows (as `assemble_system` builds them) reduce like Fractions.

    The chain rows die in the peel.  The first example also keeps two rows
    with live columns, one of them redundant; the second has no singleton,
    so nothing is peeled and every row reaches elimination as it is.
    """
    rows, ncols, _ = system
    as_fractions = [{c: F(v) for c, v in row.items()} for row in rows]
    pivots = linalg.rref(rows)
    kernel = linalg.sparse_nullspace(rows, ncols)
    assert pivots == linalg.rref(as_fractions)
    assert kernel == linalg.sparse_nullspace(as_fractions, ncols)
    values = [v for row in (*pivots.values(), *kernel) for v in row.values()]
    assert all(type(v) is Fraction for v in values)


P = linalg.PRIME


def _kernel_rows(vectors, ncols):
    return [[vec.get(c, F(0)) for c in range(ncols)] for vec in vectors]


def _spy_exact_route():
    """Patch `linalg.rref`, which only the fallback of `sparse_nullspace` calls, with a spy."""
    return mock.patch.object(linalg, "rref", wraps=linalg.rref)


def test_lift_inverts_small_rationals_and_refuses_the_rest():
    for value in (F(0), F(7), F(-7), F(1, 3), F(-7, 1000003), F(linalg._BOUND), F(-1, linalg._BOUND)):
        residue = value.numerator * pow(value.denominator, -1, P) % P
        assert linalg._lift(residue) == value
    assert linalg._lift(3**30) is None
    assert linalg._lift(2**40) == F(1, 2**21)  # a wrong rational: only the certificate catches it


@pytest.mark.parametrize("rows, ncols", [
    ([{0: P, 1: 1}], 2),
    ([{0: F(1, P), 1: 1}], 2),
    ([{0: 1, 1: -(3**30)}], 2),
    ([{0: 1, 1: -(2**40)}, {1: 1, 2: 1}], 3),
    ([{0: 2, 1: 1, 2: 3}, {1: 2**31 + 1, 2: -(2**31 - 1)}], 3),
], ids=["rank-drops-mod-p", "denominator-p", "lift-fails", "lift-wrong", "entry-past-bound"])
def test_fallback_runs_when_the_modular_kernel_fails(rows, ncols):
    """p in a row, a denominator p, or a kernel entry past the reconstruction
    bound: the modular kernel is wrong or cannot be lifted, the certificate or
    the lift refuses it, and the exact route gives the oracle's kernel."""
    with _spy_exact_route() as exact:
        kernel = linalg.sparse_nullspace(rows, ncols)
    exact.assert_called_once()
    assert _kernel_rows(kernel, ncols) == dense_nullspace(_dense_rows(rows, ncols), ncols)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.dictionaries(st.integers(0, 3), _NONZERO, min_size=1, max_size=4), max_size=6),
)
@example([{0: F(1, 3), 1: F(2, 3), 2: 5}, {1: F(-5, 2), 3: F(4, 3)}])
def test_fraction_rows_take_the_modular_route(rows):
    """Rows scaled to integers have entries of at most 30 on 4 columns, so
    every minor is below 60**4: nonzero mod PRIME, and kernel entries lift.
    The modular route must certify on its own and match the oracle."""
    with _spy_exact_route() as exact:
        kernel = linalg.sparse_nullspace(rows, 4)
    exact.assert_not_called()
    assert _kernel_rows(kernel, 4) == dense_nullspace(_dense_rows(rows, 4), 4)
    assert all(type(v) is Fraction for vec in kernel for v in vec.values())


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-30, 30).filter(bool), min_size=1, max_size=6),
    max_size=8,
))
@example([{0: 2}, {0: 3, 1: -1}, {1: 5, 2: 7}, {2: 30, 3: -30, 4: 1}, {3: 2, 5: -1}])
@example([{0: 30, 1: -29, 2: 7}, {1: 3, 2: 5}, {0: 30, 1: -26, 2: 12}])
def test_both_fields_give_the_same_rref(rows):
    """Integer entries of at most 30 on 6 columns keep every minor below
    30**6 * 6**3 < PRIME (Hadamard), so a minor is nonzero mod PRIME exactly
    when it is over Q.  `_eliminate` over `_GF`, then its deferred rows
    (`modular_rref`), finds the pivot columns `rref` finds, and every exact
    entry reduces mod PRIME to the modular one."""
    exact = linalg.rref(rows)
    modular = modular_rref(rows)
    assert sorted(exact) == sorted(modular)
    reduced = {col: {c: v.numerator * pow(v.denominator, -1, P) % P for c, v in prow.items()}
               for col, prow in exact.items()}
    assert reduced == modular


def test_retry_reduces_the_deferred_rows():
    """x0 + x1 uses only pivot columns, so it is deferred, yet it is independent:
    the first kernel, (-1, -1, 1), fails the certificate on it, and the retry
    reduces it into the pivots mod p instead of taking the exact route."""
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1}]
    pivots, deferred = linalg._eliminate(rows, linalg._GF)
    assert sorted(pivots) == [0, 1] and deferred == [rows[2]]
    with _spy_exact_route() as exact:
        assert linalg.sparse_nullspace(rows, 3) == []
    exact.assert_not_called()


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-29, 29).filter(bool), min_size=1, max_size=6),
    max_size=8,
))
@example([{0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1}])
@example([{0: 29, 1: -29}, {1: 29, 2: 29}, {0: 29, 2: 29}, {3: 2, 4: 1}, {3: 4, 4: 2, 5: 1}])
def test_deferred_rows_never_reach_the_exact_route(rows):
    """Integer entries of at most 29 on 6 columns: every minor is below
    160 * 29**6 < PRIME, so ranks mod PRIME equal ranks over Q, and a kernel
    entry, a ratio of minors of order at most 5, is below 48 * 29**5 < _BOUND
    (160 and 48 are the largest determinants of orders 6 and 5 with entries in
    [-1, 1]), so it lifts.  A wrong first kernel is refused and the retry is
    right, whatever was deferred: the exact route is never taken."""
    with _spy_exact_route() as exact:
        kernel = linalg.sparse_nullspace(rows, 6)
    exact.assert_not_called()
    assert _kernel_rows(kernel, 6) == dense_nullspace(_dense_rows(rows, 6), 6)


@st.composite
def _split_systems(draw):
    """Small integer rows on n columns and a split k < n: columns k.. are the core."""
    ncols = draw(st.integers(2, 7))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                         max_size=6))
    return rows, ncols, draw(st.integers(0, ncols - 1))


@settings(max_examples=150, deadline=None)
@given(_split_systems())
@example(([[0, 1, 1]], 3, 1))
def test_core_vectors_are_the_rref_of_the_projection(system):
    """With the core columns last and reversed, as `solve_degree` lays them out, the
    kernel vectors whose free column is core, last first, project onto the core (read
    back in the original order) as the RREF of the dense oracle kernel's projection.
    In the example x1 + x2 = 0 on the core: the projection's RREF is (1, -1), where a
    core block left in order would give (-1, 1)."""
    rows, ncols, k = system
    layout = list(range(k)) + list(reversed(range(k, ncols)))  # column -> original column
    sparse = [{c: row[j] for c, j in enumerate(layout) if row[j]} for row in rows]
    vectors = linalg.sparse_nullspace([row for row in sparse if row], ncols)
    core = [vec for vec in reversed(vectors) if max(vec) >= k]
    got = [[vec.get(layout.index(j), F(0)) for j in range(k, ncols)] for vec in core]
    kernel = dense_nullspace([[F(v) for v in row] for row in rows], ncols)
    assert got == dense_rref([vec[k:] for vec in kernel])


def test_certificate_rejects_a_fraction_row_with_a_fractional_dot_product():
    """Rows are dotted as given: 1/3 * 1 is a nonzero Fraction, so the first row is
    rejected; the second dots to 1/3 - 1/3 = 0 and the third, in int, to 0.  Only
    the vector is scaled to integers."""
    vectors = [{0: F(1, 2), 1: F(1, 2)}]
    rows = [{0: F(1, 3), 2: F(5, 7)}, {0: F(1, 3), 1: F(-1, 3)}, {0: 4, 1: -4}]
    with mock.patch.object(linalg, "_as_ints", wraps=linalg._as_ints) as as_ints:
        assert linalg._certified(vectors, rows) == [rows[0]]
    as_ints.assert_called_once_with(vectors[0])


def _recomputed_holders(pivots):
    holders = {}
    for pcol, prow in pivots.items():
        for c in prow:
            if c != pcol:
                holders.setdefault(c, set()).add(pcol)
    return holders


@st.composite
def _fill_in_systems(draw):
    """Rows with entries in [-2, 2] on 6 columns, followed by sums and differences
    of earlier rows, plus a unit row or two, all shuffled: every minor is below
    PRIME, while new pivots fill pivot rows in and combinations cancel entries."""
    base = draw(st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(-2, 2).filter(bool), min_size=1, max_size=6),
        min_size=1, max_size=6))
    rows = list(base)
    for i, j, sign in draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                              st.integers(0, len(base) - 1),
                                              st.sampled_from((1, -1))),
                                    max_size=4)):
        combo = linalg.axpy(dict(base[i]), base[j], sign)
        if combo:
            rows.append(combo)
    rows += [{c: 1} for c in draw(st.lists(st.integers(0, 5), max_size=2))]
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(_fill_in_systems(), st.sampled_from(["Q", "GF"]))
@example([{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}, {0: 1, 3: 2}], "Q")
@example([{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}, {0: 1, 3: 2}], "GF")
def test_holders_index_the_pivot_rows_that_hold_each_column(rows, name):
    """After `_eliminate` and its deferred rows, over either field: `holders` is the
    index recomputed from scratch, no pivot row holds another pivot column, and the
    rows are the dense oracle's RREF (reduced mod PRIME over `_GF`).  In the example
    the pivot at 1 cancels column 2 in row 0, the pivot at 2 fills column 3 into
    row 1, and the pivot at 3 clears it again."""
    field = {"Q": linalg._Q, "GF": linalg._GF}[name]
    pivots, deferred = linalg._eliminate(rows, field)
    for row in deferred:
        pivots.reduce(field.entries(row))
    assert {c: s for c, s in pivots.holders.items() if s} == _recomputed_holders(pivots)
    for pcol, prow in pivots.items():
        assert min(prow) == pcol and prow[pcol] == 1
        assert not any(other in prow for other in pivots if other != pcol)
    want = {}
    for row in dense_rref(_dense_rows(rows, 6)):
        vals = {c: v for c, v in enumerate(row) if v}
        want[min(vals)] = vals if name == "Q" else {
            c: v.numerator * pow(v.denominator, -1, P) % P for c, v in vals.items()}
    assert pivots == want
