"""Exact linear algebra: sparse RREF nullspace vs the dense oracle."""
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lieverify import linalg

from _oracle import dense_nullspace

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
    assert linalg.rank(rows) == 2


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
    assert linalg.rank(sparse) + len(vecs) == 5
