"""The delta-derivation solver: residuals, systems, the interior basis."""
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from _oracle import (
    derivation_oracle, full_system_route, oracle_bracket, oracle_interior_dim, residual_rows,
)
from test_acceptance import DERIV_CONFIGS
from test_axioms import spy_on_eval_rule
from lieverify import catalog, core, derivations, linalg
from lieverify.core import (
    BasisSymbol, Element, Window, bracket_symbols, check_grading, check_jacobi, check_skew,
)
from lieverify.derivations import (
    assemble_system,
    build_unknowns,
    derivation_residual,
    solve_degree,
    solve_derivations,
)

F = Fraction


@pytest.fixture(scope="module")
def so_hat():
    return catalog.builtin("so_hat")


@pytest.fixture(scope="module")
def lt1():
    return catalog.builtin("Ltilde1", {"lambda": F(1), "mu": F(1, 4)})


class TestResidual:
    def test_identity_is_half_derivation_times_two(self, so_hat):
        # Id satisfies phi([x,y]) = [x,y] = delta*2*[x,y] at delta = 1/2
        phi = lambda s: Element.basis(s)
        x = so_hat.symbol("L", 2)
        y = so_hat.symbol("Y", F(-1, 2))
        assert not derivation_residual(so_hat, phi, x, y, F(1, 2))
        # and fails for delta = 1 whenever [x,y] != 0
        assert derivation_residual(so_hat, phi, x, y, F(1))

    def test_map_l_to_m_on_so_hat_fails(self, so_hat):
        # phi: L_n -> M_n is not a 1/2-derivation of so_hat: against N it
        # leaves +M_{m+k} because [N, M] = -2M while [N, L] = -L.
        phi = lambda s: (
            Element.basis(BasisSymbol("M", s.twice)) if s.family == "L" else Element()
        )
        x = so_hat.symbol("L", 1)
        y = so_hat.symbol("N", 2)
        res = derivation_residual(so_hat, phi, x, y, F(1, 2))
        assert res == Element({BasisSymbol("M", 6): F(1)})

    def test_map_l_to_m_on_lt1_lambda1(self, lt1):
        # on Ltilde1 with lambda = 1 the same map is a 1/2-derivation
        phi = lambda s: (
            Element.basis(BasisSymbol("M", s.twice)) if s.family == "L" else Element()
        )
        for xt in range(-3, 4):
            for yt in range(-3, 4):
                if xt == yt:
                    continue
                res = derivation_residual(
                    lt1, phi, BasisSymbol("L", 2 * xt), BasisSymbol("L", 2 * yt), F(1, 2)
                )
                assert not res, (xt, yt, res)

    def test_table_form(self, so_hat):
        table = {so_hat.symbol("L", 0): Element.basis(so_hat.symbol("L", 0))}
        res = derivation_residual(so_hat, table, so_hat.symbol("L", 0), so_hat.symbol("L", 1))
        assert res  # partial identity is not a derivation


class TestSystem:
    def test_unknowns_respect_degree(self, lt1):
        w = Window.displayed(4, 1)
        for src, tgt in build_unknowns(lt1, 1, w):
            assert lt1.degree2(tgt) == lt1.degree2(src) + 1

    def test_central_targets_only_at_matching_degree(self, so_hat):
        w = Window.displayed(4, 1)
        unknowns = build_unknowns(so_hat, 2, w)
        for src, tgt in unknowns:
            if tgt.twice is None:
                assert so_hat.degree2(src) + 2 == 0

    def test_rows_reference_valid_columns(self, so_hat):
        w = Window.displayed(4, 1)
        unknowns, rows = assemble_system(so_hat, 0, w)
        for row in rows:
            assert row
            for col in row:
                assert 0 <= col < len(unknowns)


@pytest.mark.parametrize("key", DERIV_CONFIGS)
@pytest.mark.parametrize("g2", (0, 2))
def test_unknowns_follow_the_equations(key, g2):
    """Sources are the n_eq symbols plus their bracket outputs, and each carries every
    symbol of the matching degree (shifted families too).  In basis order (sources, then
    targets), the non-core unknowns come first and the core ones last, reversed."""
    spec = catalog.builtin(*DERIV_CONFIGS[key])
    window = Window.displayed(3, 1)
    symbols = list(spec.basis_symbols(window.n_eq2))
    reached = set(symbols).union(
        *(dict(bracket_symbols(spec, x, y)) for x, y in combinations(symbols, 2))
    )
    unknowns = build_unknowns(spec, g2, window)
    targets: dict[BasisSymbol, list[BasisSymbol]] = {}
    for src, tgt in unknowns:
        targets.setdefault(src, []).append(tgt)
    assert set(targets) == reached
    rank = {fam.name: i for i, fam in enumerate(spec.families)}
    # a window wide enough to hold every degree-matched symbol, found by degree alone
    wide = list(spec.basis_symbols(max(abs(spec.degree2(s)) for s in reached) + abs(g2) + 4))
    basis = [(src, tgt) for src in sorted(reached, key=lambda s: (rank[s.family], s.twice or 0))
             for tgt in wide if spec.degree2(tgt) == spec.degree2(src) + g2]
    inside = lambda u: u[0].twice is None or abs(u[0].twice) <= window.n_core2
    core = [u for u in basis if inside(u)]
    assert core and len(core) < len(basis)
    assert unknowns == [u for u in basis if not inside(u)] + core[::-1]


def _normalized(rows):
    """Rows as a multiset, each divided by its lowest-column entry."""
    out = Counter()
    for row in rows:
        lead = row[min(row)]
        out[tuple(sorted((c, F(v) / lead) for c, v in row.items()))] += 1
    return out


@pytest.mark.parametrize("key", DERIV_CONFIGS)
def test_rows_match_unit_map_residuals(key):
    """Assembled rows equal residuals of unit maps, row by row up to scale."""
    spec = catalog.builtin(*DERIV_CONFIGS[key])
    window = Window.displayed(3, 1)
    for g2 in (-2, -1, 0, 2):
        for delta in (F(1, 2), F(1)):
            unknowns, rows = assemble_system(spec, g2, window, delta)
            assert all(c in range(len(unknowns)) for row in rows for c in row)
            assert all(type(v) is int for row in rows for v in row.values())
            oracle_unknowns, oracle = residual_rows(spec, g2, window, delta)
            assert unknowns == oracle_unknowns
            assert _normalized(rows) == _normalized(oracle), (key, g2, delta)


def _exact_kernel(rows, ncols):
    """The kernel read off the exact rational `rref`, one vector per free column."""
    pivots = linalg.rref(rows)
    return [
        {free: F(1), **{p: -prow[free] for p, prow in pivots.items() if free in prow}}
        for free in range(ncols)
        if free not in pivots
    ]


@pytest.mark.parametrize("key", DERIV_CONFIGS)
def test_modular_kernel_equals_exact_route(key):
    """On every solver system the modular kernel certifies without the
    fallback and equals the kernel of the exact rational route."""
    spec = catalog.builtin(*DERIV_CONFIGS[key])
    window = Window.displayed(3, 1)
    for g2 in (-2, -1, 0, 2):
        for delta in (F(1, 2), F(1)):
            unknowns, rows = assemble_system(spec, g2, window, delta)
            with mock.patch.object(linalg, "rref", wraps=linalg.rref) as exact:
                kernel = linalg.sparse_nullspace(rows, len(unknowns))
            exact.assert_not_called()
            assert kernel == _exact_kernel(rows, len(unknowns)), (key, g2, delta)


def test_so_hat_degree_0_reduces_only_the_rows_that_can_add_a_pivot(so_hat, monkeypatch):
    """At window (8, 3) the degree-0 system of so_hat reduces 411 rows mod p and
    defers 4 619 whose columns are all pivots already.  The certificate, which
    also checks the deferred rows, passes on the first try: no retry, no exact route."""
    eliminate, deferred = linalg._eliminate, []

    def spy(rows, field):
        pivots, rest = eliminate(rows, field)
        deferred.append(len(rest))
        return pivots, rest

    monkeypatch.setattr(linalg, "_eliminate", spy)
    with mock.patch.object(linalg._Echelon, "reduce", autospec=True,
                           side_effect=linalg._Echelon.reduce) as reduce, \
            mock.patch.object(linalg, "_certified", wraps=linalg._certified) as certified, \
            mock.patch.object(linalg, "rref", wraps=linalg.rref) as exact:
        result = solve_degree(so_hat, 0, Window.displayed(8, 3))
    assert result.interior_dim == 1 and result.residual_checked
    assert reduce.call_count == 411
    assert deferred == [4619]
    certified.assert_called_once()
    exact.assert_not_called()


def test_ltilde1_degree_2_retry_reduces_only_the_rejected_rows(lt1, monkeypatch):
    """At window (8, 3) the first certificate of Ltilde1(1, 1/4) at degree 2 (g2 = 4) rejects
    6 rows, all of them deferred.  The retry reduces those 6 rows mod p and no other,
    and the second certificate passes: the exact route is never taken."""
    events = []
    certified, reduce = linalg._certified, linalg._Echelon.reduce

    def spy_certified(vectors, rows):
        events.append(len(rejected := certified(vectors, rows)))
        return rejected

    def spy_reduce(self, row):
        events.append("reduce")
        reduce(self, row)

    monkeypatch.setattr(linalg, "_certified", spy_certified)
    monkeypatch.setattr(linalg._Echelon, "reduce", spy_reduce)
    with mock.patch.object(linalg, "rref", wraps=linalg.rref) as exact:
        result = solve_degree(lt1, 4, Window.displayed(8, 3))
    assert result.interior_dim == 1 and result.residual_checked
    first = next(i for i, e in enumerate(events) if e != "reduce")
    assert events[first:] == [6, *["reduce"] * 6, 0]
    exact.assert_not_called()


@pytest.mark.parametrize("name, params", catalog.REPRESENTATIVES)
def test_scaled_bracket_is_exact(name, params):
    """scale * [x, y] in int on every ordered window pair, both when the pair is
    evaluated and when it is read back from the memo, against the oracle's bracket."""
    spec = catalog.builtin(name, params)
    exact = oracle_bracket(spec)
    for x, y in product(spec.basis_symbols(6), repeat=2):
        want = {sym: spec.scale * c for sym, c in exact(x, y).items()}
        for terms in (bracket_symbols(spec, x, y), bracket_symbols(spec, x, y)):
            assert all(type(v) is int for _, v in terms)
            assert dict(terms) == want, (name, x, y)


def test_some_representative_needs_a_scale():
    assert any(catalog.builtin(*rep).scale > 1 for rep in catalog.REPRESENTATIVES)


def test_eval_rule_runs_once_per_distinct_pair(monkeypatch):
    """One solve evaluates each ordered pair once, into the one memo."""
    spec = catalog.builtin("Ltilde1", {"lambda": F(1), "mu": F(1, 4)})
    seen = spy_on_eval_rule(monkeypatch)
    solve_derivations(spec, [-2, -1, 0, 1, 2], Window.displayed(4, 1))
    pairs = [(x, y) for _, x, y in seen]
    assert pairs and len(pairs) == len(set(pairs))
    assert set(pairs) == set(spec._cache)


def test_hot_loops_call_bracket_symbols_only_on_misses(monkeypatch):
    """Assembly, the re-check, skew, grading and Jacobi read every memoized bracket, a zero
    one too, straight from the memo."""
    spec = catalog.builtin("so_hat")
    window = Window.displayed(4, 1)
    frame = derivations.window_frame(spec, window)
    hits = []

    def spy(owner, x, y):
        hits.append((x, y) in owner._cache)
        return bracket_symbols(owner, x, y)

    monkeypatch.setattr(derivations, "bracket_symbols", spy)
    monkeypatch.setattr(core, "bracket_symbols", spy)
    for g2 in range(-2, 3):
        assemble_system(spec, g2, window, F(1, 2), frame)
    assert solve_degree(spec, 0, window, F(1, 2), frame).interior_dim == 1  # re-checks one map
    for check in (check_skew, check_grading, check_jacobi):
        check(spec, window)
    assert hits and not any(hits)
    assert () in spec._cache.values()


def _reach(x, y):
    return max(abs(x.twice or 0), abs(y.twice or 0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(catalog.REPRESENTATIVES), st.integers(0, 10), st.data())
def test_frame_lists_the_window_pairs_by_reach(rep, n_eq2, data):
    """The frame's pairs are the window's, central-central pairs left out, by reach
    and family-major within one reach; `inner` counts those inside the core window."""
    window = Window(n_eq2, data.draw(st.integers(0, n_eq2 // 2)))
    spec = catalog.builtin(*rep)
    frame = derivations.window_frame(spec, window)
    listed = [(x, y) for x, y in combinations(spec.basis_symbols(n_eq2), 2)
              if (x.twice, y.twice) != (None, None)]
    pairs = [(x, y) for x, y, _ in frame.pairs]
    assert Counter(pairs) == Counter(listed)
    assert all(terms == bracket_symbols(spec, x, y) for x, y, terms in frame.pairs)
    reach = [_reach(x, y) for x, y in pairs]
    assert reach == sorted(reach)
    for r in set(reach):
        assert [p for p in pairs if _reach(*p) == r] == [p for p in listed if _reach(*p) == r]
    inside = [all(s.twice is None or abs(s.twice) <= window.n_core2 for s in p) for p in pairs]
    assert inside == [True] * frame.inner + [False] * (len(pairs) - frame.inner)


@pytest.mark.parametrize("name, params", catalog.REPRESENTATIVES)
def test_staged_solve_equals_the_full_system_route(name, params, monkeypatch):
    """Each degree's generators equal those of the whole window system solved at once,
    whether the core window's pairs alone settle the degree or not."""
    spec = catalog.builtin(name, params)
    window = Window.displayed(4, 1)
    frame = derivations.window_frame(spec, window)
    calls = []

    def spy(*args):
        calls.append(args)
        return assemble_system(*args)

    monkeypatch.setattr(derivations, "assemble_system", spy)
    for delta in (F(1, 2), F(1)):
        for g2 in range(-4, 5):
            calls.clear()
            result = solve_degree(spec, g2, window, delta, frame)
            want = full_system_route(spec, g2, window, delta)
            assert [g.coefficients for g in result.generators] == want, (delta, g2)
            assert result.interior_dim == len(want) and result.residual_checked
            assert len(calls) == 2 or (len(calls) == 1 and not want)


def test_each_degree_builds_its_unknowns_once(lt1, monkeypatch):
    """`solve_degree` builds the unknowns and their column map once per degree, and both
    assembly stages share them: on solve-Ltilde1's nine degrees, nine builds, not 18."""
    built, assembled = [], []
    build, assemble = derivations.build_unknowns, derivations.assemble_system

    def spy(*args):
        unknowns, rows = assemble(*args)
        assembled.append((args[1], id(unknowns)))
        return unknowns, rows

    monkeypatch.setattr(derivations, "build_unknowns", lambda *a: built.append(a[1]) or build(*a))
    monkeypatch.setattr(derivations, "assemble_system", spy)
    report = solve_derivations(lt1, range(-4, 5), Window.displayed(8, 3))
    assert list(report.dims.values()) == [1, 1, 1, 1, 2, 1, 1, 1, 1]
    assert built == list(range(-4, 5))
    assert len(assembled) == 18 and len(set(assembled)) == 9


def test_so_hat_assembles_the_outer_pairs_only_when_a_core_entry_is_free(so_hat, monkeypatch):
    window = Window.displayed(8, 3)
    frame = derivations.window_frame(so_hat, window)
    assembled = []

    def spy(spec, g2, window, delta, stage, *shared):
        assembled.append(stage.pairs)
        return assemble_system(spec, g2, window, delta, stage, *shared)

    monkeypatch.setattr(derivations, "assemble_system", spy)
    assert solve_degree(so_hat, 1, window, F(1, 2), frame).interior_dim == 0
    assert frame.inner == 432 and assembled == [frame.pairs[:432]]
    assembled.clear()
    assert solve_degree(so_hat, 0, window, F(1, 2), frame).interior_dim == 1
    assert len(assembled) == 2 and assembled[0] + assembled[1] == frame.pairs
    # one core column left free by the peel is enough to need the outer pairs
    unknowns = build_unknowns(so_hat, 1, window, frame)
    core = [c for c, u in enumerate(unknowns) if derivations._is_core(u, window.n_core2)]
    peel = derivations._forced_zero
    for free in (core[0], core[-1]):
        monkeypatch.setattr(derivations, "_forced_zero", lambda rows: peel(rows) - {free})
        assembled.clear()
        assert solve_degree(so_hat, 1, window, F(1, 2), frame).interior_dim == 0
        assert assembled == [frame.pairs[:432], frame.pairs[432:]]


@pytest.mark.parametrize("name, params", [
    ("so_hat", None), ("Ltilde1", {"lambda": F(1), "mu": F(1, 4)}),
])
def test_each_degree_peels_once(name, params, monkeypatch):
    """The singleton peel is the solver's stage test and nothing else: one call per
    degree, whether the degree is settled in stage one or not, and none from
    `sparse_nullspace`."""
    spec = catalog.builtin(name, params)
    peel, nullspace = derivations._forced_zero, linalg.sparse_nullspace
    calls, inside = [], []

    def spy_peel(rows):
        calls.append(len(rows))
        return peel(rows)

    def spy_nullspace(rows, ncols):
        before = len(calls)
        vectors = nullspace(rows, ncols)
        inside.append(len(calls) - before)
        return vectors

    monkeypatch.setattr(derivations, "_forced_zero", spy_peel)
    monkeypatch.setattr(linalg, "sparse_nullspace", spy_nullspace)
    degrees2 = range(-4, 5)
    solve_derivations(spec, degrees2, Window.displayed(4, 1))
    assert len(calls) == len(degrees2)
    assert inside == [0] * len(degrees2)
    assert not hasattr(linalg, "_forced_zero")


def _assert_agrees(spec, g2, window, delta, monkeypatch, spoil=None):
    """Run solve_degree with spies on its kernel vectors (spoiled by `spoil`, if given)
    and on its re-check, one `composed` pass.  The generators are the vectors with a
    core entry, last first.  The pass is handed (x, y, g) for each generator g and each
    window pair, in that order, up to the first nonzero residual, which it yields as
    lcm * scale * q times `derivation_oracle`'s, where lcm clears g's denominators; every
    triple handed before it has a zero oracle residual."""
    vectors, handed, found = [], [], []
    nullspace, kernel = linalg.sparse_nullspace, derivations.composed

    def kernel_vectors(rows, ncols):
        vectors.extend(nullspace(rows, ncols))
        if spoil:
            spoil(vectors)
        return vectors

    def recheck(items):
        def spied():
            for t, placements in items:
                handed.append(t)
                yield t, placements
        for t, terms in kernel(spied()):
            found.append((t, terms))
            yield t, terms

    monkeypatch.setattr(linalg, "sparse_nullspace", kernel_vectors)
    monkeypatch.setattr(derivations, "composed", recheck)
    result = solve_degree(spec, g2, window, delta)
    monkeypatch.undo()

    unknowns = build_unknowns(spec, g2, window)
    core = lambda c: derivations._is_core(unknowns[c], window.n_core2)
    basis = [full for full in reversed(vectors) if any(map(core, full))]
    assert [g.coefficients for g in result.generators] == [
        {unknowns[c]: v for c, v in full.items() if core(c)} for full in basis]
    pairs = list(combinations(spec.basis_symbols(window.n_eq2), 2))
    every = [(x, y, g) for g in range(len(basis)) for x, y in pairs]
    assert handed == every[:len(handed)] and (found or len(handed) == len(every))
    images = [{} for _ in basis]
    for g, full in enumerate(basis):
        for c, v in full.items():
            images[g].setdefault(unknowns[c][0], {})[unknowns[c][1]] = v
    yielded = dict(found)
    for x, y, g in handed:
        want = derivation_oracle(spec, images[g], x, y, delta)
        factor = math.lcm(*(v.denominator for v in basis[g].values())) * spec.scale * delta.denominator
        assert yielded.get((x, y, g), {}) == {s: factor * c for s, c in want.items()}, (g2, delta, x, y)
    assert all(type(v) is int for _, terms in found for v in terms.values())
    assert [t for t, _ in found] in ([], handed[-1:])  # the pass stops at its first yield
    assert result.residual_checked == (not found)
    return result


@pytest.mark.parametrize("key", DERIV_CONFIGS)
def test_integer_recheck_agrees_with_fraction_route(key, monkeypatch):
    spec = catalog.builtin(*DERIV_CONFIGS[key])
    for g2 in (-1, 0, 2):
        for delta in (F(1, 2), F(1)):
            _assert_agrees(spec, g2, Window.displayed(3, 1), delta, monkeypatch)


def test_recheck_flags_a_spoil_with_a_denominator(so_hat, monkeypatch):
    def spoil(vectors):
        vectors[-1][min(vectors[-1])] += F(1, 3)

    result = _assert_agrees(so_hat, 0, Window.displayed(4, 1), F(1, 2), monkeypatch, spoil)
    assert result.interior_dim == 1 and not result.residual_checked


class TestSolve:
    def test_so_hat_trivial_at_degree0(self, so_hat):
        res = solve_degree(so_hat, 0, Window.displayed(6, 2))
        assert res.interior_dim == 1
        assert res.generators[0].description == "identity map"
        assert res.residual_checked

    def test_recheck_flags_a_spoiled_generator(self, so_hat, monkeypatch):
        # the re-check evaluates the reported maps: doubling one entry of
        # the identity map leaves a nonzero residual
        nullspace = linalg.sparse_nullspace

        def spoiled(rows, ncols):
            vectors = nullspace(rows, ncols)
            vectors[-1][min(vectors[-1])] *= 2
            return vectors

        monkeypatch.setattr(linalg, "sparse_nullspace", spoiled)
        res = solve_degree(so_hat, 0, Window.displayed(4, 1))
        assert res.interior_dim == 1 and not res.residual_checked

    def test_so_hat_empty_at_nonzero_degrees(self, so_hat):
        report = solve_derivations(so_hat, [-2, -1, 1, 2], Window.displayed(6, 2))
        assert all(d.interior_dim == 0 for d in report.degrees)

    def test_lt1_lambda1_degree1(self, lt1):
        res = solve_degree(lt1, 2, Window.displayed(6, 2))
        assert res.interior_dim == 1
        assert res.generators[0].description == "L(n) -> M(n+1)"

    def test_delta_one_derivations_of_witt(self):
        # ordinary derivations of the Witt algebra: ad(L_j) has degree j,
        # so every checked degree contributes exactly dim 1.
        witt = catalog.builtin("witt")
        report = solve_derivations(
            witt, [-2, 0, 2], Window.displayed(6, 2), delta=F(1)
        )
        assert [d.interior_dim for d in report.degrees] == [1, 1, 1]

    def test_matches_dense_oracle(self, lt1):
        w = Window.displayed(4, 1)
        for g2 in (-2, -1, 0, 1, 2):
            result = solve_degree(lt1, g2, w)
            assert result.residual_checked
            assert result.interior_dim == oracle_interior_dim(lt1, g2, w)

    def test_report_dict_shape(self, so_hat):
        report = solve_derivations(so_hat, [0], Window.displayed(4, 1))
        payload = report.as_dict()
        assert payload["algebra"] == "so_hat"
        assert payload["window"] == {"neq": "4", "nunk": None, "ncore": "1"}
        (deg,) = payload["degrees"]
        assert deg["degree"] == "0"
        assert deg["interior_dim"] == 1
        assert deg["residual_checked"] is True
        gen = deg["generators"][0]
        assert gen["description"] == "identity map"
        assert all(c["value"] == "1" for c in gen["coefficients"])
