"""The delta-derivation solver: residuals, systems, the interior basis."""
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from _oracle import (
    derivation_oracle, full_system_route, oracle_bracket, oracle_interior_dim, residual_rows,
)
from test_acceptance import DERIV_CONFIGS
from test_axioms import spy_on_eval_rule
from lieverify import catalog, core, derivations, linalg
from lieverify.dsl import parse_algebra
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


def test_a_skew_broken_bracket_is_assembled_as_written(monkeypatch):
    """Assembly forms [phi(x), y] and [x, phi(y)] as written, as the re-check does, so on
    a bracket that is not skew (broken_so_hat's N-N rule) the rows still equal the unit-map
    residuals, and the ladder route still equals the full route."""
    spec = parse_algebra((Path(__file__).resolve().parent / "golden" / "broken_so_hat.liealg").read_text())
    for g2 in (-2, 0, 2):
        unknowns, rows = assemble_system(spec, g2, Window.displayed(3, 1))
        assert _normalized(rows) == _normalized(residual_rows(spec, g2, Window.displayed(3, 1))[1])
    window, degrees2 = Window.displayed(8, 3), range(-4, 5)
    laddered = [solve_degree(spec, g2, window).as_dict() for g2 in degrees2]
    monkeypatch.setattr(derivations, "_ladder", lambda *a: None)
    assert laddered == [solve_degree(spec, g2, window).as_dict() for g2 in degrees2]


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
    """At window (8, 3) the whole degree-0 system of so_hat, which the solver reduces only
    when the ladder fails, reduces 411 rows mod p and defers 4 619 whose columns are all
    pivots already.  The certificate, which also checks the deferred rows, passes on the
    first try: no retry, no exact route."""
    eliminate, deferred = linalg._eliminate, []

    def spy(rows, field):
        pivots, rest = eliminate(rows, field)
        deferred.append(len(rest))
        return pivots, rest

    unknowns, rows = assemble_system(so_hat, 0, Window.displayed(8, 3))
    monkeypatch.setattr(linalg, "_eliminate", spy)
    with mock.patch.object(linalg._Echelon, "reduce", autospec=True,
                           side_effect=linalg._Echelon.reduce) as reduce, \
            mock.patch.object(linalg, "_certified", wraps=linalg._certified) as certified, \
            mock.patch.object(linalg, "rref", wraps=linalg.rref) as exact:
        kernel = linalg.sparse_nullspace(rows, len(unknowns))
    outer = sum(not derivations._is_core(u, 6) for u in unknowns)
    assert sum(max(vec) >= outer for vec in kernel) == 1
    assert reduce.call_count == 411
    assert deferred == [4619]
    certified.assert_called_once()
    exact.assert_not_called()


def test_ltilde1_degree_2_retry_reduces_only_the_rejected_rows(lt1, monkeypatch):
    """At window (8, 3) the first certificate of the whole system of Ltilde1(1, 1/4) at
    degree 2 (g2 = 4) rejects 6 rows, all of them deferred.  The retry reduces those 6
    rows mod p and no other, and the second certificate passes: the exact route is never
    taken."""
    events = []
    certified, reduce = linalg._certified, linalg._Echelon.reduce

    def spy_certified(vectors, rows):
        events.append(len(rejected := certified(vectors, rows)))
        return rejected

    def spy_reduce(self, row):
        events.append("reduce")
        reduce(self, row)

    unknowns, rows = assemble_system(lt1, 4, Window.displayed(8, 3))
    monkeypatch.setattr(linalg, "_certified", spy_certified)
    monkeypatch.setattr(linalg._Echelon, "reduce", spy_reduce)
    with mock.patch.object(linalg, "rref", wraps=linalg.rref) as exact:
        kernel = linalg.sparse_nullspace(rows, len(unknowns))
    outer = sum(not derivations._is_core(u, 6) for u in unknowns)
    assert sum(max(vec) >= outer for vec in kernel) == 1
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
    """Assembly, the rung search, the ladder, the re-check, skew, grading and Jacobi read
    every memoized bracket, a zero one too, straight from the memo."""
    spec = catalog.builtin("so_hat")
    window, wide = Window.displayed(4, 1), Window.displayed(6, 2)
    frame, ladder = derivations.window_frame(spec, window), derivations.window_frame(spec, wide)
    assert frame.rungs is None and ladder.rungs
    hits = []

    def spy(owner, x, y):
        hits.append((x, y) in owner._cache)
        return bracket_symbols(owner, x, y)

    monkeypatch.setattr(derivations, "bracket_symbols", spy)
    monkeypatch.setattr(core, "bracket_symbols", spy)
    for g2 in range(-2, 3):
        assemble_system(spec, g2, window, F(1, 2), frame)
    assert solve_degree(spec, 0, window, F(1, 2), frame).interior_dim == 1  # re-checks one map
    assert derivations._rungs(spec, wide, ladder.sources) == ladder.rungs  # every read a hit
    extend, extended = derivations._ladder, []
    monkeypatch.setattr(derivations, "_ladder", lambda *a: extended.append(extend(*a)) or extended[-1])
    assert solve_degree(spec, 0, wide, F(1, 2), ladder).interior_dim == 1
    assert len(extended) == 1 and extended[0]  # the ladder extended the identity
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
    assembly stages share them.  On solve-Ltilde1's nine degrees the ladder settles every
    degree: nine builds and nine assemblies.  At window (4, 1) there is no ladder, so every
    degree, each of which has a generator, assembles twice on one set of unknowns."""
    built, assembled = [], []
    build, assemble = derivations.build_unknowns, derivations.assemble_system

    def spy(*args):
        unknowns, rows = assemble(*args)
        assembled.append((args[1], id(unknowns)))
        return unknowns, rows

    monkeypatch.setattr(derivations, "build_unknowns", lambda *a: built.append(a[1]) or build(*a))
    monkeypatch.setattr(derivations, "assemble_system", spy)
    for window, stages in ((Window.displayed(8, 3), 1), (Window.displayed(4, 1), 2)):
        built.clear(), assembled.clear()
        report = solve_derivations(lt1, range(-4, 5), window)
        assert list(report.dims.values()) == [1, 1, 1, 1, 2, 1, 1, 1, 1]
        assert built == list(range(-4, 5))
        assert len(assembled) == 9 * stages and len(set(assembled)) == 9


def test_so_hat_assembles_the_outer_pairs_only_when_a_core_entry_is_free(so_hat, monkeypatch):
    """The outer pairs are assembled only when the core kernel leaves a core entry free and
    the ladder fails: degree 1 is settled by the core pairs, degree 0's identity is extended
    and re-checked without them, and with the ladder made to fail degree 0 takes both
    stages and still reports the identity, re-checked."""
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
    laddered = solve_degree(so_hat, 0, window, F(1, 2), frame)
    assert laddered.interior_dim == 1 and laddered.residual_checked
    assert assembled == [frame.pairs[:432]]
    assembled.clear()
    monkeypatch.setattr(derivations, "_ladder", lambda *args: None)
    assert solve_degree(so_hat, 0, window, F(1, 2), frame) == laddered
    assert assembled == [frame.pairs[:432], frame.pairs[432:]]


# the representatives whose ladder extension at window (6, 2), delta 1/2, degrees 2 and -2
# fails the re-check (a rung's pair lies outside the window), so that they fall back
LADDER_FAILS_AT_6_2 = [
    ("virasoro", {}), ("Ltilde1", {"lambda": F(1), "mu": F(1, 4)}),
    ("Ltilde1", {"lambda": F(1), "mu": F(2)}), ("Ltilde4", {"lambda": F(1), "mu": F(1, 2)}),
]


@pytest.mark.parametrize("name, params", catalog.REPRESENTATIVES)
def test_ladder_route_equals_the_full_route(name, params, monkeypatch):
    """At windows (8, 3) and (6, 2), delta 1/2 and 1, degrees -2..2 in half steps, each
    degree's result equals the one it gets when `_ladder` fails and every degree that the
    core pairs leave open is solved on the whole system.  Every source has a rung, and the
    outer pairs are assembled only where an extension fails the re-check: at (6, 2), delta
    1/2, degrees 2 and -2 of the four algebras of `LADDER_FAILS_AT_6_2`."""
    spec = catalog.builtin(name, params)
    assemble, degrees2 = derivations.assemble_system, range(-4, 5)
    for window in (Window.displayed(8, 3), Window.displayed(6, 2)):
        frame = derivations.window_frame(spec, window)
        assert frame.rungs is not None
        for delta in (F(1, 2), F(1)):
            stages = []
            monkeypatch.setattr(derivations, "assemble_system",
                                lambda *a: stages.append(a[1]) or assemble(*a))
            laddered = [solve_degree(spec, g2, window, delta, frame) for g2 in degrees2]
            fell_back = [g2 for g2 in degrees2 if stages.count(g2) == 2]
            monkeypatch.setattr(derivations, "_ladder", lambda *a: None)
            full = [solve_degree(spec, g2, window, delta, frame) for g2 in degrees2]
            monkeypatch.undo()
            assert [r.as_dict() for r in laddered] == [r.as_dict() for r in full]
            assert all(r.residual_checked for r in laddered)
            fails = (window.n_core2, delta) == (4, F(1, 2)) and (name, params) in LADDER_FAILS_AT_6_2
            assert fell_back == ([-4, 4] if fails else [])


@pytest.mark.parametrize("name, params", catalog.REPRESENTATIVES)
def test_ladder_extension_is_the_fraction_recurrence(name, params):
    """On random core values, derivation or not, `_ladder`'s int extension lies on the line of
    the recurrence phi(x) = (delta*([phi l, z] + [l, phi z]) - sum k*phi(C)) / c run over
    `Fraction` on the oracle's brackets along the same rungs: its rescaling is exact."""
    spec, window, rng = catalog.builtin(name, params), Window.displayed(6, 2), random.Random(31)
    frame, exact = derivations.window_frame(spec, window), oracle_bracket(spec)
    for delta, g2 in product((F(1, 2), F(1)), (-1, 0, 2)):
        columns = unknowns, image = derivations._columns(spec, g2, window, frame)
        outer = sum(not derivations._is_core(u, window.n_core2) for u in unknowns)
        vec = {c: F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)) for c in range(outer, len(unknowns))}
        phi = {}
        for c, v in vec.items():
            phi.setdefault(unknowns[c][0], {})[unknowns[c][1]] = v
        for x, l, z, _, _ in frame.rungs:
            acc, terms = Counter(), exact(l, z).terms
            for (a, b), v in [((t, z), v) for t, v in phi.get(l, {}).items()] + [
                    ((l, t), v) for t, v in phi.get(z, {}).items()]:
                for sym, w in exact(a, b).items():
                    acc[sym] += delta * v * w
            for central, k in terms.items():
                for t, v in (phi.get(central, {}).items() if central != x else ()):
                    acc[t] -= k * v
            phi[x] = {t: v / terms[x] for t, v in acc.items() if v}
        want = {image[src][t]: v for src, ts in phi.items() for t, v in ts.items()}
        assert _proportional(derivations._ladder(spec, frame, columns, outer, vec, delta), want)


def test_each_fallback_trigger_gives_the_full_route(monkeypatch):
    """A degree falls back to the whole system when a source has no rung, when an extension
    fails the re-check, and when an extension is spoiled; each gives the full route's
    result, re-checked."""
    assemble, stages = derivations.assemble_system, []
    monkeypatch.setattr(derivations, "assemble_system",
                        lambda *a: stages.append(a[1]) or assemble(*a))
    # no rung: at window (4, 1) witt's L(2) is reached from the core only as [L(1), L(1)] = 0
    witt, window = catalog.builtin("witt"), Window.displayed(4, 1)
    assert derivations.window_frame(witt, window).rungs is None
    result = solve_degree(witt, 0, window)
    assert [g.coefficients for g in result.generators] == full_system_route(witt, 0, window)
    assert result.interior_dim == 1 and result.residual_checked and stages == [0, 0]
    # an extension that fails the re-check: virasoro's degree 2 at (6, 2) has a core
    # generator, which the ladder extends, but no interior derivation
    virasoro, window = catalog.builtin("virasoro"), Window.displayed(6, 2)
    outcomes, checked = [], derivations._checked
    monkeypatch.setattr(derivations, "_checked",
                        lambda *a: outcomes.append((len(a[2]), checked(*a))) or outcomes[-1][1])
    stages.clear()
    result = solve_degree(virasoro, 4, window)
    assert full_system_route(virasoro, 4, window) == []
    assert outcomes == [(1, False), (0, True)] and stages == [4, 4]
    assert result.interior_dim == 0 and result.residual_checked
    # a spoiled extension: so_hat's identity with one outer entry doubled
    so_hat, window = catalog.builtin("so_hat"), Window.displayed(8, 3)
    want = solve_degree(so_hat, 0, window)
    extend = derivations._ladder

    def spoiled(*args):
        vector = extend(*args)
        vector[min(vector)] *= 2  # its lowest column, an outer unknown
        return vector

    monkeypatch.setattr(derivations, "_ladder", spoiled)
    outcomes.clear(), stages.clear()
    assert solve_degree(so_hat, 0, window) == want and want.residual_checked
    assert outcomes == [(1, False), (1, True)] and stages == [0, 0]


@pytest.mark.parametrize("name, params", [
    ("so_hat", None), ("Ltilde1", {"lambda": F(1), "mu": F(1, 4)}),
])
def test_each_degree_assembles_and_eliminates_once(name, params, monkeypatch):
    """On the solve-so_hat and solve-Ltilde1 workloads (window (8, 3), degrees -2..2 in half
    steps) each degree makes one `assemble_system` call and one `sparse_nullspace` call:
    the core pairs settle it or the ladder does.  There is no singleton peel."""
    spec = catalog.builtin(name, params)
    calls = []
    assemble, nullspace = derivations.assemble_system, linalg.sparse_nullspace
    monkeypatch.setattr(derivations, "assemble_system",
                        lambda *a: calls.append(("assemble", a[1])) or assemble(*a))
    monkeypatch.setattr(linalg, "sparse_nullspace",
                        lambda rows, ncols: calls.append(("kernel", ncols)) or nullspace(rows, ncols))
    solve_derivations(spec, range(-4, 5), Window.displayed(8, 3))
    assert [kind for kind, _ in calls] == ["assemble", "kernel"] * 9
    assert [g2 for kind, g2 in calls if kind == "assemble"] == list(range(-4, 5))
    assert not hasattr(derivations, "_forced_zero") and not hasattr(linalg, "_forced_zero")


def _proportional(a: dict, b: dict) -> bool:
    """Whether two vectors with the same support lie on one line."""
    lead = min(a, default=None)
    return a.keys() == b.keys() and all(a[k] * b[lead] == b[k] * a[lead] for k in a)


def _assert_agrees(spec, g2, window, delta, monkeypatch, spoil=None):
    """Run solve_degree with spies on each re-check, one `_checked` call and its one
    `composed` pass: the vectors it is handed (spoiled by `spoil`, if given) and the
    triples the pass is handed.  Each pass is handed (x, y, g) for each vector g and each
    window pair, in that order, up to the first nonzero residual, which it yields as
    lcm * scale * q times `derivation_oracle`'s, where lcm clears g's denominators; every
    triple handed before it has a zero oracle residual.  The generators are the core parts
    of the last pass's vectors, each up to scale, and its outcome is `residual_checked`."""
    passes = []  # (unknowns, vectors, handed, found) per re-check
    checked, kernel = derivations._checked, derivations.composed

    def spy_checked(spec, unknowns, vectors, window, delta):
        if spoil and vectors:
            spoil(vectors)
        passes.append((unknowns, [dict(v) for v in vectors], [], []))
        return checked(spec, unknowns, vectors, window, delta)

    def recheck(items):
        _, _, handed, found = passes[-1]

        def spied():
            for t, placements in items:
                handed.append(t)
                yield t, placements
        for t, terms in kernel(spied()):
            found.append((t, terms))
            yield t, terms

    monkeypatch.setattr(derivations, "_checked", spy_checked)
    monkeypatch.setattr(derivations, "composed", recheck)
    result = solve_degree(spec, g2, window, delta)
    monkeypatch.undo()

    pairs = list(combinations(spec.basis_symbols(window.n_eq2), 2))
    assert 1 <= len(passes) <= 2
    for unknowns, vectors, handed, found in passes:
        every = [(x, y, g) for g in range(len(vectors)) for x, y in pairs]
        assert handed == every[:len(handed)] and (found or len(handed) == len(every))
        images = [{} for _ in vectors]
        for g, full in enumerate(vectors):
            for c, v in full.items():
                images[g].setdefault(unknowns[c][0], {})[unknowns[c][1]] = v
        yielded = dict(found)
        for x, y, g in handed:
            want = derivation_oracle(spec, images[g], x, y, delta)
            factor = math.lcm(*(F(v).denominator for v in vectors[g].values())) * spec.scale * delta.denominator
            assert yielded.get((x, y, g), {}) == {s: factor * c for s, c in want.items()}, (g2, delta, x, y)
        assert all(type(v) is int for _, terms in found for v in terms.values())
        assert [t for t, _ in found] in ([], handed[-1:])  # the pass stops at its first yield
    unknowns, vectors, _, found = passes[-1]
    core = lambda c: derivations._is_core(unknowns[c], window.n_core2)
    assert len(result.generators) == len(vectors)
    for generator, full in zip(result.generators, vectors):
        assert _proportional(generator.coefficients, {unknowns[c]: v for c, v in full.items() if core(c)})
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
