"""The delta-derivation solver: residuals, systems, interior projection."""
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from _oracle import oracle_interior_dim, residual_rows
from test_acceptance import DERIV_CONFIGS
from lieverify import catalog, derivations
from lieverify.core import BasisSymbol, Element, Window, bracket_symbols
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
    """Sources are the n_eq symbols plus their bracket outputs, in basis order,
    and each carries every symbol of the matching degree (shifted families too)."""
    spec = catalog.builtin(*DERIV_CONFIGS[key])
    window = Window.displayed(3, 1)
    symbols = list(spec.basis_symbols(window.n_eq2))
    reached = set(symbols).union(*(bracket_symbols(spec, x, y) for x, y in combinations(symbols, 2)))
    targets: dict[BasisSymbol, list[BasisSymbol]] = {}
    for src, tgt in build_unknowns(spec, g2, window):
        targets.setdefault(src, []).append(tgt)
    assert set(targets) == reached
    rank = {fam.name: i for i, fam in enumerate(spec.families)}
    assert list(targets) == sorted(reached, key=lambda s: (rank[s.family], s.twice or 0))
    # a window wide enough to hold every degree-matched symbol, found by degree alone
    wide = list(spec.basis_symbols(max(abs(spec.degree2(s)) for s in reached) + abs(g2) + 4))
    for src, tgts in targets.items():
        assert tgts == [t for t in wide if spec.degree2(t) == spec.degree2(src) + g2], src


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


class TestSolve:
    def test_so_hat_trivial_at_degree0(self, so_hat):
        res = solve_degree(so_hat, 0, Window.displayed(6, 2))
        assert res.interior_dim == 1
        assert res.generators[0].description == "identity map"
        assert res.residual_checked

    def test_recheck_flags_a_spoiled_generator(self, so_hat, monkeypatch):
        # the re-check evaluates the reported maps: doubling one entry of
        # the identity map leaves a nonzero residual
        original = derivations._interior_basis

        def spoiled(vectors, core_cols):
            basis = original(vectors, core_cols)
            basis[0][min(basis[0])] *= 2
            return basis

        monkeypatch.setattr(derivations, "_interior_basis", spoiled)
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
