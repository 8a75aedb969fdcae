"""Exact solver for graded delta-derivations.

A linear map ``phi`` is a delta-derivation when for all x, y::

    phi([x, y]) = delta * ([phi(x), y] + [x, phi(y)])

(``delta = 1`` gives ordinary derivations, ``delta = 1/2`` the
half-derivations this package is mostly used for.)  The solver works one
graded degree at a time: the derivation identity on the basis pairs inside
the equation window yields an exact linear system whose unknowns are the
matrix entries of ``phi`` on the symbols those equations reach, and the
nullspace is projected onto an interior sub-window to discard window
boundary artifacts.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from . import linalg
from .linalg import axpy
from .dsl import _shift_str
from .core import (
    CENTRAL,
    AlgebraSpec,
    BasisSymbol,
    Element,
    Window,
    bracket_symbols,
    format_index2,
    format_symbol,
    window_check,
)

Unknown = tuple[BasisSymbol, BasisSymbol]  # (source, target)


def residual_terms(
    spec: AlgebraSpec,
    phi: Callable[[BasisSymbol], Mapping[BasisSymbol, Fraction]],
    x: BasisSymbol,
    y: BasisSymbol,
    delta: Fraction = Fraction(1, 2),
) -> dict[BasisSymbol, Fraction]:
    """phi([x,y]) - delta*([phi(x),y] + [x,phi(y)]) as a symbol->coefficient dict.

    phi maps a basis symbol to its image as a symbol->coefficient mapping
    (an Element works too), so callers that only test for zero build no Element.
    """
    acc: dict[BasisSymbol, Fraction] = {}
    for sym, coeff in bracket_symbols(spec, x, y).items():
        axpy(acc, phi(sym), coeff)
    for sym, coeff in phi(x).items():
        axpy(acc, bracket_symbols(spec, sym, y), -delta * coeff)
    for sym, coeff in phi(y).items():
        axpy(acc, bracket_symbols(spec, x, sym), -delta * coeff)
    return acc


def derivation_residual(
    spec: AlgebraSpec,
    phi: Callable[[BasisSymbol], Element] | Mapping[BasisSymbol, Element],
    x: BasisSymbol,
    y: BasisSymbol,
    delta: Fraction = Fraction(1, 2),
) -> Element:
    """phi([x,y]) - delta*([phi(x),y] + [x,phi(y)]) as an Element."""
    if not callable(phi):
        table = phi
        phi = lambda s: table.get(s, {})
    return Element(residual_terms(spec, phi, x, y, delta))


def _targets_for(spec: AlgebraSpec, source: BasisSymbol, g2: int) -> list[BasisSymbol]:
    """All symbols whose degree exceeds deg(source) by g2, one per family."""
    deg2 = spec.degree2(source) + g2
    out = []
    for fam in spec.families:
        if fam.lattice == CENTRAL:
            if deg2 == 0:
                out.append(BasisSymbol(fam.name, None))
            continue
        twice = deg2 - fam.shift2
        if twice % 2 == fam.parity:
            out.append(BasisSymbol(fam.name, twice))
    return out


def build_unknowns(spec: AlgebraSpec, g2: int, window: Window) -> list[Unknown]:
    """Degree-matched (source, target) pairs for the sources the equations reach:
    the n_eq symbols and their pairwise bracket outputs, in basis order."""
    symbols = list(spec.basis_symbols(window.n_eq2))
    sources = set(symbols)
    for x, y in itertools.combinations(symbols, 2):
        sources.update(bracket_symbols(spec, x, y))
    order = {name: i for i, name in enumerate(spec.family_map)}
    unknowns: list[Unknown] = []
    for src in sorted(sources, key=lambda s: (order[s.family], s.twice or 0)):
        for tgt in _targets_for(spec, src, g2):
            unknowns.append((src, tgt))
    return unknowns


def assemble_system(
    spec: AlgebraSpec,
    g2: int,
    window: Window,
    delta: Fraction = Fraction(1, 2),
) -> tuple[list[Unknown], list[linalg.SparseRow]]:
    """Unknown list plus sparse residual rows over those unknowns.

    With delta = p/q and `scale` the lcm of every rule coefficient's
    denominator (so scale * c is an integer for every bracket value c), each
    row is q*scale times the residual's row and holds `int` entries.  Scaling
    a row keeps the row space, so the kernel and its RREF are unchanged.
    """
    scale = math.lcm(*(c.denominator for rule in spec.rules for term in rule.terms
                       for c in term.coeff.coeffs.values()))
    p, q = delta.numerator, delta.denominator
    unknowns = build_unknowns(spec, g2, window)
    # phi(src) = sum of unknown[column] * tgt over its (tgt, column) pairs
    image: dict[BasisSymbol, list[tuple[BasisSymbol, int]]] = {}
    for i, (src, tgt) in enumerate(unknowns):
        image.setdefault(src, []).append((tgt, i))

    symbols = list(spec.basis_symbols(window.n_eq2))
    rows: list[linalg.SparseRow] = []
    for ix, x in enumerate(symbols):
        for y in symbols[ix + 1 :]:
            if x.twice is None and y.twice is None:
                continue  # central-central rows vanish identically
            # residual coefficients, keyed (output symbol, column)
            acc: dict[tuple[BasisSymbol, int], int] = {}
            for mid, coeff in bracket_symbols(spec, x, y).items():
                # sources with no degree-matched targets have zero image
                value = q * coeff.numerator * (scale // coeff.denominator)
                axpy(acc, dict.fromkeys(image.get(mid, ()), value))
            for left, other, sign in ((x, y, 1), (y, x, -1)):
                # [phi(left), other]; sign restores [other, phi(left)] order
                factor = -p * sign
                for tgt, column in image.get(left, ()):  # centrals may be absent
                    scaled = {(sym, column): c.numerator * (scale // c.denominator)
                              for sym, c in bracket_symbols(spec, tgt, other).items()}
                    axpy(acc, scaled, factor)
            by_output: dict[BasisSymbol, linalg.SparseRow] = {}
            for (sym, column), value in acc.items():
                by_output.setdefault(sym, {})[column] = value
            rows.extend(by_output.values())
    return unknowns, rows


@dataclass
class Generator:
    description: str
    coefficients: dict[Unknown, Fraction]

    def as_dict(self) -> dict:
        coeffs = [
            {
                "source": format_symbol(src),
                "target": format_symbol(tgt),
                "value": str(val),
            }
            for (src, tgt), val in sorted(
                self.coefficients.items(), key=lambda kv: _unknown_key(kv[0])
            )
        ]
        return {"description": self.description, "coefficients": coeffs}


@dataclass
class DegreeResult:
    degree2: int
    interior_dim: int
    generators: list[Generator]
    residual_checked: bool

    def as_dict(self) -> dict:
        return {
            "degree": format_index2(self.degree2),
            "interior_dim": self.interior_dim,
            "generators": [g.as_dict() for g in self.generators],
            "residual_checked": self.residual_checked,
        }


@dataclass
class DerivationReport:
    algebra: str
    params: dict[str, Fraction]
    window: Window
    delta: Fraction
    degrees: list[DegreeResult] = field(default_factory=list)

    @property
    def dims(self) -> dict[int, int]:
        return {d.degree2: d.interior_dim for d in self.degrees}

    def as_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "delta": str(self.delta),
            "window": {
                "neq": format_index2(self.window.n_eq2),
                "nunk": None,  # kept: the solve goldens and perfbench's sha256 digests pin this key
                "ncore": format_index2(self.window.n_core2),
            },
            "degrees": [d.as_dict() for d in self.degrees],
            "dims": {format_index2(d.degree2): d.interior_dim for d in self.degrees},
        }


def _unknown_key(u: Unknown):
    src, tgt = u
    return (
        src.family,
        src.twice if src.twice is not None else 0,
        tgt.family,
        tgt.twice if tgt.twice is not None else 0,
    )


def _is_core(u: Unknown, n_core2: int) -> bool:
    src, _ = u
    return src.twice is None or abs(src.twice) <= n_core2


def _interior_basis(
    vectors: Sequence[linalg.SparseRow], core_cols: Sequence[int]
) -> list[linalg.SparseRow]:
    """Nullspace combinations whose interior projections are in reduced form.

    Each row holds the projection onto the core columns (columns 0..k-1)
    followed by the full vector shifted by k, so one RREF reduces the
    projections and carries the same row operations onto the full vectors:
    every returned vector is still an exact solution of the full system.
    """
    k = len(core_cols)
    index = {c: i for i, c in enumerate(core_cols)}
    rows = []
    for vec in vectors:
        row = {index[c]: v for c, v in vec.items() if c in index}
        row.update((c + k, v) for c, v in vec.items())
        rows.append(row)
    pivots = linalg.rref(rows)
    return [
        {c - k: v for c, v in pivots[p].items() if c >= k} for p in sorted(pivots) if p < k
    ]


def _describe(coeffs: dict[Unknown, Fraction]) -> str:
    """Human-readable summary of a derivation restricted to the interior."""
    if not coeffs:
        return "zero map"
    # identity check: every entry maps a symbol to itself with one value
    if all(src == tgt for src, tgt in coeffs):
        values = set(coeffs.values())
        if len(values) == 1:
            lam = values.pop()
            return "identity map" if lam == 1 else f"({lam})*identity"
    # uniform family-shift components, e.g. L(n) -> M(n+1)
    groups: dict[tuple[str, str, Optional[int]], set[Fraction]] = {}
    for (src, tgt), val in coeffs.items():
        off2 = None
        if src.twice is not None and tgt.twice is not None:
            off2 = tgt.twice - src.twice
        groups.setdefault((src.family, tgt.family, off2), set()).add(val)
    parts = []
    for (sf, tf, off2), values in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] or 0)
    ):
        if len(values) != 1:
            return "structured map"
        val = next(iter(values))
        prefix = "" if val == 1 else f"({val})*"
        if off2 is None:
            parts.append(f"{sf} -> {prefix}{tf}")
        else:
            parts.append(f"{sf}(n) -> {prefix}{tf}(n{_shift_str(Fraction(off2, 2))})")
    return "; ".join(parts)


def solve_degree(
    spec: AlgebraSpec,
    g2: int,
    window: Window,
    delta: Fraction = Fraction(1, 2),
) -> DegreeResult:
    unknowns, rows = assemble_system(spec, g2, window, delta)
    vectors = linalg.sparse_nullspace(rows, len(unknowns))
    core_cols = [i for i, u in enumerate(unknowns) if _is_core(u, window.n_core2)]
    basis = _interior_basis(vectors, core_cols)

    generators = []
    checked = True
    symbols = list(spec.basis_symbols(window.n_eq2))
    for full in basis:
        images: dict[BasisSymbol, dict[BasisSymbol, Fraction]] = {}
        for c, v in full.items():
            src, tgt = unknowns[c]
            images.setdefault(src, {})[tgt] = v
        phi = lambda s: images.get(s, {})
        checked &= window_check(
            "derivation",
            itertools.combinations(symbols, 2),
            lambda x, y: residual_terms(spec, phi, x, y, delta),
            "generator is not a delta-derivation",
        ).passed
        interior = {
            unknowns[c]: v for c, v in full.items() if _is_core(unknowns[c], window.n_core2)
        }
        generators.append(Generator(_describe(interior), interior))
    return DegreeResult(g2, len(basis), generators, checked)


def solve_derivations(
    spec: AlgebraSpec,
    degrees2: Sequence[int],
    window: Window,
    delta: Fraction = Fraction(1, 2),
) -> DerivationReport:
    report = DerivationReport(spec.name, dict(spec.params), window, delta)
    for g2 in sorted(set(degrees2)):
        report.degrees.append(solve_degree(spec, g2, window, delta))
    return report
