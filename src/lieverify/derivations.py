"""Exact solver for graded delta-derivations.

A linear map ``phi`` is a delta-derivation when for all x, y::

    phi([x, y]) = delta * ([phi(x), y] + [x, phi(y)])

(``delta = 1`` gives ordinary derivations, ``delta = 1/2`` the
half-derivations this package is mostly used for.)  The solver works one
graded degree at a time: the derivation identity on the basis pairs inside
the equation window yields an exact linear system whose unknowns are the
matrix entries of ``phi`` on the symbols those equations reach.  Only the
entries on the core sub-window are reported, to discard window boundary
artifacts; the core unknowns are the last columns, in reverse basis order, so
the interior basis is read straight off the kernel.  With lowest-column
pivoting, kernel vector v_f is 1 at its free column f, 0 at the other free
columns, and otherwise nonzero only at pivot columns below f: f = max(v_f).
- A vector whose free column is not core is 0 on the core.
- So the vectors whose free column is core span the kernel's core projection.
- In basis order each of those projections leads with its 1 at f and is 0 at
  the other free core columns: it is a row of the projection's unique RREF.
Each degree solves the core window's pairs first.  Their rows are some of the whole
system's, so the core projection of their kernel bounds the interior from above; with
no core free column the interior is 0.  Else `_ladder` extends each projection outward
along the frame's `_rungs`, s*[l, z] = c*x + central terms with l in the core, z known
and c != 0: the identity at (l, z) gives phi(x).  One ``core.composed`` pass over
``residual_placements`` re-checks the extensions on the window pairs, in integers; as
assembly forms each term as written too, a passing extension lies in the whole kernel,
a lower bound that meets the upper one.  The degree falls back to the whole system when
a source has no rung, an image leaves the degree's columns or the re-check fails.
Unknowns, assembly and re-check all read s*[x, y] from ``spec._cache``, the one
bracket memo, which the axiom and TPA checks share and ``core.bracket_symbols``
fills; ``window_frame`` lists the window's pairs once per solve and ``_columns``
each degree's unknowns once.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import linalg
from .dsl import _shift_str
from .core import (
    CENTRAL,
    AlgebraSpec,
    BasisSymbol,
    Element,
    Window,
    _over,
    bracket_symbols,
    composed,
    format_index2,
    format_symbol,
    reach,
    table,
)

Unknown = tuple[BasisSymbol, BasisSymbol]  # (source, target)


def residual_placements(spec: AlgebraSpec, phi: tuple, p: int, q: int) -> tuple:
    """The `composed` placements of q*phi([x,y]) - p*[phi(x),y] - p*[x,phi(y)] on t = (x, y, z),
    q*s times the residual at delta = p/q, with s = `spec.scale` and brackets from the
    `bracket_symbols` memo.  `phi` is a `table` whose (a, z) entry yields the terms of
    phi(a), or of a fixed multiple of it; integer images keep it all in `int`."""
    br = table(spec, bracket_symbols)
    return (0, 1, 2, q, br, phi, False), (0, 2, 1, -p, phi, br, False), (1, 2, 0, -p, phi, br, True)


def derivation_residual(
    spec: AlgebraSpec,
    phi: Callable[[BasisSymbol], Element] | Mapping[BasisSymbol, Element],
    x: BasisSymbol,
    y: BasisSymbol,
    delta: Fraction = Fraction(1, 2),
) -> Element:
    """phi([x,y]) - delta*([phi(x),y] + [x,phi(y)]) as an Element, from q*s times it."""
    image = phi if callable(phi) else lambda s: phi.get(s, {})
    always_missed = ({}.get, lambda a, _: image(a).items(), None)  # its fill gives phi(a)
    placements = residual_placements(spec, always_missed, delta.numerator, delta.denominator)
    terms = next(composed([((x, y, None), placements)]), (None, {}))[1]
    return Element(_over(terms, delta.denominator * spec.scale))


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


class Frame(NamedTuple):
    """The degree-independent part of the system on one window, built once per solve.

    Pairs run by reach, max |doubled index| of x and y (0 if central), then basis order."""

    pairs: list[tuple]  # (x, y, s*[x, y]) for x before y among the n_eq symbols, not both central
    sources: list[BasisSymbol]  # the symbols and their pairwise bracket outputs, in basis order
    inner: int  # how many leading pairs have reach <= n_core2
    rungs: Optional[list[tuple]]  # `_rungs`: the ladder from the core out to every source


def window_frame(spec: AlgebraSpec, window: Window) -> Frame:
    symbols = list(spec.basis_symbols(window.n_eq2))
    pairs = [(x, y, bracket_symbols(spec, x, y)) for x, y in itertools.combinations(symbols, 2)
             if x.twice is not None or y.twice is not None]  # central-central brackets vanish
    reach = lambda pair: max(abs(pair[0].twice or 0), abs(pair[1].twice or 0))
    pairs.sort(key=reach)  # stable: basis order within one reach
    sources = set(symbols)
    for _, _, terms in pairs:
        sources.update(sym for sym, _ in terms)
    order = {name: i for i, name in enumerate(spec.family_map)}
    sources = sorted(sources, key=lambda s: (order[s.family], s.twice or 0))
    return Frame(pairs, sources, sum(reach(pair) <= window.n_core2 for pair in pairs),
                 _rungs(spec, window, sources))


def _rungs(spec: AlgebraSpec, window: Window, sources: list) -> Optional[list[tuple]]:
    """(x, l, z, c, central terms) with s*[l, z] = c*x + central terms for each source x out
    of the core by |index| then basis order, None if an x has none: l a non-central core
    symbol, in that order too, and z a core source or an earlier x whose family `reach`es x's."""
    core = sorted(spec.basis_symbols(window.n_core2, include_central=False), key=lambda s: abs(s.twice))
    known = {s for s in sources if _is_core((s, None), window.n_core2)}
    routes, memo, rungs = reach(spec._pair), spec._cache, []
    for x in sorted((s for s in sources if s not in known), key=lambda s: abs(s.twice)):
        for l, fam in ((l, fam) for l in core for fam, out in routes.get(l.family, {}).items()
                       if x.family in out):
            z = BasisSymbol(fam, spec.degree2(x) - spec.degree2(l) - spec.family_map[fam].shift2)
            if z in known:
                terms = memo[l, z] if (l, z) in memo else bracket_symbols(spec, l, z)
                c, rest = dict(terms).get(x), [(s, k) for s, k in terms if s != x]
                if c and all(s.twice is None for s, _ in rest):
                    rungs.append((x, l, z, c, rest))
                    known.add(x)
                    break
        else:
            return None
    return rungs


def build_unknowns(
    spec: AlgebraSpec, g2: int, window: Window, frame: Optional[Frame] = None
) -> list[Unknown]:
    """Degree-matched (source, target) pairs for the sources the equations reach:
    the n_eq symbols and their pairwise bracket outputs, in basis order, except
    that the core pairs (`_is_core`) come last and in reverse, so that
    `solve_degree` reads the interior basis off the kernel (see the module)."""
    frame = frame or window_frame(spec, window)
    unknowns = [(src, tgt) for src in frame.sources for tgt in _targets_for(spec, src, g2)]
    core = [u for u in unknowns if _is_core(u, window.n_core2)]
    return [u for u in unknowns if not _is_core(u, window.n_core2)] + core[::-1]


def _columns(spec: AlgebraSpec, g2: int, window: Window, frame: Frame) -> tuple[list, dict]:
    """`build_unknowns` and src -> {tgt: column}: phi(src) = sum of unknown[column] * tgt."""
    unknowns, image = build_unknowns(spec, g2, window, frame), defaultdict(dict)
    for i, (src, tgt) in enumerate(unknowns):
        image[src][tgt] = i
    return unknowns, image


def assemble_system(
    spec: AlgebraSpec,
    g2: int,
    window: Window,
    delta: Fraction = Fraction(1, 2),
    frame: Optional[Frame] = None,
    columns: Optional[tuple[list[Unknown], dict]] = None,
) -> tuple[list[Unknown], list[linalg.SparseRow]]:
    """Unknown list plus sparse residual rows over those unknowns, for the pairs of `frame`;
    `columns`, `_columns` of the whole frame, lets one degree's stages share them.

    With delta = p/q, each row is q*`spec.scale` times the residual's row
    and holds `int` entries.  Scaling a row keeps the row space, so the
    kernel and its RREF are unchanged.
    Rows come in no particular order: their RREF, and so the kernel, is unique.
    """
    p, q = delta.numerator, delta.denominator
    frame = frame or window_frame(spec, window)
    unknowns, image = columns or _columns(spec, g2, window, frame)
    memo = spec._cache  # read directly on a hit, a memoized () too: `bracket_symbols` fills it
    rows: list[linalg.SparseRow] = []
    for x, y, terms in frame.pairs:
        # the residual's row at each output symbol: column -> coefficient
        by_output: dict[BasisSymbol, linalg.SparseRow] = {}
        for mid, value in terms:
            # sources with no degree-matched targets have zero image
            value *= q
            for tgt, column in image.get(mid, {}).items():
                row = by_output.setdefault(tgt, {})
                row[column] = row.get(column, 0) + value
        for left, other, first in ((x, y, True), (y, x, False)):
            # -p*[phi(x), y] and -p*[x, phi(y)], each formed as written, as the re-check does
            for tgt, column in image.get(left, {}).items():  # centrals may be absent
                key = (tgt, other) if first else (other, tgt)
                if (products := memo.get(key)) is None:
                    products = bracket_symbols(spec, *key)
                for sym, value in products:
                    row = by_output.setdefault(sym, {})
                    row[column] = row.get(column, 0) - p * value
        for row in by_output.values():
            if 0 in row.values():  # terms that cancelled
                row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
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
            for (src, tgt), val in sorted(self.coefficients.items(), key=_unknown_key)
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


def _unknown_key(item: tuple[Unknown, Fraction]):
    (src, tgt), _ = item
    return (src.family, src.twice or 0, tgt.family, tgt.twice or 0)


def _is_core(u: Unknown, n_core2: int) -> bool:
    src, _ = u
    return src.twice is None or abs(src.twice) <= n_core2


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


def _ladder(spec: AlgebraSpec, frame: Frame, columns: tuple, outer: int, vec: dict,
            delta: Fraction) -> Optional[dict]:
    """`vec`'s core part, in int, extended to every source along `frame.rungs` by the identity
    at (l, z), phi(x) = (p*([phi l, z] + [l, phi z]) - q*sum k*phi(C)) / (q*c), and rescaled to
    stay in int; None if a source has no rung or an image leaves the degree's columns."""
    if frame.rungs is None:
        return None
    (unknowns, image), (p, q), memo = columns, (delta.numerator, delta.denominator), spec._cache
    read = lambda a, b: memo[a, b] if (a, b) in memo else bracket_symbols(spec, a, b)
    phi = defaultdict(dict)  # source -> target -> value
    for col, v in linalg._as_ints({c: v for c, v in vec.items() if c >= outer}).items():
        phi[unknowns[col][0]][unknowns[col][1]] = v
    for x, l, z, c, rest in frame.rungs:
        acc = defaultdict(int)
        for (a, b), v in [((t, z), v) for t, v in phi[l].items()] + [
                ((l, t), v) for t, v in phi[z].items()]:
            for sym, w in read(a, b):
                acc[sym] += p * v * w
        for central, k in rest:
            for t, v in phi[central].items():
                acc[t] -= q * k * v
        if (m := abs(q * c) // math.gcd(q * c, *acc.values())) > 1:
            phi = defaultdict(dict, {s: {t: v * m for t, v in ts.items()} for s, ts in phi.items()})
        phi[x] = {t: v * m // (q * c) for t, v in acc.items() if v}
    full = {image.get(src, {}).get(t): v for src, terms in phi.items() for t, v in terms.items()}
    return None if None in full else full


def _checked(spec: AlgebraSpec, unknowns: list, vectors: list, window: Window,
             delta: Fraction) -> bool:
    """Whether every vector, as a map on `unknowns`, is a delta-derivation on every window
    pair: one `composed` pass over ``residual_placements``, in int, up to its first nonzero
    residual.  A source the vector leaves out maps to 0; its table entry is filled with ()."""
    images = {}  # (source, g) -> the int image of source by vector g
    for g, full in enumerate(vectors):
        for c, v in linalg._as_ints(full).items():
            src, tgt = unknowns[c]
            images.setdefault((src, g), []).append((tgt, v))
    phi = (images.get, lambda a, g: images.setdefault((a, g), ()), None)
    placements = residual_placements(spec, phi, delta.numerator, delta.denominator)
    found = composed(((x, y, g), placements) for g in range(len(vectors))
                     for x, y in itertools.combinations(spec.basis_symbols(window.n_eq2), 2))
    return next(found, None) is None


def solve_degree(
    spec: AlgebraSpec,
    g2: int,
    window: Window,
    delta: Fraction = Fraction(1, 2),
    frame: Optional[Frame] = None,
) -> DegreeResult:
    """The interior delta-derivations of degree g2/2, each re-checked on the window: from the
    core pairs, settled or extended by `_ladder` and `_checked`, else from the whole system
    (see the module).  The core unknowns are columns outer..n-1, in reverse basis order, so
    the kernel vectors whose free column is core, last first, are the interior basis."""
    frame = frame or window_frame(spec, window)
    columns = unknowns, _ = _columns(spec, g2, window, frame)
    outer = sum(not _is_core(u, window.n_core2) for u in unknowns)
    kernel = lambda rows: [v for v in reversed(linalg.sparse_nullspace(rows, len(unknowns)))
                           if max(v) >= outer]
    stage = lambda pairs: assemble_system(spec, g2, window, delta, frame._replace(pairs=pairs),
                                          columns)[1]
    basis = kernel(rows := stage(frame.pairs[:frame.inner]))
    extended = [_ladder(spec, frame, columns, outer, vec, delta) for vec in basis]
    checked = None not in extended and _checked(spec, unknowns, extended, window, delta)
    if not checked:
        basis = kernel(rows + stage(frame.pairs[frame.inner:]))
        checked = _checked(spec, unknowns, basis, window, delta)
    interiors = [{unknowns[c]: v for c, v in full.items() if c >= outer} for full in basis]
    return DegreeResult(g2, len(basis), [Generator(_describe(i), i) for i in interiors], checked)


def solve_derivations(
    spec: AlgebraSpec,
    degrees2: Sequence[int],
    window: Window,
    delta: Fraction = Fraction(1, 2),
) -> DerivationReport:
    report = DerivationReport(spec.name, dict(spec.params), window, delta)
    frame = window_frame(spec, window)
    for g2 in sorted(set(degrees2)):
        report.degrees.append(solve_degree(spec, g2, window, delta, frame))
    return report
