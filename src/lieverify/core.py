"""Half-integer graded Lie algebras given by index-polynomial bracket rules.

Indices are stored doubled (twice the displayed value) so that half-integer
indices such as n+1/2 are ordinary integers.  Each family of basis symbols
lives on one lattice: `integer` (L_n), `half` (Y_{n+1/2}) or `central`
(a single unindexed generator).  Bracket rules are listed for one
orientation of each family pair; the opposite orientation is synthesized by
antisymmetry.

A spec compiles its rules times its ``scale`` s, the lcm of their coefficients'
denominators, to integer monomials, so ``eval_rule`` works in ``int`` alone.
``bracket_symbols`` memoizes s*[x, y] as (symbol, ``int``) pairs in ``spec._cache``,
the one bracket memo of every check and of the solver.  A ``Fraction`` is built
only to divide by s: ``live_check`` for a violation, ``bracket``, ``jacobi_terms``.
``composed`` is the one kernel of every bilinear identity: Jacobi, ``tpa``'s
associativity and compatibility, the solver's re-check.  In one pass it sums the
placed terms inner(outer(t[i], t[j]), t[k]) of each tuple t, each op a memo ``table``,
and yields the nonzero sums.  ``reach`` tells from the families alone which rules exist
and what they give; ``composed_plans`` walks it, outer rule to target to inner rule, and
the checks form only the tuples and terms that can compose to a nonzero term
(``live_window``) and count the rest in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .linalg import axpy
from .poly import Poly

INTEGER = "integer"
HALF = "half"
CENTRAL = "central"
LATTICES = (INTEGER, HALF, CENTRAL)


class StructureError(ValueError):
    """Structurally invalid algebra data, or a symbol outside the algebra."""


class WindowError(ValueError):
    """A truncation window violates its size invariants."""


@dataclass(frozen=True)
class Family:
    """One family of basis symbols (L, M, Y, C_L, ...)."""

    name: str
    lattice: str
    shift2: int = 0  # twice-degree added to the index to give the grading degree

    def __post_init__(self) -> None:
        if self.lattice not in LATTICES:
            raise StructureError(f"unknown lattice {self.lattice!r} for family {self.name}")
        if self.lattice == CENTRAL and self.shift2 != 0:
            raise StructureError(f"central family {self.name} must have degree 0")

    @property
    def parity(self) -> int:
        """Parity of the doubled index: 1 on the half lattice, else 0."""
        return 1 if self.lattice == HALF else 0


class BasisSymbol(NamedTuple):
    """A single basis symbol: family name plus doubled index (None if central)."""

    family: str
    twice: Optional[int]


def _shown(text: str) -> str:
    """repr(text) for a message; past 40 characters, the first 40, '…' and the length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}… ({len(text)} characters)"


def _bare(name: str) -> str:
    """name itself for a message; past 40 characters, cut by `_shown`."""
    return name if len(name) <= 40 else _shown(name)


def format_index2(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def format_symbol(sym: BasisSymbol) -> str:
    if sym.twice is None:
        return sym.family
    return f"{sym.family}({format_index2(sym.twice)})"


class Element:
    """Finite rational linear combination of basis symbols.

    Normal form: no zero coefficients are ever stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[BasisSymbol, Fraction] | None = None):
        self.terms: dict[BasisSymbol, Fraction] = {}
        if terms:
            for sym, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    self.terms[sym] = coeff

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def basis(cls, sym: BasisSymbol, coeff: Fraction | int = 1) -> "Element":
        return cls({sym: Fraction(coeff)})

    def __add__(self, other: "Element") -> "Element":
        return Element(axpy(dict(self.terms), other.terms))

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1)

    def __neg__(self) -> "Element":
        return self.scale(-1)

    def scale(self, factor: Fraction | int) -> "Element":
        factor = Fraction(factor)
        return Element({sym: coeff * factor for sym, coeff in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def items(self):
        return self.terms.items()

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for sym in sorted(self.terms, key=lambda s: (s.family, s.twice if s.twice is not None else 0)):
            coeff = self.terms[sym]
            parts.append(f"{coeff}*{format_symbol(sym)}")
        return " + ".join(parts)


@dataclass(frozen=True)
class DeltaCondition:
    """Kronecker condition m + n + shift = 0 in the rule's index variables.

    `shift` may be any rational; a non-integral shift can never fire, so
    off-lattice delta terms vanish silently.
    """

    shift: Fraction


@dataclass(frozen=True)
class BracketTerm:
    """One summand poly(m,n) * [delta(m+n+c)] * Target(m+n+offset)."""

    coeff: Poly
    target: str
    offset: int = 0
    delta: Optional[DeltaCondition] = None


@dataclass(frozen=True)
class BracketRule:
    """All nonzero terms of [Left(m), Right(n)] for one ordered family pair."""

    left: str
    right: str
    terms: tuple[BracketTerm, ...]


def add_family(families: dict[str, Family], fam: Family) -> None:
    """Add `fam` to the name -> Family map, rejecting repeated and reserved names."""
    if fam.name in families:
        raise StructureError(f"duplicate family {_bare(fam.name)}")
    if fam.name in ("m", "n", "delta"):
        raise StructureError("family names m, n and delta are reserved")
    families[fam.name] = fam


def add_rule(
    pairs: dict[frozenset, BracketRule],
    families: Mapping[str, Family],
    rule: BracketRule,
    what: str,
) -> None:
    """Validate one `what` rule against the families; index it by unordered pair."""
    for name in (rule.left, rule.right):
        if name not in families:
            raise StructureError(f"{what} rule references unknown family {_shown(name)}")
        if families[name].lattice == CENTRAL:
            raise StructureError(f"central family {_shown(name)} cannot head a {what} rule")
    key = frozenset((rule.left, rule.right))
    if key in pairs:
        raise StructureError(
            f"duplicate rule for family pair ({_bare(rule.left)}, {_bare(rule.right)}) "
            f"in the {what} rules"
        )
    for term in rule.terms:
        if term.target not in families:
            raise StructureError(f"{what} rule targets unknown family {_shown(term.target)}")
    pairs[key] = rule


def _compiled(term: BracketTerm, target: Family, scale: int):
    """`term` times `scale` as (monomials, fires_at, target, base), or None if it never fires:
    (em, en, int coefficient) triples, the integer m+n at which its delta fires (None:
    always), the target's name and its doubled index less 2*(m+n) (None if central)."""
    fires_at = None
    if term.delta is not None:
        if term.delta.shift.denominator != 1:
            return None  # an off-lattice delta never fires
        fires_at = -term.delta.shift.numerator
    monomials = tuple((em, en, (c * scale).numerator) for (em, en), c in term.coeff.coeffs.items())
    base = None if target.lattice == CENTRAL else 2 * term.offset + target.parity
    return monomials, fires_at, target.name, base


def index_rules(owner, families: Mapping[str, Family], what: str) -> None:
    """Index `owner.rules` by unordered pair in `owner._pair`, each one checked
    by `add_rule` and compiled times `owner.scale`, the lcm of the rule
    coefficients' denominators, which this sets: `eval_rule` then works in `int`."""
    for rule in owner.rules:
        add_rule(owner._pair, families, rule, what)
    scale = math.lcm(*(c.denominator for rule in owner.rules for term in rule.terms
                       for c in term.coeff.coeffs.values()))
    object.__setattr__(owner, "scale", scale)  # owner is a frozen dataclass
    for key, rule in owner._pair.items():
        terms = (_compiled(term, families[term.target], scale) for term in rule.terms)
        owner._pair[key] = (rule.left, rule.right, tuple(t for t in terms if t is not None))


@dataclass(frozen=True)
class Window:
    """Truncation bounds in doubled-index units.

    n_eq2 bounds the indices on which equations/checks are imposed, n_core2
    the interior kept for reporting.  The solver's unknowns follow from the
    equations, so they need no bound of their own.
    """

    n_eq2: int
    n_core2: int

    def __post_init__(self) -> None:
        if self.n_eq2 < 0 or self.n_core2 < 0:
            raise WindowError("window bounds must be nonnegative")
        if 2 * self.n_core2 > self.n_eq2:
            raise WindowError(
                f"n_core {Fraction(self.n_core2, 2)} must not exceed n_eq/2 = {Fraction(self.n_eq2, 4)}"
            )

    @classmethod
    def displayed(cls, n_eq: int = 8, n_core: int = 3) -> "Window":
        return cls(2 * n_eq, 2 * n_core)


@dataclass(frozen=True)
class Violation:
    witness: tuple[BasisSymbol, ...]
    residual: Element
    message: str = ""

    def as_dict(self) -> dict:
        return {
            "witness": [format_symbol(s) for s in self.witness],
            "residual": repr(self.residual),
            "message": self.message,
        }


@dataclass(frozen=True)
class Report:
    check: str
    violations: tuple[Violation, ...]
    pairs_checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "pairs_checked": self.pairs_checked,
            "violations": [v.as_dict() for v in self.violations],
        }


@dataclass(frozen=True)
class AlgebraSpec:
    """A graded Lie algebra presented by families and bracket rules."""

    name: str
    families: tuple[Family, ...]
    rules: tuple[BracketRule, ...]
    params: Mapping[str, Fraction] = field(default_factory=dict, compare=False)
    # name -> Family in declaration order, filled by __post_init__
    family_map: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # unordered family pair -> (left, right, `_compiled` terms), and scale: set by index_rules
    _pair: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    scale: int = field(init=False, repr=False, compare=False, default=1)
    # (x, y) -> scale * [x, y] as (symbol, int) pairs, filled by bracket_symbols
    _cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        for fam in self.families:
            add_family(self.family_map, fam)
        index_rules(self, self.family_map, "bracket")

    def family(self, name: str) -> Family:
        try:
            return self.family_map[name]
        except KeyError:
            raise StructureError(f"unknown family {_shown(name)} in algebra {self.name}") from None

    def degree2(self, sym: BasisSymbol) -> int:
        fam = self.family(sym.family)
        if fam.lattice == CENTRAL:
            return 0
        assert sym.twice is not None
        return sym.twice + fam.shift2

    def symbol(self, family: str, displayed: Fraction | int | None = None) -> BasisSymbol:
        fam = self.family(family)
        if fam.lattice == CENTRAL:
            if displayed is not None:
                raise StructureError(f"central symbol {family} takes no index")
            return BasisSymbol(family, None)
        if displayed is None:
            raise StructureError(f"symbol of family {family} needs an index")
        twice = Fraction(displayed) * 2
        if twice.denominator != 1:
            raise StructureError(f"index {displayed} is not on a half-integer lattice")
        twice = int(twice)
        if twice % 2 != fam.parity:
            raise StructureError(
                f"index {displayed} has the wrong parity for {fam.lattice} family {family}"
            )
        return BasisSymbol(family, twice)

    def basis_symbols(self, bound2: int, include_central: bool = True) -> Iterator[BasisSymbol]:
        """All basis symbols with |doubled index| <= bound2, in a fixed order."""
        for fam in self.families:
            if fam.lattice == CENTRAL:
                if include_central:
                    yield BasisSymbol(fam.name, None)
                continue
            for twice in range(-bound2, bound2 + 1):
                if twice % 2 == fam.parity:
                    yield BasisSymbol(fam.name, twice)


def eval_rule(
    pairs: Mapping, x: BasisSymbol, y: BasisSymbol, antisymmetric: bool
) -> dict[BasisSymbol, int]:
    """Evaluate at (x, y) the rule for their families as a symbol->int dict.

    `pairs` indexes compiled rules (`_pair` of a spec, see `index_rules`); a
    pair with no rule gives {}.  When x does not sit in the rule's left slot
    the index variables swap, and an antisymmetric (bracket) rule also flips
    its sign.
    """
    rule = pairs.get(frozenset((x.family, y.family)))
    if rule is None:
        return {}
    left, right, terms = rule
    if left == x.family and (right == y.family or left == right):
        sign, a, b = 1, x, y
    else:
        sign, a, b = (-1 if antisymmetric else 1), y, x
    # the rule variables m and n: no rule has a central family, and on the half
    # lattice twice is odd, so twice // 2 == (twice - 1) // 2
    mv, nv = a.twice // 2, b.twice // 2
    out: dict[BasisSymbol, int] = {}
    for monomials, fires_at, target, base in terms:
        if fires_at is not None and fires_at != mv + nv:
            continue
        sym = BasisSymbol(target, None if base is None else 2 * (mv + nv) + base)
        value = 0
        for em, en, c in monomials:
            value += c * mv ** em * nv ** en
        out[sym] = out.get(sym, 0) + sign * value
    return {sym: value for sym, value in out.items() if value}


def bracket_symbols(
    spec: AlgebraSpec, x: BasisSymbol, y: BasisSymbol
) -> tuple[tuple[BasisSymbol, int], ...]:
    """scale * [x, y] for basis symbols as (symbol, int) pairs, memoized in `spec._cache`."""
    if (terms := spec._cache.get((x, y))) is None:
        terms = tuple(eval_rule(spec._pair, x, y, antisymmetric=True).items())
        if not terms:  # `add_rule` gives no rule an unknown family: look only now
            spec.family(x.family)
            spec.family(y.family)
        spec._cache[x, y] = terms
    return terms


def _over(terms: Mapping[BasisSymbol, int], divisor: int) -> dict[BasisSymbol, Fraction]:
    """terms / divisor with `Fraction` values; {} stays {} and builds none."""
    return {sym: Fraction(value, divisor) for sym, value in terms.items()}


def bilinear(table: Callable, owner, x, y) -> dict:
    """Bilinear extension of the basis-pair table `table(owner, sx, sy)`, as a fresh dict.

    The table yields (symbol, coefficient) pairs.  Each argument is a basis
    symbol or a symbol->coefficient mapping (an Element works).
    """
    acc: dict = {}
    xs = {x: 1} if isinstance(x, BasisSymbol) else x
    for sy, cy in ({y: 1} if isinstance(y, BasisSymbol) else y).items():
        for sx, cx in xs.items():
            for sym, value in table(owner, sx, sy):
                acc[sym] = acc.get(sym, 0) + cx * cy * value
    return {sym: value for sym, value in acc.items() if value}


def bracket(spec: AlgebraSpec, x: Element | BasisSymbol, y: Element | BasisSymbol) -> Element:
    """Bilinear extension of the bracket rules to arbitrary elements."""
    return Element(_over(bilinear(bracket_symbols, spec, x, y), spec.scale))


def live_check(check: str, count: int, found: Iterable, message: str, divisor: int = 1) -> Report:
    """The report on `count` window tuples, of which only the (t, residual) of `found` are
    evaluated (the rest are zero by construction): a violation for each nonzero residual,
    which is `divisor` times the true one and divided back only then."""
    violations = tuple(Violation(t, Element(_over(r, divisor)), message) for t, r in found if r)
    return Report(check, violations, count)


def live_window(symbols: Sequence[BasisSymbol], live: Mapping, after: tuple) -> Iterator[tuple]:
    """(t, live[f]) for each window tuple t whose family tuple f is a key of `live`, in
    itertools' order: lexicographic in the positions in `symbols`.  t[k] starts after[k]
    places past t[k-1], or at the first symbol where after[k] is None: (None, 1, 1) gives
    `combinations`' triples.  `symbols` holds each family in one block, as `basis_symbols`
    lists them, so a family prefix that no key extends is passed over a block at a time."""
    blocks: dict[str, list[int]] = {}  # family -> [start, stop) in symbols
    for i, sym in enumerate(symbols):
        blocks.setdefault(sym.family, [i, i])[1] = i + 1
    heads = {(), *(f[:k] for f in live for k in range(1, len(after)))}  # proper prefixes
    # head -> (key, start, stop) for each block that extends it to a head or a live key
    nexts = {h: [(h + (f,), *span) for f, span in blocks.items()
                 if h + (f,) in heads or h + (f,) in live] for h in heads}
    return _walk(symbols, live, after, nexts, (), (), 0)


def _walk(symbols, live, after, nexts, fams: tuple, t: tuple, prev: int) -> Iterator[tuple]:
    """`live_window`'s tuples that extend t, of families fams, t[-1] at `prev`.  Not a closure:
    one that calls itself is a reference cycle, keeping `live` and a spec's memo alive."""
    first = 0 if after[len(t)] is None else prev + after[len(t)]
    for key, start, stop in nexts[fams]:
        if key in live:
            value = live[key]
            for sym in symbols[max(start, first):stop]:
                yield t + (sym,), value
        else:
            for i in range(max(start, first), stop):
                yield from _walk(symbols, live, after, nexts, key, t + (symbols[i],), i)


def reach(pairs: Mapping) -> dict[str, dict[str, frozenset[str]]]:
    """family -> partner family -> the target families of their rule in the compiled
    index `pairs` (`_pair` of a spec).  A pair with no rule is absent; a rule whose
    terms all were dropped by `_compiled` maps to the empty set."""
    table: dict[str, dict[str, frozenset[str]]] = {}
    for left, right, terms in pairs.values():
        targets = frozenset(target for _, _, target, _ in terms)
        table.setdefault(left, {})[right] = table.setdefault(right, {})[left] = targets
    return table


def table(owner, fill: Callable) -> tuple:
    """`owner`'s op for `composed`: (its memo's `get`, `fill` bound to `owner`, `owner`).  The
    memo `owner._cache` holds s * (a op b) as (symbol, int) pairs.  A check builds its tables
    when called, so they bind the fill (`bracket_symbols`, `product_symbols`) its module holds."""
    return owner._cache.get, partial(fill, owner), owner


def placed(rotations: tuple, op: tuple) -> tuple:
    """The placements (i, j, k, sign, op, op, False) of each (i, j, k, sign) of `rotations`."""
    return tuple((*r, op, op, False) for r in rotations)


def composed(items: Iterable[tuple]) -> Iterator[tuple]:
    """(t, the sum of sign * inner(outer(t[i], t[j]), t[k]) over the placements
    (i, j, k, sign, outer, inner, right)) for each (t, placements) of `items` where that sum,
    in `int`, is nonzero; `right` puts t[k] in the left slot: inner(t[k], outer(t[i], t[j])).
    outer and inner are `table`s, read directly on a hit, a memoized () too, and filled only
    on a miss.  Each term is formed as written: nothing of either op is assumed."""
    for t, placements in items:
        acc: dict[BasisSymbol, int] = {}
        get = acc.get
        for i, j, k, sign, (outer_get, outer_fill, _), (inner_get, inner_fill, _), right in placements:
            a, b, c = t[i], t[j], t[k]
            if (outer := outer_get((a, b))) is None:
                outer = outer_fill(a, b)
            for sym, coeff in outer:
                coeff *= sign
                key = (c, sym) if right else (sym, c)
                if (inner := inner_get(key)) is None:
                    inner = inner_fill(*key)
                for out, value in inner:
                    acc[out] = get(out, 0) + coeff * value
        if any(acc.values()):
            yield t, {out: value for out, value in acc.items() if value}


def composed_plans(placements: tuple) -> dict:
    """family triple f -> the placements of `placements`, in their order, whose families
    f[i], f[j] and f[k] compose on their tables' rules, for each f where one does: walked
    from the rule graph, outer rule (a, b) -> target family g -> inner rule (g, c) with a
    term.  Every placement left out gives zero by construction: `eval_rule` gives {} for a
    pair with no rule.  Owners are keyed by `id`: hashing a frozen spec hashes every rule."""
    owners = {id(op[2]): op[2] for p in placements for op in p[4:6]}
    reaches = {key: reach(owner._pair) for key, owner in owners.items()}
    marks: dict[tuple, set[int]] = {}
    for n, (i, j, k, _, outer, inner, _) in enumerate(placements):
        partners = reaches[id(inner[2])]
        for a, rules in reaches[id(outer[2])].items():
            for b, targets in rules.items():
                for c in {c for g in targets for c, out in partners.get(g, {}).items() if out}:
                    f = dict(zip((i, j, k), (a, b, c)))
                    marks.setdefault((f[0], f[1], f[2]), set()).add(n)
    return {f: tuple(p for n, p in enumerate(placements) if n in kept) for f, kept in marks.items()}


def check_skew(spec: AlgebraSpec, window: Window) -> Report:
    """Verify [x,y] + [y,x] = 0 for all basis pairs within the window.

    Runs on s*([x,y] + [y,x]) in `int`, s = `spec.scale`.  Only a pair within one
    family that has a rule with itself is formed (`live_window`): `eval_rule` reads
    both orders of a pair from two families from their one rule and flips the sign,
    so it is antisymmetric by construction, and a pair with no rule gives {}.
    `pairs_checked` counts every pair, C(n+1, 2) for n symbols.
    """
    symbols = list(spec.basis_symbols(window.n_eq2))
    memo = spec._cache  # read directly on a hit, a memoized () too: `bracket_symbols` fills it
    read = lambda x, y: t if (t := memo.get((x, y))) is not None else bracket_symbols(spec, x, y)
    ruled = {(f, f): None for f, partners in reach(spec._pair).items() if f in partners}
    found = (((x, y), axpy(dict(read(x, y)), dict(read(y, x))))
             for (x, y), _ in live_window(symbols, ruled, (None, 0)))
    return live_check("skew", math.comb(len(symbols) + 1, 2), found, "skew-symmetry broken",
                      spec.scale)


_jacobi_rotations = ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1))  # [[x,y],z] + [[y,z],x] + [[z,x],y]


def jacobi_terms(
    spec: AlgebraSpec, x: BasisSymbol, y: BasisSymbol, z: BasisSymbol
) -> dict[BasisSymbol, Fraction]:
    """J(x,y,z) = [[x,y],z] + [[y,z],x] + [[z,x],y] as a symbol->coefficient dict.

    Each of x, y and z heads an outer bracket, so an unknown family raises
    `StructureError` from `bracket_symbols`.
    """
    rotations = placed(_jacobi_rotations, table(spec, bracket_symbols))
    return _over(next(composed([((x, y, z), rotations)]), (None, {}))[1], spec.scale ** 2)


def check_jacobi(spec: AlgebraSpec, window: Window) -> Report:
    """Jacobi residual over all basis triples within the window.

    Given bilinearity and antisymmetry, residuals with a repeated symbol
    vanish identically, so distinct triples suffice.  The cyclic terms are
    formed as written: on a skew-broken bracket the sum is still J, not a
    multiple of it.  Only a triple with a term whose families compose is formed, and
    only those terms reach the one `composed` pass (`composed_plans`); `pairs_checked`
    counts every triple, C(n, 3) for n symbols.
    """
    symbols = list(spec.basis_symbols(window.n_eq2))
    plans = composed_plans(placed(_jacobi_rotations, table(spec, bracket_symbols)))
    return live_check("jacobi", math.comb(len(symbols), 3),
                      composed(live_window(symbols, plans, (None, 1, 1))),
                      "Jacobi identity broken", spec.scale ** 2)


def check_grading(spec: AlgebraSpec, window: Window) -> Report:
    """Degree additivity: deg([x,y]) = deg(x) + deg(y) for every nonzero term.

    Central targets carry degree 0, so they require the source degrees to
    sum to zero.  A pair whose families have no rule has no term, so it is
    not formed (`live_window`); `pairs_checked` counts every pair, C(m+1, 2)
    for the m non-central symbols.
    """
    symbols = list(spec.basis_symbols(window.n_eq2, include_central=False))
    ruled = {(a, b): None for a, partners in reach(spec._pair).items() for b in partners}
    memo = spec._cache  # read directly on a hit, as `check_skew` does
    violations = []
    for (x, y), _ in live_window(symbols, ruled, (None, 0)):
        want = spec.degree2(x) + spec.degree2(y)
        if (terms := memo.get((x, y))) is None:
            terms = bracket_symbols(spec, x, y)
        for sym, value in terms:
            if spec.degree2(sym) != want:
                message = (f"term degree {format_index2(spec.degree2(sym))} != "
                           f"source degree sum {format_index2(want)}")
                violations.append(Violation((x, y), Element({sym: Fraction(value, spec.scale)}), message))
    return Report("grading", tuple(violations), math.comb(len(symbols) + 1, 2))
