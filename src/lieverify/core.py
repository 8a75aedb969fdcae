"""Half-integer graded Lie algebras given by index-polynomial bracket rules.

Indices are stored doubled (twice the displayed value) so that half-integer
indices such as n+1/2 are ordinary integers.  Each family of basis symbols
lives on one lattice: `integer` (L_n), `half` (Y_{n+1/2}) or `central`
(a single unindexed generator).  Bracket rules are listed for one
orientation of each family pair; the opposite orientation is synthesized by
antisymmetry.

``bilinear`` and residual kernels such as ``jacobi_terms`` return plain dicts;
``bracket`` wraps one in an ``Element``; ``window_check`` builds one per violation.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

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

    def fires(self, m: int, n: int) -> bool:
        return m + n + self.shift == 0


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
        raise StructureError(f"duplicate family {fam.name}")
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
            raise StructureError(f"{what} rule references unknown family {name!r}")
        if families[name].lattice == CENTRAL:
            raise StructureError(f"central family {name!r} cannot head a {what} rule")
    key = frozenset((rule.left, rule.right))
    if key in pairs:
        raise StructureError(
            f"duplicate rule for family pair ({rule.left}, {rule.right}) in the {what} rules"
        )
    for term in rule.terms:
        if term.target not in families:
            raise StructureError(f"{what} rule targets unknown family {term.target!r}")
    pairs[key] = rule


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
    _pair: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        for fam in self.families:
            add_family(self.family_map, fam)
        for rule in self.rules:
            add_rule(self._pair, self.family_map, rule, "bracket")

    def family(self, name: str) -> Family:
        try:
            return self.family_map[name]
        except KeyError:
            raise StructureError(f"unknown family {name!r} in algebra {self.name}") from None

    def rule_for(self, left: str, right: str) -> Optional[BracketRule]:
        return self._pair.get(frozenset((left, right)))

    def degree2(self, sym: BasisSymbol) -> int:
        fam = self.family(sym.family)
        if fam.lattice == CENTRAL:
            return 0
        assert sym.twice is not None
        return sym.twice + fam.shift2

    def rule_var(self, sym: BasisSymbol) -> int:
        """The integer value of the rule variable (m or n) for this symbol."""
        fam = self.family(sym.family)
        if fam.lattice == CENTRAL:
            raise StructureError(f"central symbol {sym.family} carries no index")
        assert sym.twice is not None
        return sym.twice // 2  # on the half lattice twice is odd: twice // 2 == (twice - 1) // 2

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
    spec: AlgebraSpec, rule: BracketRule, x: BasisSymbol, y: BasisSymbol, antisymmetric: bool
) -> dict[BasisSymbol, Fraction]:
    """Evaluate `rule` at the symbol pair (x, y) as a symbol->coefficient dict.

    When x does not sit in the rule's left slot the index variables swap,
    and an antisymmetric (bracket) rule also flips its sign.
    """
    if rule.left == x.family and (rule.right == y.family or rule.left == rule.right):
        sign, a, b = 1, x, y
    else:
        sign, a, b = (-1 if antisymmetric else 1), y, x
    mv = spec.rule_var(a)
    nv = spec.rule_var(b)
    out: dict[BasisSymbol, Fraction] = {}
    for term in rule.terms:
        if term.delta is not None and not term.delta.fires(mv, nv):
            continue
        tf = spec.family(term.target)
        if tf.lattice == CENTRAL:
            sym = BasisSymbol(term.target, None)
        else:
            sym = BasisSymbol(term.target, 2 * (mv + nv + term.offset) + tf.parity)
        axpy(out, {sym: term.coeff.evaluate(mv, nv)}, sign)
    return out


def bracket_symbols(spec: AlgebraSpec, x: BasisSymbol, y: BasisSymbol) -> dict[BasisSymbol, Fraction]:
    """[x, y] for basis symbols, as a symbol->coefficient dict (memoized)."""
    key = (x, y)
    cached = spec._cache.get(key)
    if cached is not None:
        return cached
    spec.family(x.family)  # raise StructureError on unknown families
    spec.family(y.family)
    rule = spec.rule_for(x.family, y.family)
    out = {} if rule is None else eval_rule(spec, rule, x, y, antisymmetric=True)
    spec._cache[key] = out
    return out


def bilinear(table: Callable, owner, x, y) -> dict[BasisSymbol, Fraction]:
    """Bilinear extension of the basis-pair table `table(owner, sx, sy)`, as a fresh dict.

    Each argument is a basis symbol or a symbol->coefficient mapping (an
    Element works); a mapping on the right is expanded one symbol at a time.
    """
    acc: dict[BasisSymbol, Fraction] = {}
    if not isinstance(y, BasisSymbol):
        for sy, cy in y.items():
            axpy(acc, bilinear(table, owner, x, sy), cy)
        return acc
    for sx, cx in ({x: 1} if isinstance(x, BasisSymbol) else x).items():
        axpy(acc, table(owner, sx, y), cx)
    return acc


def bracket(spec: AlgebraSpec, x: Element | BasisSymbol, y: Element | BasisSymbol) -> Element:
    """Bilinear extension of the bracket rules to arbitrary elements."""
    return Element(bilinear(bracket_symbols, spec, x, y))


def window_check(
    check: str,
    tuples: Iterable[tuple[BasisSymbol, ...]],
    residual: Callable[..., Mapping[BasisSymbol, Fraction]],
    message: str,
) -> Report:
    """Count `tuples` and record a violation for each nonzero residual(*t)."""
    violations = []
    count = 0
    for t in tuples:
        count += 1
        r = residual(*t)
        if r:
            violations.append(Violation(t, Element(r), message))
    return Report(check, tuple(violations), count)


def check_skew(spec: AlgebraSpec, window: Window) -> Report:
    """Verify [x,y] + [y,x] = 0 for all basis pairs within the window."""
    return window_check(
        "skew",
        itertools.combinations_with_replacement(spec.basis_symbols(window.n_eq2), 2),
        lambda x, y: axpy(dict(bracket_symbols(spec, x, y)), bracket_symbols(spec, y, x)),
        "skew-symmetry broken",
    )


def jacobi_terms(
    spec: AlgebraSpec, x: BasisSymbol, y: BasisSymbol, z: BasisSymbol
) -> dict[BasisSymbol, Fraction]:
    """J(x,y,z) = [[x,y],z] + [[y,z],x] + [[z,x],y] as a symbol->coefficient dict."""
    acc: dict[BasisSymbol, Fraction] = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for sym, coeff in bracket_symbols(spec, a, b).items():
            axpy(acc, bracket_symbols(spec, sym, c), coeff)
    return acc


def check_jacobi(spec: AlgebraSpec, window: Window) -> Report:
    """Jacobi residual over all basis triples within the window.

    Given bilinearity and antisymmetry, residuals with a repeated symbol
    vanish identically, so distinct triples suffice.
    """
    return window_check(
        "jacobi",
        itertools.combinations(spec.basis_symbols(window.n_eq2), 3),
        functools.partial(jacobi_terms, spec),
        "Jacobi identity broken",
    )


def check_grading(spec: AlgebraSpec, window: Window) -> Report:
    """Degree additivity: deg([x,y]) = deg(x) + deg(y) for every nonzero term.

    Central targets carry degree 0, so they require the source degrees to
    sum to zero.
    """
    symbols = list(spec.basis_symbols(window.n_eq2, include_central=False))
    violations = []
    count = 0
    for i, x in enumerate(symbols):
        for y in symbols[i:]:
            count += 1
            want = spec.degree2(x) + spec.degree2(y)
            for sym, coeff in bracket_symbols(spec, x, y).items():
                if spec.degree2(sym) != want:
                    violations.append(
                        Violation(
                            (x, y),
                            Element({sym: coeff}),
                            f"term degree {format_index2(spec.degree2(sym))} != "
                            f"source degree sum {format_index2(want)}",
                        )
                    )
    return Report("grading", tuple(violations), count)
