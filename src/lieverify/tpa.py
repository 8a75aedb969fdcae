"""Transposed Poisson structures: commutative products paired with a
Lie bracket through the compatibility law

    2*z*[x, y] = [z*x, y] + [x, z*y].

A candidate product is given by symmetric rules in the same shape as
bracket rules.  ``check_tpa`` verifies commutativity (structural),
associativity, and the compatibility law over a finite index window and
reports the first witness for any failure.  ``theorem_product`` builds
the family of products that the deformed algebras L1(lambda=1, mu)
carry; ``left_mult_derivation`` checks that multiplication by a fixed
element is a 1/2-derivation of the bracket.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .core import (
    AlgebraSpec,
    BasisSymbol,
    BracketRule,
    BracketTerm,
    Element,
    StructureError,
    Violation,
    Report,
    _as_element,
    bracket,
    eval_rule,
    index_rules,
)
from .derivations import derivation_residual
from .linalg import axpy
from .poly import Poly


@dataclass(frozen=True)
class ProductSpec:
    """Symmetric bilinear product on the span of an algebra's basis.

    Rules are stored for one orientation of each family pair; the
    reversed orientation swaps the index variables without a sign.
    """

    algebra: AlgebraSpec
    rules: tuple[BracketRule, ...]
    _pair: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        families = {f.name: f for f in self.algebra.families}
        self._pair.update(index_rules(families, self.rules, "product"))

    def rule_for(self, left: str, right: str) -> Optional[BracketRule]:
        return self._pair.get(frozenset((left, right)))


def _eval_product_rule(
    prod: ProductSpec, x: BasisSymbol, y: BasisSymbol
) -> dict[BasisSymbol, Fraction]:
    """Evaluate the stored rule with x in the left slot (no caching)."""
    rule = prod.rule_for(x.family, y.family)
    return {} if rule is None else eval_rule(prod.algebra, rule, x, y, antisymmetric=False)


def product_symbols(prod: ProductSpec, x: BasisSymbol, y: BasisSymbol) -> dict[BasisSymbol, Fraction]:
    # canonical argument order keeps the product symmetric by construction
    key = (x, y)
    if (y.family, y.twice or 0) < (x.family, x.twice or 0):
        key = (y, x)
    cached = prod._cache.get(key)
    if cached is None:
        cached = _eval_product_rule(prod, key[0], key[1])
        prod._cache[key] = cached
    return cached


def product(prod: ProductSpec, x, y) -> Element:
    x = _as_element(x)
    y = _as_element(y)
    acc: dict[BasisSymbol, Fraction] = {}
    for sx, cx in x.items():
        for sy, cy in y.items():
            axpy(acc, product_symbols(prod, sx, sy), cx * cy)
    return Element(acc)


def theorem_product(
    spec: AlgebraSpec,
    alpha: Mapping[int, Fraction] | None = None,
    beta: Mapping[int, Fraction] | None = None,
) -> ProductSpec:
    """The commutative products carried by L1 at lambda = 1.

    With free rational parameters alpha_t, beta_t (finitely supported):

        L(m)*L(n) = sum_t alpha_t * M(m+n+t) + sum_t beta_t * Y(m+n+t)
        L(m)*Y(n) = sum_t beta_t * M(m+n+t+1)

    and all other products vanish.  Offsets t are integers; Y indices use
    the displayed convention (Y(k) means index k+1/2).
    """
    if spec.params.get("lambda") != 1 or not {"L", "M", "Y"} <= {f.name for f in spec.families}:
        raise StructureError(
            "theorem_product requires an L1-type algebra with lambda = 1"
        )
    alpha = {int(t): Fraction(v) for t, v in (alpha or {}).items() if v}
    beta = {int(t): Fraction(v) for t, v in (beta or {}).items() if v}
    ll = [BracketTerm(Poly.const(v), "M", t) for t, v in sorted(alpha.items())]
    ll += [BracketTerm(Poly.const(v), "Y", t) for t, v in sorted(beta.items())]
    ly = [BracketTerm(Poly.const(v), "M", t + 1) for t, v in sorted(beta.items())]
    rules = []
    if ll:
        rules.append(BracketRule("L", "L", tuple(ll)))
    if ly:
        rules.append(BracketRule("L", "Y", tuple(ly)))
    return ProductSpec(spec, tuple(rules))


def check_commutative(prod: ProductSpec, bound2: int) -> Report:
    """Products are stored once per unordered pair, so x*y == y*x holds
    by construction; the remaining content is that each rule evaluates
    identically with its two arguments exchanged."""
    violations = []
    symbols = list(prod.algebra.basis_symbols(bound2))
    checked = 0
    for i, x in enumerate(symbols):
        for y in symbols[i:]:
            checked += 1
            left = Element(_eval_product_rule(prod, x, y))
            right = Element(_eval_product_rule(prod, y, x))
            if left != right:
                violations.append(
                    Violation((x, y), left - right, "commutativity broken")
                )
    return Report("commutativity", tuple(violations), checked)


def check_associative(prod: ProductSpec, bound2: int) -> Report:
    violations = []
    symbols = list(prod.algebra.basis_symbols(bound2))
    checked = 0
    for i, x in enumerate(symbols):
        for j, y in enumerate(symbols[i:], start=i):
            for z in symbols[j:]:
                checked += 1
                lhs = product(prod, product(prod, x, y), z)
                rhs = product(prod, x, product(prod, y, z))
                if lhs != rhs:
                    violations.append(
                        Violation((x, y, z), lhs - rhs, "associativity broken")
                    )
    return Report("associativity", tuple(violations), checked)


def compatibility_residual(prod: ProductSpec, x: BasisSymbol, y: BasisSymbol, z: BasisSymbol) -> Element:
    """2*z*[x,y] - [z*x, y] - [x, z*y]."""
    spec = prod.algebra
    zxy = product(prod, z, bracket(spec, x, y)).scale(Fraction(2))
    return zxy - bracket(spec, product(prod, z, x), y) - bracket(spec, x, product(prod, z, y))


def check_compatibility(prod: ProductSpec, bound2: int) -> Report:
    violations = []
    symbols = list(prod.algebra.basis_symbols(bound2))
    checked = 0
    for i, x in enumerate(symbols):
        for y in symbols[i + 1 :]:
            for z in symbols:
                checked += 1
                residual = compatibility_residual(prod, x, y, z)
                if residual:
                    violations.append(
                        Violation((x, y, z), residual, "compatibility broken")
                    )
    return Report("compatibility", tuple(violations), checked)


def check_tpa(prod: ProductSpec, bound2: int) -> list[Report]:
    """Full transposed-Poisson check over the window |index| <= bound2/2."""
    return [
        check_commutative(prod, bound2),
        check_associative(prod, bound2),
        check_compatibility(prod, bound2),
    ]


def left_mult_derivation(
    prod: ProductSpec, z: Element | BasisSymbol, bound2: int
) -> dict[BasisSymbol, Element]:
    """The map x -> z*x as a coefficient table over the window.

    By the transposed-Poisson compatibility law this is a 1/2-derivation
    of the bracket; feed the table to ``derivation_residual`` to verify.
    """
    table = {}
    for sym in prod.algebra.basis_symbols(bound2):
        image = product(prod, z, sym)
        if image:
            table[sym] = image
    return table


def check_left_mult(prod: ProductSpec, z: Element | BasisSymbol, bound2: int) -> Report:
    """Check that left multiplication by z is a 1/2-derivation."""
    # evaluate z*s lazily: bracket outputs can fall outside a fixed table
    table = lambda s: product(prod, z, s)
    symbols = list(prod.algebra.basis_symbols(bound2))
    violations = []
    checked = 0
    for i, x in enumerate(symbols):
        for y in symbols[i + 1 :]:
            checked += 1
            residual = derivation_residual(prod.algebra, table, x, y, Fraction(1, 2))
            if residual:
                violations.append(
                    Violation((x, y), residual, "left multiplication is not a 1/2-derivation")
                )
    return Report("left-multiplication", tuple(violations), checked)


def parse_products(text: str, spec: AlgebraSpec) -> ProductSpec:
    """Parse .liealg `product` statements against an existing algebra."""
    from . import dsl

    families = {f.name: f for f in spec.families}
    body = dsl._parse_body(text, spec.params, known_families=families, require_header=False)
    if body.rules:
        raise dsl.DslError("bracket statements are not allowed in a product file", 1, 1)
    rules = tuple(BracketRule(l, r, tuple(terms)) for l, r, terms, _ in body.products)
    try:
        return ProductSpec(spec, rules)
    except StructureError as exc:
        raise dsl.DslError(str(exc), 1, 1) from exc


def render_products(prod: ProductSpec) -> str:
    """Canonical `product` statements (symmetric orientation flip)."""
    from . import dsl

    fam_map = {f.name: f for f in prod.algebra.families}
    lines = dsl._rule_lines("product", prod.rules, fam_map, antisymmetric=False)
    return "\n".join(lines) + "\n" if lines else ""
