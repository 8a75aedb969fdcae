"""Transposed Poisson structures: commutative products paired with a
Lie bracket through the compatibility law

    2*z*[x, y] = [z*x, y] + [x, z*y].

The law says exactly that left multiplication phi = z*(-) is a
1/2-derivation of the bracket: its residual is the 1/2-derivation residual
phi([x,y]) - 1/2*([phi(x),y] + [x,phi(y)]) cleared of the denominator 2:
``derivations.residual_placements`` at p/q = 1/2, phi the product table.

``product_symbols`` memoizes s_p*(x*y) as (symbol, ``int``) pairs, with s_p
= ``prod.scale``, as ``bracket_symbols`` does s*[x, y], keyed by ordered pair:
both orientations share one evaluation.  Associativity and compatibility are one
``core.composed`` pass each over the window, on s_p**2 and s*s_p times their
residuals, in ``int``; a ``Fraction`` is built only for a violation, or by ``product``,
``associativity_terms`` and ``compatibility_terms``, which divide back by their scale.

A candidate product is given by symmetric rules in the same shape as
bracket rules.  ``check_tpa`` verifies commutativity (structural),
associativity, and the compatibility law over a finite index window and
reports every witness of a failure.  ``theorem_product`` builds the
family of products that the deformed algebras L1(lambda=1, mu) carry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import dsl
from .core import (
    AlgebraSpec,
    BasisSymbol,
    BracketRule,
    BracketTerm,
    Element,
    StructureError,
    Report,
    _over,
    bilinear,
    bracket,  # not called here; perfbench's tracer wraps tpa.bracket
    composed,
    composed_plans,
    eval_rule,
    index_rules,
    live_check,
    live_window,
    placed,
    reach,
    table,
)
from .derivations import residual_placements
from .linalg import axpy
from .poly import Poly


@dataclass(frozen=True)
class ProductSpec:
    """Symmetric bilinear product on the span of an algebra's basis.

    Rules are stored for one orientation of each family pair; the
    reversed orientation swaps the index variables without a sign.
    `_pair` and `scale` are as on `AlgebraSpec`.
    """

    algebra: AlgebraSpec
    rules: tuple[BracketRule, ...]
    _pair: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    scale: int = field(default=1, init=False, repr=False, compare=False)
    # (x, y) and (y, x) -> one shared scale * (x*y) as (symbol, int) pairs, by product_symbols
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        index_rules(self, self.algebra.family_map, "product")


def product_symbols(
    prod: ProductSpec, x: BasisSymbol, y: BasisSymbol
) -> tuple[tuple[BasisSymbol, int], ...]:
    """scale * (x*y) for basis symbols as (symbol, int) pairs, memoized in `prod._cache`
    under (x, y) and (y, x): both orientations share one evaluation."""
    if (terms := prod._cache.get((x, y))) is None:
        # the canonical argument order keeps the product symmetric by construction
        key = (x, y) if (x.family, x.twice or 0) <= (y.family, y.twice or 0) else (y, x)
        terms = tuple(eval_rule(prod._pair, *key, antisymmetric=False).items())
        if not terms:  # `add_rule` gives no rule an unknown family: look only now
            prod.algebra.family(x.family)
            prod.algebra.family(y.family)
        prod._cache[x, y] = prod._cache[y, x] = terms
    return terms


def product(prod: ProductSpec, x, y) -> Element:
    return Element(_over(bilinear(product_symbols, prod, x, y), prod.scale))


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
    """Products are evaluated once per unordered pair, in canonical order, and memoized
    under both orientations, so x*y == y*x holds by construction; the remaining content
    is that each rule evaluates identically with its two arguments exchanged.  Only two
    distinct symbols of one family with a rule with itself can differ, so only those
    pairs are formed (`live_window`), in canonical order: the memo gives x*y and only
    y*x is evaluated here.  `pairs_checked` counts every pair, C(n+1, 2)."""
    symbols = list(prod.algebra.basis_symbols(bound2))
    ruled = {(f, f): None for f, partners in reach(prod._pair).items() if f in partners}
    found = (((x, y), axpy(dict(product_symbols(prod, x, y)),
                           eval_rule(prod._pair, y, x, antisymmetric=False), -1))
             for (x, y), _ in live_window(symbols, ruled, (None, 1)))
    return live_check("commutativity", math.comb(len(symbols) + 1, 2), found,
                      "commutativity broken", prod.scale)


_associator = ((0, 1, 2, 1), (1, 2, 0, -1))  # (x*y)*z - (y*z)*x = (x*y)*z - x*(y*z): x*y = y*x


def associativity_terms(
    prod: ProductSpec, x: BasisSymbol, y: BasisSymbol, z: BasisSymbol
) -> dict[BasisSymbol, Fraction]:
    """(x*y)*z - x*(y*z) as a symbol->coefficient dict."""
    placements = placed(_associator, table(prod, product_symbols))
    return _over(next(composed([((x, y, z), placements)]), (None, {}))[1], prod.scale ** 2)


def check_associative(prod: ProductSpec, bound2: int) -> Report:
    """(x*y)*z - x*(y*z) on every window triple with repeats, on s_p**2 times it, in one
    `composed` pass.  Only a triple with a term whose families compose is formed, and only
    those terms reach it (`composed_plans`); `pairs_checked` counts every triple, C(n+2, 3)."""
    symbols = list(prod.algebra.basis_symbols(bound2))
    plans = composed_plans(placed(_associator, table(prod, product_symbols)))
    return live_check("associativity", math.comb(len(symbols) + 2, 3),
                      composed(live_window(symbols, plans, (None, 0, 0))), "associativity broken",
                      prod.scale ** 2)


def compatibility_terms(
    prod: ProductSpec, x: BasisSymbol, y: BasisSymbol, z: BasisSymbol
) -> dict[BasisSymbol, Fraction]:
    """2*z*[x,y] - [z*x, y] - [x, z*y] as a symbol->coefficient dict."""
    placements = residual_placements(prod.algebra, table(prod, product_symbols), 1, 2)
    terms = next(composed([((x, y, z), placements)]), (None, {}))[1]
    return _over(terms, prod.algebra.scale * prod.scale)


def check_compatibility(prod: ProductSpec, bound2: int) -> Report:
    """2*z*[x,y] - [z*x, y] - [x, z*y] for distinct x, y and every z in the window, on
    s*s_p times it, in one `composed` pass: the 1/2-derivation residual of z*(-), whose
    (a, z) entry z*a the product memo holds (`residual_placements`).  Only a triple with a
    term whose families compose is formed, and only those terms reach it (`composed_plans`);
    `pairs_checked` counts every triple, C(n, 2)*n for n symbols."""
    symbols = list(prod.algebra.basis_symbols(bound2))
    plans = composed_plans(residual_placements(prod.algebra, table(prod, product_symbols), 1, 2))
    return live_check("compatibility", math.comb(len(symbols), 2) * len(symbols),
                      composed(live_window(symbols, plans, (None, 1, None))),
                      "compatibility broken", prod.algebra.scale * prod.scale)


def check_tpa(prod: ProductSpec, bound2: int) -> list[Report]:
    """Full transposed-Poisson check over the window |index| <= bound2/2."""
    checks = (check_commutative, check_associative, check_compatibility)  # read at call time
    return [check(prod, bound2) for check in checks]


def parse_products(text: str, spec: AlgebraSpec) -> ProductSpec:
    """Parse .liealg `product` statements against an existing algebra."""
    return ProductSpec(spec, tuple(dsl._parse_body(text, spec.params, spec.family_map).rules))


def render_products(prod: ProductSpec) -> str:
    """Canonical `product` statements (symmetric orientation flip)."""
    lines = dsl._rule_lines("product", prod.rules, prod.algebra.family_map, antisymmetric=False)
    return "\n".join(lines) + "\n" if lines else ""
