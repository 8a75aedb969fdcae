"""Plain-text definition format for algebras (.liealg).

Line-oriented grammar::

    algebra NAME
    family NAME (integer|half) degree-offset INT
    central NAME [NAME ...]
    bracket F(m) G(n) = term + term + ... | 0
    product F(m) G(n) = ...          # extension used for TPA candidates

    term := poly [* delta(m+n[+-c])] * (TARGET(m+n[+-k]) | CENTRAL)

Polynomial coefficients may mention m, n and declared parameter names;
parameters are substituted at parse time, so parsed specs are
parameter-free.  Indices use the displayed convention: a `half` family
written F(n) denotes the basis symbol with index n+1/2.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import (
    CENTRAL,
    HALF,
    INTEGER,
    AlgebraSpec,
    BracketRule,
    BracketTerm,
    DeltaCondition,
    Family,
    StructureError,
)
from .poly import Poly

# Largest exponent accepted after `^`, and largest degree of any power:
# powers are expanded by repeated multiplication, so an unbounded exponent,
# or a nested power such as ((m+n+1)^16)^16, would hang the parser.
MAX_EXPONENT = 16
# Largest estimated bit size of a power's coefficients, checked before the
# power is expanded: ((2^16)^16)^16 keeps degree 0 but grows without limit.
MAX_POWER_BITS = 4096
# Longest integer literal: int() refuses strings past 4 300 digits.
MAX_DIGITS = 1000
# Deepest nesting of parentheses and unary signs in a coefficient: the
# parser recurses once per level, so deeper input would exhaust the stack.
MAX_NESTING = 100


class DslError(ValueError):
    """Syntax or validation error, with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int = 1):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | NUMBER | OP
    text: str
    line: int
    col: int


# Digits are ASCII only; identifiers may contain '-' only as the keyword
# degree-offset, and `**` is another spelling of `^`.
_TOKEN = re.compile(
    r"(?P<SPACE>\s+)|(?P<COMMENT>#.*)|(?P<NUMBER>[0-9]+)"
    r"|(?P<IDENT>degree-offset(?=-?(?![\w-]))|[^\W\d]\w*)|(?P<OP>\*\*|[-+*/^()=,])"
)


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise DslError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind, word = match.lastgroup, match.group()
        if kind == "COMMENT":
            break
        if kind == "NUMBER" and len(word) > MAX_DIGITS:
            raise DslError(
                f"integer literal of {len(word)} digits exceeds the maximum {MAX_DIGITS}",
                line_no,
                pos + 1,
            )
        if kind != "SPACE":
            tokens.append(Token(kind, "^" if word == "**" else word, line_no, pos + 1))
        pos = match.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[Token], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            col = last.col + len(last.text) if last else 1
            raise DslError("unexpected end of line", self.line, col)
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.next()
        if tok.kind != "OP" or tok.text != op:
            raise DslError(f"expected {op!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


class _PolyParser:
    """Recursive-descent parser for rational polynomials in m, n, params."""

    def __init__(self, stream: _TokenStream, params: Mapping[str, Fraction], families: set[str]):
        self.s = stream
        self.params = params
        self.families = families
        self.depth = 0  # open parentheses and unary signs

    def parse_expr(self) -> Poly:
        poly = self.parse_term()
        while True:
            tok = self.s.peek()
            if tok is not None and tok.kind == "OP" and tok.text in "+-":
                self.s.next()
                rhs = self.parse_term()
                poly = poly + rhs if tok.text == "+" else poly - rhs
            else:
                return poly

    def parse_term(self) -> Poly:
        poly = self.parse_factor()
        while True:
            tok = self.s.peek()
            if tok is not None and tok.kind == "OP" and tok.text in "*/":
                self.s.next()
                rhs = self.parse_factor()
                if tok.text == "*":
                    poly = poly * rhs
                else:
                    if not rhs.is_constant():
                        raise DslError("division only by constants", tok.line, tok.col)
                    if rhs.is_zero():
                        raise DslError("division by zero", tok.line, tok.col)
                    poly = poly / rhs
            else:
                return poly

    def parse_factor(self) -> Poly:
        tok = self.s.next()
        if tok.kind == "OP" and tok.text in "+-(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise DslError(
                    f"parentheses and signs nested deeper than {MAX_NESTING}", tok.line, tok.col
                )
            if tok.text == "(":
                poly = self.parse_expr()
                self.s.expect_op(")")
                poly = self._maybe_power(poly)
            else:
                poly = self.parse_factor()
                poly = poly if tok.text == "+" else -poly
            self.depth -= 1
            return poly
        if tok.kind == "NUMBER":
            return self._maybe_power(Poly.const(int(tok.text)))
        if tok.kind == "IDENT":
            if tok.text in ("m", "n"):
                return self._maybe_power(Poly.var(tok.text))
            if tok.text in self.params:
                return self._maybe_power(Poly.const(self.params[tok.text]))
            if tok.text in self.families:
                raise DslError(
                    f"family name {tok.text!r} not allowed inside a coefficient",
                    tok.line,
                    tok.col,
                )
            raise DslError(f"unknown parameter {tok.text!r}", tok.line, tok.col)
        raise DslError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def _maybe_power(self, poly: Poly) -> Poly:
        tok = self.s.peek()
        if tok is not None and tok.kind == "OP" and tok.text == "^":
            self.s.next()
            num = self.s.next()
            if num.kind != "NUMBER":
                raise DslError("exponent must be a nonnegative integer", num.line, num.col)
            k = int(num.text)
            if k > MAX_EXPONENT:
                raise DslError(
                    f"exponent {num.text} exceeds the maximum {MAX_EXPONENT}", num.line, num.col
                )
            degree = max((em + en for em, en in poly.coeffs), default=0)
            if k * degree > MAX_EXPONENT:
                raise DslError(
                    f"power of degree {k * degree} exceeds the maximum {MAX_EXPONENT}",
                    num.line,
                    num.col,
                )
            # coefficient size of poly^k, estimated as k * bits(terms * largest part)
            size = max(
                (max(c.numerator.bit_length(), c.denominator.bit_length())
                 for c in poly.coeffs.values()),
                default=0,
            )
            bits = k * (size + len(poly.coeffs).bit_length())
            if bits > MAX_POWER_BITS:
                raise DslError(
                    f"power of about {bits} bits exceeds the maximum {MAX_POWER_BITS}",
                    num.line,
                    num.col,
                )
            return poly ** k
        return poly


def _parse_rhs_terms(
    stream: _TokenStream,
    params: Mapping[str, Fraction],
    families: dict[str, Family],
) -> list[BracketTerm]:
    """Parse `term (+|- term)*` or the literal 0."""
    first = stream.peek()
    if first is not None and first.kind == "NUMBER" and first.text == "0" and stream.pos + 1 == len(stream.tokens):
        stream.next()
        return []
    pp = _PolyParser(stream, params, set(families))
    terms: list[BracketTerm] = []
    sign = Fraction(1)
    while True:
        coeff = Poly.const(sign)
        delta: Optional[DeltaCondition] = None
        target: Optional[tuple[str, int, Token]] = None
        while True:
            tok = stream.peek()
            if tok is None:
                break
            if tok.kind == "OP" and tok.text in "+-":
                break
            if tok.kind == "OP" and tok.text == "*":
                stream.next()
                continue
            if tok.kind == "OP" and tok.text == "/":
                stream.next()
                div = pp.parse_factor()
                if not div.is_constant() or div.is_zero():
                    raise DslError("division only by nonzero constants", tok.line, tok.col)
                coeff = coeff / div
                continue
            if tok.kind == "IDENT" and tok.text == "delta":
                stream.next()
                stream.expect_op("(")
                affine = pp.parse_expr()
                stream.expect_op(")")
                shift = _affine_shift(affine, tok)
                if delta is not None:
                    raise DslError("at most one delta per term", tok.line, tok.col)
                delta = DeltaCondition(shift)
                continue
            if tok.kind == "IDENT" and tok.text in families:
                stream.next()
                offset = _parse_target_index(stream, families[tok.text], tok)
                if target is not None:
                    raise DslError("more than one target in a term", tok.line, tok.col)
                target = (tok.text, offset, tok)
                continue
            coeff = coeff * pp.parse_factor()
        if target is None:
            tok = stream.peek() or Token("OP", "", stream.line, 1)
            raise DslError("term has no target family", stream.line, tok.col or 1)
        terms.append(BracketTerm(coeff, target[0], target[1], delta))
        nxt = stream.peek()
        if nxt is None:
            return terms
        stream.next()
        sign = Fraction(1) if nxt.text == "+" else Fraction(-1)


def _affine_shift(affine: Poly, tok: Token) -> Fraction:
    """Require the delta argument to be m + n + c and return c."""
    coeffs = dict(affine.coeffs)
    if coeffs.pop((1, 0), None) != 1 or coeffs.pop((0, 1), None) != 1:
        raise DslError("delta argument must have the form m+n+c", tok.line, tok.col)
    shift = coeffs.pop((0, 0), Fraction(0))
    if coeffs:
        raise DslError("delta argument must be affine in m+n", tok.line, tok.col)
    return shift


def _parse_target_index(stream: _TokenStream, family: Family, tok: Token) -> int:
    if family.lattice == CENTRAL:
        nxt = stream.peek()
        if nxt is not None and nxt.kind == "OP" and nxt.text == "(":
            raise DslError(f"central family {family.name} takes no index", nxt.line, nxt.col)
        return 0
    stream.expect_op("(")
    var_m = stream.next()
    if var_m.kind != "IDENT" or var_m.text != "m":
        raise DslError("target index must start with m+n", var_m.line, var_m.col)
    stream.expect_op("+")
    var_n = stream.next()
    if var_n.kind != "IDENT" or var_n.text != "n":
        raise DslError("target index must start with m+n", var_n.line, var_n.col)
    offset = 0
    nxt = stream.peek()
    if nxt is not None and nxt.kind == "OP" and nxt.text in "+-":
        stream.next()
        num = stream.next()
        if num.kind != "NUMBER":
            raise DslError("target offset must be an integer", num.line, num.col)
        offset = int(num.text) if nxt.text == "+" else -int(num.text)
    stream.expect_op(")")
    return offset


def _parse_pair_header(stream: _TokenStream, families: dict[str, Family], keyword: str) -> tuple[str, str]:
    names = []
    for var in ("m", "n"):
        ident = stream.next()
        if ident.kind != "IDENT":
            raise DslError(f"expected a family name after {keyword!r}", ident.line, ident.col)
        if ident.text not in families:
            raise DslError(f"unknown family {ident.text!r}", ident.line, ident.col)
        if families[ident.text].lattice == CENTRAL:
            raise DslError(
                f"central family {ident.text!r} cannot head a {keyword}", ident.line, ident.col
            )
        stream.expect_op("(")
        v = stream.next()
        if v.kind != "IDENT" or v.text != var:
            raise DslError(f"expected index variable {var!r}", v.line, v.col)
        stream.expect_op(")")
        names.append(ident.text)
    stream.expect_op("=")
    return names[0], names[1]


@dataclass
class _ParsedBody:
    name: str
    families: list[Family]
    rules: list[BracketRule]
    products: list[BracketRule]


def _parse_body(
    text: str,
    params: Mapping[str, Fraction],
    known_families: Optional[dict[str, Family]] = None,
    require_header: bool = True,
) -> _ParsedBody:
    name = ""
    families: dict[str, Family] = dict(known_families or {})
    order: list[Family] = list(families.values()) if known_families else []
    rules: list[BracketRule] = []
    products: list[BracketRule] = []
    seen_pairs: set[frozenset] = set()
    seen_products: set[frozenset] = set()
    header_seen = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        stream = _TokenStream(tokens, line_no)
        head = stream.next()
        if head.kind != "IDENT":
            raise DslError(f"expected a statement keyword, found {head.text!r}", line_no, head.col)

        if head.text == "algebra":
            ident = stream.next()
            if ident.kind != "IDENT":
                raise DslError("expected an algebra name", ident.line, ident.col)
            name = ident.text
            header_seen = True
        elif head.text == "family":
            ident = stream.next()
            lattice = stream.next()
            if lattice.kind != "IDENT" or lattice.text not in (INTEGER, HALF):
                raise DslError("family lattice must be 'integer' or 'half'", lattice.line, lattice.col)
            kw = stream.next()
            if kw.kind != "IDENT" or kw.text != "degree-offset":
                raise DslError("expected 'degree-offset'", kw.line, kw.col)
            shift_sign = 1
            num = stream.next()
            if num.kind == "OP" and num.text in "+-":
                shift_sign = -1 if num.text == "-" else 1
                num = stream.next()
            if num.kind != "NUMBER":
                raise DslError("degree-offset must be an integer", num.line, num.col)
            if ident.text in families:
                raise DslError(f"duplicate family {ident.text!r}", ident.line, ident.col)
            fam = Family(ident.text, lattice.text, shift_sign * int(num.text))
            families[fam.name] = fam
            order.append(fam)
        elif head.text == "central":
            any_name = False
            while not stream.at_end():
                ident = stream.next()
                if ident.kind != "IDENT":
                    raise DslError("expected a central generator name", ident.line, ident.col)
                if ident.text in families:
                    raise DslError(f"duplicate family {ident.text!r}", ident.line, ident.col)
                fam = Family(ident.text, CENTRAL)
                families[fam.name] = fam
                order.append(fam)
                any_name = True
            if not any_name:
                raise DslError("central statement needs at least one name", line_no, head.col)
        elif head.text in ("bracket", "product"):
            left, right = _parse_pair_header(stream, families, head.text)
            terms = _parse_rhs_terms(stream, params, families)
            if not stream.at_end():
                tok = stream.next()
                raise DslError(f"trailing input {tok.text!r}", tok.line, tok.col)
            key = frozenset((left, right))
            if head.text == "bracket":
                if key in seen_pairs:
                    raise DslError(
                        f"duplicate rule for family pair ({left}, {right})", line_no, head.col
                    )
                seen_pairs.add(key)
                rules.append(BracketRule(left, right, tuple(terms)))
            else:
                if key in seen_products:
                    raise DslError(
                        f"duplicate product rule for family pair ({left}, {right})",
                        line_no,
                        head.col,
                    )
                seen_products.add(key)
                products.append(BracketRule(left, right, tuple(terms)))
        else:
            raise DslError(f"unknown statement {head.text!r}", line_no, head.col)

    if require_header and not header_seen:
        raise DslError("missing 'algebra NAME' header", 1, 1)
    return _ParsedBody(name, order, rules, products)


def parse_algebra(text: str, params: Mapping[str, Fraction] | None = None) -> AlgebraSpec:
    """Parse .liealg source into a validated AlgebraSpec."""
    params = {k: Fraction(v) for k, v in (params or {}).items()}
    body = _parse_body(text, params)
    if body.products:
        raise DslError("product statements are not allowed in an algebra definition", 1, 1)
    try:
        return AlgebraSpec(body.name, tuple(body.families), tuple(body.rules), params)
    except StructureError as exc:
        raise DslError(str(exc), 1, 1) from exc


# ---------------------------------------------------------------------------
# canonical rendering


def _poly_str(poly: Poly) -> str:
    if poly.is_zero():
        return "0"
    keys = sorted(poly.coeffs, key=lambda k: (-(k[0] + k[1]), -k[1], -k[0]))
    out = []
    for i, key in enumerate(keys):
        coeff = poly.coeffs[key]
        em, en = key
        mono = "*".join(
            (f"{v}^{e}" if e > 1 else v) for v, e in (("m", em), ("n", en)) if e
        )
        mag = abs(coeff)
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        if i == 0:
            out.append(("-" if coeff < 0 else "") + body)
        else:
            out.append(("-" if coeff < 0 else "+") + body)
    return "".join(out)


def _shift_str(shift: Fraction) -> str:
    if shift == 0:
        return ""
    return ("+" if shift > 0 else "-") + str(abs(shift))


def _term_str(term: BracketTerm, families: Mapping[str, Family]) -> str:
    parts = [f"({_poly_str(term.coeff)})"]
    if term.delta is not None:
        parts.append(f"delta(m+n{_shift_str(term.delta.shift)})")
    fam = families[term.target]
    if fam.lattice == CENTRAL:
        parts.append(term.target)
    else:
        off = term.offset
        idx = "m+n" if off == 0 else ("m+n+" + str(off) if off > 0 else "m+n-" + str(-off))
        parts.append(f"{term.target}({idx})")
    return "*".join(parts)


def _canonical_terms(
    left: str, right: str, terms: tuple[BracketTerm, ...], antisymmetric: bool
) -> tuple[str, str, tuple[BracketTerm, ...]]:
    """Orient the pair alphabetically; flipping negates bracket terms."""
    if right < left:
        flipped = []
        for t in terms:
            coeff = t.coeff.swap_vars()
            if antisymmetric:
                coeff = -coeff
            flipped.append(BracketTerm(coeff, t.target, t.offset, t.delta))
        left, right, terms = right, left, tuple(flipped)
    key = lambda t: (
        t.target,
        t.offset,
        t.delta is not None,
        t.delta.shift if t.delta is not None else Fraction(0),
    )
    return left, right, tuple(sorted(terms, key=key))


def _rule_lines(
    keyword: str,
    rules,
    families: Mapping[str, Family],
    antisymmetric: bool,
) -> list[str]:
    canon = [
        _canonical_terms(r.left, r.right, r.terms, antisymmetric) for r in rules
    ]
    canon.sort(key=lambda lrt: (lrt[0], lrt[1]))
    lines = []
    for left, right, terms in canon:
        rhs = " + ".join(_term_str(t, families) for t in terms) if terms else "0"
        lines.append(f"{keyword} {left}(m) {right}(n) = {rhs}")
    return lines


def render_algebra(spec: AlgebraSpec) -> str:
    """Canonical .liealg text: sorted families and rules, LF line endings."""
    lines = [f"algebra {spec.name}"]
    indexed = sorted((f for f in spec.families if f.lattice != CENTRAL), key=lambda f: f.name)
    centrals = sorted((f.name for f in spec.families if f.lattice == CENTRAL))
    for fam in indexed:
        lines.append(f"family {fam.name} {fam.lattice} degree-offset {fam.shift2}")
    if centrals:
        lines.append("central " + " ".join(centrals))
    fam_map = {f.name: f for f in spec.families}
    lines.extend(_rule_lines("bracket", spec.rules, fam_map, antisymmetric=True))
    return "\n".join(lines) + "\n"


def structurally_equal(a: AlgebraSpec, b: AlgebraSpec) -> bool:
    """Equality up to canonical form (ignores the params metadata)."""
    return render_algebra(a) == render_algebra(b)
