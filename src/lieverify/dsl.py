"""Plain-text definition format for algebras (.liealg).

Line-oriented grammar::

    algebra NAME                     # once per algebra file
    family NAME (integer|half) degree-offset INT
    central NAME [NAME ...]
    bracket F(m) G(n) = [+|-] term (+|- term)* | 0
    product F(m) G(n) = ...          # product files only: TPA candidates

    term := poly [* delta(m+n[+-c])] * (TARGET(m+n[+-k]) | CENTRAL)

An algebra file holds the first four kinds of statement; a product file,
read against an existing algebra, holds only `product` statements.  Each
statement is checked as it is read, by core's `add_family` and `add_rule`,
so every error names the line at fault.

Polynomial coefficients may mention m, n and declared parameter names;
parameters are substituted at parse time, so parsed specs are
parameter-free.  Indices use the displayed convention: a `half` family
written F(n) denotes the basis symbol with index n+1/2.  The names m, n
and delta are reserved.  `render_algebra` prints coefficients with
`Poly.__str__` and drops delta terms that are zero wherever they can fire.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Container, Mapping, Optional

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
    _shown,
    add_family,
    add_rule,
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

    def col(self) -> int:
        """Column of the next token, or just past the last one at end of line."""
        tok = self.peek()
        if tok is not None:
            return tok.col
        last = self.tokens[-1]  # a stream is built only for a nonblank line
        return last.col + len(last.text)

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise DslError("unexpected end of line", self.line, self.col())
        self.pos += 1
        return tok

    def expect(self, kind: str, message: str, texts: Container[str] = ()) -> Token:
        """The next token, which must have `kind` and, if `texts` is given, one of them."""
        tok = self.next()
        if tok.kind != kind or (texts and tok.text not in texts):
            raise DslError(f"{message}, found {_shown(tok.text)}", tok.line, tok.col)
        return tok

    def accept(self, texts: Container[str]) -> Optional[Token]:
        """Consume and return the next token if it is an operator in `texts`."""
        tok = self.peek()
        if tok is None or tok.kind != "OP" or tok.text not in texts:
            return None
        self.pos += 1
        return tok


class _PolyParser:
    """Recursive-descent parser for rational polynomials in m, n, params."""

    def __init__(self, stream: _TokenStream, params: Mapping[str, Fraction], families: Container[str]):
        self.s = stream
        self.params = params
        self.families = families
        self.depth = 0  # open parentheses and unary signs

    def parse_expr(self) -> Poly:
        poly = self.parse_term()
        while (tok := self.s.accept("+-")) is not None:
            rhs = self.parse_term()
            poly = poly + rhs if tok.text == "+" else poly - rhs
        return poly

    def parse_term(self) -> Poly:
        poly = self.parse_factor()
        while (tok := self.s.accept("*/")) is not None:
            poly = poly * self.parse_factor() if tok.text == "*" else self.divide(poly, tok)
        return poly

    def divide(self, poly: Poly, slash: Token) -> Poly:
        """`poly` divided by the factor after `slash`, which must be a nonzero constant."""
        rhs = self.parse_factor()
        if not rhs.is_constant():
            raise DslError("division only by constants", slash.line, slash.col)
        if rhs.is_zero():
            raise DslError("division by zero", slash.line, slash.col)
        return poly / rhs

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
                self.s.expect("OP", "expected ')'", ")")
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
                    f"family name {_shown(tok.text)} not allowed inside a coefficient",
                    tok.line,
                    tok.col,
                )
            raise DslError(f"unknown parameter {_shown(tok.text)}", tok.line, tok.col)
        raise DslError(f"unexpected token {_shown(tok.text)}", tok.line, tok.col)

    def _maybe_power(self, poly: Poly) -> Poly:
        if self.s.accept("^") is None:
            return poly
        num = self.s.expect("NUMBER", "exponent must be a nonnegative integer")
        k = int(num.text)
        if k > MAX_EXPONENT:
            raise DslError(
                f"exponent {num.text} exceeds the maximum {MAX_EXPONENT}", num.line, num.col
            )
        degree = poly.degree()
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


def _signed_int(stream: _TokenStream, sign: Optional[Token], message: str) -> int:
    """The integer literal after `sign`, an already consumed '+' or '-' (or None)."""
    value = int(stream.expect("NUMBER", message).text)
    return -value if sign is not None and sign.text == "-" else value


def _parse_rhs_terms(
    stream: _TokenStream,
    params: Mapping[str, Fraction],
    families: Mapping[str, Family],
) -> list[BracketTerm]:
    """Parse `[+|-] term ((+|-) term)*` or the literal 0."""
    first = stream.peek()
    if first is not None and first.kind == "NUMBER" and first.text == "0" and stream.pos + 1 == len(stream.tokens):
        stream.next()
        return []
    pp = _PolyParser(stream, params, families)
    terms: list[BracketTerm] = []
    sign = stream.accept("+-")
    while True:
        coeff = Poly.const(-1 if sign is not None and sign.text == "-" else 1)
        delta: Optional[DeltaCondition] = None
        target: Optional[tuple[str, int]] = None
        while (tok := stream.peek()) is not None and not (tok.kind == "OP" and tok.text in "+-"):
            if stream.accept("*") is not None:
                continue
            if stream.accept("/") is not None:
                coeff = pp.divide(coeff, tok)
                continue
            if tok.kind == "IDENT" and tok.text == "delta":
                stream.next()
                stream.expect("OP", "expected '('", "(")
                affine = pp.parse_expr()
                stream.expect("OP", "expected ')'", ")")
                shift = _affine_shift(affine, tok)
                if delta is not None:
                    raise DslError("at most one delta per term", tok.line, tok.col)
                delta = DeltaCondition(shift)
                continue
            if tok.kind == "IDENT" and tok.text in families:
                stream.next()
                offset = _parse_target_index(stream, families[tok.text])
                if target is not None:
                    raise DslError("more than one target in a term", tok.line, tok.col)
                target = (tok.text, offset)
                continue
            coeff = coeff * pp.parse_factor()
        if target is None:
            raise DslError("term has no target family", stream.line, stream.col())
        terms.append(BracketTerm(coeff, target[0], target[1], delta))
        sign = stream.accept("+-")
        if sign is None:
            return terms


def _affine_shift(affine: Poly, tok: Token) -> Fraction:
    """Require the delta argument to be m + n + c and return c."""
    coeffs = dict(affine.coeffs)
    if coeffs.pop((1, 0), None) != 1 or coeffs.pop((0, 1), None) != 1:
        raise DslError("delta argument must have the form m+n+c", tok.line, tok.col)
    shift = coeffs.pop((0, 0), Fraction(0))
    if coeffs:
        raise DslError("delta argument must be affine in m+n", tok.line, tok.col)
    return shift


def _parse_target_index(stream: _TokenStream, family: Family) -> int:
    if family.lattice == CENTRAL:
        paren = stream.accept("(")
        if paren is not None:
            raise DslError(f"central family {family.name} takes no index", paren.line, paren.col)
        return 0
    stream.expect("OP", "expected '('", "(")
    stream.expect("IDENT", "target index must start with m+n", ("m",))
    stream.expect("OP", "expected '+'", "+")
    stream.expect("IDENT", "target index must start with m+n", ("n",))
    sign = stream.accept("+-")
    offset = _signed_int(stream, sign, "target offset must be an integer") if sign else 0
    stream.expect("OP", "expected ')'", ")")
    return offset


def _parse_pair_header(stream: _TokenStream, keyword: str) -> tuple[str, str]:
    """`F(m) G(n) =`: the two family names; core checks them against the families."""
    names = []
    for var in ("m", "n"):
        names.append(stream.expect("IDENT", f"expected a family name after {keyword!r}").text)
        stream.expect("OP", "expected '('", "(")
        stream.expect("IDENT", f"expected index variable {var!r}", (var,))
        stream.expect("OP", "expected ')'", ")")
    stream.expect("OP", "expected '='", "=")
    return names[0], names[1]


def _validated(tok: Token, check: Callable[..., None], *args) -> None:
    """Run one of core's validators, reporting its StructureError at `tok`."""
    try:
        check(*args)
    except StructureError as exc:
        raise DslError(str(exc), tok.line, tok.col) from exc


@dataclass
class _ParsedBody:
    name: Optional[str]
    families: dict[str, Family]
    rules: list[BracketRule]


_ALGEBRA_STATEMENTS = ("algebra", "family", "central", "bracket")
_PRODUCT_STATEMENTS = ("product",)


def _parse_body(
    text: str,
    params: Mapping[str, Fraction],
    known_families: Optional[Mapping[str, Family]] = None,
) -> _ParsedBody:
    """Read an algebra definition, or with `known_families` a product file."""
    if known_families is None:
        allowed, where = _ALGEBRA_STATEMENTS, "an algebra definition"
    else:
        allowed, where = _PRODUCT_STATEMENTS, "a product file"
    families: dict[str, Family] = dict(known_families or {})
    name: Optional[str] = None
    pairs: dict[frozenset, BracketRule] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        stream = _TokenStream(tokens, line_no)
        head = stream.expect("IDENT", "expected a statement keyword")
        if head.text not in allowed:
            if head.text in _ALGEBRA_STATEMENTS + _PRODUCT_STATEMENTS:
                raise DslError(f"{head.text} statements are not allowed in {where}", line_no, head.col)
            raise DslError(f"unknown statement {_shown(head.text)}", line_no, head.col)

        if head.text == "algebra":
            if name is not None:
                raise DslError("duplicate 'algebra' header", line_no, head.col)
            name = stream.expect("IDENT", "expected an algebra name").text
        elif head.text == "family":
            ident = stream.expect("IDENT", "expected a family name")
            lattice = stream.expect("IDENT", "family lattice must be 'integer' or 'half'", (INTEGER, HALF))
            stream.expect("IDENT", "expected 'degree-offset'", ("degree-offset",))
            shift2 = _signed_int(stream, stream.accept("+-"), "degree-offset must be an integer")
            _validated(ident, add_family, families, Family(ident.text, lattice.text, shift2))
        elif head.text == "central":
            while True:
                ident = stream.expect("IDENT", "expected a central generator name")
                _validated(ident, add_family, families, Family(ident.text, CENTRAL))
                if stream.peek() is None:
                    break
        else:
            left, right = _parse_pair_header(stream, head.text)
            rule = BracketRule(left, right, tuple(_parse_rhs_terms(stream, params, families)))
            _validated(head, add_rule, pairs, families, rule, head.text)
        extra = stream.peek()
        if extra is not None:
            raise DslError(f"trailing input {_shown(extra.text)}", extra.line, extra.col)

    return _ParsedBody(name, families, list(pairs.values()))


def parse_algebra(text: str, params: Mapping[str, Fraction] | None = None) -> AlgebraSpec:
    """Parse .liealg source into a validated AlgebraSpec."""
    params = {k: Fraction(v) for k, v in (params or {}).items()}
    body = _parse_body(text, params)
    if body.name is None:
        raise DslError("missing 'algebra NAME' header", 1, 1)
    return AlgebraSpec(body.name, tuple(body.families.values()), tuple(body.rules), params)


# ---------------------------------------------------------------------------
# canonical rendering


def _shift_str(shift: Fraction) -> str:
    if shift == 0:
        return ""
    return ("+" if shift > 0 else "-") + str(abs(shift))


def _term_str(term: BracketTerm, families: Mapping[str, Family]) -> str:
    parts = [f"({term.coeff})"]
    if term.delta is not None:
        parts.append(f"delta(m+n{_shift_str(term.delta.shift)})")
    fam = families[term.target]
    if fam.lattice == CENTRAL:
        parts.append(term.target)
    else:
        parts.append(f"{term.target}(m+n{_shift_str(term.offset)})")
    return "*".join(parts)


def _vanishes(coeff: Poly, delta: Optional[DeltaCondition]) -> bool:
    """Whether coeff * [delta] is zero at every integer pair (m, n).

    A non-integral shift c never fires.  On the line n = -m - c the coefficient
    is a polynomial in m of degree at most d = deg(coeff): d + 1 zeros kill it.
    """
    if delta is None:
        return coeff.is_zero()
    c = delta.shift
    return c.denominator != 1 or all(
        coeff.evaluate(m, -m - c) == 0 for m in range(coeff.degree() + 1)
    )


def _canonical_terms(
    left: str, right: str, terms: tuple[BracketTerm, ...], antisymmetric: bool
) -> tuple[str, str, tuple[BracketTerm, ...]]:
    """Orient the pair alphabetically (flipping negates bracket terms), sum
    the terms that share target, offset and delta, and drop the sums that
    vanish wherever they can fire."""
    if right < left:
        flipped = []
        for t in terms:
            coeff = t.coeff.swap_vars()
            if antisymmetric:
                coeff = -coeff
            flipped.append(BracketTerm(coeff, t.target, t.offset, t.delta))
        left, right, terms = right, left, tuple(flipped)
    sums: dict[tuple, Poly] = {}
    for t in terms:
        like = (t.target, t.offset, t.delta)
        sums[like] = sums[like] + t.coeff if like in sums else t.coeff
    terms = tuple(BracketTerm(c, *like) for like, c in sums.items() if not _vanishes(c, like[2]))
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
    lines.extend(_rule_lines("bracket", spec.rules, spec.family_map, antisymmetric=True))
    return "\n".join(lines) + "\n"
