"""Parser and canonical renderer for the .liealg format."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracle import structurally_equal
from lieverify import DslError, catalog, parse_algebra, render_algebra
from lieverify.core import CENTRAL, BasisSymbol, Element, bracket
from lieverify.tpa import parse_products


WITT_CANONICAL = (
    "algebra witt\n"
    "family L integer degree-offset 0\n"
    "bracket L(m) L(n) = (n-m)*L(m+n)\n"
)


def test_witt_canonical_form():
    spec = catalog.builtin("witt")
    assert render_algebra(spec) == WITT_CANONICAL
    assert render_algebra(parse_algebra(WITT_CANONICAL)) == WITT_CANONICAL


def test_parse_basic():
    spec = parse_algebra(WITT_CANONICAL)
    assert spec.name == "witt"
    out = bracket(spec, spec.symbol("L", 3), spec.symbol("L", -1))
    assert out == Element({BasisSymbol("L", 4): Fraction(-4)})


def test_parameters_substituted():
    text = (
        "algebra demo\n"
        "family L integer degree-offset 0\n"
        "family M integer degree-offset 0\n"
        "bracket L(m) M(n) = (n - lambda*m + 2*mu)*M(m+n)\n"
    )
    spec = parse_algebra(text, {"lambda": Fraction(2), "mu": Fraction(1, 4)})
    out = bracket(spec, spec.symbol("L", 1), spec.symbol("M", 0))
    assert out == Element({BasisSymbol("M", 2): Fraction(-3, 2)})
    assert not spec.params or all(isinstance(v, Fraction) for v in spec.params.values())


def test_delta_and_central_terms():
    text = (
        "algebra vir\n"
        "family L integer degree-offset 0\n"
        "central C_L\n"
        "bracket L(m) L(n) = (n-m)*L(m+n) + (1/12*m^3-1/12*m)*delta(m+n)*C_L\n"
    )
    spec = parse_algebra(text)
    out = bracket(spec, spec.symbol("L", 2), spec.symbol("L", -2))
    assert out.terms[BasisSymbol("C_L", None)] == Fraction(1, 2)
    rendered = render_algebra(spec)
    assert "*delta(m+n)*C_L" in rendered


def test_zero_rhs_and_offsets():
    text = (
        "algebra t\n"
        "family M integer degree-offset 0\n"
        "family Y half degree-offset 0\n"
        "bracket M(m) M(n) = 0\n"
        "bracket Y(m) Y(n) = (n-m)*M(m+n+1)\n"
    )
    spec = parse_algebra(text)
    assert bracket(spec, spec.symbol("M", 1), spec.symbol("M", 2)) == Element.zero()
    out = bracket(spec, spec.symbol("Y", Fraction(1, 2)), spec.symbol("Y", Fraction(-1, 2)))
    assert out == Element({BasisSymbol("M", 0): Fraction(-1)})


def test_roundtrip_all_catalog_entries():
    for name, params in catalog.REPRESENTATIVES:
        spec = catalog.builtin(name, params)
        text = render_algebra(spec)
        reparsed = parse_algebra(text)
        assert render_algebra(reparsed) == text, name
        assert structurally_equal(spec, reparsed), name


def test_render_is_fixed_point_after_one_pass():
    spec = catalog.builtin("Ltilde4", {"lambda": Fraction(1), "mu": Fraction(1, 2)})
    once = render_algebra(spec)
    assert render_algebra(parse_algebra(once)) == once


def test_canonical_orientation_flip():
    a = (
        "algebra t\n"
        "family A integer degree-offset 0\n"
        "family B integer degree-offset 0\n"
        "bracket B(m) A(n) = (m-n)*A(m+n)\n"
    )
    b = (
        "algebra t\n"
        "family A integer degree-offset 0\n"
        "family B integer degree-offset 0\n"
        "bracket A(m) B(n) = (m-n)*A(m+n)\n"
    )
    # [B,A] = (m-n)A   <=>   [A,B] = -(n-m)A = (m-n)A ... with vars swapped
    sa = parse_algebra(a)
    sb = parse_algebra(b)
    assert structurally_equal(sa, sb)
    assert bracket(sa, sa.symbol("A", 1), sa.symbol("B", 2)) == bracket(
        sb, sb.symbol("A", 1), sb.symbol("B", 2)
    )


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("family L integer degree-offset 0", "algebra"),  # missing header
        ("algebra a\nfamly L integer degree-offset 0", "unknown statement"),
        ("algebra a\nfamily L integer degree-offset 0\nfamily L half degree-offset 0", "duplicate"),
        ("algebra a\nfamily L weird degree-offset 0", "lattice"),
        ("algebra a\nfamily L integer degree-offset 0\nbracket L(m) L(n) = (n-m)*Q(m+n)", "unknown"),
        (
            "algebra a\nfamily L integer degree-offset 0\n"
            "bracket L(m) L(n) = (n-m)*L(m+n)\nbracket L(m) L(n) = 0",
            "duplicate rule",
        ),
        ("algebra a\nfamily L integer degree-offset 0\nbracket L(m) L(n) = (n-m)*L(m-n)", "expected '+'"),
        ("algebra a\nfamily L integer degree-offset 0\nbracket L(m) L(n) = (k)*L(m+n)", "parameter"),
        ("algebra a\nfamily L integer degree-offset 0\nbracket L(m) L(n) = (n-m)", "target"),
        ("algebra a\ncentral C\nbracket C(m) C(n) = 0", "central"),
        (
            "algebra a\nfamily L integer degree-offset 0\n"
            "bracket L(m) L(n) = (m+n)^1000000000*L(m+n)",
            "exponent 1000000000 exceeds the maximum",
        ),
        (
            "algebra a\nfamily L integer degree-offset 0\n"
            "bracket L(m) L(n) = (((m+n+1)^16)^16)^16*L(m+n)",
            "line 3, col 35: power of degree 256 exceeds the maximum",
        ),
        (
            "algebra a\nfamily L integer degree-offset 0\n"
            "bracket L(m) L(n) = ((((2^16)^16)^16)^16)^16*L(m+n)",
            "line 3, col 35: power of about 4128 bits exceeds the maximum",
        ),
        (
            "algebra a\nfamily L integer degree-offset 0\n"
            "bracket L(m) L(n) = " + "7" * 5000 + "*L(m+n)",
            "line 3, col 21: integer literal of 5000 digits exceeds the maximum",
        ),
        pytest.param(
            "algebra a\nfamily L integer degree-offset 0\n"
            "bracket L(m) L(n) = " + "(" * 400 + "m" + ")" * 400 + "*L(m+n)",
            "line 3, col 121: parentheses and signs nested deeper than 100",
            id="deep-parentheses",
        ),
        pytest.param(
            "algebra a\nfamily L integer degree-offset 0\n"
            "bracket L(m) L(n) = (" + "-" * 3000 + "m)*L(m+n)",
            "line 3, col 121: parentheses and signs nested deeper than 100",
            id="deep-signs",
        ),
        # only ASCII digits form numbers: str.isdigit accepts both of these
        pytest.param(
            "algebra a\nfamily L integer degree-offset 0\nbracket L(m) L(n) = \u00b2*L(m+n)",
            "line 3, col 21: unknown parameter '\u00b2'",
            id="superscript-digit",
        ),
        pytest.param(
            "algebra a\nfamily L integer degree-offset \u0663",
            "line 2, col 32: unexpected character '\u0663'",
            id="arabic-indic-digit",
        ),
        # each of these names its own line, not the file's first
        pytest.param(
            "algebra a\nfamily L integer degree-offset 0\nfamily m integer degree-offset 0",
            "line 3, col 8: family names m, n and delta are reserved",
            id="reserved-family",
        ),
        pytest.param(
            "algebra a\nfamily L integer degree-offset 0\nfamily delta integer degree-offset 0",
            "line 3, col 8: family names m, n and delta are reserved",
            id="reserved-family-delta",
        ),
        pytest.param(
            "algebra a\nfamily L integer degree-offset 0\nbracket L(m) L(n) = (n-m)",
            "line 3, col 26: term has no target family",
            id="no-target-at-end-of-line",
        ),
        pytest.param(
            "algebra a\nfamily L integer degree-offset 0\nbracket L(m) L(n) = (n-m) + L(m+n)",
            "line 3, col 27: term has no target family",
            id="no-target-before-sign",
        ),
        pytest.param(
            "algebra a\nfamily L integer degree-offset 0\nproduct L(m) L(n) = 0",
            "line 3, col 1: product statements are not allowed in an algebra definition",
            id="product-in-algebra",
        ),
        pytest.param(
            "algebra a\nfamily ( integer degree-offset 0",
            "line 2, col 8: expected a family name, found '('",
            id="family-name-operator",
        ),
        pytest.param(
            "algebra a\nfamily 3 integer degree-offset 0",
            "line 2, col 8: expected a family name, found '3'",
            id="family-name-number",
        ),
        pytest.param("algebra a\nalgebra b", "line 2, col 1: duplicate 'algebra' header",
                     id="second-header"),
        pytest.param("algebra a b", "line 1, col 11: trailing input 'b'", id="trailing-input"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(DslError) as err:
        parse_algebra(text)
    assert fragment in str(err.value)


def test_error_carries_position():
    text = "algebra a\nfamily L integer degree-offset 0\nbracket L(m) L(n) = (n-m)*Q(m+n)\n"
    with pytest.raises(DslError) as err:
        parse_algebra(text)
    assert err.value.line == 3


def test_comments_and_blank_lines():
    text = (
        "# a comment\n"
        "algebra witt  # trailing comment\n"
        "\n"
        "family L integer degree-offset 0\n"
        "bracket L(m) L(n) = (n-m)*L(m+n)\n"
    )
    assert render_algebra(parse_algebra(text)) == WITT_CANONICAL


def test_degree_offset_roundtrip():
    spec = catalog.builtin("Ltilde2", {"lambda": Fraction(-3), "mu": Fraction(1, 2)})
    text = render_algebra(spec)
    reparsed = parse_algebra(text)
    for fam in spec.families:
        if fam.lattice != CENTRAL:
            assert reparsed.family(fam.name).shift2 == fam.shift2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("product L(m) L(n) = 0\nbracket L(m) L(n) = 0",
         "line 2, col 1: bracket statements are not allowed in a product file"),
        ("algebra x", "line 1, col 1: algebra statements are not allowed in a product file"),
        ("product L(m) L(n) = 0\nfamily Q integer degree-offset 0",
         "line 2, col 1: family statements are not allowed in a product file"),
        ("product L(m) L(n) = 0\n\nproduct L(m) L(n) = (1)*L(m+n)",
         "line 3, col 1: duplicate rule for family pair (L, L) in the product rules"),
    ],
    ids=["bracket", "algebra", "family", "duplicate-pair"],
)
def test_product_parse_errors(text, fragment):
    with pytest.raises(DslError) as err:
        parse_products(text, catalog.builtin("witt"))
    assert fragment in str(err.value)


_WITT_C = "algebra w\nfamily L integer degree-offset 0\ncentral C\nbracket L(m) L(n) = (n-m)*L(m+n)"


@pytest.mark.parametrize(
    "term, vanishes",
    [
        ("(m+n)*delta(m+n)*C", True),  # zero wherever the delta fires
        ("(1)*delta(m+n+1/2)*C", True),  # m + n is an integer: never fires
        ("(m+n+2)*(m-n)*delta(m+n-2)*C", False),
        ("(m+n-2)*(m-n)*delta(m+n-2)*C", True),  # degree 2, zero on the whole line
        ("(n)*delta(m+n)*C", False),
        ("(m^2-m)*delta(m+n)*C", False),  # zero at m = 0 and 1 only
    ],
)
def test_render_drops_delta_terms_that_never_contribute(term, vanishes):
    plain = parse_algebra(_WITT_C)
    extended = parse_algebra(f"{_WITT_C} + {term}")
    assert structurally_equal(plain, extended) is vanishes
    assert ("delta" in render_algebra(extended)) is not vanishes


def test_leading_sign():
    text = WITT_CANONICAL.replace("= (n-m)", "= -(m-n)")
    assert render_algebra(parse_algebra(text)) == WITT_CANONICAL


_RULE_HEAD = (
    "algebra t\nfamily L integer degree-offset 0\nfamily M integer degree-offset 0\n"
    "central C\nbracket L(m) M(n) = "
)
# a summand a*m + b*n + c times one of five targets; equal targets are like terms
_SUMMAND = st.tuples(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    st.sampled_from(["M(m+n)", "M(m+n+1)", "M(m+n-2)", "delta(m+n)*C", "delta(m+n-1)*C"]),
)


def _summand(abc, target):
    a, b, c = abc
    return f"({a}*m + {b}*n + {c})*{target}"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_SUMMAND, st.booleans()), min_size=1, max_size=8))
def test_render_merges_like_and_zero_terms(summands):
    # the split form writes every summand, zeros included, each led by a sign
    split = "".join(
        f" - {_summand([-x for x in abc], target)}" if negate else f" + {_summand(abc, target)}"
        for (abc, target), negate in summands
    )
    sums = {}
    for (abc, target), _ in summands:
        sums[target] = [x + y for x, y in zip(sums.get(target, (0, 0, 0)), abc)]
    merged = " + ".join(_summand(abc, t) for t, abc in sums.items() if any(abc)) or "0"
    once = render_algebra(parse_algebra(_RULE_HEAD + split))
    assert once == render_algebra(parse_algebra(_RULE_HEAD + merged))
    assert render_algebra(parse_algebra(once)) == once


_WORDS = (
    "algebra", "family", "central", "bracket", "product", "integer", "half", "degree-offset",
    "delta", "L", "Y", "C", "m", "n", "lambda", "0", "1", "16",
    "+", "-", "*", "/", "^", "**", "(", ")", "=", ",",
)
_PRELUDE = "algebra a\nfamily L integer degree-offset 0\nfamily Y half degree-offset 1\ncentral C\n"
_LINE = st.builds(str.join, st.sampled_from([" ", ""]), st.lists(st.sampled_from(_WORDS), max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, min_size=1, max_size=3))
def test_reader_raises_only_dsl_errors(lines):
    """Random lines over the format's alphabet either parse or raise DslError."""
    text = "\n".join(lines)
    algebra = parse_algebra(_PRELUDE)
    for read in (
        lambda: parse_algebra(_PRELUDE + text, {"lambda": Fraction(1, 2)}),
        lambda: parse_algebra(text),
        lambda: parse_products(text, algebra),
    ):
        try:
            read()
        except DslError:
            pass
