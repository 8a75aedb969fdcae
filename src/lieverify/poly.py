"""Exact polynomials in the two formal index variables m and n.

Coefficients are rationals; parameters are substituted before a Poly is
ever stored, so evaluation at integer points is a finite exact sum.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .linalg import axpy

Scalar = Union[int, Fraction]

# monomial key: (exponent of m, exponent of n)
Monomial = tuple[int, int]


class Poly:
    """Polynomial in m, n over the rationals, in normal form (no zero terms)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, Scalar] | None = None):
        self.coeffs: dict[Monomial, Fraction] = axpy(
            {}, {key: Fraction(val) for key, val in (coeffs or {}).items()}
        )

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        return cls({(0, 0): Fraction(value)})

    @classmethod
    def var(cls, name: str) -> "Poly":
        if name == "m":
            return cls({(1, 0): Fraction(1)})
        if name == "n":
            return cls({(0, 1): Fraction(1)})
        raise ValueError(f"unknown variable {name!r}")

    def evaluate(self, m: Scalar, n: Scalar) -> Fraction:
        total = Fraction(0)
        for (em, en), coeff in self.coeffs.items():
            total += coeff * (m ** em * n ** en)
        return total

    def swap_vars(self) -> "Poly":
        """The polynomial with m and n exchanged."""
        return Poly({(en, em): c for (em, en), c in self.coeffs.items()})

    def degree(self) -> int:
        return max((em + en for em, en in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self.coeffs)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeffs.get((0, 0), Fraction(0))

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(axpy(dict(self.coeffs), other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({key: -val for key, val in self.coeffs.items()})

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly({key: val * other for key, val in self.coeffs.items()})
        out: dict[Monomial, Fraction] = {}
        for (am, an), ac in self.coeffs.items():
            axpy(out, {(am + bm, an + bn): bc for (bm, bn), bc in other.coeffs.items()}, ac)
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            if not other.is_constant():
                raise ValueError("can only divide by a constant polynomial")
            other = other.constant_value()
        other = Fraction(other)
        if not other:
            raise ZeroDivisionError("division of polynomial by zero")
        return self * (1 / other)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial exponent")
        result = Poly.const(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        keys = sorted(self.coeffs, key=lambda k: (-(k[0] + k[1]), -k[1], -k[0]))
        out = []
        for i, key in enumerate(keys):
            coeff = self.coeffs[key]
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

    def __repr__(self) -> str:
        return f"Poly({self})"

M = Poly.var("m")
N = Poly.var("n")
ONE = Poly.const(1)
