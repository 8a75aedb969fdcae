"""Built-in algebras: Witt/Virasoro, the Schroedinger-Witt family, the
extended Schroedinger-Virasoro algebra, the twisted Heisenberg-Virasoro
subalgebra, and the five central extensions of the two-parameter deformation
family with their (lambda, mu) case guards.

Every entry is composed from a term dict keyed by family pair: "LY" holds
the terms of [L_m, Y_n] and becomes one bracket rule.  so, so_tilde and
so_hat each extend their parent's dict; witt, virasoro and hv pick pairs out
of them.  The deformation family L_{lambda,mu} has a dict of its own.  An
extension Ltilde1..5 first checks that classify_case assigns (lambda, mu)
to it, then adds the cocycle terms of its row in `_EXTENSIONS` and the
central families that row names.  Family order fixes the solver's unknown
columns, so every family tuple is written out, not read off a dict.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from typing import Mapping

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
)
from .poly import M, N, ONE, Poly


class CaseLabel(enum.Enum):
    """Which central extension applies to a (lambda, mu) pair."""

    L1_GENERIC = "Ltilde1"
    L2 = "Ltilde2"
    L3 = "Ltilde3"
    L4 = "Ltilde4"
    L5 = "Ltilde5"


class CaseViolation(ValueError):
    """A parameterized extension was requested outside its (lambda, mu) case."""

    def __init__(self, requested: str, lam: Fraction, mu: Fraction, actual: CaseLabel):
        self.requested = requested
        self.lam = lam
        self.mu = mu
        self.actual = actual
        super().__init__(
            f"{requested} is not defined at (lambda, mu)=({lam}, {mu}); "
            f"this pair belongs to {actual.value}"
        )


def classify_case(lam: Fraction, mu: Fraction) -> CaseLabel:
    """The unique case label the catalog's extension family assigns to (lambda, mu)."""
    lam = Fraction(lam)
    mu = Fraction(mu)
    if mu.denominator == 2:  # mu in 1/2 + Z
        return {-3: CaseLabel.L2, -1: CaseLabel.L3, 1: CaseLabel.L4}.get(lam, CaseLabel.L1_GENERIC)
    if mu.denominator == 1 and lam == -1:
        return CaseLabel.L5
    return CaseLabel.L1_GENERIC


_Terms = dict[str, tuple[BracketTerm, ...]]

_DELTA0 = DeltaCondition(Fraction(0))
_ONE_HALF = Fraction(1, 2)


def _cubic(u: Poly) -> Poly:
    return u ** 3 - u


_WITT: _Terms = {"LL": (BracketTerm(N - M, "L"),)}
# Virasoro cocycle (m^3 - m)/12 on [L_m, L_n]
_VIRASORO: _Terms = {"LL": _WITT["LL"] + (BracketTerm(_cubic(M) / 12, "C_L", delta=_DELTA0),)}
_SO: _Terms = {
    **_WITT,
    "LM": (BracketTerm(N, "M"),),
    # [L_m, Y_{n+1/2}] = (n + (1-m)/2) Y_{m+n+1/2}
    "LY": (BracketTerm(N + (ONE - M) / 2, "Y"),),
    "YY": (BracketTerm(M - N, "M", 1),),
}
_SO_TILDE: _Terms = {
    **_SO,
    "LN": (BracketTerm(N, "N"),),
    "NM": (BracketTerm(Poly.const(2), "M"),),
    "NY": (BracketTerm(ONE, "Y"),),
}
_SO_HAT: _Terms = {
    **_SO_TILDE,
    **_VIRASORO,
    "LN": _SO_TILDE["LN"] + (BracketTerm(M ** 2 - M, "C_LN", delta=_DELTA0),),
    "NN": (BracketTerm(N, "C_N", delta=_DELTA0),),
}

_L, _M, _N, _Y = Family("L", INTEGER), Family("M", INTEGER), Family("N", INTEGER), Family("Y", HALF)


def _centrals(*names: str) -> tuple[Family, ...]:
    return tuple(Family(name, CENTRAL) for name in names)


# The parameter-free entries: ordered families and term dict.
_FIXED: dict[str, tuple[tuple[Family, ...], _Terms]] = {
    "witt": ((_L,), _WITT),
    "virasoro": ((_L, *_centrals("C_L")), _VIRASORO),
    "so": ((_L, _M, _Y), _SO),
    "so_tilde": ((_L, _M, _N, _Y), _SO_TILDE),
    "so_hat": ((_L, _M, _N, _Y, *_centrals("C_L", "C_LN", "C_N")), _SO_HAT),
    "hv": ((_L, _N, *_centrals("C_L", "C_LN", "C_N")), {p: _SO_HAT[p] for p in ("LL", "LN", "NN")}),
}


def _deformation(lam: Fraction, mu: Fraction) -> _Terms:
    """Term dict of L_{lambda,mu}."""
    return {
        "LL": _WITT["LL"],
        "LM": (BracketTerm(N - lam * M + 2 * mu * ONE, "M"),),
        "LY": (BracketTerm(N + _ONE_HALF * ONE - (lam + 1) / 2 * M + mu * ONE, "Y"),),
        "YY": (BracketTerm(N - M, "M", 1),),
    }


# Per extension: its central families in order, and the cocycle terms it
# adds to L_{lambda,mu}'s dict beside the Virasoro C_L term on [L, L], as a
# function of mu.  Only the requested extension's terms are built.
_EXTENSIONS = {
    CaseLabel.L1_GENERIC: (("C_L",), lambda mu: {}),
    CaseLabel.L2: (("C_L", "C_LY"), lambda mu: {
        "LY": (BracketTerm(ONE, "C_LY", delta=DeltaCondition(mu + _ONE_HALF)),),
    }),
    CaseLabel.L3: (("C_L", "C_LY", "C_MY"), lambda mu: {
        "LY": (BracketTerm((M ** 2 - M) / 2, "C_LY", delta=DeltaCondition(mu + _ONE_HALF)),),
        "MY": (BracketTerm(ONE, "C_MY", delta=DeltaCondition(3 * mu + _ONE_HALF)),),
    }),
    # Cocycle on [Y,Y]: the displayed -(m+mu)((m+mu)^2-1) delta_{m+n+2mu,0}
    # fails the Jacobi identity against the [L,M] C_M term; the consistent
    # form is shifted by one half step, matching the Ltilde5 pattern.
    CaseLabel.L4: (("C_L", "C_LY", "C_M"), lambda mu: {
        "LM": (BracketTerm(-_cubic(M), "C_M", delta=DeltaCondition(2 * mu)),),
        "LY": (BracketTerm(-_cubic(M), "C_LY", delta=DeltaCondition(mu + _ONE_HALF)),),
        "YY": (BracketTerm(-_cubic(M + (mu + _ONE_HALF) * ONE), "C_M",
                           delta=DeltaCondition(2 * mu + 1)),),
    }),
    CaseLabel.L5: (("C_L", "C_Y"), lambda mu: {
        "YY": (BracketTerm(-(M + (mu + _ONE_HALF) * ONE), "C_Y", delta=DeltaCondition(2 * mu + 1)),),
    }),
}
_DEFORMATIONS = ("L", *(case.value for case in CaseLabel))


def _rules(terms: _Terms) -> tuple[BracketRule, ...]:
    """One rule per entry of a term dict keyed by family pair, e.g. "LY"."""
    return tuple(BracketRule(pair[0], pair[1], ts) for pair, ts in terms.items())


def _build_deformation(name: str, lam: Fraction, mu: Fraction) -> AlgebraSpec:
    """L_{lambda,mu}, or its extension `name` once the case guard passes."""
    terms = _deformation(lam, mu)
    families = (_L, _M, _Y)
    if name != "L":
        case = classify_case(lam, mu)
        if case.value != name:
            raise CaseViolation(name, lam, mu, case)
        centrals, cocycles = _EXTENSIONS[case]
        terms.update(_VIRASORO)
        for pair, extra in cocycles(mu).items():
            terms[pair] = terms.get(pair, ()) + extra
        if case is not CaseLabel.L1_GENERIC:
            # deg(M_n) = n + 2*mu, deg(Y_{n+1/2}) = n + 1/2 + mu: integral in
            # doubled units, as the guards put mu in (1/2)Z for Ltilde2..5
            families = (_L, Family("M", INTEGER, int(4 * mu)), Family("Y", HALF, int(2 * mu)))
        families += _centrals(*centrals)
    return AlgebraSpec(name, families, _rules(terms), {"lambda": lam, "mu": mu})


def catalog_names() -> list[str]:
    return [*_FIXED, *_DEFORMATIONS]


def needs_params(name: str) -> bool:
    if name in _FIXED:
        return False
    if name in _DEFORMATIONS:
        return True
    raise StructureError(f"unknown catalog algebra {_shown(name)}")


def builtin(name: str, params: Mapping[str, Fraction] | None = None) -> AlgebraSpec:
    """Construct a catalog algebra, enforcing (lambda, mu) case guards."""
    wants = needs_params(name)
    params = {k: Fraction(v) for k, v in (params or {}).items()}
    if not wants:
        if params:
            raise StructureError(f"{name} takes no parameters")
        families, terms = _FIXED[name]
        return AlgebraSpec(name, families, _rules(terms))
    unknown = [k for k in params if k not in ("lambda", "mu")]
    if unknown:
        raise StructureError(
            f"{name} takes only parameters lambda and mu, not {', '.join(map(_shown, unknown))}"
        )
    if "lambda" not in params or "mu" not in params:
        raise StructureError(f"{name} requires parameters lambda and mu")
    return _build_deformation(name, params["lambda"], params["mu"])


# One representative per case branch the theorems distinguish.
REPRESENTATIVES: tuple[tuple[str, dict[str, Fraction]], ...] = (
    ("witt", {}),
    ("virasoro", {}),
    ("so", {}),
    ("so_tilde", {}),
    ("so_hat", {}),
    ("hv", {}),
    ("L", {"lambda": Fraction(1), "mu": Fraction(1, 4)}),
    ("L", {"lambda": Fraction(2), "mu": Fraction(1, 4)}),
    ("Ltilde1", {"lambda": Fraction(1), "mu": Fraction(1, 4)}),
    ("Ltilde1", {"lambda": Fraction(2), "mu": Fraction(1, 4)}),
    ("Ltilde1", {"lambda": Fraction(1), "mu": Fraction(2)}),
    ("Ltilde2", {"lambda": Fraction(-3), "mu": Fraction(1, 2)}),
    ("Ltilde3", {"lambda": Fraction(-1), "mu": Fraction(1, 2)}),
    ("Ltilde4", {"lambda": Fraction(1), "mu": Fraction(1, 2)}),
    ("Ltilde5", {"lambda": Fraction(-1), "mu": Fraction(0)}),
)
