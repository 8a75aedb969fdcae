"""Built-in algebras: Witt/Virasoro, the Schroedinger-Witt family, the
extended Schroedinger-Virasoro algebra, the twisted Heisenberg-Virasoro
subalgebra, and the five central extensions of the two-parameter deformation
family with their (lambda, mu) case guards.
"""
from __future__ import annotations

import enum
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
from .poly import M, N, ONE, Poly


class CaseLabel(enum.Enum):
    """Which central extension applies to a (lambda, mu) pair."""

    L1_GENERIC = "Ltilde1"
    L2 = "Ltilde2"
    L3 = "Ltilde3"
    L4 = "Ltilde4"
    L5 = "Ltilde5"
    NONE = "none"


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


def _is_int(q: Fraction) -> bool:
    return q.denominator == 1


def _is_half_odd(q: Fraction) -> bool:
    """True for mu in 1/2 + Z."""
    return q.denominator == 2


def classify_case(lam: Fraction, mu: Fraction) -> CaseLabel:
    """The unique case label the catalog's extension family assigns to (lambda, mu)."""
    lam = Fraction(lam)
    mu = Fraction(mu)
    if _is_half_odd(mu):
        if lam == -3:
            return CaseLabel.L2
        if lam == -1:
            return CaseLabel.L3
        if lam == 1:
            return CaseLabel.L4
        return CaseLabel.L1_GENERIC
    if _is_int(mu):
        if lam == -1:
            return CaseLabel.L5
        return CaseLabel.L1_GENERIC
    # mu outside (1/2)Z
    return CaseLabel.L1_GENERIC


_DELTA0 = DeltaCondition(Fraction(0))

# Virasoro cocycle (m^3 - m)/12 on [L_m, L_n]
_VIR_COCYCLE = (M ** 3 - M) / 12


def _witt_rule(central: Optional[str]) -> BracketRule:
    terms = [BracketTerm(N - M, "L", 0)]
    if central:
        terms.append(BracketTerm(_VIR_COCYCLE, central, delta=_DELTA0))
    return BracketRule("L", "L", tuple(terms))


def _build_witt(params: Mapping[str, Fraction]) -> AlgebraSpec:
    return AlgebraSpec("witt", (Family("L", INTEGER),), (_witt_rule(None),))


def _build_virasoro(params: Mapping[str, Fraction]) -> AlgebraSpec:
    return AlgebraSpec(
        "virasoro",
        (Family("L", INTEGER), Family("C_L", CENTRAL)),
        (_witt_rule("C_L"),),
    )


def _schrodinger_witt_rules() -> list[BracketRule]:
    # [L_m, Y_{n+1/2}] = (n + (1-m)/2) Y_{m+n+1/2}
    ly = N + (ONE - M) / 2
    return [
        _witt_rule(None),
        BracketRule("L", "M", (BracketTerm(N, "M", 0),)),
        BracketRule("L", "Y", (BracketTerm(ly, "Y", 0),)),
        BracketRule("Y", "Y", (BracketTerm(M - N, "M", 1),)),
    ]


def _build_so(params: Mapping[str, Fraction]) -> AlgebraSpec:
    families = (Family("L", INTEGER), Family("M", INTEGER), Family("Y", HALF))
    return AlgebraSpec("so", families, tuple(_schrodinger_witt_rules()))


def _extended_rules() -> list[BracketRule]:
    rules = _schrodinger_witt_rules()
    rules += [
        BracketRule("L", "N", (BracketTerm(N, "N", 0),)),
        BracketRule("N", "M", (BracketTerm(Poly.const(2), "M", 0),)),
        BracketRule("N", "Y", (BracketTerm(ONE, "Y", 0),)),
    ]
    return rules


def _build_so_tilde(params: Mapping[str, Fraction]) -> AlgebraSpec:
    families = (
        Family("L", INTEGER),
        Family("M", INTEGER),
        Family("N", INTEGER),
        Family("Y", HALF),
    )
    return AlgebraSpec("so_tilde", families, tuple(_extended_rules()))


def _so_hat_central_rules() -> dict[str, BracketRule]:
    """The three cocycle-carrying rules shared by so_hat and hv."""
    return {
        "LL": _witt_rule("C_L"),
        "LN": BracketRule(
            "L",
            "N",
            (
                BracketTerm(N, "N", 0),
                BracketTerm(M ** 2 - M, "C_LN", delta=_DELTA0),
            ),
        ),
        "NN": BracketRule("N", "N", (BracketTerm(N, "C_N", delta=_DELTA0),)),
    }


def _build_so_hat(params: Mapping[str, Fraction]) -> AlgebraSpec:
    central = _so_hat_central_rules()
    rules = [
        central["LL"],
        BracketRule("L", "M", (BracketTerm(N, "M", 0),)),
        central["LN"],
        BracketRule("N", "M", (BracketTerm(Poly.const(2), "M", 0),)),
        BracketRule("L", "Y", (BracketTerm(N + (ONE - M) / 2, "Y", 0),)),
        BracketRule("N", "Y", (BracketTerm(ONE, "Y", 0),)),
        BracketRule("Y", "Y", (BracketTerm(M - N, "M", 1),)),
        central["NN"],
    ]
    families = (
        Family("L", INTEGER),
        Family("M", INTEGER),
        Family("N", INTEGER),
        Family("Y", HALF),
        Family("C_L", CENTRAL),
        Family("C_LN", CENTRAL),
        Family("C_N", CENTRAL),
    )
    return AlgebraSpec("so_hat", families, tuple(rules))


def _build_hv(params: Mapping[str, Fraction]) -> AlgebraSpec:
    central = _so_hat_central_rules()
    families = (
        Family("L", INTEGER),
        Family("N", INTEGER),
        Family("C_L", CENTRAL),
        Family("C_LN", CENTRAL),
        Family("C_N", CENTRAL),
    )
    return AlgebraSpec("hv", families, (central["LL"], central["LN"], central["NN"]))


def _deformative_rules(lam: Fraction, mu: Fraction, with_cl: bool) -> dict[str, list[BracketTerm]]:
    """Term lists of L_{lambda,mu}, keyed by family pair, before extensions."""
    lm = N - lam * M + 2 * mu * ONE  # [L_m, M_n] coefficient
    ly = N + Fraction(1, 2) * ONE - (lam + 1) / 2 * M + mu * ONE
    ll = [BracketTerm(N - M, "L", 0)]
    if with_cl:
        ll.append(BracketTerm(_VIR_COCYCLE, "C_L", delta=_DELTA0))
    return {
        "LL": ll,
        "LM": [BracketTerm(lm, "M", 0)],
        "LY": [BracketTerm(ly, "Y", 0)],
        "YY": [BracketTerm(N - M, "M", 1)],
    }


def _rules(terms: dict[str, list[BracketTerm]]) -> tuple[BracketRule, ...]:
    """One rule per entry of a term dict keyed by family pair, e.g. "LY"."""
    return tuple(BracketRule(pair[0], pair[1], tuple(ts)) for pair, ts in terms.items())


def _require_params(params: Mapping[str, Fraction], name: str) -> tuple[Fraction, Fraction]:
    try:
        lam = Fraction(params["lambda"])
        mu = Fraction(params["mu"])
    except KeyError as missing:
        raise StructureError(f"{name} requires parameters lambda and mu") from missing
    return lam, mu


def _deformative_families(mu: Fraction, shifted: bool, centrals: tuple[str, ...]) -> tuple[Family, ...]:
    if shifted:
        # deg(M_n) = n + 2*mu, deg(Y_{n+1/2}) = n + 1/2 + mu; integral in
        # doubled units for mu in (1/2)Z, which the case guards guarantee
        shift_m = 4 * mu
        shift_y = 2 * mu
        if shift_m.denominator != 1 or shift_y.denominator != 1:
            raise StructureError(f"shifted grading needs mu in (1/2)Z, got {mu}")
        fam_m = Family("M", INTEGER, int(shift_m))
        fam_y = Family("Y", HALF, int(shift_y))
    else:
        fam_m = Family("M", INTEGER)
        fam_y = Family("Y", HALF)
    base = (Family("L", INTEGER), fam_m, fam_y)
    return base + tuple(Family(c, CENTRAL) for c in centrals)


def _build_L(params: Mapping[str, Fraction]) -> AlgebraSpec:
    lam, mu = _require_params(params, "L")
    t = _deformative_rules(lam, mu, with_cl=False)
    families = _deformative_families(mu, shifted=False, centrals=())
    return AlgebraSpec("L", families, _rules(t), {"lambda": lam, "mu": mu})


def _guarded(name: str, expected: CaseLabel, lam: Fraction, mu: Fraction) -> None:
    actual = classify_case(lam, mu)
    if actual is not expected:
        raise CaseViolation(name, lam, mu, actual)


def _build_ltilde1(params: Mapping[str, Fraction]) -> AlgebraSpec:
    lam, mu = _require_params(params, "Ltilde1")
    _guarded("Ltilde1", CaseLabel.L1_GENERIC, lam, mu)
    t = _deformative_rules(lam, mu, with_cl=True)
    families = _deformative_families(mu, shifted=False, centrals=("C_L",))
    return AlgebraSpec("Ltilde1", families, _rules(t), {"lambda": lam, "mu": mu})


def _build_ltilde2(params: Mapping[str, Fraction]) -> AlgebraSpec:
    lam, mu = _require_params(params, "Ltilde2")
    _guarded("Ltilde2", CaseLabel.L2, lam, mu)
    t = _deformative_rules(lam, mu, with_cl=True)
    t["LY"].append(BracketTerm(ONE, "C_LY", delta=DeltaCondition(mu + Fraction(1, 2))))
    families = _deformative_families(mu, shifted=True, centrals=("C_L", "C_LY"))
    return AlgebraSpec("Ltilde2", families, _rules(t), {"lambda": lam, "mu": mu})


def _build_ltilde3(params: Mapping[str, Fraction]) -> AlgebraSpec:
    lam, mu = _require_params(params, "Ltilde3")
    _guarded("Ltilde3", CaseLabel.L3, lam, mu)
    t = _deformative_rules(lam, mu, with_cl=True)
    t["LY"].append(
        BracketTerm((M ** 2 - M) / 2, "C_LY", delta=DeltaCondition(mu + Fraction(1, 2)))
    )
    t["MY"] = [BracketTerm(ONE, "C_MY", delta=DeltaCondition(3 * mu + Fraction(1, 2)))]
    families = _deformative_families(mu, shifted=True, centrals=("C_L", "C_LY", "C_MY"))
    return AlgebraSpec("Ltilde3", families, _rules(t), {"lambda": lam, "mu": mu})


def _build_ltilde4(params: Mapping[str, Fraction]) -> AlgebraSpec:
    lam, mu = _require_params(params, "Ltilde4")
    _guarded("Ltilde4", CaseLabel.L4, lam, mu)
    t = _deformative_rules(lam, mu, with_cl=True)
    cubic = M ** 3 - M  # m(m^2-1)
    t["LM"].append(BracketTerm(-cubic, "C_M", delta=DeltaCondition(2 * mu)))
    t["LY"].append(BracketTerm(-cubic, "C_LY", delta=DeltaCondition(mu + Fraction(1, 2))))
    # Cocycle on [Y,Y]: the displayed -(m+mu)((m+mu)^2-1) delta_{m+n+2mu,0}
    # fails the Jacobi identity against the [L,M] C_M term; the consistent
    # form is shifted by one half step, matching the Ltilde5 pattern.
    u = M + (mu + Fraction(1, 2)) * ONE
    t["YY"].append(
        BracketTerm(-(u ** 3 - u), "C_M", delta=DeltaCondition(2 * mu + 1))
    )
    families = _deformative_families(mu, shifted=True, centrals=("C_L", "C_LY", "C_M"))
    return AlgebraSpec("Ltilde4", families, _rules(t), {"lambda": lam, "mu": mu})


def _build_ltilde5(params: Mapping[str, Fraction]) -> AlgebraSpec:
    lam, mu = _require_params(params, "Ltilde5")
    _guarded("Ltilde5", CaseLabel.L5, lam, mu)
    t = _deformative_rules(lam, mu, with_cl=True)
    t["YY"].append(
        BracketTerm(
            -(M + (mu + Fraction(1, 2)) * ONE),
            "C_Y",
            delta=DeltaCondition(2 * mu + 1),
        )
    )
    families = _deformative_families(mu, shifted=True, centrals=("C_L", "C_Y"))
    return AlgebraSpec("Ltilde5", families, _rules(t), {"lambda": lam, "mu": mu})


_BUILDERS = {
    "witt": (_build_witt, False),
    "virasoro": (_build_virasoro, False),
    "so": (_build_so, False),
    "so_tilde": (_build_so_tilde, False),
    "so_hat": (_build_so_hat, False),
    "hv": (_build_hv, False),
    "L": (_build_L, True),
    "Ltilde1": (_build_ltilde1, True),
    "Ltilde2": (_build_ltilde2, True),
    "Ltilde3": (_build_ltilde3, True),
    "Ltilde4": (_build_ltilde4, True),
    "Ltilde5": (_build_ltilde5, True),
}


def catalog_names() -> list[str]:
    return list(_BUILDERS)


def needs_params(name: str) -> bool:
    try:
        return _BUILDERS[name][1]
    except KeyError:
        raise StructureError(f"unknown catalog algebra {name!r}") from None


def builtin(name: str, params: Mapping[str, Fraction] | None = None) -> AlgebraSpec:
    """Construct a catalog algebra, enforcing (lambda, mu) case guards."""
    try:
        builder, wants = _BUILDERS[name]
    except KeyError:
        raise StructureError(f"unknown catalog algebra {name!r}") from None
    params = {k: Fraction(v) for k, v in (params or {}).items()}
    if wants and not params:
        raise StructureError(f"{name} requires parameters lambda and mu")
    if not wants and params:
        raise StructureError(f"{name} takes no parameters")
    return builder(params)


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
