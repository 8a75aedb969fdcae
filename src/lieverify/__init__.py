"""Exact verification engine for half-integer graded Lie algebras.

Bracket rules are index polynomials with optional Kronecker-delta central
terms; everything is computed over the rationals, so every check is exact.
"""
from .core import (
    AlgebraSpec,
    BasisSymbol,
    BracketRule,
    BracketTerm,
    DeltaCondition,
    Element,
    Family,
    Report,
    StructureError,
    Violation,
    Window,
    WindowError,
    bracket,
    check_grading,
    check_jacobi,
    check_skew,
    jacobi_terms,
)
from .poly import Poly
from .dsl import DslError, parse_algebra, render_algebra
from .catalog import CaseLabel, CaseViolation, builtin, catalog_names, classify_case
from .derivations import (
    DerivationReport,
    derivation_residual,
    solve_derivations,
    solve_degree,
)
from .tpa import (
    ProductSpec,
    check_tpa,
    parse_products,
    product,
    render_products,
    theorem_product,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "BasisSymbol",
    "BracketRule",
    "BracketTerm",
    "CaseLabel",
    "CaseViolation",
    "DeltaCondition",
    "DerivationReport",
    "DslError",
    "Element",
    "Family",
    "Poly",
    "ProductSpec",
    "Report",
    "StructureError",
    "Violation",
    "Window",
    "WindowError",
    "bracket",
    "builtin",
    "catalog_names",
    "check_grading",
    "check_jacobi",
    "check_skew",
    "check_tpa",
    "classify_case",
    "derivation_residual",
    "jacobi_terms",
    "parse_algebra",
    "parse_products",
    "product",
    "render_algebra",
    "render_products",
    "solve_degree",
    "solve_derivations",
    "theorem_product",
    "__version__",
]
