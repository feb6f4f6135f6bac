"""Polar polynomials: construction, zeros, and localization certificates.

Given a monic polynomial P of degree n, a monic R of degree k (or a
center xi with R = (z - xi)^k), the library solves

    d^k/dz^k (R(z) * Q(z)) = (n+1)_k * P(z)

for the unique monic Q of degree n, computes polynomial zeros with a
deterministic Aberth-Ehrlich iteration, and certifies containment
statements of the form Z(Q) within xi - K * Z(S).
"""

from .errors import (
    DegreeTooLargeError,
    DegreeZeroError,
    DomainError,
    EmptyInputError,
    EmptyRootSetError,
    FactorizationImpossible,
    NonFiniteError,
    NotMonicError,
    SZeroAtOriginError,
)
from .polar import (
    GraceFactorization,
    PolarProblem,
    apply_tr,
    grace_convolve,
    grace_factorize,
    s_poly,
    s_zeros,
    solve_polar,
)
from .polynomial import (
    Polynomial,
    derivative_k,
    jsonable,
    poly_from_pairs,
    poly_from_roots,
    poly_mul,
    rising_factorial,
    taylor_shift,
)
from .regions import (
    LocalizationReport,
    Region,
    Witness,
    enclosing_disk,
    localization_check,
    polar_zero_bound,
    region_contains,
)
from .roots import RootSet, find_roots, max_modulus, vieta_residuals
from .verify import (
    CaseInstance,
    SuiteConfig,
    SuiteReport,
    replay_case,
    reproduce_paper_examples,
    residual_norm,
    run_property_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CaseInstance",
    "DegreeTooLargeError",
    "DegreeZeroError",
    "DomainError",
    "EmptyInputError",
    "EmptyRootSetError",
    "FactorizationImpossible",
    "GraceFactorization",
    "LocalizationReport",
    "NonFiniteError",
    "NotMonicError",
    "PolarProblem",
    "Polynomial",
    "Region",
    "RootSet",
    "SZeroAtOriginError",
    "SuiteConfig",
    "SuiteReport",
    "Witness",
    "apply_tr",
    "derivative_k",
    "enclosing_disk",
    "find_roots",
    "grace_convolve",
    "grace_factorize",
    "jsonable",
    "localization_check",
    "max_modulus",
    "polar_zero_bound",
    "poly_from_pairs",
    "poly_from_roots",
    "poly_mul",
    "region_contains",
    "replay_case",
    "reproduce_paper_examples",
    "residual_norm",
    "rising_factorial",
    "run_property_suite",
    "s_poly",
    "s_zeros",
    "solve_polar",
    "taylor_shift",
    "vieta_residuals",
]
