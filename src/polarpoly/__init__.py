"""Polar polynomials: construction, zeros, and localization certificates.

Given a monic polynomial P of degree n, a monic R of degree k (or a
center xi with R = (z - xi)^k), the library solves

    d^k/dz^k (R(z) * Q(z)) = (n+1)_k * P(z)

for the unique monic Q of degree n, computes polynomial zeros with a
deterministic Aberth-Ehrlich iteration, and certifies containment
statements of the form Z(Q) within xi - K * Z(S).

The public names below are imported from their modules on first access
(PEP 562), so ``import polarpoly.polar`` loads only the modules that
``polar`` itself needs, and a bare ``import polarpoly`` loads none.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed under the module that defines it.
_EXPORTS = {
    "errors": (
        "DegreeTooLargeError",
        "DegreeZeroError",
        "DomainError",
        "EmptyInputError",
        "EmptyRootSetError",
        "FactorizationImpossible",
        "NonFiniteError",
        "NotMonicError",
        "SZeroAtOriginError",
    ),
    "polar": (
        "PolarProblem",
        "grace_convolve",
        "grace_factorize",
        "q_zeros",
        "s_poly",
        "s_zeros",
        "solve_polar",
    ),
    "polynomial": (
        "Polynomial",
        "derivative_k",
        "jsonable",
        "poly_from_pairs",
        "poly_from_roots",
        "poly_mul",
        "taylor_shift",
    ),
    "regions": (
        "LocalizationReport",
        "Region",
        "Witness",
        "enclosing_disk",
        "localization_check",
        "polar_zero_bound",
        "region_contains",
    ),
    "roots": ("RootSet", "find_roots", "max_modulus", "vieta_residuals"),
    "verify": (
        "CaseInstance",
        "SuiteConfig",
        "SuiteReport",
        "replay_case",
        "reproduce_paper_examples",
        "residual_norm",
        "run_property_suite",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Runs only for names not yet in the module's globals: a public
    # name is fetched from its home module, any other name is tried as
    # a submodule (``polarpoly.verify`` after ``import polarpoly``).
    if name in _HOME:
        module = importlib.import_module(f".{_HOME[name]}", __name__)
        value = getattr(module, name)
    else:
        try:
            value = importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            msg = f"module {__name__!r} has no attribute {name!r}"
            raise AttributeError(msg) from None
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
