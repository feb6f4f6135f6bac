"""Accuracy checks of the benchmark, written with numpy alone.

Nothing here imports polarpoly: a wrong answer cannot pass through
arithmetic it shares with the code under test.  Coefficient arrays are
in ascending powers, as polarpoly prints them.
"""

from __future__ import annotations

import math

import numpy as np

# Largest accepted normwise backward error and root residual; the first
# is the default residual tolerance of the library's property harness.
BWD_TOL = 1e-9
ROOT_RESIDUAL_TOL = 1e-9


def from_pairs(pairs) -> np.ndarray:
    """Coefficients or points given as ``[[re, im], ...]``."""
    return np.array([complex(a, b) for a, b in pairs], dtype=np.complex128)


def poly_from_zeros(zeros) -> np.ndarray:
    """Monic polynomial with the given zeros, ascending powers."""
    return np.asarray(np.poly(np.asarray(zeros, dtype=np.complex128)),
                      dtype=np.complex128)[::-1].copy()


def backward_error(P: np.ndarray, R: np.ndarray, Q: np.ndarray) -> float:
    """Normwise backward error of Q as a solution of T_R(Q) = (n+1)_k P.

    ``|T_R(Q) - (n+1)_k P|_inf / ((n+1)_k (|R|_1 |Q|_inf + |P|_inf))``
    with ``T_R(Q)`` the k-th derivative of R*Q and k = deg R.  A Q of the
    wrong length is compared as given, so a dropped or extra coefficient
    shows as a large error.
    """
    n = len(P) - 1
    k = len(R) - 1
    prod = np.convolve(R, Q)
    idx = np.arange(k, len(prod), dtype=np.float64)
    falling = np.ones_like(idx)
    for m in range(k):
        falling *= idx - m
    lhs = prod[k:] * falling
    scale = float(math.prod(range(n + 1, n + k + 1)))
    size = max(len(lhs), len(P))
    diff = np.zeros(size, dtype=np.complex128)
    diff[: len(lhs)] += lhs
    diff[: len(P)] -= scale * P
    denom = scale * (np.abs(R).sum() * np.abs(Q).max() + np.abs(P).max())
    return float(np.abs(diff).max() / denom)


def root_residual(Q: np.ndarray, zeros: np.ndarray) -> float:
    """max_j |Q(z_j)| / sum_i |q_i| |z_j|^i over the claimed zeros."""
    coeffs = Q[::-1]
    # Zeros far outside the unit disk overflow; a NaN residual fails.
    with np.errstate(all="ignore"):
        value = np.abs(np.polyval(coeffs, zeros))
        size = np.polyval(np.abs(coeffs), np.abs(zeros))
        return float((value / size).max())
