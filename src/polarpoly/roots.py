"""Numerical zeros of complex polynomials.

Simultaneous Aberth-Ehrlich iteration with a short Newton polish per
root.  There is no randomness anywhere: the initial guesses are a fixed
function of the coefficients, so identical inputs give bit-identical
outputs.  Multiple roots are returned as clusters; the residual and
Vieta diagnostics are the arbiters of quality in that case.

A root counts as settled when its correction drops below ``tol`` or
when the polynomial value at the iterate is already below the floating
point noise floor of its evaluation, in which case no further
double-precision progress is possible.  Roots whose attainable plain
accuracy is poor (heavy coefficient cancellation) get a final Newton
polish driven by exact rational evaluation of the residual, which costs
little at desk scale and recovers full double accuracy.

The iteration itself (``_aberth``) and the plain Newton polish
(``_newton_polish``) take the evaluator as an argument, so a polynomial
with a better form than its dense coefficients (see
``polar.s_zeros``) runs the same update with its own evaluator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeZeroError, EmptyRootSetError
from .polynomial import Polynomial, make_monic, sup_norm

# Fixed angular twist keeping initial guesses off symmetry axes.
_ANGLE_TWIST = 0.4241438680420134

_NEWTON_POLISH_STEPS = 3
_EXACT_POLISH_STEPS = 3

# Defaults of find_roots, shared by every caller of _aberth.
_DEFAULT_TOL = 1e-12
_DEFAULT_MAX_ITER = 200

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RootSet:
    """All zeros of a polynomial, with residual diagnostics.

    ``roots`` has length equal to the degree (multiplicity included) and
    is ordered by nondecreasing modulus, ties by ascending argument in
    (-pi, pi].  ``max_residual`` is max_j |p(root_j)| / max_i |coeff_i|.
    """

    roots: tuple[complex, ...]
    max_residual: float
    converged: bool

    def __len__(self) -> int:
        return len(self.roots)


def _initial_radius(monic: np.ndarray) -> float:
    # Cauchy-style bound 1 + max|a_j|, capped by the Lagrange/Fujiwara
    # bound 2 * max_j |a_{n-j}|^(1/j).  The cap matters when the
    # coefficients span many orders of magnitude, where the plain
    # Cauchy radius would start the iteration hopelessly far out.
    n = len(monic) - 1
    tail = np.abs(monic[:-1])
    cauchy = 1.0 + float(tail.max())
    fuji = 0.0
    for j in range(1, n + 1):
        a = float(tail[n - j])
        if a > 0.0:
            fuji = max(fuji, a ** (1.0 / j))
    if fuji > 0.0:
        return min(cauchy, 1.0 + 2.0 * fuji)
    return cauchy


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    p = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        p = p * z + c
    return p


def _horner_pair(coeffs: np.ndarray, z: np.ndarray):
    # Value and first derivative in one sweep.
    p = np.full_like(z, coeffs[-1])
    d = np.zeros_like(z)
    for c in coeffs[-2::-1]:
        d = d * z + p
        p = p * z + c
    return p, d


def _noise_floor(abs_coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    # Size of the terms met during Horner evaluation; |p| values below
    # a few eps of this are indistinguishable from zero in doubles.
    return 4.0 * _EPS * _horner(abs_coeffs, np.abs(z))


def _float_scaled(m: int, e: int) -> float:
    # m * 2**e as a double; m may have far more bits than a double holds.
    if m == 0:
        return 0.0
    bits = m.bit_length()
    if bits > 64:
        shift = bits - 64
        m >>= shift
        e += shift
    return math.ldexp(float(m), e)


def _eval_exact(coeffs: tuple[complex, ...], z: complex) -> complex:
    # Horner in exact dyadic-integer arithmetic (every finite double is
    # m * 2**e), rounded once at the end.  Immune to cancellation.
    parts: list[tuple[int, int, int, int]] = []
    for c in coeffs:
        nr, dr = c.real.as_integer_ratio()
        ni, di = c.imag.as_integer_ratio()
        parts.append((nr, dr.bit_length() - 1, ni, di.bit_length() - 1))
    t = max(max(er, ei) for _, er, _, ei in parts)
    ints = [(nr << (t - er), ni << (t - ei)) for nr, er, ni, ei in parts]

    nr, dr = z.real.as_integer_ratio()
    ni, di = z.imag.as_integer_ratio()
    d = max(dr.bit_length() - 1, di.bit_length() - 1)
    zr = nr << (d - (dr.bit_length() - 1))
    zi = ni << (d - (di.bit_length() - 1))

    n = len(coeffs) - 1
    br, bi = ints[-1]
    for j in range(n - 1, -1, -1):
        cr, ci = ints[j]
        shift = d * (n - j)
        br, bi = (
            br * zr - bi * zi + (cr << shift),
            br * zi + bi * zr + (ci << shift),
        )
    e = -(t + d * n)
    return complex(_float_scaled(br, e), _float_scaled(bi, e))


def _eval_deriv(coeffs: tuple[complex, ...], z: complex) -> complex:
    d = 0j
    p = coeffs[-1]
    for c in coeffs[-2::-1]:
        d = d * z + p
        p = p * z + c
    return d


def _exact_newton(coeffs: tuple[complex, ...], z: complex) -> complex:
    best_val = abs(_eval_exact(coeffs, z))
    best = z
    for _ in range(_EXACT_POLISH_STEPS):
        pv = _eval_exact(coeffs, z)
        if pv == 0:
            return z
        dv = _eval_deriv(coeffs, z)
        if dv == 0:
            break
        z = z - pv / dv
        val = abs(_eval_exact(coeffs, z))
        if val < best_val:
            best_val, best = val, z
    return best


def _newton_polish(evaluate, z: np.ndarray):
    # Plain Newton steps, each accepted only where it reduces |p|.
    # ``evaluate(z)`` returns p(z) and p'(z) first, in any per-point
    # scale that varies smoothly with z.  Returns z and p'(z).
    pv, dv = evaluate(z)[:2]
    best = np.abs(pv)
    for _ in range(_NEWTON_POLISH_STEPS):
        dv_safe = np.where(dv == 0, 1.0, dv)
        cand = np.where(dv == 0, z, z - pv / dv_safe)
        pc, dc = evaluate(cand)[:2]
        improved = np.abs(pc) < best
        if not improved.any():
            break
        z = np.where(improved, cand, z)
        pv = np.where(improved, pc, pv)
        dv = np.where(improved, dc, dv)
        best = np.where(improved, np.abs(pc), best)
    return z, dv


def _polish(monic: np.ndarray, z: np.ndarray) -> np.ndarray:
    # Plain Newton steps, then an exact-residual polish for roots whose
    # plain evaluation noise limits the attainable accuracy.
    z, dv = _newton_polish(lambda v: _horner_pair(monic, v), z)
    noise = _noise_floor(np.abs(monic), z)
    dmag = np.maximum(np.abs(dv), 1e-300)
    attainable = noise / dmag
    needs_exact = attainable > 2e-11 * (1.0 + np.abs(z))
    if needs_exact.any():
        coeffs = tuple(complex(c) for c in monic)
        for i in np.nonzero(needs_exact)[0]:
            z[i] = _exact_newton(coeffs, complex(z[i]))
    return z


def _aberth(z: np.ndarray, evaluate, tol: float, max_iter: int):
    """Simultaneous Aberth-Ehrlich sweeps from the start vector ``z``.

    ``evaluate(v)`` returns p(v), p'(v) and the noise floor of p at v
    first, all three in one per-point scale of the caller's choice: only
    the Newton ratio p/p' and the comparison of |p| with the noise floor
    are used.  Each sweep evaluates and moves the active roots only;
    settled roots freeze but keep repelling the others.  Returns the
    final iterates and whether every root settled within ``max_iter``
    sweeps.
    """
    z = np.array(z, dtype=np.complex128)
    active = np.arange(len(z))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            za = z[active]
            pv, dv, noise = evaluate(za)[:3]

            at_root = pv == 0
            dv_safe = np.where(dv == 0, 1.0, dv)
            w = pv / dv_safe
            # Deterministic nudge out of a stationary point of p.
            stuck = (dv == 0) & ~at_root
            if stuck.any():
                w = np.where(stuck, 0.1 * (1.0 + np.abs(za)), w)

            diff = za[:, None] - z[None, :]
            diff[np.arange(len(active)), active] = np.inf
            # Coincident approximations exert no repulsion on each
            # other; they then merge into a cluster, which the
            # diagnostics accept.
            diff = np.where(diff == 0, np.inf, diff)
            s = (1.0 / diff).sum(axis=1)
            denom = 1.0 - w * s
            denom = np.where(denom == 0, 1.0, denom)
            delta = np.where(at_root, 0.0, w / denom)

            # A root settles on a small correction or on reaching the
            # evaluation noise floor.
            settled = (np.abs(delta) <= tol) | (np.abs(pv) <= noise)
            z[active] = za - np.where(settled, 0.0, delta)
            active = active[~settled]
            if not active.size:
                break
    return z, not active.size


def _ordered(z: np.ndarray) -> tuple[complex, ...]:
    return tuple(sorted((complex(v) for v in z), key=_sort_key))


def _sort_key(z: complex):
    phase = cmath.phase(z)
    if phase <= -math.pi:
        phase = math.pi
    return (abs(z), phase)


def find_roots(
    p: Polynomial, tol: float = _DEFAULT_TOL, max_iter: int = _DEFAULT_MAX_ITER
) -> RootSet:
    """Compute all zeros of ``p``.

    Parameters
    ----------
    p : Polynomial
        Polynomial of degree >= 1.
    tol : float
        A root settles once its correction has modulus at most ``tol``
        (or its residual reaches the evaluation noise floor).
    max_iter : int
        Maximum number of simultaneous sweeps.

    Returns
    -------
    RootSet
        Zeros with multiplicity, ordered by (modulus, argument), with
        the scaled residual and an honest ``converged`` flag; a result
        that ran out of iterations is returned with converged=False
        rather than silently.
    """
    n = p.degree
    if n < 1:
        raise DegreeZeroError("cannot find roots of a constant polynomial")
    monic = np.array(make_monic(p).coeffs, dtype=np.complex128)
    deriv = monic[1:] * np.arange(1, n + 1)
    abs_coeffs = np.abs(monic)

    def evaluate(v):
        noise = _noise_floor(abs_coeffs, v)
        return _horner(monic, v), _horner(deriv, v), noise

    radius = _initial_radius(monic)
    angles = 2.0 * math.pi * (np.arange(n) + 0.25) / n + _ANGLE_TWIST
    z = radius * np.exp(1j * angles)
    z, converged = _aberth(z, evaluate, tol, max_iter)

    ordered = _ordered(_polish(monic, z))
    scale = sup_norm(p)
    residual = max(abs(p(r)) for r in ordered) / scale
    return RootSet(roots=ordered, max_residual=residual, converged=converged)


def max_modulus(rs: RootSet) -> float:
    """Largest root modulus."""
    if not rs.roots:
        raise EmptyRootSetError("root set is empty")
    return max(abs(r) for r in rs.roots)


def vieta_residuals(p: Polynomial, rs: RootSet) -> tuple[float, float]:
    """Scaled errors of the Vieta sum and product identities.

    Returns (sum error, product error), each already divided by its
    natural scale so both are comparable against a flat tolerance.
    """
    n = p.degree
    a = p.coeffs
    root_sum = sum(rs.roots)
    root_prod = 1 + 0j
    prod_scale = 1.0
    for r in rs.roots:
        root_prod *= r
        prod_scale *= 1.0 + abs(r)
    sum_err = abs(root_sum + a[n - 1] / a[n]) / (
        1.0 + sum(abs(r) for r in rs.roots)
    )
    prod_err = abs(root_prod - (-1) ** n * a[0] / a[n]) / (1.0 + prod_scale)
    return (sum_err, prod_err)
