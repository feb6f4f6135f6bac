"""Numerical zeros of complex polynomials.

Simultaneous Aberth-Ehrlich iteration with a short Newton polish per
root.  There is no randomness anywhere: the initial guesses are a fixed
function of the coefficients, so identical inputs give bit-identical
outputs.  Multiple roots are returned as clusters; the residual and
Vieta diagnostics are the arbiters of quality in that case.

Vanishing low coefficients give exact zeros at 0.  The starts come
from the Newton polygon of the coefficients (Bini 1996; MPSolve), and
Horner's rule runs on the reversed coefficients at 1/z where |z| > 1,
so no power of a large z is formed at any degree.

A root counts as settled when its Newton correction |p/p'| drops below
``tol`` or when the polynomial value at the iterate is already below
the floating point noise floor of its evaluation, in which case no
further double-precision progress is possible.  The Aberth correction
is not a settle test: it is tiny whenever two iterates sit close
together, also when both approach the same zero and another is missed.
Roots whose attainable plain accuracy is poor (heavy coefficient
cancellation) get one more Newton step with the value from compensated
Horner (Graillat, Langlois and Louvet), which is as accurate as
evaluation in twice the working precision; the step is kept only where
the normwise residual drops.

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
from .polynomial import Polynomial

# Fixed angular twist keeping initial guesses off symmetry axes.
_ANGLE_TWIST = 0.4241438680420134

_NEWTON_POLISH_STEPS = 3

# Defaults of find_roots, shared by every caller of _aberth.
_DEFAULT_TOL = 1e-12
_DEFAULT_MAX_ITER = 200

_EPS = float(np.finfo(np.float64).eps)
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp-Dekker's for doubles


@dataclass(frozen=True)
class RootSet:
    """All zeros of a polynomial, with residual diagnostics.

    ``roots`` has length equal to the degree (multiplicity included) and
    is ordered by nondecreasing modulus, ties by ascending argument in
    (-pi, pi].  ``max_residual`` is the normwise residual
    max_j |p(root_j)| / sum_i |coeff_i| |root_j|^i, a few eps at best.
    """

    roots: tuple[complex, ...]
    max_residual: float
    converged: bool

    def __len__(self) -> int:
        return len(self.roots)


def _hull_starts(a: np.ndarray) -> np.ndarray:
    # Bini's starts from the Newton polygon, the upper convex hull of
    # (j, log|a_j|) over a_j != 0: an edge i -> j gets j - i starts
    # evenly on the circle of radius (|a_i| / |a_j|)^(1/(j - i)).
    n = len(a) - 1
    logs = np.log(np.abs(a))
    hull: list[int] = []
    for j in np.flatnonzero(a):
        while len(hull) >= 2:
            h0, h1 = hull[-2], hull[-1]
            rise = (logs[h1] - logs[h0]) * (j - h0)
            if rise > (logs[j] - logs[h0]) * (h1 - h0):
                break
            hull.pop()
        hull.append(int(j))
    starts = []
    for i, j in zip(hull, hull[1:]):
        radius = math.exp((logs[i] - logs[j]) / (j - i))
        angles = 2.0 * math.pi * (np.arange(j - i) / (j - i) + i / n)
        starts.append(radius * np.exp(1j * (angles + _ANGLE_TWIST)))
    return np.concatenate(starts)


def _oriented(a: np.ndarray, z: np.ndarray):
    # Coefficients (one column per point if the sides mix) and points
    # to evaluate at: a at z where |z| <= 1, the reversed a at x = 1/z
    # beyond, where rev(x) = z^-n p(z); and which points are far (False
    # or True for none or all).
    far = np.abs(z) > 1.0
    if not far.any():
        return a, z, False
    if far.all():
        return a[::-1], 1.0 / z, True
    x = np.where(far, 1.0 / z, z)
    return np.where(far, a[::-1, None], a[:, None]), x, far


def _horner(coeffs: np.ndarray, x: np.ndarray):
    # Value, derivative and the noise floor 4 eps sum_i |c_i| |x|^i of
    # the ascending coefficients at x, in one sweep; |p| values below
    # the noise floor are indistinguishable from zero in doubles.
    ax = np.abs(x)
    sizes = np.abs(coeffs)
    p = np.zeros_like(x) + coeffs[-1]
    d = np.zeros_like(x)
    size = np.zeros_like(ax) + sizes[-1]
    for c, s in zip(coeffs[-2::-1], sizes[-2::-1]):
        d = d * x + p
        p = p * x + c
        size = size * ax + s
    return p, d, 4.0 * _EPS * size


def _split(v: np.ndarray):
    # Veltkamp-Dekker: v = hi + lo exactly, each half with 26 bits.
    t = _SPLITTER * v
    hi = t - (t - v)
    return hi, v - hi


def _two_sum(a: np.ndarray, b: np.ndarray):
    # Knuth: a + b = s + e exactly.
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _horner_comp(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Compensated Horner (Graillat, Langlois and Louvet) on coefficients
    # as _oriented gives them: the exact errors of each product and sum
    # (TwoProduct, TwoSum) run through a second Horner, so the error is
    # about eps |p| + n^2 eps^2 sum_i |c_i| |x|^i, as in twice the
    # working precision.
    rows = coeffs.reshape(len(coeffs), -1)
    # Real and imaginary parts stacked: row j is [re c_j, im c_j].
    c = np.stack([rows.real, rows.imag], axis=1)
    # p x as the four real products [pr xr, pi (-xi), pr xi, pi xr].
    xs = np.stack([x.real, -x.imag, x.imag, x.real])
    xs_hi, xs_lo = _split(xs)
    p = np.zeros((2,) + x.shape) + c[-1]
    err = np.zeros_like(x)
    for cj in c[-2::-1]:
        a = p[[0, 1, 0, 1]]
        h = a * xs
        a_hi, a_lo = _split(a)
        lo = a_lo * xs_lo - (
            ((h - a_hi * xs_hi) - a_lo * xs_hi) - a_hi * xs_lo
        )
        s, e = _two_sum(h[0::2], h[1::2])
        p, e2 = _two_sum(s, cj)
        e = (lo[0::2] + lo[1::2]) + (e + e2)
        err = err * x + (e[0] + 1j * e[1])
    return (p[0] + 1j * p[1]) + err


def _newton_polish(evaluate, z: np.ndarray):
    # Plain Newton steps, each accepted only where it reduces |p|.
    # ``evaluate`` gives p, p' and the noise floor in any per-point
    # scale that varies smoothly with z; returns z and those three at z.
    pv, dv, noise = evaluate(z)
    for _ in range(_NEWTON_POLISH_STEPS):
        dv_safe = np.where(dv == 0, 1.0, dv)
        cand = np.where(dv == 0, z, z - pv / dv_safe)
        pc, dc, nc = evaluate(cand)
        improved = np.abs(pc) < np.abs(pv)
        if not improved.any():
            break
        z = np.where(improved, cand, z)
        pv = np.where(improved, pc, pv)
        dv = np.where(improved, dc, dv)
        noise = np.where(improved, nc, noise)
    return z, pv, dv, noise


def _compensated_step(a: np.ndarray, z, pv, dv, noise):
    # One Newton step, in place in z, pv and noise, with p from
    # compensated Horner, for the roots whose attainable plain accuracy
    # noise/|p'| is poor (heavy cancellation); kept only where the
    # normwise residual |p|/noise drops, so never from p' = 0.  |p|
    # alone can drop on a long step to where every term of p is
    # smaller, while the residual there is far larger.
    poor = np.flatnonzero(noise > 2e-11 * (1.0 + np.abs(z)) * np.abs(dv))
    if not poor.size:
        return
    zp, dp, n0 = z[poor], dv[poor], noise[poor]
    p0 = _horner_comp(*_oriented(a, zp)[:2])
    cand = zp - p0 / dp
    coeffs, x = _oriented(a, cand)[:2]
    p1, n1 = _horner_comp(coeffs, x), _horner(coeffs, x)[2]
    better = np.abs(p1) * n0 < np.abs(p0) * n1
    z[poor] = np.where(better, cand, zp)
    pv[poor] = np.where(better, p1, p0)
    noise[poor] = np.where(better, n1, n0)


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
            pv, dv, noise = evaluate(za)

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

            # A root settles on a small Newton correction |p/p'| or on
            # reaching the evaluation noise floor; not on a small Aberth
            # correction, which is tiny whenever two iterates sit close
            # together, however far both are from a zero.
            settled = (np.abs(w) <= tol) | (np.abs(pv) <= noise)
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
        A root settles once its Newton correction |p/p'| has modulus
        at most ``tol`` (or its residual reaches the evaluation noise
        floor).
    max_iter : int
        Maximum number of simultaneous sweeps.

    Returns
    -------
    RootSet
        Zeros with multiplicity, ordered by (modulus, argument), with
        the normwise residual and an honest ``converged`` flag; a result
        that ran out of iterations is returned with converged=False
        rather than silently.
    """
    n = p.degree
    if n < 1:
        raise DegreeZeroError("cannot find roots of a constant polynomial")
    coeffs = np.array(p.coeffs, dtype=np.complex128)
    # a_0 = ... = a_(m-1) = 0: z = 0 is an exact zero of multiplicity m.
    m = int(np.flatnonzero(coeffs)[0])
    a = coeffs[m:]
    if m == n:
        return RootSet(roots=(0j,) * n, max_residual=0.0, converged=True)

    def evaluate(v):
        # p, p' and the noise floor, all in the scale of _oriented:
        # beyond |v| = 1, p'(v) v^-n = (n rev(x) - x rev'(x)) x.
        coeffs, x, far = _oriented(a, v)
        pv, dv, noise = _horner(coeffs, x)
        if far is not False:
            dv = np.where(far, ((n - m) * pv - x * dv) * x, dv)
        return pv, dv, noise

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z, converged = _aberth(_hull_starts(a), evaluate, tol, max_iter)
        z, pv, dv, noise = _newton_polish(evaluate, z)
        _compensated_step(a, z, pv, dv, noise)
        residual = float((4.0 * _EPS * np.abs(pv) / noise).max())
    ordered = _ordered(np.concatenate([np.zeros(m, dtype=complex), z]))
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
