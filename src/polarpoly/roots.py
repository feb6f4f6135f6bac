"""Numerical zeros of complex polynomials.

Simultaneous Aberth-Ehrlich iteration with a short Newton polish per
root.  There is no randomness anywhere: the starts are a fixed function
of the coefficients, so identical inputs give bit-identical outputs on
one build.  The last bits follow numpy's SIMD paths and, up to
``_EIG_MAX``, the LAPACK build.  Multiple roots are returned as
clusters; the residual and Vieta diagnostics are the arbiters of
quality in that case.

Vanishing low coefficients give exact zeros at 0.  Up to degree
``_EIG_MAX`` the starts are the eigenvalues of the companion matrix
(LAPACK zgeev, which balances it first), exact zeros of a nearby
polynomial (Edelman and Murakami 1995): one call costs about one sweep
and saves most of the sweeps from cruder starts.  It costs O(n^3)
against O(n^2) a sweep, so beyond ``_EIG_MAX``, and where ``_starts``
finds the eigenvalues unusable, the starts come from the Newton polygon
of the coefficients (Bini 1996; MPSolve).

One evaluator, ``_Evaluator``, gives p, p' and the noise floor of the
evaluation: on the coefficients at z where |z| <= 1 and on the reversed
coefficients at x = 1/z beyond, so no power of a large z is formed.
Both orientations are built once per polynomial as rows of blocks of b
coefficients: b = 1 (plain Horner) up to 16 coefficients, and beyond,
for N coefficients, the power of two in [sqrt N, 2 sqrt N).  Each call
picks every point's rows by its side of |z| = 1 and runs one Horner
loop in y = x^b over the block sums (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 5.1), so the step count grows like
sqrt N.

A root counts as settled when its Newton correction |p/p'| drops below
``tol`` or when the polynomial value at the iterate is already below
the floating point noise floor of its evaluation, in which case no
further double-precision progress is possible.  The Aberth correction
is not a settle test: it is tiny whenever two iterates sit close
together, also when both approach the same zero and another is missed.

One polish rule follows: a Newton step is kept only where the
normwise residual |p|/noise drops.  |p| alone can drop on a long step
to where every term of p is smaller, while the residual there is far
larger.  Roots whose attainable plain accuracy is poor (heavy
coefficient cancellation) get one more such step with the value from
compensated Horner (Graillat, Langlois and Louvet), which is as
accurate as evaluation in twice the working precision.

The iteration (``_aberth``) and the polish (``_newton_polish``) take
the evaluator as an argument, and ``_root_set`` builds the result, so
a polynomial with a better form than its dense coefficients (see
``polar.s_zeros``) runs the same pipeline with its own evaluator.  The
iteration hands the polish p, p' and the noise floor of the sweep each
root settled in, so no iterate is evaluated twice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeZeroError, EmptyRootSetError, NonFiniteError
from .polynomial import Polynomial

# Fixed angular twist keeping initial guesses off symmetry axes.
_ANGLE_TWIST = 0.4241438680420134

# Defaults of find_roots and of _aberth, which s_zeros runs with them.
_DEFAULT_TOL = 1e-12
_DEFAULT_MAX_ITER = 200

_EPS = float(np.finfo(np.float64).eps)
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp-Dekker's for doubles

# Up to this many coefficients _Evaluator's blocks are single coefficients.
_ONE_BLOCK = 16

# Up to this degree the starts are the companion eigenvalues; beyond,
# their O(n^3) cost exceeded the sweeps they save, measured on Q.
_EIG_MAX = 40


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


def _starts(a: np.ndarray) -> np.ndarray:
    # The companion eigenvalues of a(2^e u), times 2^e, with 2^e near
    # (|a_0| / |a_n|)^(1/n): the scaling is exact, and LAPACK's balancing
    # stops short near the ends of the double range.  They are exact for
    # a matrix off by about eps times its norm, which moves a double zero
    # by about sqrt(eps) max |u|: a smaller start is noise, which the
    # absolute settle test may accept, so the polygon's starts are taken.
    n = len(a) - 1
    if n <= _EIG_MAX:
        lo, hi = (max(abs(v.real), abs(v.imag)) for v in (a[0], a[-1]))
        e = round((math.log2(lo) - math.log2(hi)) / n)
        i = e * np.arange(n + 1)
        b = np.ldexp(a.real, i) + 1j * np.ldexp(a.imag, i)
        companion = np.eye(n, k=-1, dtype=np.complex128)
        companion[:, -1] = -b[:-1] / b[-1]
        try:
            u = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:
            return _hull_starts(a)
        size = np.abs(u)
        if size.min() > math.sqrt(_EPS) * size.max():
            return np.ldexp(u.real, e) + 1j * np.ldexp(u.imag, e)
    return _hull_starts(a)


def _hull_starts(a: np.ndarray) -> np.ndarray:
    # Bini's starts from the Newton polygon, the upper convex hull of
    # (j, log|a_j|) over a_j != 0: an edge i -> j gets j - i starts
    # evenly on the circle of radius (|a_i| / |a_j|)^(1/(j - i)), at
    # angles 2 pi (m / (j - i) + i / n) for m = 0 .. j - i - 1.
    n = len(a) - 1
    logs = np.log(np.abs(a)).tolist()
    hull: list[int] = []
    for j in np.flatnonzero(a).tolist():
        while len(hull) >= 2:
            h0, h1 = hull[-2], hull[-1]
            rise = (logs[h1] - logs[h0]) * (j - h0)
            if rise > (logs[j] - logs[h0]) * (h1 - h0):
                break
            hull.pop()
        hull.append(j)
    radius = [
        math.exp((logs[i] - logs[j]) / (j - i)) for i, j in zip(hull, hull[1:])
    ]
    width = np.diff(hull)
    start = np.repeat(hull[:-1], width)
    m = np.arange(hull[0], hull[-1]) - start
    angles = 2.0 * math.pi * (m / np.repeat(width, width) + start / n)
    return np.repeat(radius, width) * np.exp(1j * (angles + _ANGLE_TWIST))


class _Evaluator:
    """p, p' and the noise floor 4 eps sum_i |a_i| |z|^i of the ascending
    coefficients a at z: at z itself where |z| <= 1, and beyond through
    the reversed coefficients at x = 1/z, where rev(x) = z^-deg p(z), so
    that there all three are those of z^-deg p(z), and p'(z) z^-deg =
    (deg rev(x) - x rev'(x)) x.  |p| values below the noise floor are
    indistinguishable from zero in doubles.  Each point's values do not
    depend on the other points in z.
    """

    def __init__(self, a: np.ndarray):
        n = len(a)
        b = 1 if n <= _ONE_BLOCK else 1 << ((n - 1).bit_length() + 1) // 2
        m = -(-n // b)
        # rows[0] serves the points with |z| <= 1, rows[1] the others:
        # the blocks B_j of b coefficients of a or of the reversed a,
        # the top block padded with zeros, and beyond one block each
        # followed by the coefficients of B_j'.
        flat = np.zeros((2, m * b), np.complex128)
        flat[0, :n], flat[1, :n] = a, a[::-1]
        blocks = flat.reshape(2, m, 1, b)
        if b > 1:
            deriv = np.zeros_like(blocks)
            deriv[..., :-1] = blocks[..., 1:] * np.arange(1, b)
            blocks = np.concatenate([blocks, deriv], axis=2)
        self.n, self.b, self.m = n - 1, b, m
        self.rows = blocks.reshape(2, -1, b)
        self.sizes = np.abs(blocks[:, :, 0])
        # Coefficient i of every block, for the compensated step.
        self.columns = blocks[:, :, 0].transpose(0, 2, 1)[..., None]
        if b == 1:  # The addends of __call__'s Horner state.
            self.terms = np.stack(
                [blocks[..., 0, 0], np.zeros((2, m)), self.sizes[..., 0]], 2
            )[..., None]

    def __call__(self, z: np.ndarray):
        b, m = self.b, self.m
        far = np.abs(z) > 1.0
        x = np.where(far, 1.0 / z, z)
        if b == 1:
            y = x
            terms = np.where(far, self.terms[1], self.terms[0])
        else:
            # Every block's value, derivative and size against the
            # powers x^0 .. x^(b-1), each side's rows over that side's
            # points only.  einsum, not a BLAS product, so that a
            # point's summation order does not depend on the others.
            pw = _powers(x, b)
            y = pw[:, b]
            terms = np.zeros((m, 4, len(z)), np.complex128)
            for side, points in enumerate((~far, far)):
                if points.any():
                    pws = pw[points, :b]
                    sums = np.einsum("pi,ji->jp", pws, self.rows[side])
                    terms[:, :2, points] = sums.reshape(m, 2, -1)
                    terms[:, 3, points] = np.einsum(
                        "pi,ji->jp", np.abs(pws), self.sizes[side]
                    )
        # One Horner state in y: the value rows (beyond one block also
        # sum_j B_j' y^j), dy = sum_j j B_j y^(j-1) and the size sum with
        # a zero imaginary part (NaN beyond the double range).  terms[j]
        # is what step j adds; the multiplier has the state's shape, as
        # numpy can round a broadcast complex product differently.
        state = terms[-1]
        mult = np.array([y] * (len(state) - 1) + [np.abs(y)])
        for j in range(m - 2, -1, -1):
            terms[j, -2] = state[0]
            state *= mult
            state += terms[j]
        p = state[0]
        # p' = sum_j B_j' y^j + b x^(b-1) sum_j j B_j y^(j-1).
        d = state[1] if b == 1 else state[1] + b * pw[:, b - 1] * state[2]
        d = np.where(far, (self.n * p - x * d) * x, d)
        return p, d, 4.0 * _EPS * state[-1].real

    def compensated(self, z: np.ndarray):
        # p as accurate as in twice the working precision: about eps |p|
        # + n^2 eps^2 sum_i |a_i| |x|^i.  Beyond one block, compensated
        # Horner in x within every block at once gives each block as a
        # double-double B_j, then compensated Horner runs over the
        # blocks in y = x^b, formed in double-double by squaring.
        far = np.abs(z) > 1.0
        x = np.where(far, 1.0 / z, z)
        columns = np.where(far, self.columns[1], self.columns[0])
        if self.b == 1:
            p, err = _horner_comp(columns[0], x)
        else:
            p, err = _horner_comp(columns, x[None, :])
            y, y_lo = x, np.zeros_like(x)
            for _ in range(self.b.bit_length() - 1):
                s, e = _two_prod(y, y)
                y, y_lo = s, e + 2.0 * y * y_lo
            p, err = _horner_comp(p, y, err, y_lo)
        return p + err


def _powers(x: np.ndarray, b: int) -> np.ndarray:
    # x^0 .. x^b for b a power of two, one row per point.  Each power is
    # a product of two lower ones (x^(k+j) = x^k x^j) in extended
    # precision, rounded once: a relative error in y = x^b acts on p
    # like a moved point, which in doubles reaches a noise floor at
    # n = 256.  Where np.longdouble is plain double this rounding is
    # lost; tests/test_roots.py checks it.
    pw = np.empty((b + 1, len(x)), np.clongdouble)
    pw[0] = 1.0
    pw[1] = x
    k = 1
    while k < b:
        np.multiply(pw[1 : k + 1], pw[k], out=pw[k + 1 : 2 * k + 1])
        k *= 2
    return pw.T.astype(np.complex128, order="C")


def _split(v: np.ndarray):
    # Veltkamp-Dekker: v = hi + lo exactly, each half with 26 bits.
    t = _SPLITTER * v
    hi = t - (t - v)
    return hi, v - hi


def _two_sum(a: np.ndarray, b: np.ndarray):
    # Knuth: a + b = s + e exactly; on complex arrays part by part.
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: np.ndarray, b: np.ndarray):
    # The complex products a b as s + e: the four real products formed
    # exactly (TwoProduct), each part of s their sum with TwoSum, e the
    # errors summed once more.
    a4 = np.stack([a.real, a.imag, a.real, a.imag])
    b4 = np.stack([b.real, -b.imag, b.imag, b.real])
    h = a4 * b4
    a_hi, a_lo = _split(a4)
    b_hi, b_lo = _split(b4)
    lo = a_lo * b_lo - (((h - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    s, e = _two_sum(h[0::2], h[1::2])
    e = (lo[0::2] + lo[1::2]) + e
    return s[0] + 1j * s[1], e[0] + 1j * e[1]


def _horner_comp(
    coeffs: np.ndarray, x: np.ndarray, coeffs_lo=None, x_lo=None
):
    # Compensated Horner (Graillat, Langlois and Louvet): p and the
    # correction err, the exact errors of each product and sum
    # (TwoProduct, TwoSum) run through a second Horner, so that p + err
    # is within about eps |p| + n^2 eps^2 sum_i |c_i| |x|^i, as in twice
    # the working precision.  Coefficient j is coeffs[j], broadcast
    # against x: one column per point, or per block and point.  With
    # coeffs_lo and x_lo the coefficients and x are the double-doubles
    # coeffs + coeffs_lo and x + x_lo, whose low parts join the second
    # Horner.
    rows = coeffs if coeffs.ndim > 1 else coeffs[:, None]
    # Real and imaginary parts stacked: row j is [re c_j, im c_j].
    c = np.stack([rows.real, rows.imag], axis=1)
    # p x as the four real products [pr xr, pi (-xi), pr xi, pi xr].
    xs = np.stack([x.real, -x.imag, x.imag, x.real])
    xs_hi, xs_lo = _split(xs)
    p = np.zeros((2,) + x.shape) + c[-1]
    err = np.zeros_like(x)
    if coeffs_lo is not None:
        err = err + coeffs_lo[-1]
    for j in range(len(c) - 2, -1, -1):
        if x_lo is not None:
            extra = ((p[0] + 1j * p[1]) + err) * x_lo + coeffs_lo[j]
        a = p[[0, 1, 0, 1]]
        h = a * xs
        a_hi, a_lo = _split(a)
        lo = a_lo * xs_lo - (
            ((h - a_hi * xs_hi) - a_lo * xs_hi) - a_hi * xs_lo
        )
        s, e = _two_sum(h[0::2], h[1::2])
        p, e2 = _two_sum(s, c[j])
        e = (lo[0::2] + lo[1::2]) + (e + e2)
        err = err * x + (e[0] + 1j * e[1])
        if x_lo is not None:
            err = err + extra
    return p[0] + 1j * p[1], err


def _newton_polish(evaluate, z, pv, dv, noise, steps: int = 3):
    # Up to ``steps`` Newton steps from z, where pv, dv and noise are
    # p, p' and the noise floor, each step kept only where it lowers
    # the normwise residual |p|/noise, so never from p' = 0.
    # ``evaluate`` gives those three at new points, in any per-point
    # scale that varies smoothly with z; returns z and the three at z.
    # A point whose step was refused would take the same step again,
    # so only points whose last step was kept are stepped.
    z, pv, dv, noise = (np.array(v) for v in (z, pv, dv, noise))
    live = np.arange(len(z))
    for _ in range(steps):
        zl, pl, dl = z[live], pv[live], dv[live]
        dv_safe = np.where(dl == 0, 1.0, dl)
        cand = np.where(dl == 0, zl, zl - pl / dv_safe)
        pc, dc, nc = evaluate(cand)
        improved = np.abs(pc) * noise[live] < np.abs(pl) * nc
        live = live[improved]
        if not live.size:
            break
        z[live] = cand[improved]
        pv[live] = pc[improved]
        dv[live] = dc[improved]
        noise[live] = nc[improved]
    return z, pv, dv, noise


def _aberth(
    z: np.ndarray,
    evaluate,
    tol: float = _DEFAULT_TOL,
    max_iter: int = _DEFAULT_MAX_ITER,
):
    """Simultaneous Aberth-Ehrlich sweeps from the start vector ``z``.

    ``evaluate(v)`` returns p(v), p'(v) and the noise floor of p at v,
    all three in one per-point scale of the caller's choice: only the
    Newton ratio p/p' and the comparison of |p| with the noise floor
    are used.  ``_Evaluator`` is that evaluator for dense coefficients;
    ``polar.s_zeros`` passes its own, built on it.  Each sweep
    evaluates and moves the active roots only; settled roots freeze but
    keep repelling the others.  Returns (z, p, p', noise), the final
    iterates with the values of the sweep each settled in (roots still
    active after ``max_iter`` sweeps are evaluated once at the end),
    and whether every root settled.  The caller then polishes with
    ``_newton_polish(evaluate, z, p, p', noise)`` (same evaluator, one
    acceptance rule) and builds the result with ``_root_set``.
    """
    z = np.array(z, dtype=np.complex128)
    pz, dz, nz = np.empty_like(z), np.empty_like(z), np.empty(len(z))
    active = np.arange(len(z))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            za = z[active]
            pv, dv, noise = evaluate(za)
            pz[active], dz[active], nz[active] = pv, dv, noise

            at_root = pv == 0
            dv_safe = np.where(dv == 0, 1.0, dv)
            w = pv / dv_safe
            # Deterministic nudge out of a stationary point of p.
            stuck = (dv == 0) & ~at_root
            if stuck.any():
                w = np.where(stuck, 0.1 * (1.0 + np.abs(za)), w)

            diff = za[:, None] - z[None, :]
            diff[np.arange(len(active)), active] = np.inf
            s = np.divide(1.0, diff, out=diff).sum(axis=1)
            # Coincident approximations exert no repulsion on each
            # other; they then merge into a cluster, which the
            # diagnostics accept.  A zero difference makes its row's
            # sum non-finite, and only such rows are summed again.
            if not np.isfinite(s).all():
                redo = ~np.isfinite(s)
                diff = za[redo, None] - z[None, :]
                diff[np.arange(len(diff)), active[redo]] = np.inf
                diff[diff == 0] = np.inf
                s[redo] = np.divide(1.0, diff, out=diff).sum(axis=1)
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
        if active.size:
            pz[active], dz[active], nz[active] = evaluate(z[active])
    return (z, pz, dz, nz), not active.size


def _sort_key(z: complex):
    phase = cmath.phase(z)
    if phase <= -math.pi:
        phase = math.pi
    return (abs(z), phase)


def _root_set(z, p, noise, converged: bool) -> RootSet:
    # The zeros z, ordered, with the normwise residual max 4 eps |p| /
    # noise over the values p and noise floors the polish ended with
    # (zeros found exactly may be left out of p and noise).
    with np.errstate(invalid="ignore", divide="ignore"):
        residual = float((4.0 * _EPS * np.abs(p) / noise).max(initial=0.0))
    roots = tuple(sorted((complex(v) for v in z), key=_sort_key))
    return RootSet(roots=roots, max_residual=residual, converged=converged)


def find_roots(
    p: Polynomial, tol: float = _DEFAULT_TOL, max_iter: int = _DEFAULT_MAX_ITER
) -> RootSet:
    """Compute all zeros of ``p``.

    The sweeps start from the companion eigenvalues up to degree
    ``_EIG_MAX`` and from the Newton polygon beyond, where the O(n^3)
    eigenvalues cost more than the sweeps they save.  Either way the
    sweeps, the settle test and the polish decide every returned zero.

    Parameters
    ----------
    p : Polynomial
        Polynomial of degree >= 1 with finite coefficients;
        NonFiniteError otherwise.
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
    if not np.isfinite(p.coeffs).all():
        raise NonFiniteError("coefficients must be finite")
    n = p.degree
    if n < 1:
        raise DegreeZeroError("cannot find roots of a constant polynomial")
    # a_0 = ... = a_(m-1) = 0: z = 0 is an exact zero of multiplicity m.
    m = int(np.flatnonzero(p.coeffs)[0])
    a = p.coeffs[m:]
    if m == n:
        return RootSet(roots=(0j,) * n, max_residual=0.0, converged=True)

    evaluate = _Evaluator(a)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        start, converged = _aberth(_starts(a), evaluate, tol, max_iter)
        z, pv, dv, noise = _newton_polish(evaluate, *start)
        # One compensated step where the attainable plain accuracy
        # noise/|p'| is poor (heavy cancellation), with p' and the
        # noise floor of the plain evaluator.
        poor = noise > 2e-11 * (1.0 + np.abs(z)) * np.abs(dv)
        if poor.any():
            zp = z[poor]
            z[poor], pv[poor], _, noise[poor] = _newton_polish(
                lambda v: (evaluate.compensated(v), *evaluate(v)[1:]),
                zp, evaluate.compensated(zp), dv[poor], noise[poor], 1
            )
    return _root_set(np.concatenate([np.zeros(m), z]), pv, noise, converged)


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
    roots = np.array(rs.roots)
    sizes = np.abs(roots)
    sum_err = abs(roots.sum() + a[n - 1] / a[n]) / (1.0 + sizes.sum())
    prod_err = abs(roots.prod() - (-1) ** n * a[0] / a[n]) / (
        1.0 + np.prod(1.0 + sizes)
    )
    return (float(sum_err), float(prod_err))
