"""Numerical zeros of complex polynomials.

Simultaneous Aberth-Ehrlich iteration with one Newton polish step per
root.  There is no randomness anywhere: the starts are a fixed function
of the input, so identical inputs give bit-identical outputs on one
build.  The last bits follow numpy's SIMD paths and, up to
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
evaluation by one Horner loop in y = x^b over blocks of b coefficients:
b = 1 up to 16 coefficients and beyond, for N of them, the power of two
in [sqrt N, 2 sqrt N) (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 5.1), so the step count grows like sqrt N.

A root counts as settled when its Newton correction |p/p'| drops below
``tol`` or when the polynomial value at the iterate is already below
the floating point noise floor of its evaluation, in which case no
further double-precision progress is possible.  The Aberth correction
is not a settle test: it is tiny whenever two iterates sit close
together, also when both approach the same zero and another is missed.

One polish rule follows: a Newton step is kept only where the
normwise residual |p|/noise drops.  |p| alone can drop on a long step
to where every term of p is smaller, while the residual there is far
larger.  The polish is one step: after it p is at the rounding level
of its Horner value, which a further step only re-samples (Higham
5.1).  Roots whose attainable plain accuracy is poor (heavy
cancellation) get one more step with the value from compensated Horner
(Graillat, Langlois and Louvet), as accurate as evaluation in twice the
working precision, within the evaluator's blocks, then over the blocks
in x^b.

One search, ``_zeros``, finds the zeros of P, Q and S: the sweeps
(``_aberth``) from a start vector, the polish (``_newton_polish``) and,
where the evaluator offers a ``compensated`` value, the compensated
step.  ``find_roots`` hands it ``_Evaluator`` and ``_starts``,
``polar.q_zeros`` the evaluator of Q and the starts where the
localization theorem puts its zeros, and ``polar.s_zeros`` the sparse
form of S with its own evaluator and starts.  The iteration hands the
polish p, p' and the noise floor of the sweep each root settled in, so
no iterate is evaluated twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegreeZeroError, EmptyRootSetError, NonFiniteError
from .polynomial import Polynomial

# Fixed angular twist keeping initial guesses off symmetry axes.
_ANGLE_TWIST = 0.4241438680420134

# The settle tolerance on |p/p'|: the default of find_roots, of _zeros,
# which s_zeros and q_zeros run with it, and of `roots --tol`.
SETTLE_TOL = 1e-12

# The largest max_residual of a converged root set, also verify's
# residual and convolution tolerance.
RESIDUAL_TOL = 1e-9

# The most simultaneous sweeps one search runs.
_MAX_SWEEPS = 200

_EPS = float(np.finfo(np.float64).eps)
# The noise floor of an evaluation is _NOISE times its size sum.
_NOISE = 4.0 * _EPS
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
    is ordered by modulus, then argument in (-pi, pi], then real and
    imaginary part, NaN zeros last.  ``max_residual`` is the normwise
    residual max_j |p(root_j)| / sum_i |coeff_i| |root_j|^i, a few eps at best.
    ``converged`` holds where every zero settled within the sweeps and
    ``max_residual`` is at most ``RESIDUAL_TOL`` (1e-9).
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
    # absolute settle test may accept, so the polygon's starts are taken,
    # as they are where a start scaled back leaves the double range.
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
            z = np.ldexp(u.real, e) + 1j * np.ldexp(u.imag, e)
            if np.isfinite(z).all():
                return z
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
    log_r = [(logs[i] - logs[j]) / (j - i) for i, j in zip(hull, hull[1:])]
    try:
        radius = list(map(math.exp, log_r))
    except OverflowError:
        size = f"1e{max(log_r) / math.log(10.0):.0f}"
        raise NonFiniteError(
            f"a zero has modulus near {size}, beyond the double range"
        ) from None
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
        return p, d, _NOISE * state[-1].real

    def compensated(self, z: np.ndarray):
        # p as accurate as in twice the working precision: about eps |p|
        # + n^2 eps^2 sum_i |a_i| |x|^i.  Compensated Horner in x within
        # every block at once gives each block as a double-double B_j,
        # then compensated Horner runs over the blocks in y = x^b,
        # formed in double-double by squaring (y = x where b = 1): each
        # square is the compensated Horner value of 0 + y x at x = y.
        far = np.abs(z) > 1.0
        x = np.where(far, 1.0 / z, z)
        columns = np.where(far, self.columns[1], self.columns[0])
        p, err = _horner_comp(columns, x[None, :])
        y, y_lo = x, np.zeros_like(x)
        for _ in range(self.b.bit_length() - 1):
            s, e = _horner_comp(np.stack([np.zeros_like(y), y]), y)
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


def _horner_comp(
    coeffs: np.ndarray, x: np.ndarray, coeffs_lo=None, x_lo=None
):
    # Compensated Horner (Graillat, Langlois and Louvet): p and the
    # correction err, the exact errors of each product and sum
    # (TwoProduct, TwoSum) run through a second Horner, so that p + err
    # is within about eps |p| + n^2 eps^2 sum_i |c_i| |x|^i, as in twice
    # the working precision.  Coefficient j is coeffs[j], broadcast
    # against x: per point, or per block and point.  With coeffs_lo and
    # x_lo the coefficients and x are the double-doubles coeffs +
    # coeffs_lo and x + x_lo, whose low parts join the second Horner.
    # Real and imaginary parts stacked: row j is [re c_j, im c_j].
    c = np.stack([coeffs.real, coeffs.imag], axis=1)
    # p x as the four real products [pr xr, pi (-xi), pr xi, pi xr].
    xs = np.stack([x.real, -x.imag, x.imag, x.real])
    xs_hi, xs_lo = _split(xs)
    p = np.zeros((2,) + x.shape) + c[-1]
    err = np.zeros(p.shape[1:], np.complex128)
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


def _newton_polish(evaluate, z, pv, dv, noise):
    # One Newton step from z, where pv, dv and noise are p, p' and the
    # noise floor; a further step would only re-sample the rounding of
    # p (module docstring).  It is kept only where it lowers the
    # normwise residual |p|/noise, so never from p' = 0, and is not
    # evaluated where it rounds back to z, where it would be refused.
    # ``evaluate`` gives those three at new points, in any per-point
    # scale that varies smoothly with z; returns z and the three at z.
    z, pv, dv, noise = (np.array(v) for v in (z, pv, dv, noise))
    cand = np.where(dv == 0, z, z - pv / np.where(dv == 0, 1.0, dv))
    live = np.flatnonzero(cand != z)
    if live.size:
        pc, dc, nc = evaluate(cand[live])
        kept = np.abs(pc) / nc < np.abs(pv[live]) / noise[live]
        for out, new in zip((z, pv, dv, noise), (cand[live], pc, dc, nc)):
            out[live[kept]] = new[kept]
    return z, pv, dv, noise


def _aberth(z: np.ndarray, evaluate, tol: float):
    """Simultaneous Aberth-Ehrlich sweeps from the start vector ``z``.

    ``evaluate(v)`` returns p(v), p'(v) and the noise floor of p at v,
    all three in one per-point scale of the caller's choice: only the
    Newton ratio p/p' and the comparison of |p| with the noise floor
    are used.  ``_Evaluator`` is that evaluator for dense coefficients;
    ``polar.s_zeros`` hands ``_zeros`` its own, built on it.  Each sweep
    evaluates and moves the active roots only; settled roots freeze but
    keep repelling the others.  Returns (z, p, p', noise), the final
    iterates with the values of the sweep each settled in (roots still
    active after ``_MAX_SWEEPS`` sweeps are evaluated once at the end),
    and whether every root settled.  Only ``_zeros`` runs it, and then
    polishes with ``_newton_polish`` on the same evaluator.
    """
    z = np.array(z, dtype=np.complex128)
    pz, dz, nz = np.empty_like(z), np.empty_like(z), np.empty(len(z))
    active = np.arange(len(z))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_MAX_SWEEPS):
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

            # A root settles on a small Newton correction |p/p'| or on
            # reaching the evaluation noise floor; not on a small Aberth
            # correction, which is tiny whenever two iterates sit close
            # together, however far both are from a zero.  Only the
            # roots that move get an Aberth sum.
            move = ~((np.abs(w) <= tol) | (np.abs(pv) <= noise))
            rows, zm, wm = active[move], za[move], w[move]
            if rows.size:
                # A zero difference is the root itself or an iterate
                # that coincides with it.  Coincident iterates exert no
                # repulsion on each other; they then merge into a
                # cluster, which the diagnostics accept.
                diff = zm[:, None] - z[None, :]
                diff[diff == 0] = np.inf
                s = np.divide(1.0, diff, out=diff).sum(axis=1)
                denom = 1.0 - wm * s
                denom = np.where(denom == 0, 1.0, denom)
                z[rows] = zm - np.where(at_root[move], 0.0, wm / denom)
            active = rows
            if not active.size:
                break
        if active.size:
            pz[active], dz[active], nz[active] = evaluate(z[active])
    return (z, pz, dz, nz), not active.size


def _root_set(z, p, noise, converged: bool) -> RootSet:
    # The zeros z in RootSet's order, total, so that it does not depend
    # on the order they come in (np.hypot is Python's abs bit for bit,
    # np.abs is not; the sign bits tell signed zeros apart), with the
    # normwise residual max 4 eps |p| / noise over the values p and noise
    # floors the polish ended with (zeros found exactly may be left out).
    z = np.asarray(z, complex)
    x, y = z.real, z.imag
    arg = np.arctan2(y, x)
    arg[arg <= -math.pi] = math.pi
    keys = np.signbit(y), ~np.signbit(x), y, x, arg, np.hypot(x, y)
    with np.errstate(invalid="ignore", divide="ignore"):
        residual = float((_NOISE * np.abs(p) / noise).max(initial=0.0))
    roots = tuple(z[np.lexsort((*keys, np.isnan(z)))].tolist())
    converged = converged and residual <= RESIDUAL_TOL
    return RootSet(roots=roots, max_residual=residual, converged=converged)


def find_roots(p: Polynomial, tol: float = SETTLE_TOL) -> RootSet:
    """Compute all zeros of ``p``.

    The sweeps start from the companion eigenvalues up to degree
    ``_EIG_MAX`` and from the Newton polygon beyond; the sweeps, the
    settle test and the polish decide every returned zero.

    Parameters
    ----------
    p : Polynomial
        Polynomial of degree >= 1 with finite coefficients;
        NonFiniteError otherwise.
    tol : float
        A root settles once its Newton correction |p/p'| has modulus
        at most ``tol`` (or its residual reaches the evaluation noise
        floor) within ``_MAX_SWEEPS`` simultaneous sweeps.

    Returns
    -------
    RootSet
        Zeros with multiplicity in ``RootSet``'s order, with the
        normwise residual and ``converged`` as ``RootSet`` states them.
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        starts = _starts(a)
    rs = _zeros(_Evaluator(a), starts, tol)
    return replace(rs, roots=(0j,) * m + rs.roots)


def _zeros(evaluate, starts, tol=SETTLE_TOL):
    # The one search: the sweeps from the vector ``starts`` and the
    # polish, both on ``evaluate``.  Where it offers a compensated value
    # (the dense _Evaluator does, the form of S does not), one more
    # step where the attainable plain accuracy noise/|p'| is poor
    # (heavy cancellation), with p' and the noise floor of the plain
    # evaluator.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        start, converged = _aberth(starts, evaluate, tol)
        z, pv, dv, noise = _newton_polish(evaluate, *start)
        poor = noise > 2e-11 * (1.0 + np.abs(z)) * np.abs(dv)
        if hasattr(evaluate, "compensated") and poor.any():
            zp = z[poor]
            z[poor], pv[poor], _, noise[poor] = _newton_polish(
                lambda v: (evaluate.compensated(v), *evaluate(v)[1:]),
                zp, evaluate.compensated(zp), dv[poor], noise[poor]
            )
    return _root_set(z, pv, noise, converged)


def max_modulus(rs: RootSet) -> float:
    """Largest root modulus; NaN if any root is NaN."""
    if not rs.roots:
        raise EmptyRootSetError("root set is empty")
    # np.max keeps a NaN wherever it stands, where max drops one that is
    # not first.  A modulus is never -0.0, so no signed-zero tie can
    # pick a different value than max would.
    return float(np.max([abs(r) for r in rs.roots]))


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
    # A product beyond the double range comes out infinite, as in poly_mul.
    with np.errstate(over="ignore", invalid="ignore"):
        prod_err = abs(roots.prod() - (-1) ** n * a[0] / a[n]) / (
            1.0 + np.prod(1.0 + sizes)
        )
    return (float(sum_err), float(prod_err))
