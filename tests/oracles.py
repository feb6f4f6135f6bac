"""Independent oracles used by the tests.

Everything here is deliberately written from first principles (direct
evaluation, closed forms, brute force) and shares no code with the
library paths it checks.
"""

import cmath
import math

import numpy as np


def eval_poly(coeffs, z):
    """Plain Horner evaluation of ascending coefficients."""
    acc = 0j
    for c in reversed(list(coeffs)):
        acc = acc * z + c
    return acc


def convolve(a, b):
    """Product of two ascending coefficient lists, one scalar step per
    pair of terms, in CPython's complex arithmetic."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += complex(x) * complex(y)
    return out


def expand_roots(roots):
    """Ascending coefficients of prod (z - r), one factor at a time, in
    CPython's complex arithmetic."""
    acc = [1 + 0j]
    for r in roots:
        nxt = [0j] * (len(acc) + 1)
        for i, c in enumerate(acc):
            nxt[i] -= complex(r) * c
            nxt[i + 1] += c
        acc = nxt
    return acc


def sort_roots(roots):
    """Order by (modulus, argument in (-pi, pi])."""

    def key(z):
        phase = cmath.phase(z)
        if phase <= -math.pi:
            phase = math.pi
        return (abs(z), phase)

    return sorted((complex(r) for r in roots), key=key)


def closed_form_roots(coeffs):
    """Roots of a degree <= 2 polynomial via the stable quadratic formula."""
    c = [complex(v) for v in coeffs]
    if len(c) == 2:
        return [-c[0] / c[1]]
    if len(c) != 3:
        raise ValueError("closed forms cover degree 1 and 2 only")
    c0, c1, c2 = c
    disc = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    if abs(c1 + disc) >= abs(c1 - disc):
        q = -(c1 + disc) / 2.0
    else:
        q = -(c1 - disc) / 2.0
    if q == 0:
        return [0j, 0j]
    return [q / c2, c0 / q]


def _circumcenter(a, b, c):
    # Straight determinant formula; returns None for collinear points.
    d = 2.0 * (
        a.real * (b.imag - c.imag)
        + b.real * (c.imag - a.imag)
        + c.real * (a.imag - b.imag)
    )
    if d == 0.0:
        return None
    ux = (
        (abs(a) ** 2) * (b.imag - c.imag)
        + (abs(b) ** 2) * (c.imag - a.imag)
        + (abs(c) ** 2) * (a.imag - b.imag)
    ) / d
    uy = (
        (abs(a) ** 2) * (c.real - b.real)
        + (abs(b) ** 2) * (a.real - c.real)
        + (abs(c) ** 2) * (b.real - a.real)
    ) / d
    return complex(ux, uy)


def brute_force_disk(points):
    """Minimum enclosing disk by trying all 1-, 2- and 3-point circles."""
    pts = [complex(p) for p in points]
    candidates = [(p, 0.0) for p in pts]
    for i in range(len(pts)):
        for j in range(i):
            center = (pts[i] + pts[j]) / 2.0
            candidates.append((center, abs(pts[i] - center)))
    for i in range(len(pts)):
        for j in range(i):
            for k in range(j):
                center = _circumcenter(pts[i], pts[j], pts[k])
                if center is not None:
                    radius = max(
                        abs(pts[i] - center),
                        abs(pts[j] - center),
                        abs(pts[k] - center),
                    )
                    candidates.append((center, radius))
    best = None
    for center, radius in candidates:
        reach = max(abs(p - center) for p in pts)
        if reach <= radius * (1.0 + 1e-12) + 1e-15:
            if best is None or radius < best[1]:
                best = (center, radius)
    return best


def region_margin(kind, center, radius, normal, z):
    """Signed margin of the point z in a disk, a half-plane (boundary
    through ``center``, outward unit ``normal``) or a disk's exterior;
    nonnegative means inside."""
    if kind == "disk":
        return radius - abs(z - center)
    if kind == "half_plane":
        dx, dy = z.real - center.real, z.imag - center.imag
        return -(dx * normal.real + dy * normal.imag)
    return abs(z - center) - radius


def best_factors(q_zeros, xi, s_zeros, margin):
    """For each zero zeta of Q, pair by pair: the index of the beta in
    ``s_zeros`` whose quotient (xi - zeta) / beta has the largest
    ``margin`` (the first such on a tie), that quotient and its
    margin."""
    out = []
    for zeta in q_zeros:
        best = None
        for j, beta in enumerate(s_zeros):
            quotient = (xi - zeta) / beta
            m = margin(quotient)
            if best is None or m > best[2]:
                best = (j, quotient, m)
        out.append(best)
    return out


def s_radius_k1(n):
    """Largest zero modulus of S for k = 1, from the roots of unity.

    For k = 1, S(w) = ((1+w)^(n+1) - 1)/w, so its zeros are
    exp(2*pi*i*m/(n+1)) - 1 for m = 1..n; the radius is the largest of
    their moduli, which is exactly 2 when n is odd (m = (n+1)/2).
    """
    return max(
        abs(cmath.exp(2j * math.pi * m / (n + 1)) - 1.0)
        for m in range(1, n + 1)
    )


def polar_backward_error(p, r, q):
    """Normwise backward error of q as a solution of (R Q)^(k) = (n+1)_k P.

    ``|(R Q)^(k) - (n+1)_k P|_inf / ((n+1)_k (|R|_1 |Q|_inf + |P|_inf))``
    with k = deg R and n = deg P, from ascending coefficient lists.  The
    product is a direct convolution and the k-th derivative multiplies
    coefficient m by the falling factorial m (m-1) .. (m-k+1), taken in
    exact integers.
    """
    p, r, q = ([complex(c) for c in seq] for seq in (p, r, q))
    n, k = len(p) - 1, len(r) - 1
    prod = convolve(r, q)
    lhs = [prod[m] * float(math.perm(m, k)) for m in range(k, len(prod))]
    scale = float(math.perm(n + k, k))
    size = max(len(lhs), len(p))
    diff = [
        (lhs[i] if i < len(lhs) else 0j) - (scale * p[i] if i < len(p) else 0j)
        for i in range(size)
    ]
    denom = scale * (
        sum(abs(c) for c in r) * max(abs(c) for c in q)
        + max(abs(c) for c in p)
    )
    return max(abs(d) for d in diff) / denom


def s_zeros_k1(n):
    """The zeros of S for k = 1, exp(2*pi*i*m/(n+1)) - 1 for m = 1..n."""
    return [
        cmath.exp(2j * math.pi * m / (n + 1)) - 1.0 for m in range(1, n + 1)
    ]


def normwise_residual(coeffs, zeros):
    """max_j |p(z_j)| / sum_i |a_i| |z_j|^i for ascending coefficients,
    in 40-digit mpmath, so the value is exact to far more digits than
    the rounding level it is compared with, and nothing overflows."""
    import mpmath

    with mpmath.workdps(40):
        a = [mpmath.mpc(c) for c in reversed(coeffs)]
        sizes = [abs(c) for c in a]
        worst = mpmath.mpf(0)
        for z in zeros:
            z = mpmath.mpc(z)
            az = abs(z)
            p, size = mpmath.mpc(0), mpmath.mpf(0)
            for c in a:
                p = p * z + c
            for s in sizes:
                size = size * az + s
            worst = max(worst, abs(p) / size)
        return float(worst)


def newton_zero(coeffs, z, dps, digits=40):
    """Newton's method in mpmath from ``z`` on the ascending coefficients
    (doubles or integers, read exactly at ``dps`` digits of working
    precision), run until a step is below ``digits`` digits of the
    iterate.  Returns the limit as a complex."""
    import mpmath

    with mpmath.workdps(dps):
        a = [mpmath.mpc(c) for c in reversed(coeffs)]
        w = mpmath.mpc(z)
        for _ in range(100):
            p = dp = mpmath.mpf(0)
            for c in a:
                dp = dp * w + p
                p = p * w + c
            step = p / dp
            w -= step
            if abs(step) <= abs(w) * mpmath.mpf(10) ** -digits:
                return complex(w)
    raise ArithmeticError(f"Newton did not converge from {z}")


def newton_s_zero(n, k, z):
    """The limit of ``newton_zero`` from ``z`` on the exact integer
    coefficients C(n+k, j+k) of S, with enough working precision that no
    term of the evaluation cancels away (about 3^(n+k) at |w| = 2)."""
    coeffs = [math.comb(n + k, j + k) for j in range(n + 1)]
    return newton_zero(coeffs, z, 60 + (n + k) // 2)


def polar_solution(p, r, dps=120):
    """The monic Q with (R Q)^(k) = (n+1)_k P for ascending coefficient
    lists p (monic, degree n) and r (monic, degree k), by back
    substitution in ``dps``-digit mpmath on the coefficients as given.

    The coefficient of z^i in (R Q)^(k) is (i+1)_k times that of
    z^(i+k) in R Q, sum_d r_(k-d) q_(i+d), so from the top down
    q_i = (n+1)_k p_i / (i+1)_k - sum_{d >= 1} r_(k-d) q_(i+d).
    """
    import mpmath

    n, k = len(p) - 1, len(r) - 1
    top = math.prod(range(n + 1, n + k + 1))
    with mpmath.workdps(dps):
        p = [mpmath.mpc(c) for c in p]
        r = [mpmath.mpc(c) for c in r]
        q = [mpmath.mpc(0)] * (n + 1)
        for i in range(n, -1, -1):
            acc = top * p[i] / math.prod(range(i + 1, i + k + 1))
            for d in range(1, min(k, n - i) + 1):
                acc -= r[k - d] * q[i + d]
            q[i] = acc
        return [complex(c) for c in q]


def compensated_horner(coeffs, z):
    """p at each point of z by compensated Horner (Graillat, Langlois
    and Louvet), as accurate as in twice the working precision: the
    exact error of each product and sum (TwoProduct with Dekker's split,
    TwoSum) runs through a second Horner.  Beyond |z| = 1 it evaluates
    the reversed coefficients at 1/z, the scale in which the root finder
    reports p.  One pass of numpy steps per coefficient, all points at
    once."""
    a = np.asarray(coeffs, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    far = np.abs(z) > 1.0
    x = np.where(far, 1.0 / z, z)
    cols = np.where(far, a[::-1, None], a[:, None])

    def split(v):
        t = 134217729.0 * v
        hi = t - (t - v)
        return hi, v - hi

    def two_sum(u, v):
        s = u + v
        vv = s - u
        return s, (u - (s - vv)) + (v - vv)

    # Row j is [re c_j, im c_j]; p x is the four real products
    # [pr xr, pi (-xi), pr xi, pi xr].
    c = np.stack([cols.real, cols.imag], axis=1)
    xs = np.stack([x.real, -x.imag, x.imag, x.real])
    xs_hi, xs_lo = split(xs)
    p = c[-1].copy()
    err = np.zeros_like(x)
    for cj in c[-2::-1]:
        u = p[[0, 1, 0, 1]]
        h = u * xs
        u_hi, u_lo = split(u)
        lo = u_lo * xs_lo - (
            ((h - u_hi * xs_hi) - u_lo * xs_hi) - u_hi * xs_lo
        )
        s, e = two_sum(h[0::2], h[1::2])
        p, e2 = two_sum(s, cj)
        e = (lo[0::2] + lo[1::2]) + (e + e2)
        err = err * x + (e[0] + 1j * e[1])
    return (p[0] + 1j * p[1]) + err


def blocked_horner(coeffs, z):
    """p, p' and the noise floor 4 eps sum_i |a_i| |x|^i as the root
    finder's evaluator reports them: at z where |z| <= 1, beyond it
    through the reversed coefficients at x = 1/z (the values of
    z^-deg p(z)).  Up to 16 coefficients plain Horner in x; beyond,
    Horner in y = x^b over blocks of b coefficients, each block's value,
    derivative and size taken against x^0 .. x^(b-1), which are formed
    in extended precision and rounded once.  The loop keeps value,
    derivative sum and size sum apart, six numpy calls a step."""
    a = np.asarray(coeffs, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    n = len(a)
    b = 1 if n <= 16 else 1 << ((n - 1).bit_length() + 1) // 2
    m = -(-n // b)
    flat = np.zeros((2, m * b), np.complex128)
    flat[0, :n], flat[1, :n] = a, a[::-1]
    rows = flat.reshape(2, m, b)
    if b > 1:
        deriv = np.zeros_like(rows)
        deriv[..., :-1] = rows[..., 1:] * np.arange(1, b)
        rows = np.concatenate([rows, deriv], axis=1)
    row_sizes = np.abs(rows[:, :m])
    far = np.abs(z) > 1.0
    x = np.where(far, 1.0 / z, z)
    if b == 1:
        y = x
        sums = np.where(far, rows[1], rows[0])
        sizes = np.where(far, row_sizes[1], row_sizes[0])
    else:
        # x^0 .. x^b, each a product of two lower powers in extended
        # precision, then rounded to doubles.
        pw = np.empty((b + 1, len(x)), np.clongdouble)
        pw[0], pw[1] = 1.0, x
        k = 1
        while k < b:
            np.multiply(pw[1 : k + 1], pw[k], out=pw[k + 1 : 2 * k + 1])
            k *= 2
        pw = pw.T.astype(np.complex128, order="C")
        y = pw[:, b]
        sums = np.empty((2 * m, len(z)), np.complex128)
        sizes = np.empty((m, len(z)))
        for side, points in enumerate((~far, far)):
            if points.any():
                pws = pw[points, :b]
                sums[:, points] = np.einsum("pi,ji->jp", pws, rows[side])
                sizes[:, points] = np.einsum(
                    "pi,ji->jp", np.abs(pws), row_sizes[side]
                )
    sums = sums.reshape(len(sums) // m, m, -1)
    acc, size, dy = sums[:, -1], sizes[-1], np.zeros_like(x)
    ys, ay = y[None], np.abs(y)
    for j in range(m - 2, -1, -1):
        dy = dy * y + acc[0]
        acc = acc * ys + sums[:, j]
        size = size * ay + sizes[j]
    p = acc[0]
    d = dy if b == 1 else acc[1] + b * pw[:, b - 1] * dy
    d = np.where(far, ((n - 1) * p - x * d) * x, d)
    return p, d, 4.0 * 2.0**-52 * size
