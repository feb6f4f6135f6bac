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


def rising_factorial(a, k):
    """Exact integer ``a * (a+1) * ... * (a+k-1)``; empty product is 1."""
    if a < 1:
        raise ValueError("rising factorial base must be >= 1")
    if k < 0:
        raise ValueError("rising factorial order must be >= 0")
    return math.perm(a + k - 1, k)


def sort_roots(roots):
    """Order by (modulus, argument in (-pi, pi])."""

    def key(z):
        phase = cmath.phase(z)
        if phase <= -math.pi:
            phase = math.pi
        return (abs(z), phase)

    return sorted((complex(r) for r in roots), key=key)


def root_order_key(z):
    """The key the library once sorted zeros by, one zero at a time:
    NaN zeros last, then modulus and argument in (-pi, pi], ties by
    repr."""
    if cmath.isnan(z):
        return (True, 0.0, 0.0, repr(z))
    phase = cmath.phase(z)
    if phase <= -math.pi:
        phase = math.pi
    return (False, abs(z), phase, repr(z))


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


def per_row_localization_check(q_zeros, xi, region, s_zeros, tol=1e-6):
    """``regions.localization_check`` as it was before it read its
    witnesses from the quotient and margin matrices: one ``Witness``
    per row, zipped from the rows and their argmax, and the chosen
    margins read back from the witnesses.  It shares the library's
    ``region_contains`` and skips the input checks."""
    from polarpoly.regions import LocalizationReport, Witness, region_contains

    zeta = np.array(q_zeros.roots)
    with np.errstate(invalid="ignore", over="ignore"):
        quotients = (complex(xi) - zeta)[:, None] / np.array(s_zeros.roots)
    margins = region_contains(region, quotients)
    witnesses = tuple(
        Witness(zero, s_zeros.roots[j], complex(row[j]), float(m[j]))
        for zero, row, m, j in zip(
            q_zeros.roots, quotients, margins, margins.argmax(axis=1)
        )
    )
    chosen = np.array([w.margin for w in witnesses])
    return LocalizationReport(
        contained=bool((chosen >= -tol).all()),
        witnesses=witnesses,
        max_violation=float(np.maximum(0.0, -chosen.min()) + 0.0),
        tol=tol,
    )


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


def split(v):
    """Dekker's split v = hi + lo, each half with 26 bits."""
    t = 134217729.0 * v
    hi = t - (t - v)
    return hi, v - hi


def two_sum(u, v):
    """Knuth's TwoSum: u + v = s + e exactly, part by part."""
    s = u + v
    vv = s - u
    return s, (u - (s - vv)) + (v - vv)


def two_prod(a, b):
    """The complex products a b as s + e, the way the root finder's
    double-double squaring once formed them on its own: the four real
    products exactly (TwoProduct with Dekker's split), each part of s
    their sum with TwoSum, e the errors summed once more."""
    a4 = np.stack([a.real, a.imag, a.real, a.imag])
    b4 = np.stack([b.real, -b.imag, b.imag, b.real])
    h = a4 * b4
    a_hi, a_lo = split(a4)
    b_hi, b_lo = split(b4)
    lo = a_lo * b_lo - (((h - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    s, e = two_sum(h[0::2], h[1::2])
    e = (lo[0::2] + lo[1::2]) + e
    return s[0] + 1j * s[1], e[0] + 1j * e[1]


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


def rising_scale(n, k):
    """(j+1)_k for j = 0..n, one exact integer and one rounding each."""
    return [float(math.perm(j + k, k)) for j in range(n + 1)]


def band_back_substitute(band, rhs, top=None):
    """The banded triangular solve from the top degree down, one
    ``min``-bounded range of offsets per row; row i of ``band`` holds
    the entries (i, i), .., (i, i+k).  With ``top`` set, the top unknown
    is fixed to it."""
    rows, rhs = band.tolist(), rhs.tolist()
    n = len(rhs) - 1
    out = [0j] * (n + 1)
    start = n
    if top is not None:
        out[n], start = top, n - 1
    for i in range(start, -1, -1):
        row = rows[i]
        acc = rhs[i]
        for d in range(1, min(len(row), n + 1 - i)):
            acc -= row[d] * out[i + d]
        out[i] = acc / row[0]
    return np.array(out)


def kth_derivative(coeffs, k):
    """Ascending coefficients of the k-th derivative, each coefficient
    times its own rising factorial, trailing exact zeros trimmed (the
    zero polynomial is [0])."""
    a = np.asarray(coeffs, dtype=np.complex128)
    out = a[k:] * rising_scale(len(a) - 1 - k, k) if k < len(a) else a[:0]
    return np.trim_zeros(out, "b") if np.any(out) else np.zeros(1, complex)


def banded_polar_solution(p, r):
    """The monic Q with (R Q)^(k) = (n+1)_k P in doubles: one banded back
    substitution with the top coefficient fixed to 1, then one
    refinement pass on the residual rhs - (R Q)^(k), each step in the
    order of ``band_back_substitute``, ``kth_derivative`` and
    ``np.convolve``."""
    p, r = (np.asarray(v, dtype=np.complex128) for v in (p, r))
    n, k = len(p) - 1, len(r) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        band = np.outer(rising_scale(n, k), r[::-1])
    rhs = float(math.perm(n + k, k)) * p
    b = band_back_substitute(band, rhs, top=1.0)
    image = kth_derivative(np.convolve(r, b), k)
    residual = rhs.copy()
    residual[: image.size] -= image
    b += band_back_substitute(band, residual)
    b[n] = 1.0
    return b


def two_mode_back_substitute(rows, rhs, top=None):
    """The banded triangular solve in two modes, on the band's rows as
    Python scalars: with ``top`` set the top unknown is fixed to it,
    without it the top unknown is solved for like every other.  All
    rows but the top k run over one fixed range of offsets."""
    rhs = rhs.tolist()
    n, k = len(rhs) - 1, len(rows[0]) - 1
    out = [0j] * (n + 1)
    start = n
    if top is not None:
        out[n], start = top, n - 1
    full = range(1, k + 1)
    for i in range(start, -1, -1):
        row, acc = rows[i], rhs[i]
        for d in full if i + k <= n else range(1, n + 1 - i):
            acc -= row[d] * out[i + d]
        out[i] = acc / row[0]
    return np.array(out)


def operator_residual(r, q, rhs):
    """rhs - (R Q)^(k) through the library's ``apply_tr``, the image
    padded with zeros to the size of rhs."""
    from polarpoly.polar import apply_tr
    from polarpoly.polynomial import Polynomial

    image = apply_tr(r, Polynomial(q)).coeffs
    out = rhs.copy()
    out[: image.size] -= image
    return out


def operator_band(r, n):
    """Row i holds the entries (i, i), .., (i, i+k) of the operator
    matrix of Q -> (R Q)^(k) on the monomial basis, the only ones that
    can be nonzero: the image of z^j has degree j and lowest term
    z^(j-k).  Entry (i, i+d) is (i+1)_k * R_(k-d); those of columns
    beyond n are never read, and may overflow."""
    r = np.asarray(r, np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.outer(rising_scale(n, len(r) - 1), r[::-1])


def two_mode_polar_solution(problem):
    """The monic Q of a ``PolarProblem`` in doubles: the scale (n+1)_k
    from the exact integer ``rising_factorial(n + 1, k)``, one back
    substitution with the top coefficient fixed to 1, one refinement
    whose correction solves for its top coefficient too, and the top
    then overwritten by 1.  The residual goes through the library's
    ``apply_tr``, which this reference shares and does not check; the
    band, the two-mode solve and the padded residual are its own.  Non-
    finite coefficients are returned as they are."""
    n, k = problem.n, problem.k
    rows = operator_band(problem.R.coeffs, n).tolist()
    rhs = float(rising_factorial(n + 1, k)) * problem.P.coeffs
    b = two_mode_back_substitute(rows, rhs, top=1.0)
    b += two_mode_back_substitute(rows, operator_residual(problem.R, b, rhs))
    b[n] = 1.0
    return b


def quotient_polar_solution(p, r):
    """The monic Q with (R Q)^(k) = (n+1)_k P in doubles, as the quotient
    of the antiderivative J, J_(i+k) = (n+1)_k p_i / (i+1)_k, by R: each
    y_i = p_i ((n+1)_k / (i+1)_k) / r_k with both rising factorials
    rounded once from exact integers, then q_n = 1 and, from the top
    down, q_i = y_i - sum_{d=1..min(k, n-i)} (r_(k-d) / r_k) q_(i+d), one
    scalar step per term.  Non-finite coefficients are returned as they
    are."""
    p = [complex(c) for c in p]
    r = [complex(c) for c in r]
    n, k = len(p) - 1, len(r) - 1
    top = float(math.perm(n + k, k))
    y = []
    for i, c in enumerate(p):
        ratio = top / float(math.perm(i + k, k))
        y.append(complex(c.real * ratio, c.imag * ratio) / r[k])
    q = [0j] * (n + 1)
    q[n] = 1 + 0j
    for i in range(n - 1, -1, -1):
        acc = y[i]
        for d in range(1, min(k, n - i) + 1):
            acc -= (r[k - d] / r[k]) * q[i + d]
        q[i] = acc
    return np.array(q)


def polar_componentwise_backward_error(p, r, q, prec=250):
    """Componentwise backward error of q as a solution of
    (R Q)^(k) = (n+1)_k P, from a residual formed in ``prec``-bit mpmath
    on the doubles as given: the largest over i of
    |(n+1)_k p_i - (i+1)_k sum_d r_(k-d) q_(i+d)| divided by
    (n+1)_k |p_i| + (i+1)_k sum_d |r_(k-d)| |q_(i+d)|, the perturbation
    of each matrix and right-hand side entry relative to its own size
    (Oettli and Prager) that q solves exactly.  Rows whose denominator
    vanishes have a zero residual and count as 0."""
    import mpmath

    p, r, q = (list(map(complex, v)) for v in (p, r, q))
    n, k = len(p) - 1, len(r) - 1
    worst = mpmath.mpf(0)
    with mpmath.workprec(prec):
        top = mpmath.mpf(math.perm(n + k, k))
        pm = [mpmath.mpc(c) for c in p]
        rm = [mpmath.mpc(c) for c in r]
        qm = [mpmath.mpc(c) for c in q]
        for i in range(n + 1):
            scale = mpmath.mpf(math.perm(i + k, k))
            acc, size = mpmath.mpc(0), mpmath.mpf(0)
            for d in range(min(k, n - i) + 1):
                acc += rm[k - d] * qm[i + d]
                size += abs(rm[k - d]) * abs(qm[i + d])
            denom = top * abs(pm[i]) + scale * size
            if denom:
                worst = max(worst, abs(top * pm[i] - scale * acc) / denom)
    return float(worst)


def ray_start_s_zeros(n, k):
    """The zeros of S(n, k) from plain ray starts: four fixed-point steps
    along the rays exp(2 pi i m / (n+1)), m = 1..n, onto the curve
    |1+w|^(n+k) = |t(w)|, t(w) = sum_{j<k} C(n+k, j) w^j, then the sweeps,
    polish and result of ``find_roots`` on the form w^k S(w) =
    (1+w)^(n+k) - t(w) alone.  The search is the library's
    (``roots._zeros``), which this reference shares and does not check;
    the starts and the form are its own.  Deep inside |w| < (k+1)/n,
    where S has no zero, the form reads as zero, and at S(514, 515) two
    of these zeros settle there."""
    from polarpoly.roots import _EPS, _Evaluator, _zeros

    big_n = n + k
    top = math.comb(big_n, min(k - 1, big_n // 2))
    log_top = math.log(top)
    evaluate_t = _Evaluator(
        np.array([math.comb(big_n, j) / top for j in range(k)])
    )

    def log_t(w):
        p, d, noise = evaluate_t(w)
        log_w = np.log(np.where(np.abs(w) > 1.0, w, 1.0))
        log_t = log_top + np.log(p) + (k - 1) * log_w
        return log_t, d / p, noise / (4.0 * _EPS) / np.abs(p)

    def evaluate(w):
        u = 1.0 + w
        lt, dlt, cancel = log_t(w)
        lr = lt - big_n * np.log(u)
        inside = lr.real <= 0.0
        r = np.exp(np.where(inside, lr, -lr))
        f = np.where(inside, 1.0 - r, r - 1.0)
        fd = np.where(inside, big_n / u - dlt * r, big_n * r / u - dlt)
        ar = np.abs(r)
        noise = 4.0 * _EPS * np.where(
            inside, big_n + cancel * ar, big_n * ar + cancel
        )
        return f, fd - k * f / w, noise

    ray = np.exp(2j * math.pi * np.arange(1, n + 1) / (n + 1))
    radius = np.full(n, k + 2.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(4):
            radius = np.exp(log_t(radius * ray - 1.0)[0].real / big_n)
    return _zeros(evaluate, radius * ray - 1.0)


def two_boundary_disk(points):
    """Minimum enclosing disk by the move-to-front search that ranks,
    for each pair (p, q), the circumcircles of the points outside the
    circle on the diameter pq as left or right of pq, and keeps the
    smaller of the two extremes.  The points are visited in the
    library's stride order, and the circle primitives are the
    library's (``_in_circle``, ``_diameter``, ``_circumcircle``), which
    this reference shares and does not check; the search is its own."""
    from polarpoly.regions import _circumcircle, _diameter, _in_circle

    def two_boundary(pts, p, q):
        circ = _diameter(p, q)
        left = right = None
        pq = q - p

        def cross(v):
            return pq.real * (v.imag - p.imag) - pq.imag * (v.real - p.real)

        for s in pts:
            if _in_circle(*circ, s):
                continue
            cc = _circumcircle(p, q, s)
            if cc is None:
                continue
            side = cross(s)
            d = cross(cc[0])
            if side > 0.0 and (left is None or d > cross(left[0])):
                left = cc
            elif side < 0.0 and (right is None or d < cross(right[0])):
                right = cc
        if left is None or right is None:
            return left or right or circ
        return left if left[1] <= right[1] else right

    def one_boundary(pts, p):
        center, radius = p, 0.0
        for i, q in enumerate(pts):
            if not _in_circle(center, radius, q):
                if radius == 0.0:
                    center, radius = _diameter(p, q)
                else:
                    center, radius = two_boundary(pts[: i + 1], p, q)
        return center, radius

    pts = [complex(p) for p in points]
    n = len(pts)
    stride = max(1, round(0.618 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    pts = [pts[i * stride % n] for i in range(n)]
    circle = None
    for i, p in enumerate(pts):
        if circle is None or not _in_circle(*circle, p):
            circle = one_boundary(pts[: i + 1], p)
    center, radius = circle
    return center, max(radius, float(np.abs(np.array(pts) - center).max()))


def two_pass_aberth(z, evaluate, tol=1e-12, max_iter=200):
    """``roots._aberth`` as it was before its Aberth sum took one pass:
    each moving root's sum 1/(z_i - z_j) leaves out the root itself,
    and only the rows whose sum comes out non-finite (an iterate that
    coincides with another) are summed again without every zero
    difference.  Returns what ``_aberth`` returns."""
    z = np.array(z, dtype=np.complex128)
    pz, dz, nz = np.empty_like(z), np.empty_like(z), np.empty(len(z))
    active = np.arange(len(z))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            za = z[active]
            pv, dv, noise = evaluate(za)
            pz[active], dz[active], nz[active] = pv, dv, noise
            at_root = pv == 0
            w = pv / np.where(dv == 0, 1.0, dv)
            stuck = (dv == 0) & ~at_root
            if stuck.any():
                w = np.where(stuck, 0.1 * (1.0 + np.abs(za)), w)
            move = ~((np.abs(w) <= tol) | (np.abs(pv) <= noise))
            rows, zm, wm = active[move], za[move], w[move]
            if rows.size:
                diff = zm[:, None] - z[None, :]
                diff[np.arange(len(rows)), rows] = np.inf
                s = np.divide(1.0, diff, out=diff).sum(axis=1)
                if not np.isfinite(s).all():
                    redo = ~np.isfinite(s)
                    diff = zm[redo, None] - z[None, :]
                    diff[np.arange(len(diff)), rows[redo]] = np.inf
                    diff[diff == 0] = np.inf
                    s[redo] = np.divide(1.0, diff, out=diff).sum(axis=1)
                denom = 1.0 - wm * s
                denom = np.where(denom == 0, 1.0, denom)
                z[rows] = zm - np.where(at_root[move], 0.0, wm / denom)
            active = rows
            if not active.size:
                break
        if active.size:
            pz[active], dz[active], nz[active] = evaluate(z[active])
    return (z, pz, dz, nz), not active.size


def region_from_dict(data):
    """``Region.from_dict`` as it was before the constructor became the
    one check of a region's values: one constructor call per kind, and
    an unknown kind refused after both.  It shares the library's JSON
    readers and ``Region``, which it does not check."""
    from polarpoly.polynomial import from_number, from_pair
    from polarpoly.regions import Region

    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("region JSON must be an object with a 'kind'")
    kind = data["kind"]
    closed = data.get("closed", True)
    if not isinstance(closed, bool):
        raise ValueError("region field 'closed' must be true or false")

    def pair(name, default=None):
        return from_pair(data.get(name, default), f"region field {name!r}")

    if kind == "half_plane":
        return Region(
            kind=kind,
            center=pair("center", [0, 0]),
            normal=pair("normal"),
            closed=closed,
        )
    if kind in ("disk", "exterior_disk"):
        radius = from_number(data.get("radius"), "region field 'radius'")
        return Region(
            kind=kind,
            center=pair("center", [0, 0]),
            radius=radius,
            closed=closed,
        )
    raise ValueError(f"unknown region kind {kind!r}")
