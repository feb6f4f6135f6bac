"""Polar-polynomial constructions.

The central object is the linear operator that sends Q to the k-th
derivative of R*Q, where R is a fixed monic polynomial of degree k.  On
the monomial basis this operator is triangular with diagonal entries
(j+1)_k (rising factorials), so for every monic P of degree n >= 1
there is a unique monic Q of degree n with

    d^k/dz^k (R(z) * Q(z)) = (n+1)_k * P(z).

One solver, ``solve_polar``, finds it for every R, the centered
R = (z - xi)^k (``PolarProblem.centered``) included, as the quotient
of the k-fold antiderivative of (n+1)_k P by R.  For that choice
the solution also has a closed form in the shifted binomial basis,
beta_j = (n+1)_k / (j+1)_k * alpha_j, which is the same thing as the
Grace convolution (Schur-Szego composition) of the shifted P with the
fixed polynomial S(w) = sum_j C(n+k, j+k) w^j.  That identity is what
turns zero localization of Q into zero localization of S; the solver
does not use it, so it stays an independent check of the solver.
``q_zeros`` puts the localization to work: beyond degree 40 it starts
the search for the zeros of Q on Z(S) placed at Q's centroid c and
sized so that prod(c - start_j) = Q(c), the zeros for P = (z - p)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeTooLargeError,
    DegreeZeroError,
    FactorizationImpossible,
    NonFiniteError,
    NotMonicError,
)
from .polynomial import (
    BINOMIAL_MAX,
    Polynomial,
    binomial_coeffs,
    binomial_row,
    derivative_k,
    from_binomial,
    max_coeff_diff,
    poly_from_roots,
    poly_mul,
    rising_row,
    sup_norm,
    taylor_shift,
)
from .roots import _EIG_MAX, _NOISE, RootSet, _dense_zeros, _Evaluator, _zeros

# Relative threshold below which a binomial coefficient counts as zero
# when extracting a convolution factor.
VANISHING_RTOL = 1e-10

# Fixed-point steps that move the start points of s_zeros along their
# rays onto the curve |1+w|^(n+k) = |t(w)|, and Newton steps that then
# take each toward the zero on its own branch of (1+w)^(n+k) = t(w).
# With 4 and 2 the sweeps settle in one or two for k <= 5 and in 4 to 9
# for k = 20 to 50; fewer fixed-point steps cost sweeps at large k.
_START_STEPS = 4
_BRANCH_STEPS = 2


def _check_factor(name: str, poly: Polynomial) -> None:
    if not np.isfinite(poly.coeffs).all():
        raise NonFiniteError(f"{name} has a NaN or infinite coefficient")
    if poly.degree < 1:
        raise DegreeZeroError(f"{name} must be non-constant")
    if not poly.is_monic():
        raise NotMonicError(f"{name} must be monic", leading=poly.leading)


@dataclass(frozen=True)
class PolarProblem:
    """The data (P, R) of the equation d^k/dz^k(R*Q) = (n+1)_k * P.

    Raises NonFiniteError, DegreeZeroError or NotMonicError for P, then
    R, and DegreeTooLargeError where (n+1)_k exceeds the double range.
    """

    P: Polynomial
    R: Polynomial

    def __post_init__(self):
        _check_factor("P", self.P)
        _check_factor("R", self.R)
        rising_row(self.n, self.k)

    @classmethod
    def centered(cls, P: Polynomial, xi: complex, k: int) -> "PolarProblem":
        """Problem with R = (z - xi)^k; P and the scale are checked
        before R is expanded, which takes O(k^2)."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        _check_factor("P", P)
        rising_row(P.degree, k)
        return cls(P, poly_from_roots([complex(xi)] * k))

    @property
    def n(self) -> int:
        return self.P.degree

    @property
    def k(self) -> int:
        return self.R.degree


@dataclass(frozen=True, eq=False)
class GraceFactorization:
    """A factor S_R with P(xi+w) convolved with S_R equal to Q(xi+w).

    ``c`` holds the binomial-basis ratios c_0, .., c_n;
    ``exact_match_error`` is the relative reconstruction residual of
    the convolution, max |(P(xi+w) * S_R - Q(xi+w))_j| / max |Q(xi+w)_j|,
    reported unjudged: the caller holds it to its own tolerance.
    """

    s_r: Polynomial
    c: np.ndarray
    exact_match_error: float


def apply_tr(R: Polynomial, Q: Polynomial) -> Polynomial:
    """k-th derivative of R*Q, with k the degree of R."""
    return derivative_k(poly_mul(R, Q), R.degree)


def solve_polar(problem: PolarProblem) -> Polynomial:
    """Unique monic Q with apply_tr(R, Q) = (n+1)_k * P.

    The one solver for every R; the centered R = (z - xi)^k comes from
    ``PolarProblem.centered(P, xi, k)``.  R*Q is the k-fold
    antiderivative J of (n+1)_k P, J_(j+k) = (n+1)_k P_j / (j+1)_k, plus
    a polynomial of degree below k, so Q is the quotient of J by R: one
    unit-diagonal back substitution from the top degree down,
    q_i = J_(i+k)/R_k - sum_d (R_(k-d)/R_k) q_(i+d), in O(n*k), with the
    top coefficient fixed to 1 as comparing leading coefficients
    dictates.  Triangular substitution is componentwise backward stable,
    so the backward error stays at the rounding level even when the
    coefficients of Q grow large.  Raises NonFiniteError where a
    coefficient of Q is not finite.
    """
    P, R = problem.P, problem.R
    n, k = problem.n, problem.k
    row = rising_row(n, k)
    lead = R.coeffs[k]
    with np.errstate(over="ignore", invalid="ignore"):
        y = (P.coeffs * (row[n] / row) / lead).tolist()
    r = (R.coeffs[::-1] / lead).tolist()
    # r[d] = R_(k-d)/R_k.  Row i meets q_(i+1) .. q_(min(i+k, n)), so all
    # rows but the top k run over one fixed range of offsets.
    q = [0j] * n + [1 + 0j]
    full = range(1, k + 1)
    for i in range(n - 1, -1, -1):
        acc = y[i]
        for d in full if i + k <= n else range(1, n + 1 - i):
            acc -= r[d] * q[i + d]
        q[i] = acc
    Q = Polynomial(q)
    if not np.isfinite(Q.coeffs).all():
        raise NonFiniteError(
            f"Q for n = {n}, k = {k} exceeds the double range", n=n, k=k
        )
    return Q


# Kept for bench/spans.py and bench/ledger.py, which look the name up.
def solve_polar_shifted(P, xi, k):
    return solve_polar(PolarProblem.centered(P, xi, k))


def _check_s_degree(n: int, k: int) -> None:
    # S is the part of (1+w)^(n+k) of degree >= k, divided by w^k, and
    # s_zeros evaluates it through the whole binomial row of n+k, so
    # s_poly and s_zeros accept n+k as long as that row fits a double.
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    if n + k > BINOMIAL_MAX:
        raise DegreeTooLargeError(
            f"S({n}, {k}) needs binomial coefficients of n + k = {n + k}, "
            "which exceed the double range from n + k = "
            f"{BINOMIAL_MAX + 1} on",
            n=n,
            k=k,
        )


def s_poly(n: int, k: int) -> Polynomial:
    """The degree-n polynomial with coefficients C(n+k, j+k).

    Its constant term C(n+k, k) never vanishes, and its zeros control
    the zeros of every centered polar polynomial via the convolution
    identity.  Raises DegreeTooLargeError beyond n + k =
    ``BINOMIAL_MAX``, where the binomial coefficients of n + k exceed
    the double range (for k <= n, the middle coefficients of S itself).
    """
    _check_s_degree(n, k)
    return Polynomial(binomial_row(n + k)[k:])


def _s_form(n: int, k: int):
    # Evaluator of S(n, k) through w^k S(w) = F(w) = u^N - t(w), with
    # u = 1 + w, N = n + k and t(w) = sum_{j<k} C(N, j) w^j: O(k) per
    # point, and its zeros are well conditioned in this form, unlike in
    # the monomial basis.  F is returned divided by s = max(|u|^N, |t|)
    # in modulus, which keeps every quantity within the double range.
    big_n = n + k
    # The coefficients of t, divided by the largest of them, top.
    top = math.comb(big_n, min(k - 1, big_n // 2))
    log_top = math.log(top)
    floor = _NOISE * big_n
    evaluate_t = _Evaluator(
        np.array([math.comb(big_n, j) / top for j in range(k)])
    )

    # S has no zero in |w| < (k+1)/n, the smallest ratio C(N, j+k) /
    # C(N, j+k+1) of its positive coefficients (Enestrom-Kakeya).  Deep
    # inside that disk w^k S(w) is below the rounding of u^N and t(w),
    # so F reads as zero there; S itself is evaluated on its dense
    # coefficients instead, which are free of cancellation there.
    inner = (k + 1) / n

    def evaluate_s(w):
        row = binomial_row(big_n)[k:]
        return _Evaluator(row / row.max())(w)

    def log_t(w):
        # log t(w), t'(w)/t(w) and 4 eps sum_j |t_j w^j| / |t(w)|, from
        # the evaluator of find_roots: beyond |w| = 1 its values are
        # those of w^-(k-1) t(w) / top, and their ratio is t'/t on both
        # sides.
        p, d, noise = evaluate_t(w)
        lt = np.log(p) + log_top
        far = np.abs(w) > 1.0
        lt[far] += (k - 1) * np.log(w[far])
        return lt, d / p, noise / np.abs(p)

    def evaluate(w):
        # F/s, (F' - k F/w)/s and the noise floor of F/s, so that their
        # ratio is S/S'; the values of S itself in |w| < inner.  With
        # lr = log(t/u^N) and m = max(Re lr, 0), s = u^N e^m is u^N
        # where |t| <= |u|^N and |t| times a phase elsewhere, so
        # F/s = e^-m - e^(lr - m) with both terms at most 1 in modulus.
        lt, dlt, cancel = log_t(w)
        u = 1.0 + w
        lr = lt - big_n * np.log(u)
        m = np.maximum(lr.real, 0.0)
        a, b = np.exp(-m), np.exp(lr - m)
        f = a - b
        fd = big_n / u * a - dlt * b - k * f / w
        noise = floor * a + cancel * np.abs(b)
        deep = np.abs(w) < inner
        if deep.any():
            f[deep], fd[deep], noise[deep] = evaluate_s(w[deep])
        return f, fd, noise

    return log_t, evaluate


def _wrap(x):
    # x reduced by a multiple of 2 pi to [-pi, pi).
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _s_starts(n: int, k: int, log_t) -> np.ndarray:
    # One start per zero of S, each near the zero on its own branch of
    # u^N = t(u - 1), u = 1 + w, N = n + k: the zero of branch m solves
    # h(u) = N log u - log t(u - 1) = 2 pi i m, m = 1 .. n.
    big_n = n + k
    ray = np.exp(2j * math.pi * np.arange(1, n + 1) / (n + 1))
    # Every zero has |w| <= k+1 (the S-radius bound); stepping down
    # from |u| = k+2 along the rays reaches the part of the curve
    # |u|^N = |t| that holds them, also for k far above n, where the
    # curve has a second part near |u| = 1 on which t(w) cancels.
    u = (k + 2.0) * ray
    for _ in range(_START_STEPS):
        lt, dlt, _ = log_t(u - 1.0)
        at, u = u, np.exp(lt.real / big_n) * ray
        if (u == at).all():
            return u - 1.0  # t is constant (k = 1): the rays are the zeros.
    # Along the curve the phase Im h rises by 2 pi (n+1) from arg u = 0
    # to 2 pi, symmetrically about pi, and passes 2 pi m at the zero of
    # branch m.  Its rise between neighbouring rays is taken within pi
    # of the one that h' = N/u - t'/t predicts; the points then move
    # along the curve to the phases 2 pi m.
    dh = big_n / at - dlt
    guess = (0.5 * (dh[1:] + dh[:-1]) * np.diff(at)).imag
    seen = big_n * 2.0 * math.pi / (n + 1) - np.diff(lt.imag)
    rise = guess + _wrap(seen - guess)
    first = (2.0 * math.pi * (n + 1) - rise.sum()) / 2.0
    phase = np.cumsum(np.concatenate([[0.0, first], rise, [first]]))
    phase = np.maximum.accumulate(phase)  # np.interp needs it sorted
    target = 2.0 * math.pi * np.arange(1, n + 1)
    angle = 2.0 * math.pi * np.arange(n + 2) / (n + 1)
    log_r = np.interp(target, phase[1:-1], lt.real / big_n)
    u = np.exp(log_r + 1j * np.interp(target, phase, angle))
    # Newton steps on h with Im h wrapped to the nearest branch.  A step
    # of half the branch spacing, pi |u| / N, or more may leave its
    # branch, and two starts that meet merge in the iteration; there the
    # fixed-point step u exp(-h/N) is taken, which turns u by at most
    # pi / N.
    for _ in range(_BRANCH_STEPS):
        lt, dlt, _ = log_t(u - 1.0)
        h = big_n * np.log(u) - lt
        h.imag = _wrap(h.imag)
        newton = h / (big_n / u - dlt)
        near = np.abs(newton) < math.pi / big_n * np.abs(u)
        u = np.where(near, u - newton, u * np.exp(h / -big_n))
    return u - 1.0


def s_zeros(n: int, k: int) -> RootSet:
    """The zeros of S(n, k), as ``find_roots(s_poly(n, k))`` would give
    them, but computed from the form w^k S(w) = (1+w)^(n+k) - t(w), with
    t(w) = sum_{j<k} C(n+k, j) w^j.

    Hands this form and its starts to the one search of ``find_roots``,
    ``roots._zeros`` (the same iteration, settle rule, defaults, polish
    rule, ordering and ``RootSet`` contract; the form offers no
    compensated step), with Newton ratios from S'/S = F'/F - k/w at O(k)
    cost per point, t'/t coming from the evaluator of ``find_roots``.  In the monomial basis
    S is ill conditioned from n of about 40 on (the dense finder reports
    converged zeros of S(41, 1) that are off by 0.3); in this form the
    zeros come out to a few units of rounding at every accepted degree.
    The iteration starts from one point on each branch of
    (1+w)^(n+k) = t(w), near its zero: fixed-point steps along the rays
    exp(2 pi i m / (n+1)) onto the curve |1+w|^(n+k) = |t(w)|, which
    passes through every zero, a move along the curve to where the
    phase (n+k) arg(1+w) - arg t(w) is 2 pi m, m = 1..n, and Newton
    steps on that branch; the sweeps then settle in one or two.  At
    k = 1 the rays are the zeros, and the steps stop once they no longer
    move them.  Inside |w| < (k+1)/n, which holds no zero of S, the form
    cancels below its rounding and reads as zero, so S is evaluated
    there on its coefficients.  ``max_residual`` is max |F(zero)| /
    (4 eps) over the noise floor of this form, (n+k) |1+w|^(n+k) +
    sum_j |t_j w^j|, which never overflows.  Raises DegreeTooLargeError
    where ``s_poly`` does.
    """
    _check_s_degree(n, k)
    log_t, evaluate = _s_form(n, k)
    starts = _s_starts(n, k, log_t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _zeros(evaluate, starts)


def q_zeros(xi: complex, Q: Polynomial, s_roots: RootSet) -> RootSet:
    """The zeros of the monic Q = ``solve_polar(PolarProblem.centered(P,
    xi, k))``, given the zeros ``s_roots`` of S(n, k), with the contract
    of ``find_roots``.

    The zeros of Q lie in xi - K Z(S) for every disk K that holds the
    zeros of P shifted by -xi; for P = (z - p)^n they are exactly
    xi - (p - xi) s_j over the zeros s_j of S.  With p the centroid of
    P's zeros their centroid is that of Q's, c = -Q_(n-1)/n, for every
    P.  Beyond degree ``_EIG_MAX`` the search starts from
    c + mu (s_j - s), s the mean of the s_j, with mu the n-th root of
    Q(c) / prod(s - s_j) nearest the model's (c - xi) / s, formed in
    logarithms so that no n-th power overflows: then prod(c - start_j)
    = Q(c).  Q enters by the door of ``find_roots``,
    ``roots._dense_zeros``, which starts as it does where these starts
    are not finite (as where Q(c) = 0) or Q(0) = 0: only the starts
    differ, and the sweeps, the settle test and the polish decide every
    zero.  Raises ValueError unless Q and ``s_roots`` share the degree.
    """
    n = Q.degree
    if len(s_roots) != n:
        raise ValueError("Q and the zeros of S must share the degree")
    starts = None
    if n > _EIG_MAX:
        a, s = Q.coeffs, np.array(s_roots.roots)
        c, mean = -a[n - 1] / n, s.mean()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # The evaluator gives Q(c), or c^-n Q(c) beyond |c| = 1.
            value = _Evaluator(a)(np.array([c]))[0][0]
            mu = np.exp((np.log(value) - np.log(mean - s).sum()) / n)
            mu *= c if abs(c) > 1.0 else 1.0
            turn = np.round(n * np.angle((c - xi) / mean / mu) / (2 * np.pi))
            starts = c + mu * np.exp(2j * np.pi * turn / n) * (s - mean)
        if not np.isfinite(starts).all():
            starts = None
    return _dense_zeros(Q.coeffs, starts)


def grace_convolve(p: Polynomial, q: Polynomial) -> Polynomial:
    """Coefficient-wise product in the binomial basis.

    The working size is n = max(deg p, deg q); output coefficient j is
    C(n, j) * alpha_j * beta_j.  The polynomial (1+w)^n is the identity
    element for this product.  Raises DegreeTooLargeError beyond n =
    ``BINOMIAL_MAX``, where ``binomial_row(n)`` does; a coefficient
    beyond the double range comes out infinite.
    """
    n = max(p.degree, q.degree)
    with np.errstate(over="ignore", invalid="ignore"):
        return from_binomial(binomial_coeffs(p, n) * binomial_coeffs(q, n))


def grace_factorize(
    P: Polynomial, Q: Polynomial, xi: complex
) -> GraceFactorization:
    """Extract S_R with P(xi+w) convolved with S_R equal to Q(xi+w).

    Shifts both inputs by xi, reads off their binomial coefficients
    alpha_j and beta_j and forms the ratios c_j = beta_j / alpha_j,
    with c_j = 0 where alpha_j vanishes.  A vanishing alpha_j is only
    admissible when beta_j vanishes too; otherwise no factor can
    reproduce that term and FactorizationImpossible is raised.  That is
    its only meaning: a factor that exists is returned, with how well it
    reproduces Q(xi+w) in ``exact_match_error``, however large.

    Vanishing is judged relative to the largest coefficient of the
    respective polynomial (threshold ``VANISHING_RTOL``), which keeps
    the test independent of an overall scale.  Raises
    DegreeTooLargeError where ``grace_convolve`` does, before shifting,
    and NonFiniteError where P(xi+w), Q(xi+w) or the factor leaves the
    double range.
    """
    if P.degree != Q.degree:
        raise ValueError("P and Q must have the same degree")
    n = P.degree
    binomial_row(n)  # refuses n beyond BINOMIAL_MAX before the shifts
    xi = complex(xi)
    ps = taylor_shift(P, xi)
    qs = taylor_shift(Q, xi)
    for name, shifted in (("P", ps), ("Q", qs)):
        if not np.isfinite(shifted.coeffs).all():
            raise NonFiniteError(f"{name}(xi+w) has a non-finite coefficient")
    alpha = binomial_coeffs(ps, n)
    beta = binomial_coeffs(qs, n)
    size_a, size_b = np.abs(alpha), np.abs(beta)
    vanishing = size_a <= VANISHING_RTOL * size_a.max()
    unmatched = vanishing & (size_b > VANISHING_RTOL * size_b.max())
    if unmatched.any():
        j = int(unmatched.argmax())
        raise FactorizationImpossible(
            f"coefficient {j} vanishes in P(xi+w) but not in Q(xi+w)",
            index=j,
            alpha=complex(alpha[j]),
            beta=complex(beta[j]),
        )
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.divide(beta, alpha, out=np.zeros_like(beta), where=~vanishing)
        s_r = from_binomial(c)
    if not np.isfinite(s_r.coeffs).all():
        raise NonFiniteError("the factor S_R exceeds the double range")
    error = max_coeff_diff(grace_convolve(ps, s_r), qs) / sup_norm(qs)
    return GraceFactorization(s_r=s_r, c=c, exact_match_error=error)
