"""Polar-polynomial constructions.

The central object is the linear operator that sends Q to the k-th
derivative of R*Q, where R is a fixed monic polynomial of degree k.  On
the monomial basis this operator is triangular with diagonal entries
(j+1)_k (rising factorials), so for every monic P of degree n >= 1
there is a unique monic Q of degree n with

    d^k/dz^k (R(z) * Q(z)) = (n+1)_k * P(z).

One solver, ``solve_polar``, finds it for every R, the centered
R = (z - xi)^k (``PolarProblem.centered``) included.  For that choice
the solution also has a closed form in the shifted binomial basis,
beta_j = (n+1)_k / (j+1)_k * alpha_j, which is the same thing as the
Grace convolution (Schur-Szego composition) of the shifted P with the
fixed polynomial S(w) = sum_j C(n+k, j+k) w^j.  That identity is what
turns zero localization of Q into zero localization of S; the solver
does not use it, so it stays an independent check of the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeTooLargeError,
    DegreeZeroError,
    FactorizationImpossible,
    NotMonicError,
)
from .polynomial import (
    Polynomial,
    binomial_coeffs,
    binomial_row,
    coeff_diff,
    derivative_k,
    from_binomial,
    poly_from_roots,
    poly_mul,
    rising_factorial,
    sup_norm,
    taylor_shift,
)
from .roots import (
    _EPS,
    RootSet,
    _aberth,
    _Evaluator,
    _newton_polish,
    _root_set,
)

# Relative threshold below which a binomial coefficient counts as zero
# when extracting a convolution factor.
VANISHING_RTOL = 1e-10

# A recovered factor must reproduce its target to this relative error.
RECONSTRUCTION_RTOL = 1e-10

# Fixed-point steps that move the start points of s_zeros onto the
# curve |1+w|^(n+k) = |t(w)|.
_START_STEPS = 4


def _check_factor(name: str, poly: Polynomial) -> None:
    if poly.degree < 1:
        raise DegreeZeroError(f"{name} must be non-constant")
    if not poly.is_monic():
        raise NotMonicError(f"{name} must be monic", leading=poly.leading)


def _check_scale(n: int, k: int) -> None:
    # The operator's diagonal (j+1)_k, j = 0..n, peaks at (n+1)_k, the
    # scale of the right-hand side; every entry fits a double with it.
    try:
        float(rising_factorial(n + 1, k))
    except OverflowError:
        raise DegreeTooLargeError(
            f"the operator for n = {n}, k = {k} needs (n+1)_k, which "
            "exceeds the double range",
            n=n,
            k=k,
        ) from None


@dataclass(frozen=True)
class PolarProblem:
    """The data (P, R) of the equation d^k/dz^k(R*Q) = (n+1)_k * P.

    Raises DegreeZeroError or NotMonicError for P, then for R, and
    DegreeTooLargeError where (n+1)_k exceeds the double range.
    """

    P: Polynomial
    R: Polynomial

    def __post_init__(self):
        _check_factor("P", self.P)
        _check_factor("R", self.R)
        _check_scale(self.n, self.k)

    @classmethod
    def centered(cls, P: Polynomial, xi: complex, k: int) -> "PolarProblem":
        """Problem with R = (z - xi)^k; P and the scale are checked
        before R is expanded, which takes O(k^2)."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        _check_factor("P", P)
        _check_scale(P.degree, k)
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
    the convolution.
    """

    s_r: Polynomial
    c: np.ndarray
    exact_match_error: float


def apply_tr(R: Polynomial, Q: Polynomial) -> Polynomial:
    """k-th derivative of R*Q, with k the degree of R."""
    return derivative_k(poly_mul(R, Q), R.degree)


def _operator_band(R: Polynomial, n: int) -> np.ndarray:
    # Row i holds the entries (i, i), .., (i, i+k) of the operator
    # matrix, the only ones that can be nonzero: the image of z^j has
    # degree j and lowest term z^(j-k).  Entry (i, i+d) is the
    # coefficient of z^i in d^k/dz^k(R * z^(i+d)), (i+1)_k * R_(k-d);
    # those of columns beyond n are never read, and may overflow.
    k = R.degree
    scale = [float(rising_factorial(i + 1, k)) for i in range(n + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.outer(scale, R.coeffs[::-1])


def _band_back_substitute(
    band: np.ndarray, rhs: np.ndarray, top: float | None = None
) -> np.ndarray:
    # Solves the banded triangular system from the top degree down,
    # O(n*k) sequential steps on Python scalars.  With ``top`` set, the
    # top unknown is fixed to it instead of being solved for.
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


def _operator_residual(
    R: Polynomial, q: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    # rhs - T_R(q); the image has degree at most that of rhs.
    image = apply_tr(R, Polynomial(q)).coeffs
    out = rhs.copy()
    out[: image.size] -= image
    return out


def solve_polar(problem: PolarProblem) -> Polynomial:
    """Unique monic Q with apply_tr(R, Q) = (n+1)_k * P.

    The one solver for every R; the centered R = (z - xi)^k comes from
    ``PolarProblem.centered(P, xi, k)``.  The operator is upper
    triangular with bandwidth k, so one banded back substitution from
    the top degree down solves it in O(n*k) without forming the matrix;
    the top coefficient is forced to 1, which is what comparing leading
    coefficients dictates.  One
    residual-refinement pass, with the residual computed through
    apply_tr rather than the band, keeps the backward error at the
    rounding level even when the coefficients of Q grow large.
    """
    P, R = problem.P, problem.R
    n, k = problem.n, problem.k
    band = _operator_band(R, n)
    rhs = float(rising_factorial(n + 1, k)) * P.coeffs
    b = _band_back_substitute(band, rhs, top=1.0)
    b += _band_back_substitute(band, _operator_residual(R, b, rhs))
    b[n] = 1.0
    return Polynomial(b)


# Kept for bench/spans.py and bench/ledger.py, which look the name up.
def solve_polar_shifted(P, xi, k):
    return solve_polar(PolarProblem.centered(P, xi, k))


def _check_binomial_row(what: str, size: str, value: int, **details):
    # ``what`` needs the whole binomial row of ``value`` (named ``size``
    # in the message), which fits a double up to 1029, where its middle
    # C(1029, 514) is 1.4e308.
    try:
        binomial_row(value)
    except OverflowError:
        raise DegreeTooLargeError(
            f"{what} needs binomial coefficients of {size} = {value}, "
            f"which exceed the double range from {size} = 1030 on",
            **details,
        ) from None


def _check_s_degree(n: int, k: int) -> None:
    # S is the part of (1+w)^(n+k) of degree >= k, divided by w^k, and
    # s_zeros evaluates it through the whole binomial row of n+k, so
    # s_poly and s_zeros accept n+k as long as that row fits a double.
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    _check_binomial_row(f"S({n}, {k})", "n + k", n + k, n=n, k=k)


def s_poly(n: int, k: int) -> Polynomial:
    """The degree-n polynomial with coefficients C(n+k, j+k).

    Its constant term C(n+k, k) never vanishes, and its zeros control
    the zeros of every centered polar polynomial via the convolution
    identity.  Raises DegreeTooLargeError from n + k = 1030 on, where
    the binomial coefficients of n + k exceed the double range (for
    k <= n, the middle coefficients of S itself).
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
    evaluate_t = _Evaluator(
        np.array([math.comb(big_n, j) / top for j in range(k)])
    )

    def log_t(w):
        # log t(w), t'(w)/t(w) and sum_j |t_j w^j| / |t(w)|, from the
        # evaluator of find_roots: beyond |w| = 1 its values are those of
        # w^-(k-1) t(w) / top, and their ratio is t'/t on both sides.
        # 4 eps is a power of two, so dividing the noise floor by it
        # gives the sum exactly.
        p, d, noise = evaluate_t(w)
        log_w = np.log(np.where(np.abs(w) > 1.0, w, 1.0))
        log_t = log_top + np.log(p) + (k - 1) * log_w
        return log_t, d / p, noise / (4.0 * _EPS) / np.abs(p)

    def evaluate(w):
        # F/s, (F' - k F/w)/s and the noise floor of F/s, so that their
        # ratio is S/S'.
        u = 1.0 + w
        log_u = np.log(u)
        lt, dlt, cancel = log_t(w)
        lr = lt - big_n * log_u
        inside = lr.real <= 0.0
        r = np.exp(np.where(inside, lr, -lr))
        # s = |u|^N inside, where r = t/u^N; s = |t| outside, r = u^N/t.
        f = np.where(inside, 1.0 - r, r - 1.0)
        fd = np.where(inside, big_n / u - dlt * r, big_n * r / u - dlt)
        ar = np.abs(r)
        noise = 4.0 * _EPS * np.where(
            inside, big_n + cancel * ar, big_n * ar + cancel
        )
        return f, fd - k * f / w, noise

    return log_t, evaluate


def s_zeros(n: int, k: int) -> RootSet:
    """The zeros of S(n, k), as ``find_roots(s_poly(n, k))`` would give
    them, but computed from the form w^k S(w) = (1+w)^(n+k) - t(w), with
    t(w) = sum_{j<k} C(n+k, j) w^j.

    Runs the pipeline of ``find_roots`` (the same iteration, settle
    rule, defaults, polish rule, ordering and ``RootSet`` contract) with
    Newton ratios from S'/S = F'/F - k/w at O(k) cost per point, t'/t
    coming from the evaluator of ``find_roots``.  In the monomial basis
    S is ill conditioned from n of about 40 on (the dense finder reports
    converged zeros of S(41, 1) that are off by 0.3); in this form the
    zeros come out to a few units of rounding at every accepted degree.
    The iteration starts on the curve |1+w|^(n+k) = |t(w)|, which passes
    through every zero, at the angles about -1 of the zeros for k = 1.
    ``max_residual`` is max |F(zero)| / (4 eps) over the noise floor of
    this form, (n+k) |1+w|^(n+k) + sum_j |t_j w^j|, which never
    overflows.  Raises DegreeTooLargeError where ``s_poly`` does.
    """
    _check_s_degree(n, k)
    log_t, evaluate = _s_form(n, k)
    ray = np.exp(2j * math.pi * np.arange(1, n + 1) / (n + 1))
    # Every zero has |w| <= k+1 (the S-radius bound); stepping down
    # from |1+w| = k+2 reaches the part of the curve that holds them,
    # also for k far above n, where the curve has a second part near
    # |1+w| = 1 on which t(w) cancels.
    radius = np.full(n, k + 2.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_START_STEPS):
            radius = np.exp(log_t(radius * ray - 1.0)[0].real / (n + k))
        start, converged = _aberth(radius * ray - 1.0, evaluate)
        z, f, _, noise = _newton_polish(evaluate, *start)
    return _root_set(z, f, noise, converged)


def grace_convolve(p: Polynomial, q: Polynomial) -> Polynomial:
    """Coefficient-wise product in the binomial basis.

    The working size is n = max(deg p, deg q); output coefficient j is
    C(n, j) * alpha_j * beta_j.  The polynomial (1+w)^n is the identity
    element for this product.  Raises DegreeTooLargeError from n = 1030
    on, where C(n, j) exceeds the double range.
    """
    n = max(p.degree, q.degree)
    _check_binomial_row("the Grace convolution", "n", n, n=n)
    return from_binomial(binomial_coeffs(p, n) * binomial_coeffs(q, n))


def grace_factorize(
    P: Polynomial, Q: Polynomial, xi: complex
) -> GraceFactorization:
    """Extract S_R with P(xi+w) convolved with S_R equal to Q(xi+w).

    Shifts both inputs by xi, reads off their binomial coefficients
    alpha_j and beta_j and forms the ratios c_j = beta_j / alpha_j,
    with c_j = 0 where alpha_j vanishes.  A vanishing alpha_j is only
    admissible when beta_j vanishes too; otherwise no factor can
    reproduce that term and FactorizationImpossible is raised.

    Vanishing is judged relative to the largest coefficient of the
    respective polynomial (threshold ``VANISHING_RTOL``), which keeps
    the test independent of an overall scale.  Raises
    DegreeTooLargeError where ``grace_convolve`` does, before shifting.
    """
    if P.degree != Q.degree:
        raise ValueError("P and Q must have the same degree")
    n = P.degree
    _check_binomial_row("the Grace convolution", "n", n, n=n)
    xi = complex(xi)
    ps = taylor_shift(P, xi)
    qs = taylor_shift(Q, xi)
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
    c = np.divide(beta, alpha, out=np.zeros_like(beta), where=~vanishing)
    s_r = from_binomial(c)
    diffs = np.abs(coeff_diff(grace_convolve(ps, s_r), qs))
    error = float(diffs.max()) / sup_norm(qs)
    if error > RECONSTRUCTION_RTOL:
        worst = int(diffs.argmax())
        raise FactorizationImpossible(
            "recovered factor does not reproduce Q(xi+w)",
            index=worst,
            alpha=complex(alpha[worst]),
            beta=complex(beta[worst]),
        )
    return GraceFactorization(s_r=s_r, c=c, exact_match_error=error)
