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
    BinomialForm,
    Polynomial,
    binomial_coeffs,
    derivative_k,
    from_binomial,
    max_coeff_diff,
    poly_from_roots,
    poly_mul,
    rising_factorial,
    sup_norm,
    taylor_shift,
)
from .roots import (
    _EPS,
    _DEFAULT_MAX_ITER,
    _DEFAULT_TOL,
    RootSet,
    _aberth,
    _horner,
    _newton_polish,
    _ordered,
    _oriented,
)

# Relative threshold below which a binomial coefficient counts as zero
# when extracting a convolution factor.
VANISHING_RTOL = 1e-10

# A recovered factor must reproduce its target to this relative error.
RECONSTRUCTION_RTOL = 1e-10

# Fixed-point steps that move the start points of s_zeros onto the
# curve |1+w|^(n+k) = |t(w)|.
_START_STEPS = 4


@dataclass(frozen=True)
class PolarProblem:
    """The data (P, R) of the equation d^k/dz^k(R*Q) = (n+1)_k * P."""

    P: Polynomial
    R: Polynomial

    def __post_init__(self):
        if self.P.degree < 1:
            raise DegreeZeroError("P must be non-constant")
        if not self.P.is_monic():
            raise NotMonicError(
                "P must be monic",
                leading=[self.P.leading.real, self.P.leading.imag],
            )
        if self.R.degree < 1:
            raise ValueError("R must have degree >= 1")
        if not self.R.is_monic():
            raise NotMonicError(
                "R must be monic",
                leading=[self.R.leading.real, self.R.leading.imag],
            )

    @classmethod
    def centered(cls, P: Polynomial, xi: complex, k: int) -> "PolarProblem":
        """Problem with R = (z - xi)^k."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        return cls(P, poly_from_roots([complex(xi)] * k))

    @property
    def n(self) -> int:
        return self.P.degree

    @property
    def k(self) -> int:
        return self.R.degree


@dataclass(frozen=True)
class GraceFactorization:
    """A factor S_R with P(xi+w) convolved with S_R equal to Q(xi+w).

    ``c`` holds the binomial-basis ratios c_j; ``exact_match_error`` is
    the relative reconstruction residual of the convolution.
    """

    s_r: Polynomial
    c: BinomialForm
    exact_match_error: float


def apply_tr(R: Polynomial, Q: Polynomial) -> Polynomial:
    """k-th derivative of R*Q, with k the degree of R."""
    return derivative_k(poly_mul(R, Q), R.degree)


def _operator_band(R: Polynomial, n: int) -> list[list[complex]]:
    # Row i holds the entries (i, i), .., (i, min(i+k, n)) of the
    # operator matrix, the only ones that can be nonzero: the image of
    # z^j has degree j and lowest term z^(j-k).  Entry (i, i+d) is the
    # coefficient of z^i in d^k/dz^k(R * z^(i+d)), R_(k-d) * (i+1)_k.
    k = R.degree
    band = []
    for i in range(n + 1):
        scale = float(rising_factorial(i + 1, k))
        band.append(
            [R.coeffs[k - d] * scale for d in range(min(k, n - i) + 1)]
        )
    return band


def operator_matrix(R: Polynomial, n: int) -> list[list[complex]]:
    """Matrix of Q -> d^k/dz^k(R*Q) on the monomial basis 1, z, .., z^n.

    Column j holds the image of z^j.  The matrix is upper triangular
    with bandwidth k: entries below the diagonal and more than k above
    it vanish, entry (i, i+d) is R_(k-d) * (i+1)_k, and the diagonal
    entry at j is (j+1)_k.
    """
    m = [[0j] * (n + 1) for _ in range(n + 1)]
    for i, row in enumerate(_operator_band(R, n)):
        m[i][i : i + len(row)] = row
    return m


def _band_back_substitute(
    band: list[list[complex]], rhs: list[complex], top: float | None = None
) -> list[complex]:
    # Solves the banded triangular system from the top degree down,
    # O(n*k).  With ``top`` set, the top unknown is fixed to it instead
    # of being solved for.
    n = len(rhs) - 1
    out = [0j] * (n + 1)
    start = n
    if top is not None:
        out[n], start = top, n - 1
    for i in range(start, -1, -1):
        row = band[i]
        acc = rhs[i]
        for d in range(1, len(row)):
            acc -= row[d] * out[i + d]
        out[i] = acc / row[0]
    return out


def _operator_residual(
    R: Polynomial, q: list[complex], P: Polynomial, rhs_scale: float
) -> list[complex]:
    # rhs_scale * P - T_R(q), padded to length deg P + 1.
    image = apply_tr(R, Polynomial(q))
    out = [rhs_scale * c for c in P.coeffs]
    for i, c in enumerate(image.coeffs):
        if i < len(out):
            out[i] -= c
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
    rhs_scale = float(rising_factorial(n + 1, k))
    b = _band_back_substitute(band, [rhs_scale * c for c in P.coeffs], top=1.0)
    correction = _band_back_substitute(
        band, _operator_residual(R, b, P, rhs_scale)
    )
    b = [bi + ci for bi, ci in zip(b, correction)]
    b[n] = 1.0
    return Polynomial(b)


# Kept for bench/spans.py and bench/ledger.py, which look the name up.
def solve_polar_shifted(P, xi, k):
    return solve_polar(PolarProblem.centered(P, xi, k))


def _check_s_degree(n: int, k: int) -> None:
    # S is the part of (1+w)^(n+k) of degree >= k, divided by w^k, and
    # s_zeros evaluates it through the whole binomial row of n+k, so
    # s_poly and s_zeros accept n+k as long as that row fits a double:
    # up to 1029, where its middle C(1029, 514) is 1.4e308.
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    big_n = n + k
    try:
        float(math.comb(big_n, big_n // 2))
    except OverflowError:
        raise DegreeTooLargeError(
            f"S({n}, {k}) needs binomial coefficients of n + k = {big_n}, "
            "which exceed the double range from n + k = 1030 on",
            n=n,
            k=k,
        ) from None


def s_poly(n: int, k: int) -> Polynomial:
    """The degree-n polynomial with coefficients C(n+k, j+k).

    Its constant term C(n+k, k) never vanishes, and its zeros control
    the zeros of every centered polar polynomial via the convolution
    identity.  Raises DegreeTooLargeError from n + k = 1030 on, where
    the binomial coefficients of n + k exceed the double range (for
    k <= n, the middle coefficients of S itself).
    """
    _check_s_degree(n, k)
    return Polynomial([float(math.comb(n + k, j + k)) for j in range(n + 1)])


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
    fwd = np.array([math.comb(big_n, j) / top for j in range(k)])

    def log_t(w):
        # log t(w), t'(w)/t(w) and sum_j |t_j w^j| / |t(w)|, by the
        # Horner of find_roots: in w for |w| <= 1 and in 1/w beyond,
        # where t(w) = top * w^(k-1) * T(1/w) with T the reversed
        # polynomial.  4 eps is a power of two, so dividing the noise
        # floor by it gives the sum exactly.
        coeffs, x, far = _oriented(fwd, w)
        p, d, noise = _horner(coeffs, x)
        ratio = d / p
        log_w = np.log(np.where(far, w, 1.0))
        log_t = log_top + np.log(p) + (k - 1) * log_w
        dlog_t = np.where(far, x * ((k - 1) - x * ratio), ratio)
        return log_t, dlog_t, noise / (4.0 * _EPS) / np.abs(p)

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

    Runs the Aberth-Ehrlich iteration of ``find_roots`` (same settle rule
    and defaults, same ordering and ``RootSet`` contract) with Newton
    ratios from S'/S = F'/F - k/w at O(k) cost per point, and a final
    plain Newton polish in the same form.  In the monomial basis S is
    ill conditioned from n of about 40 on (the dense finder reports
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
        z, converged = _aberth(
            radius * ray - 1.0, evaluate, _DEFAULT_TOL, _DEFAULT_MAX_ITER
        )
        z, f, _, noise = _newton_polish(evaluate, z)
        residual = float((4.0 * _EPS * np.abs(f) / noise).max())
    return RootSet(
        roots=_ordered(z), max_residual=residual, converged=converged
    )


def grace_convolve(p: Polynomial, q: Polynomial) -> Polynomial:
    """Coefficient-wise product in the binomial basis.

    The working size is n = max(deg p, deg q); output coefficient j is
    C(n, j) * alpha_j * beta_j.  The polynomial (1+w)^n is the identity
    element for this product.
    """
    n = max(p.degree, q.degree)
    alpha = binomial_coeffs(p, n).gamma
    beta = binomial_coeffs(q, n).gamma
    return Polynomial(
        float(math.comb(n, j)) * alpha[j] * beta[j] for j in range(n + 1)
    )


def grace_factorize(
    P: Polynomial,
    Q: Polynomial,
    xi: complex,
    tol: float = VANISHING_RTOL,
) -> GraceFactorization:
    """Extract S_R with P(xi+w) convolved with S_R equal to Q(xi+w).

    Shifts both inputs by xi, reads off their binomial coefficients
    alpha_j and beta_j and forms the ratios c_j = beta_j / alpha_j,
    with c_j = 0 where alpha_j vanishes.  A vanishing alpha_j is only
    admissible when beta_j vanishes too; otherwise no factor can
    reproduce that term and FactorizationImpossible is raised.

    Vanishing is judged relative to the largest coefficient of the
    respective polynomial (threshold ``tol``), which keeps the test
    independent of an overall scale.
    """
    if P.degree != Q.degree:
        raise ValueError("P and Q must have the same degree")
    n = P.degree
    xi = complex(xi)
    ps = taylor_shift(P, xi)
    qs = taylor_shift(Q, xi)
    alpha = binomial_coeffs(ps, n).gamma
    beta = binomial_coeffs(qs, n).gamma
    alpha_cut = tol * max(abs(a) for a in alpha)
    beta_cut = tol * max(abs(b) for b in beta)
    c = []
    for j in range(n + 1):
        if abs(alpha[j]) <= alpha_cut:
            if abs(beta[j]) > beta_cut:
                raise FactorizationImpossible(
                    f"coefficient {j} vanishes in P(xi+w) but not in Q(xi+w)",
                    index=j,
                    alpha=alpha[j],
                    beta=beta[j],
                )
            c.append(0j)
        else:
            c.append(beta[j] / alpha[j])
    form = BinomialForm(n, tuple(c))
    s_r = from_binomial(form)
    rebuilt = grace_convolve(ps, s_r)
    error = max_coeff_diff(rebuilt, qs) / sup_norm(qs)
    if error > RECONSTRUCTION_RTOL:
        def coeff(p: Polynomial, j: int) -> complex:
            return p.coeffs[j] if j <= p.degree else 0j

        diffs = [abs(coeff(rebuilt, j) - coeff(qs, j)) for j in range(n + 1)]
        worst = diffs.index(max(diffs))
        raise FactorizationImpossible(
            "recovered factor does not reproduce Q(xi+w)",
            index=worst,
            alpha=alpha[worst],
            beta=beta[worst],
        )
    return GraceFactorization(s_r=s_r, c=form, exact_match_error=error)
