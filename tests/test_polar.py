import cmath
import math
import sys

import numpy as np
import pytest

from polarpoly import polar
from polarpoly.errors import (
    DegreeTooLargeError,
    DegreeZeroError,
    FactorizationImpossible,
    NonFiniteError,
    NotMonicError,
)
from polarpoly.polar import (
    PolarProblem,
    _operator_band,
    apply_tr,
    grace_convolve,
    grace_factorize,
    s_poly,
    s_zeros,
    solve_polar,
)
from polarpoly.polynomial import (
    Polynomial,
    binomial_coeffs,
    derivative_k,
    max_coeff_diff,
    poly_from_roots,
    poly_mul,
    rising_factorial,
    sup_norm,
    taylor_shift,
)
from polarpoly.roots import _Evaluator, find_roots
from polarpoly.verify import residual_norm

from oracles import (
    band_back_substitute,
    banded_polar_solution,
    eval_poly,
    kth_derivative,
    newton_s_zero,
    polar_backward_error,
    polar_solution,
    ray_start_s_zeros,
    rising_scale,
    s_zeros_k1,
    sort_roots,
    two_mode_polar_solution,
)

# The largest n + k that s_poly and s_zeros accept: C(1029, 514) is
# 1.4e308, C(1030, 515) is beyond the double range.
N_MAX = 1029


def rel_diff(p, q):
    return max_coeff_diff(p, q) / max(sup_norm(p), sup_norm(q))


def sample_monic(rng, degree, radius=2.0):
    coeffs = [
        complex(*(radius * math.sqrt(rng.random()),))
        * cmath.exp(2j * math.pi * rng.random())
        for _ in range(degree)
    ]
    return Polynomial(coeffs + [1.0])


class TestProblem:
    def test_rejects_non_monic_p(self):
        with pytest.raises(NotMonicError):
            PolarProblem(Polynomial([1, 2]), Polynomial([0, 1]))

    def test_rejects_non_monic_r(self):
        with pytest.raises(NotMonicError):
            PolarProblem(Polynomial([1, 1]), Polynomial([0, 3]))

    def test_rejects_constant_p(self):
        with pytest.raises(DegreeZeroError):
            PolarProblem(Polynomial([1]), Polynomial([0, 1]))

    def test_rejects_constant_r(self):
        with pytest.raises(DegreeZeroError, match="R must be non-constant"):
            PolarProblem(Polynomial([0, 1]), Polynomial([1]))

    def test_centered_builds_linear_power(self):
        prob = PolarProblem.centered(Polynomial([0, 1]), 1.0, 2)
        assert prob.k == 2
        # (z - 1)^2 = 1 - 2z + z^2
        assert prob.R.coeffs.tolist() == [1 + 0j, -2 + 0j, 1 + 0j]
        with pytest.raises(ValueError):
            PolarProblem.centered(Polynomial([0, 1]), 0.0, 0)


class TestApplyTr:
    def test_single_derivative_of_cube(self):
        out = apply_tr(Polynomial([0, 1]), Polynomial([0, 0, 1]))
        assert out.coeffs.tolist() == [0j, 0j, 3 + 0j]

    def test_monomial_family(self):
        # R = z^k on Q = z^n gives (n+1)_k z^n; n=3, k=1 gives 4z^3.
        out = apply_tr(Polynomial([0, 1]), Polynomial([0, 0, 0, 1]))
        assert out.coeffs.tolist() == [0j, 0j, 0j, 4 + 0j]
        for n in range(1, 6):
            for k in range(1, 5):
                r = Polynomial([0] * k + [1])
                q = Polynomial([0] * n + [1])
                assert apply_tr(r, q).coeffs[-1] == rising_factorial(n + 1, k)

    def test_second_derivative_example(self):
        # R*Q = (z^2 - z)(z + 1) = z^3 - z, second derivative 6z.
        out = apply_tr(Polynomial([0, -1, 1]), Polynomial([1, 1]))
        assert out.coeffs.tolist() == [0j, 6 + 0j]

    def test_degree_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            r = sample_monic(rng, int(rng.integers(1, 5)))
            q = sample_monic(rng, int(rng.integers(1, 8)))
            assert apply_tr(r, q).degree == q.degree


class TestSolvePolar:
    def test_free_case(self):
        for n in range(1, 6):
            for k in range(1, 5):
                prob = PolarProblem(
                    Polynomial([0] * n + [1]), Polynomial([0] * k + [1])
                )
                q = solve_polar(prob)
                assert q.coeffs[-1] == 1
                assert all(abs(c) <= 1e-12 for c in q.coeffs[:-1])

    def test_general_r_example(self):
        # P = z with R = z^2 - z; the solution is z + 1 since
        # (z^2 - z)(z + 1) = z^3 - z has second derivative 6z = (2)_2 P.
        prob = PolarProblem(Polynomial([0, 1]), Polynomial([0, -1, 1]))
        q = solve_polar(prob)
        assert rel_diff(q, Polynomial([1, 1])) <= 1e-14
        residual = max_coeff_diff(
            derivative_k(poly_mul(prob.R, q), 2),
            Polynomial([0, 6]),
        )
        assert residual <= 1e-13

    def test_quarter_shift_example(self):
        prob = PolarProblem(Polynomial([-0.25, 0, 1]), Polynomial([0, 1]))
        q = solve_polar(prob)
        assert rel_diff(q, Polynomial([-0.75, 0, 1])) <= 1e-14

    def test_residual_against_oracle_general_r(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, 6))
            p = sample_monic(rng, n)
            r = sample_monic(rng, k)
            q = solve_polar(PolarProblem(p, r))
            scale = float(rising_factorial(n + 1, k))
            lhs = derivative_k(poly_mul(r, q), k)
            rhs = Polynomial([scale * c for c in p.coeffs])
            assert max_coeff_diff(lhs, rhs) <= 1e-9 * scale * sup_norm(p)

    def test_monic_by_construction(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = sample_monic(rng, int(rng.integers(1, 10)))
            r = sample_monic(rng, int(rng.integers(1, 5)))
            assert solve_polar(PolarProblem(p, r)).coeffs[-1] == 1.0

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_high_degree_backward_error(self, n, k):
        rng = np.random.default_rng(1000 * n + k)

        def disk(count, radius):
            return [
                radius * math.sqrt(rng.random())
                * cmath.exp(2j * math.pi * rng.random())
                for _ in range(count)
            ]

        p = poly_from_roots(disk(n, 1.0))
        r = poly_from_roots(disk(k, 2.0))
        q = solve_polar(PolarProblem(p, r))
        assert q.degree == n and q.coeffs[-1] == 1.0
        assert polar_backward_error(p.coeffs, r.coeffs, q.coeffs) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 8, 19, 36])
    def test_matches_exact_back_substitution(self, seed):
        # n = 128, k = 5: max |Q| is 1e37 to 1e41 here, far past where a
        # relative trim of R*Q used to drop the top of the refinement
        # residual (seed 0 gave an error of 1.0 and degree 65).
        rng = np.random.default_rng(seed)
        p = poly_from_roots(
            np.sqrt(rng.random(128)) * np.exp(2j * np.pi * rng.random(128))
        )
        r = poly_from_roots(
            2 * np.sqrt(rng.random(5)) * np.exp(2j * np.pi * rng.random(5))
        )
        q = solve_polar(PolarProblem(p, r))
        exact = polar_solution(p.coeffs, r.coeffs)
        err = max(abs(a - b) for a, b in zip(q.coeffs, exact))
        assert len(q.coeffs) == len(exact)
        assert err <= 1e-13 * max(abs(c) for c in exact)
        assert apply_tr(r, q).degree == 128


def unit_disk(rng, count):
    return np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


class TestSameBitsAsScalarLoops:
    """solve_polar, apply_tr and derivative_k against the per-coefficient
    rising factorials and the min()-bounded banded loop of oracles.py,
    byte for byte.  n < k makes every row a top row."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 256, 512, 1000])
    def test_solve_polar(self, n):
        rng = np.random.default_rng(n)
        refused = 0
        for k in (1, 2, 3, 4, 5, 20, 50):
            p = poly_from_roots(unit_disk(rng, n))
            for prob in (
                PolarProblem.centered(p, 0.3 + 0.2j, k),
                PolarProblem.centered(p, -1.5j, k),
                PolarProblem(p, poly_from_roots(2.0 * unit_disk(rng, k))),
            ):
                want = banded_polar_solution(p.coeffs, prob.R.coeffs)
                if not np.isfinite(want).all():
                    with pytest.raises(NonFiniteError):
                        solve_polar(prob)
                    refused += 1
                    continue
                q = solve_polar(prob)
                assert q.coeffs.tobytes() == want.tobytes()
                image = kth_derivative(np.convolve(prob.R.coeffs, want), k)
                assert apply_tr(prob.R, q).coeffs.tobytes() == image.tobytes()
                a = rng.normal(size=(2, n + k + 1)).T @ [1.0, 1j]
                got = derivative_k(Polynomial(a), k).coeffs
                assert got.tobytes() == kth_derivative(a, k).tobytes()
        # Q leaves the double range only at n >= 512 with k >= 20 (one
        # case at 512, four at 1000), so nearly all compare numbers.
        assert refused <= (n >= 512) * 4


class TestOneBackSubstitutionMode:
    """solve_polar, with the correction's top fixed to 0 and the scale
    read from the cached row, against the two-mode solve of oracles.py,
    which solves for that top, overwrites it with 1 and takes the scale
    from one exact integer."""

    def test_same_bits_on_exactly_monic_input(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            n = int(rng.integers(1, 257))
            k = int(rng.integers(1, 8))
            p = poly_from_roots(unit_disk(rng, n))
            if rng.random() < 0.5:
                xi = complex(*rng.uniform(-2.0, 2.0, 2))
                prob = PolarProblem.centered(p, xi, k)
            else:
                prob = PolarProblem(p, poly_from_roots(2 * unit_disk(rng, k)))
            assert p.leading == prob.R.leading == 1.0
            want = two_mode_polar_solution(prob)
            assert solve_polar(prob).coeffs.tobytes() == want.tobytes()

    def test_leading_coefficient_near_one(self):
        # P's leading coefficient is 1 + 3e-13, inside MONIC_TOL: the
        # correction's top is 0, so Q's top is 1 exactly, and the
        # residual stays at the rounding level.
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(400):
            n = int(rng.integers(1, 31))
            k = int(rng.integers(1, 8))
            a = poly_from_roots(unit_disk(rng, n)).coeffs.copy()
            a[-1] = 1.0 + 3e-13
            p = Polynomial(a)
            xi = complex(*unit_disk(rng, 1))
            prob = PolarProblem.centered(p, xi, k)
            q = solve_polar(prob)
            assert q.coeffs[-1] == 1.0
            scale = float(rising_factorial(n + 1, k)) * sup_norm(p)
            worst = max(worst, residual_norm(p, prob.R, q) / scale)
        assert worst <= 1e-9


class TestNonFiniteQ:
    """Q beyond the double range is refused with NonFiniteError."""

    def test_in_the_back_substitution(self):
        # Q at n = 700, k = 20, |xi| = 1.9: the back substitution
        # overflows and leaves 74 NaN coefficients.
        rng = np.random.default_rng(0)
        p = poly_from_roots(unit_disk(rng, 700))
        r = poly_from_roots([1.9] * 20)
        rows = np.outer(rising_scale(700, 20), r.coeffs[::-1])
        rhs = float(rising_factorial(701, 20)) * p.coeffs
        assert not np.isfinite(band_back_substitute(rows, rhs, 1.0)).all()
        with pytest.raises(NonFiniteError) as info:
            solve_polar(PolarProblem.centered(p, 1.9, 20))
        assert info.value.code == "NonFinite"
        assert info.value.details == {"n": 700, "k": 20}

    def test_in_the_refinement(self):
        # n = 300, k = 20, xi = 6.125: the back substitution stays
        # finite (max |Q| about 4e285); the residual of the refinement
        # overflows.
        rng = np.random.default_rng(0)
        p = poly_from_roots(unit_disk(rng, 300))
        r = poly_from_roots([6.125] * 20)
        rows = np.outer(rising_scale(300, 20), r.coeffs[::-1])
        rhs = float(rising_factorial(301, 20)) * p.coeffs
        assert np.isfinite(band_back_substitute(rows, rhs, 1.0)).all()
        assert not np.isfinite(banded_polar_solution(p.coeffs, r.coeffs)).all()
        with pytest.raises(NonFiniteError):
            solve_polar(PolarProblem(p, r))


class TestSolveShifted:
    """The centered problem R = (z - xi)^k."""

    def test_free_case_fixed(self):
        q = solve_polar(PolarProblem.centered(Polynomial([0, 0, 1]), 0.0, 3))
        assert q.coeffs.tolist() == [0j, 0j, 1 + 0j]

    def test_matches_general_path_on_example(self):
        p = Polynomial([-0.25, 0, 1])
        q = solve_polar(PolarProblem.centered(p, 0.0, 1))
        assert rel_diff(q, Polynomial([-0.75, 0, 1])) <= 1e-14

    def test_degree_one(self):
        q = solve_polar(PolarProblem.centered(Polynomial([0, 1]), 0.0, 1))
        assert q.coeffs.tolist() == [0j, 1 + 0j]

    def test_validation(self):
        with pytest.raises(NotMonicError):
            PolarProblem.centered(Polynomial([1, 2]), 0.0, 1)
        with pytest.raises(DegreeZeroError):
            PolarProblem.centered(Polynomial([5]), 0.0, 1)
        with pytest.raises(ValueError):
            PolarProblem.centered(Polynomial([0, 1]), 0.0, 0)

    def test_path_equivalence(self):
        rng = np.random.default_rng(13)
        for _ in range(80):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, 6))
            p = sample_monic(rng, n)
            xi = 2.0 * math.sqrt(rng.random()) * cmath.exp(
                2j * math.pi * rng.random()
            )
            q = solve_polar(PolarProblem.centered(p, xi, k))
            # Q(xi+w) = P(xi+w) * S(w), a path that shares no code with
            # the solver.
            conv = grace_convolve(taylor_shift(p, xi), s_poly(n, k))
            assert q.coeffs[-1] == 1.0
            diff = max_coeff_diff(q, taylor_shift(conv, -xi))
            assert diff <= 1e-10 * sup_norm(q)


class TestSPoly:
    def test_small_tables(self):
        assert s_poly(2, 1).coeffs.tolist() == [3 + 0j, 3 + 0j, 1 + 0j]
        assert s_poly(1, 1).coeffs.tolist() == [2 + 0j, 1 + 0j]
        assert s_poly(2, 2).coeffs.tolist() == [6 + 0j, 4 + 0j, 1 + 0j]

    def test_binomial_table_oracle(self):
        for n in range(1, 12):
            for k in range(1, 9):
                s = s_poly(n, k)
                assert s.degree == n
                assert s.coeffs[0] == math.comb(n + k, k) != 0
                for j, c in enumerate(s.coeffs):
                    assert c == math.comb(n + k, j + k)

    @pytest.mark.parametrize("n", [8, 40, 64, 128, 256])
    @pytest.mark.parametrize("k", [1, 5])
    def test_high_degree_keeps_every_coefficient(self, n, k):
        # The top coefficients are tiny against the middle ones (about
        # 1e-76 relative at n = 256), yet exact: no trim may drop them.
        s = s_poly(n, k)
        assert s.degree == n
        for j, c in enumerate(s.coeffs):
            assert c == float(math.comb(n + k, j + k))

    def test_validation(self):
        with pytest.raises(ValueError):
            s_poly(0, 1)
        with pytest.raises(ValueError):
            s_poly(1, 0)

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 514, N_MAX - 1])
    def test_degree_boundary(self, k):
        assert math.comb(N_MAX, N_MAX // 2) < sys.float_info.max
        assert math.comb(N_MAX + 1, (N_MAX + 1) // 2) > 1 << 1024
        s = s_poly(N_MAX - k, k)
        assert s.degree == N_MAX - k
        assert all(math.isfinite(abs(c)) for c in s.coeffs)
        for build in (s_poly, s_zeros):
            with pytest.raises(DegreeTooLargeError) as err:
                build(N_MAX - k + 1, k)
            assert err.value.code == "DegreeTooLarge"
            assert err.value.details == {"n": N_MAX - k + 1, "k": k}


# The (n, k) of the first 45 cases of the localize benchmark workload,
# which are the same for every seed.
LOCALIZE_PAIRS = [
    (45, 2), (19, 4), (108, 1), (12, 3), (70, 4), (29, 2), (166, 3),
    (10, 5), (56, 1), (24, 2), (134, 4), (15, 1), (87, 3), (36, 5),
    (206, 2), (9, 3), (50, 5), (21, 1), (120, 3), (14, 4), (78, 1),
    (33, 3), (185, 5), (11, 2), (63, 4), (26, 5), (149, 1), (17, 2),
    (97, 4), (41, 1), (230, 3), (8, 4), (48, 2), (20, 3), (114, 5),
    (13, 1), (74, 2), (31, 4), (175, 1), (10, 3), (59, 5), (25, 2),
    (141, 4), (16, 5), (91, 1),
]
# Pairs where Newton steps on the branches of (1+w)^(n+k) = t(w), taken
# without a bound on their length, send two starts to one zero, which
# the iteration then merges; and order 50 at n = 100.
BRANCH_HAZARDS = [(141, 4), (185, 5), (97, 4), (500, 20), (1000, 29),
                  (100, 50)]


def match_zeros(got, want, tol):
    """Largest distance from a wanted zero to the nearest computed one,
    after checking that the nearest ones are distinct."""
    got = np.array(got)
    assert len(got) == len(want)
    dist = np.abs(np.array(want)[:, None] - got[None, :])
    nearest = dist.argmin(axis=1)
    assert len(set(nearest.tolist())) == len(want)
    return dist.min(axis=1).max()


class TestSZeros:
    @pytest.mark.parametrize(
        "n", [*range(1, 31), 41, 64, 128, 256, 512, N_MAX - 1]
    )
    def test_k1_closed_form(self, n):
        rs = s_zeros(n, 1)
        assert rs.converged
        assert match_zeros(rs.roots, s_zeros_k1(n), 1e-14) <= 1e-14

    @staticmethod
    def assert_exact(n, k, rtol=1e-13):
        # Each zero is within ``rtol`` relative of the limit of Newton's
        # method from it on the exact coefficients, and the n limits
        # are distinct, so they are all the zeros of S.
        rs = s_zeros(n, k)
        assert rs.converged
        limits = [newton_s_zero(n, k, z) for z in rs.roots]
        gaps = np.abs(np.subtract.outer(limits, limits))
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-6, "two zeros refine to the same limit"
        for z, limit in zip(rs.roots, limits):
            assert abs(z - limit) <= rtol * abs(limit)

    @pytest.mark.parametrize("n", [12, 41, 64, 128])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_against_exact_newton(self, n, k):
        self.assert_exact(n, k)

    @pytest.mark.parametrize(("n", "k"), [(15, 50), (5, 100), (3, 1000)])
    def test_order_far_above_degree(self, n, k):
        # The zeros lie far out, |w| of the order of k/n; t(w) cancels on
        # the part of the curve |1+w|^(n+k) = |t(w)| near |1+w| = 1.
        # Their condition number in the sparse form grows with k/n, to
        # about 1e2 at (5, 1000) against 5 to 8 for k <= n.
        self.assert_exact(n, k, rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 20])
    def test_every_degree_finite_and_bounded(self, k):
        for n in (1, 2, 5, 16, 41, 128, 512, N_MAX - k):
            rs = s_zeros(n, k)
            assert len(rs) == n
            assert rs.converged, (n, k)
            assert all(cmath.isfinite(z) for z in rs.roots), (n, k)
            assert max(abs(z) for z in rs.roots) <= k + 1 + 1e-12, (n, k)
            assert rs.max_residual <= 1e-14, (n, k)

    def test_residual_is_normwise_at_large_order(self):
        # |S(zero)| against the noise floor of the sparse form: the
        # largest coefficient of S is far below the rounding level of |S|
        # once |w| > 1, and |S(zero)| over it is about 6e7 here.
        rs = s_zeros(514, 515)
        assert rs.converged
        assert rs.max_residual <= 1e-14

    def test_ordering(self):
        for n, k in ((12, 3), (41, 1), (64, 5)):
            roots = s_zeros(n, k).roots
            assert list(roots) == sort_roots(roots)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_agrees_with_dense_finder_at_low_degree(self, k):
        for n in range(1, 13):
            dense = find_roots(s_poly(n, k)).roots
            assert match_zeros(s_zeros(n, k).roots, dense, 1e-12) <= 1e-12


class TestSZeroStarts:
    """s_zeros against ``ray_start_s_zeros``, the same iteration from
    plain ray starts on the form alone."""

    @staticmethod
    def assert_matches_ray_starts(n, k):
        # n pairwise distinct zeros, conjugate in pairs, outside the disk
        # |w| < (k+1)/n that holds no zero of S (Enestrom-Kakeya, as the
        # coefficients are positive); the reference zeros outside that
        # disk are matched one-to-one within 1e-13 relative, and the
        # result converged wherever the reference did.
        rs, ref = s_zeros(n, k), ray_start_s_zeros(n, k)
        z = np.array(rs.roots)
        assert len(z) == n
        inner = (k + 1) / n * (1.0 - 1e-12)
        assert (np.abs(z) >= inner).all()
        if n > 1:
            gaps = np.abs(np.subtract.outer(z, z))
            np.fill_diagonal(gaps, np.inf)
            assert gaps.min() > 1e-6 * np.abs(z).max()
        mirror = np.abs(z[:, None] - z.conj()[None, :]).min(axis=1)
        assert (mirror <= 1e-13 * np.abs(z)).all()
        want = np.array([w for w in ref.roots if abs(w) >= inner])
        dist = np.abs(want[:, None] - z[None, :])
        nearest = dist.argmin(axis=1)
        assert len(set(nearest.tolist())) == len(want)
        assert (dist.min(axis=1) <= 1e-13 * np.abs(want)).all()
        assert rs.converged or not ref.converged

    @pytest.mark.parametrize(
        ("n", "k"), BRANCH_HAZARDS + LOCALIZE_PAIRS[::9]
    )
    def test_matches_ray_starts(self, n, k):
        self.assert_matches_ray_starts(n, k)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        ("n", "k"),
        LOCALIZE_PAIRS + [(1024, 5), (1000, 29), (979, 50), (514, 515)],
    )
    def test_matches_ray_starts_on_the_large_grid(self, n, k):
        self.assert_matches_ray_starts(n, k)

    def test_no_zero_where_the_form_reads_zero(self):
        # Inside |w| < (k+1)/n the form w^k S(w) = u^N - t(w) cancels
        # below its rounding, and S itself is evaluated there.  On the
        # form alone two iterates settle at |w| = 0.53 for S(514, 515),
        # whose zeros all have |w| >= 1.004, with converged=True.
        n, k = 514, 515
        rs = s_zeros(n, k)
        assert rs.converged
        assert min(abs(z) for z in rs.roots) >= (k + 1) / n
        for z in sorted(rs.roots, key=abs)[:4]:
            assert abs(newton_s_zero(n, k, z) - z) <= 1e-13 * abs(z)

    @pytest.mark.slow
    @pytest.mark.parametrize(("n", "k"), [(514, 515), (700, 300)])
    def test_exact_where_the_form_reads_zero(self, n, k):
        TestSZeros.assert_exact(n, k)

    def test_starts_settle_in_two_sweeps(self, monkeypatch):
        # The sweeps count the evaluations of t that _aberth makes; from
        # ray starts they were 1 to 20 on these pairs, 306 in all.  At
        # k = 1 t is constant and the rays are the zeros: one step down
        # to the curve and one that no longer moves a point.
        calls, phases = [], []

        class Counting(_Evaluator):
            def __call__(self, z):
                calls.append(len(z))
                return super().__call__(z)

        aberth = polar._aberth

        def counted_aberth(*args):
            before = len(calls)
            out = aberth(*args)
            phases.append((before, len(calls) - before))
            return out

        monkeypatch.setattr(polar, "_Evaluator", Counting)
        monkeypatch.setattr(polar, "_aberth", counted_aberth)
        for n, k in LOCALIZE_PAIRS + BRANCH_HAZARDS[:3]:
            calls.clear()
            phases.clear()
            s_zeros(n, k)
            [(starts, sweeps)] = phases
            steps = polar._START_STEPS + polar._BRANCH_STEPS
            assert starts == (2 if k == 1 else steps), (n, k)
            assert sweeps <= 2, (n, k)


class TestGraceConvolve:
    def test_identity_element(self):
        rng = np.random.default_rng(19)
        for n in range(1, 8):
            identity = poly_from_roots([-1.0] * n)  # (1 + w)^n
            q = Polynomial(rng.normal(size=int(rng.integers(1, n + 1)) + 1))
            out = grace_convolve(identity, q)
            assert rel_diff(out, q) <= 1e-12

    def test_pure_square_projects_top_coefficient(self):
        s_r = Polynomial([3, 4, 1])  # c-form (3, 2, 1)
        out = grace_convolve(Polynomial([0, 0, 1]), s_r)
        assert out.coeffs.tolist() == [0j, 0j, 1 + 0j]

    def test_quarter_example(self):
        out = grace_convolve(Polynomial([-0.25, 0, 1]), Polynomial([3, 0, 1]))
        assert out.coeffs.tolist() == [-0.75 + 0j, 0j, 1 + 0j]

    def test_convolution_identity_with_solver(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, 6))
            zeros = [
                math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
                for _ in range(n)
            ]
            p = poly_from_roots(zeros)
            xi = 2.0 * math.sqrt(rng.random()) * cmath.exp(
                2j * math.pi * rng.random()
            )
            q = solve_polar(PolarProblem.centered(p, xi, k))
            lhs = taylor_shift(q, xi)
            rhs = grace_convolve(taylor_shift(p, xi), s_poly(n, k))
            assert max_coeff_diff(lhs, rhs) <= 1e-9 * sup_norm(lhs)


    def test_degree_limit(self):
        # Every C(n, j) fits a double up to n = N_MAX.
        p = Polynomial([0.5] * N_MAX + [1])
        out = grace_convolve(p, poly_from_roots([-1.0] * N_MAX))
        assert out.degree == N_MAX
        assert np.isfinite(out.coeffs).all()
        assert rel_diff(out, p) <= 1e-12
        with pytest.raises(DegreeTooLargeError) as err:
            grace_convolve(Polynomial([0] * (N_MAX + 1) + [1]), p)
        assert err.value.details == {"n": N_MAX + 1}
        with pytest.raises(DegreeTooLargeError):
            grace_factorize(Polynomial([0] * (N_MAX + 1) + [1]),
                            Polynomial([1] * (N_MAX + 1) + [1]), 0.5)


class TestGraceFactorize:
    def test_counterexample_pair_has_no_factor(self):
        with pytest.raises(FactorizationImpossible) as exc_info:
            grace_factorize(Polynomial([0, 0, 1]), Polynomial([0, 1, 1]), 0.0)
        exc = exc_info.value
        assert exc.index == 1
        assert exc.alpha == 0
        assert abs(exc.beta - 0.5) <= 1e-15

    def test_quarter_example_recovers_factor(self):
        p = Polynomial([-0.25, 0, 1])
        q = Polynomial([-0.75, 0, 1])
        fact = grace_factorize(p, q, 0.0)
        assert fact.c.tolist() == [3 + 0j, 0j, 1 + 0j]
        assert rel_diff(fact.s_r, Polynomial([3, 0, 1])) <= 1e-12
        rebuilt = grace_convolve(p, fact.s_r)
        assert max_coeff_diff(rebuilt, q) <= 1e-10 * sup_norm(q)
        assert fact.exact_match_error <= 1e-12

    def test_non_vanishing_instance_matches_s_poly(self):
        p = poly_from_roots([0.5, 1.0 / 3.0])
        q = solve_polar(PolarProblem.centered(p, 0.0, 1))
        fact = grace_factorize(p, q, 0.0)
        assert rel_diff(fact.s_r, s_poly(2, 1)) <= 1e-10

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            grace_factorize(Polynomial([0, 1]), Polynomial([0, 0, 1]), 0.0)

    def test_never_returns_non_reproducing_factor(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            n = int(rng.integers(1, 10))
            zeros = [
                math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
                for _ in range(n)
            ]
            p = poly_from_roots(zeros)
            xi = 2.0 * math.sqrt(rng.random()) * cmath.exp(
                2j * math.pi * rng.random()
            )
            k = int(rng.integers(1, 6))
            q = solve_polar(PolarProblem.centered(p, xi, k))
            try:
                fact = grace_factorize(p, q, xi)
            except FactorizationImpossible:
                continue
            ps, qs = taylor_shift(p, xi), taylor_shift(q, xi)
            rebuilt = grace_convolve(ps, fact.s_r)
            assert max_coeff_diff(rebuilt, qs) <= 1e-10 * sup_norm(qs)


class TestOperatorMatrix:
    def test_triangular_structure(self):
        # Row i of the band holds the entries (i, i), .., (i, i+k) of the
        # upper triangular matrix with bandwidth k (those of columns
        # beyond n unused); entry (i, j) is r_(k-(j-i)) * (i+1)_k, the
        # z^i coefficient of (r z^j)^(k), and every entry outside the
        # band is zero.
        rng = np.random.default_rng(41)
        r = sample_monic(rng, 3)
        n, k = 6, 3
        band = _operator_band(r, n)
        assert band.shape == (n + 1, k + 1)
        for i, row in enumerate(band):
            for d, entry in enumerate(row[: n + 1 - i]):
                scale = rising_factorial(i + 1, k)
                assert entry == r.coeffs[k - d] * scale
        # Outside the band: the image of z^j has degree j and lowest
        # term z^(j-k).
        for j in range(n + 1):
            image = apply_tr(r, Polynomial([0] * j + [1])).coeffs
            assert len(image) == j + 1
            assert all(c == 0 for c in image[: max(j - k, 0)])

    def test_determinant_in_exact_integers(self):
        # The diagonal entries are integer rising factorials even for
        # complex R, so the determinant can be compared exactly.
        rng = np.random.default_rng(43)
        for n in range(1, 13):
            for k in range(1, 6):
                r = sample_monic(rng, k)
                band = _operator_band(r, n)
                det = 1
                for j in range(n + 1):
                    diag = band[j][0]
                    assert diag.imag == 0.0
                    assert float(diag.real).is_integer()
                    det *= int(diag.real)
                expected = 1
                for j in range(n + 1):
                    expected *= rising_factorial(j + 1, k)
                assert det == expected
