import cmath
import math
import sys

import numpy as np
import pytest

from polarpoly import polar, roots
from polarpoly.errors import (
    DegreeTooLargeError,
    DegreeZeroError,
    FactorizationImpossible,
    NonFiniteError,
    NotMonicError,
)
from polarpoly.polar import (
    PolarProblem,
    apply_tr,
    grace_convolve,
    grace_factorize,
    q_zeros,
    s_poly,
    s_zeros,
    solve_polar,
)
from polarpoly.polynomial import (
    Polynomial,
    binomial_coeffs,
    derivative_k,
    from_binomial,
    max_coeff_diff,
    poly_from_roots,
    poly_mul,
    sup_norm,
    taylor_shift,
)
from polarpoly.regions import enclosing_disk, localization_check
from polarpoly.roots import _Evaluator, find_roots
from polarpoly.verify import residual_norm

from oracles import (
    banded_polar_solution,
    eval_poly,
    kth_derivative,
    newton_s_zero,
    newton_zero,
    polar_backward_error,
    polar_componentwise_backward_error,
    polar_solution,
    quotient_polar_solution,
    ray_start_s_zeros,
    rising_factorial,
    s_zeros_k1,
    sort_roots,
    two_mode_polar_solution,
)

# A componentwise backward error at the rounding level: four units of
# double precision (the solver reads about one).
ROUNDING_LEVEL = 4 * 2.0**-52

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

    def test_lives_in_polar_only(self):
        # apply_tr and GraceFactorization are not package exports.
        import polarpoly

        for name in ("apply_tr", "GraceFactorization"):
            assert name not in polarpoly.__all__
            with pytest.raises(AttributeError):
                getattr(polarpoly, name)
            assert hasattr(polar, name)
        assert len(polarpoly.__all__) == 41
        assert all(hasattr(polarpoly, name) for name in polarpoly.__all__)

    def test_residual_norm_reads_the_image(self, monkeypatch):
        # residual_norm forms d^k/dz^k(R*Q) as apply_tr(R, Q), which the
        # solver does not call, and nothing else.
        from polarpoly import verify

        calls = []

        def spy(r, q):
            calls.append((r, q))
            return apply_tr(r, q)

        monkeypatch.setattr(verify, "apply_tr", spy)
        p = Polynomial([0.25, 0, 1])
        r = Polynomial([0.25, -1, 1])
        q = solve_polar(PolarProblem(p, r))
        assert verify.residual_norm(p, r, q) <= 1e-15
        assert calls == [(r, q)]


# Public entry points whose combinatorial row leaves the double range,
# each with the details that name the row: (j+1)_k, j = 0..n, or C(n, j).
# R = z^171 needs 171! alone; (z^400)^(150) needs (251)_150 = 1e376.
_R171 = Polynomial([0] * 171 + [1])
ROW_REFUSALS = {
    "residual_norm": (
        lambda: residual_norm(Polynomial([0, 1]), _R171, Polynomial([0, 1])),
        {"n": 1, "k": 171},
    ),
    "apply_tr": (
        lambda: apply_tr(_R171, Polynomial([0, 1])), {"n": 1, "k": 171}
    ),
    "derivative_k": (
        lambda: derivative_k(Polynomial([0] * 400 + [1]), 150),
        {"n": 250, "k": 150},
    ),
    "binomial_coeffs": (
        lambda: binomial_coeffs(Polynomial([0, 1]), 1100), {"n": 1100}
    ),
    "from_binomial": (lambda: from_binomial(np.zeros(1031)), {"n": 1030}),
}


@pytest.mark.parametrize("name", sorted(ROW_REFUSALS))
def test_row_beyond_the_double_range_is_refused(name):
    # A DomainError code, never a bare OverflowError from the row.
    call, details = ROW_REFUSALS[name]
    with pytest.raises(DegreeTooLargeError) as err:
        call()
    assert err.value.code == "DegreeTooLarge"
    assert err.value.details == details


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
    rising factorials and the min()-bounded scalar loop of the quotient
    in oracles.py, byte for byte.  n < k makes every row a top row."""

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
                want = quotient_polar_solution(p.coeffs, prob.R.coeffs)
                if not np.isfinite(want).all():
                    with pytest.raises(NonFiniteError):
                        solve_polar(prob)
                    refused += 1
                    continue
                q = solve_polar(prob)
                assert q.coeffs.tobytes() == want.tobytes()
                # At n = 1000 the product R*Q may leave the double range
                # although Q does not; both images then hold the same inf.
                with np.errstate(over="ignore", invalid="ignore"):
                    image = kth_derivative(np.convolve(prob.R.coeffs, want), k)
                    got = apply_tr(prob.R, q).coeffs
                assert got.tobytes() == image.tobytes()
                a = rng.normal(size=(2, n + k + 1)).T @ [1.0, 1j]
                got = derivative_k(Polynomial(a), k).coeffs
                assert got.tobytes() == kth_derivative(a, k).tobytes()
        # Q leaves the double range only at n >= 512 with k >= 20 (one
        # case at 512, one at 1000), so nearly all compare numbers.
        assert refused <= (n >= 512) * 4


class TestOneBackSubstitutionMode:
    """solve_polar, with the top fixed to 1 and the ratios
    (n+1)_k / (i+1)_k read from the cached row, against the scalar-loop
    quotient of oracles.py, which rounds each rising factorial from its
    own exact integer."""

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
            want = quotient_polar_solution(p.coeffs, prob.R.coeffs)
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
        # Q at n = 1000, k = 20, |xi| = 1.9: the exact max |Q| is 5.2e411
        # (400-bit back substitution), and the substitution overflows.
        rng = np.random.default_rng(0)
        p = poly_from_roots(unit_disk(rng, 1000))
        r = poly_from_roots([1.9] * 20)
        assert not np.isfinite(quotient_polar_solution(p.coeffs, r.coeffs)).all()
        with pytest.raises(NonFiniteError) as info:
            solve_polar(PolarProblem.centered(p, 1.9, 20))
        assert info.value.code == "NonFinite"
        assert info.value.details == {"n": 1000, "k": 20}

    def test_just_beyond_the_double_range(self):
        # n = 512, k = 50, |xi| = 1.5: the exact max |Q| is 9.8e323, just
        # beyond the double range; the two-pass band refused it too.
        rng = np.random.default_rng(0)
        p = poly_from_roots(unit_disk(rng, 512))
        r = poly_from_roots([1.5] * 50)
        assert not np.isfinite(banded_polar_solution(p.coeffs, r.coeffs)).all()
        with pytest.raises(NonFiniteError):
            solve_polar(PolarProblem(p, r))

    @pytest.mark.parametrize("n, root", [(700, 1.9), (300, 6.125)])
    def test_exact_q_within_the_range_is_returned(self, n, root):
        # R = (z - root)^20.  The exact max |Q| is 6.3e295 at n = 700 and
        # 3.3e285 at n = 300, both within the double range.  The two-pass
        # band refused both: (n+1)_k times Q overflowed in its back
        # substitution at n = 700 and in its refinement residual at 300.
        rng = np.random.default_rng(0)
        p = poly_from_roots(unit_disk(rng, n))
        r = poly_from_roots([root] * 20)
        q = solve_polar(PolarProblem(p, r))
        assert 1e285 < np.abs(q.coeffs).max() < 1e296
        error = polar_componentwise_backward_error(p.coeffs, r.coeffs, q.coeffs)
        assert error <= ROUNDING_LEVEL


def random_problems(rng, count):
    """``count`` problems with n log-uniform over [8, 300] and k in
    [1, 20]; P has zeros with moduli log-uniform over four decades
    around 1, and R is (z - xi)^k with |xi| <= 2 or has k zeros in the
    disk of radius 3, each half the time."""
    for _ in range(count):
        n = int(np.exp(rng.uniform(np.log(8), np.log(300))))
        k = int(rng.integers(1, 21))
        radius = 10.0 ** rng.uniform(-2.0, 2.0, n)
        p = poly_from_roots(radius * np.exp(2j * np.pi * rng.random(n)))
        if rng.random() < 0.5:
            yield PolarProblem.centered(p, 2.0 * complex(*unit_disk(rng, 1)), k)
        else:
            yield PolarProblem(p, poly_from_roots(3.0 * unit_disk(rng, k)))


class TestQuotientAccuracy:
    """The componentwise backward error of Q, from a 250-bit residual,
    stays at the rounding level, also where Q grows past 1e200."""

    def test_no_worse_than_the_two_pass_band(self):
        # Over this grid the quotient reads at most 2.1e-16 and the
        # two-pass band with refinement 2.7e-16.  Both sit at one unit of
        # rounding, so the order is this grid's, not a law: over seeds
        # 0-5 the quotient's worst is 2.1-2.4e-16 and the band's
        # 2.2-2.7e-16, and at seed 3 the quotient's is the larger.
        rng = np.random.default_rng(0)
        new = old = 0.0
        for prob in random_problems(rng, 40):
            p, r = prob.P.coeffs, prob.R.coeffs
            q = solve_polar(prob).coeffs
            new = max(new, polar_componentwise_backward_error(p, r, q))
            band = two_mode_polar_solution(prob)
            old = max(old, polar_componentwise_backward_error(p, r, band))
        assert new <= ROUNDING_LEVEL
        assert new <= old

    @pytest.mark.slow
    @pytest.mark.parametrize("k", [5, 20, 50])
    @pytest.mark.parametrize("top", [False, True])
    def test_top_of_the_accepted_range(self, k, top):
        # n = 512 and n = 1024 - k, so that n + k stays below the 1029 of
        # s_poly; each |xi| either refuses or returns Q at the rounding
        # level.
        n = 1024 - k if top else 512
        rng = np.random.default_rng(0)
        p = poly_from_roots(unit_disk(rng, n))
        returned = 0
        for xi in (0.3, 1.0, 1.5, 1.9):
            prob = PolarProblem.centered(p, xi, k)
            try:
                q = solve_polar(prob)
            except NonFiniteError:
                continue
            returned += 1
            error = polar_componentwise_backward_error(
                p.coeffs, prob.R.coeffs, q.coeffs
            )
            assert error <= ROUNDING_LEVEL
        assert returned >= 1


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

        aberth = roots._aberth

        def counted_aberth(*args):
            before = len(calls)
            out = aberth(*args)
            phases.append((before, len(calls) - before))
            return out

        monkeypatch.setattr(polar, "_Evaluator", Counting)
        monkeypatch.setattr(roots, "_aberth", counted_aberth)
        for n, k in LOCALIZE_PAIRS + BRANCH_HAZARDS[:3]:
            calls.clear()
            phases.clear()
            s_zeros(n, k)
            [(starts, sweeps)] = phases
            steps = polar._START_STEPS + polar._BRANCH_STEPS
            assert starts == (2 if k == 1 else steps), (n, k)
            assert sweeps <= 2, (n, k)


def centered_case(n, k, xi, zeros):
    """P from its zeros, the centered Q about xi and the zeros of S."""
    P = poly_from_roots(zeros)
    Q = solve_polar(PolarProblem.centered(P, xi, k))
    return P, Q, s_zeros(n, k)


# The large grid of (n, k) for q_zeros, each at |xi| = 0.3, 1.0, 1.5
# and 1.9: the starts from Z(S) are taken at all four.
Q_GRID = [(64, 50), (128, 30), (256, 16), (256, 20), (512, 5), (1024, 5)]


class TestQZeros:
    """q_zeros against find_roots(Q): the same sweeps, polish and
    result, started beyond degree 40 from Z(S) placed at Q's centroid c
    and sized so that prod(c - start_j) = Q(c), the theorem's zeros of
    Q for P = (z - p)^n."""

    def test_equality_case_settles_in_two_sweeps(self, monkeypatch):
        # P = (z - c)^n: the zeros of Q are exactly xi - (c - xi) s_j
        # over the zeros s_j of S, so the starts are the zeros, up to
        # the conditioning of the dense Q.
        n, k, c, xi = 64, 3, 0.1 + 0.2j, 1.5 + 0.3j
        P, Q, S = centered_case(n, k, xi, [c] * n)
        sweeps = []
        aberth = roots._aberth

        def counted_aberth(start, evaluate, *args):
            def counted(z):
                sweeps.append(len(z))
                return evaluate(z)

            return aberth(start, counted, *args)

        monkeypatch.setattr(roots, "_aberth", counted_aberth)
        rs = q_zeros(xi, Q, S)
        assert rs.converged
        assert len(sweeps) <= 2
        want = xi - (c - xi) * np.array(S.roots)
        tol = 1e-9 * np.abs(want).min()
        assert match_zeros(rs.roots, want, tol) <= tol

    @pytest.mark.parametrize(
        ("n", "xi", "zeros"),
        [
            (40, 1.5 + 0.3j, "disk"),  # at _EIG_MAX
            (64, 0.0, "origin"),  # Q(c) = 0: P = z^n about xi = 0
        ],
        ids=["eig_max", "d_zero"],
    )
    def test_find_roots_where_the_model_is_not_taken(self, n, xi, zeros):
        rng = np.random.default_rng(n)
        z = unit_disk(rng, n) if zeros == "disk" else np.zeros(n)
        P, Q, S = centered_case(n, 3, xi, z)
        assert q_zeros(xi, Q, S) == find_roots(Q)

    def test_model_taken_inside_the_spread(self, monkeypatch):
        # xi within the cloud of P's zeros, where the one-point model
        # xi - (p - xi) Z(S) has the wrong size: the starts sized by
        # Q(c) are taken, not the polygon's, the search converges, and
        # the containment verdict is that of find_roots(Q).
        n, k, xi = 64, 3, 0.1 - 0.05j
        zeros = unit_disk(np.random.default_rng(n), n)
        P, Q, S = centered_case(n, k, xi, zeros)
        dense = find_roots(Q)
        polygon = []
        hull = roots._hull_starts
        monkeypatch.setattr(
            roots, "_hull_starts", lambda a: polygon.append(a) or hull(a)
        )
        rs = q_zeros(xi, Q, S)
        assert not polygon and rs.converged
        region = enclosing_disk(zeros - xi)
        assert (
            localization_check(rs, xi, region, S).contained
            == localization_check(dense, xi, region, S).contained
        )

    def test_find_roots_where_q_has_a_zero_at_0(self):
        # Beyond _EIG_MAX with the model in reach, but Q(0) = 0: the
        # exact zero is split off and the rest starts from the polygon,
        # so the result is find_roots(Q) to the last bit.
        n, k, xi = 64, 3, 1.5
        zeros = unit_disk(np.random.default_rng(n), n)
        P, Q, S = centered_case(n, k, xi, zeros)
        at_zero = Polynomial(np.concatenate([[0], Q.coeffs[1:]]))
        rs = q_zeros(xi, at_zero, S)
        assert rs == find_roots(at_zero)
        assert rs.roots[0] == 0

    def test_non_finite_q_is_refused_beyond_eig_max(self):
        n, k, xi = 64, 3, 1.5
        zeros = unit_disk(np.random.default_rng(n), n)
        P, Q, S = centered_case(n, k, xi, zeros)
        for bad in (math.nan, math.inf):
            a = Q.coeffs.copy()
            a[5] = bad
            with pytest.raises(NonFiniteError):
                q_zeros(xi, Polynomial(a), S)

    def test_half_the_evaluations_and_the_same_verdicts(self, monkeypatch):
        # A guard on the work the starts from Z(S) save, counted rather
        # than timed: evaluator calls of the sweeps and the polish (19
        # from the polygon, 6 from Z(S) here, Q(c) included).  Every
        # zero lies within 4 noise/|p'|, the attainable accuracy, of
        # find_roots' zero.
        n, k, xi = 128, 3, 1.5
        zeros = unit_disk(np.random.default_rng(0), n)
        P, Q, S = centered_case(n, k, xi, zeros)
        # find_roots and q_zeros both build Q's search evaluator in
        # roots.py, and q_zeros evaluates Q(c) for its starts in
        # polar.py; every call on Q's coefficients counts.
        calls = []

        class Counting(_Evaluator):
            def __init__(self, a):
                super().__init__(a)
                self.of_q = np.array_equal(a, Q.coeffs)

            def __call__(self, z):
                if self.of_q:
                    calls.append(len(z))
                return super().__call__(z)

        monkeypatch.setattr(roots, "_Evaluator", Counting)
        monkeypatch.setattr(polar, "_Evaluator", Counting)
        dense = find_roots(Q)
        dense_calls = len(calls)
        calls.clear()
        rs = q_zeros(xi, Q, S)
        assert 0 < 2 * len(calls) <= dense_calls
        assert rs.converged == dense.converged
        region = enclosing_disk(zeros - xi)
        assert (
            localization_check(rs, xi, region, S).contained
            == localization_check(dense, xi, region, S).contained
        )
        want = np.array(dense.roots)
        _, dp, noise = _Evaluator(Q.coeffs)(want)
        moved = np.abs(np.array(rs.roots) - want)
        assert (moved <= 4 * noise / np.abs(dp)).all()

    def test_degrees_must_agree(self):
        P, Q, _ = centered_case(4, 2, 0.5, [0.1, 0.2j, -0.3, 0.4])
        with pytest.raises(ValueError):
            q_zeros(0.5, Q, s_zeros(3, 2))

    @pytest.mark.slow
    @pytest.mark.parametrize("size", [0.3, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize(("n", "k"), Q_GRID)
    def test_verdicts_on_the_large_grid(self, n, k, size):
        # Converged wherever find_roots(Q) converged, and the same
        # containment verdict.  At (256, 16) and |xi| = 1.9 find_roots
        # leaves a zero unsettled after 200 sweeps and q_zeros does not.
        zeros = unit_disk(np.random.default_rng(0), n)
        P, Q, S = centered_case(n, k, size, zeros)
        dense, rs = find_roots(Q), q_zeros(size, Q, S)
        assert rs.converged or not dense.converged
        region = enclosing_disk(zeros - size)
        assert (
            localization_check(rs, size, region, S).contained
            == localization_check(dense, size, region, S).contained
        )

    @pytest.mark.slow
    def test_forward_errors_match_find_roots(self):
        # Forward errors against Newton's limits in 50-digit mpmath on
        # the double coefficients of Q, over 20 localize-shaped cells
        # with 40 < n <= 100: the worst error of a cell moves either
        # way by up to a factor of 2.4 with the starts, and the
        # geometric mean of the ratios stays near 1.
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(20):
            n, k = int(rng.integers(41, 101)), int(rng.integers(1, 6))
            zeros = unit_disk(rng, n)
            size, angle = 2.0 * math.sqrt(rng.random()), rng.random()
            xi = size * cmath.exp(2j * math.pi * angle)
            P, Q, S = centered_case(n, k, xi, zeros)
            worst = [
                max(abs(z - newton_zero(Q.coeffs, z, 50)) for z in rs.roots)
                for rs in (find_roots(Q), q_zeros(xi, Q, S))
            ]
            ratios.append(worst[1] / worst[0])
        assert 0.8 <= math.exp(np.mean(np.log(ratios))) <= 1.25


def accuracy_draws(n):
    """Seeded zeros of P at degree n: in the unit disk, in that disk
    shifted by 0.1, and in pairs 1e-4 apart."""
    rng = np.random.default_rng(n)
    disk = unit_disk(rng, n)
    pairs = np.repeat(disk[: n // 2], 2)
    pairs[1::2] += 1e-4 * np.exp(2j * np.pi * rng.random(n // 2))
    return [disk, disk + 0.1, pairs]


class TestPolishAccuracy:
    """The one polish step leaves every zero at its attainable accuracy:
    within a small multiple of noise/|p'| of the limit of Newton's
    method in mpmath, on the double coefficients as given."""

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [8, 32, 128, 256])
    def test_zeros_of_p_and_q_within_their_noise(self, n):
        # find_roots on P and on Q, and q_zeros on Q (k = 3, xi = 1.5 +
        # 0.3i, where the starts from Z(S) are taken beyond degree
        # 40), against 60-digit limits: within 16 noise/|p'|,
        # the evaluator's attainable accuracy at the zero.  Checked
        # where that first-order estimate holds, 256 noise/|p'| below
        # the gap to the nearest other zero: at degree 256 rounding the
        # coefficients of P moves some zeros by more than their gaps,
        # and there a limit is not the zero the search aimed at.  The
        # worst ratio was 2.7 over 3252 checked zeros.
        for zeros in accuracy_draws(n):
            P, Q, S = centered_case(n, 3, 1.5 + 0.3j, zeros)
            for coeffs, rs in (
                (P.coeffs, find_roots(P)),
                (Q.coeffs, find_roots(Q)),
                (Q.coeffs, q_zeros(1.5 + 0.3j, Q, S)),
            ):
                z = np.array(rs.roots)
                _, dp, noise = _Evaluator(coeffs)(z)
                bound = noise / np.abs(dp)
                gaps = np.abs(np.subtract.outer(z, z))
                np.fill_diagonal(gaps, np.inf)
                posed = 256 * bound < gaps.min(axis=1)
                assert posed.sum() >= n // 3
                for v, b in zip(z[posed], bound[posed]):
                    assert abs(v - newton_zero(coeffs, v, 60)) <= 16 * b

    @pytest.mark.slow
    @pytest.mark.parametrize(
        ("n", "k"), [(10, 2), (63, 4), (150, 20), (64, 50)]
    )
    def test_s_zeros_within_8_eps(self, n, k):
        # Against 400-digit limits on the exact integer coefficients.
        coeffs = [math.comb(n + k, j + k) for j in range(n + 1)]
        for z in s_zeros(n, k).roots:
            limit = newton_zero(coeffs, z, 400)
            assert abs(z - limit) <= 8 * 2.0**-52 * abs(limit)


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

    def test_overflow_is_infinite_without_a_warning(self):
        # alpha_0 beta_0 = 1e600 and 2 alpha_1 beta_1 = 5e309 leave the
        # double range; the top coefficient stays 1.
        out = grace_convolve(
            Polynomial([1e300, 1e300, 1]), Polynomial([1e300, 1e10, 1])
        )
        assert np.isinf(out.coeffs[:2]).all()
        assert out.coeffs[2] == 1

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

    @pytest.mark.parametrize(
        ("p", "q", "xi"),
        [
            ([1, math.nan], [1, 1], 0.0),
            ([1, 1], [math.inf, 1], 0.0),
            ([1, 1e308, 1e308], [1, 1e308, 1e308], 1e5),
            ([1, 2e-9, 1], [1e300, 1e300, 1e300], 0.0),
            ([1, 1, 1], [1e308, 1e308, 1e308], 0.0),
        ],
        ids=["nan_p", "inf_q", "shift_overflows", "ratio_overflows",
             "factor_overflows"],
    )
    def test_non_finite_is_refused(self, p, q, xi):
        with pytest.raises(NonFiniteError):
            grace_factorize(Polynomial(p), Polynomial(q), xi)

    def test_exact_match_error_is_the_reconstruction_residual(self):
        # The error is returned unjudged; at n < 10 it stays within 1e-10.
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
            error = max_coeff_diff(rebuilt, qs) / sup_norm(qs)
            assert fact.exact_match_error == error
            assert error <= 1e-10


def operator_column(r, j):
    """Column j of the operator matrix: the coefficients of the image
    (R z^j)^(k), as apply_tr forms it."""
    return apply_tr(r, Polynomial([0] * j + [1])).coeffs


class TestOperatorMatrix:
    def test_triangular_structure(self):
        # The image of z^j has degree j and lowest term z^(j-k), so the
        # matrix is upper triangular with bandwidth k; entry (i, i+d) is
        # r_(k-d) * (i+1)_k, the z^i coefficient of (r z^(i+d))^(k), and
        # every entry outside the band is zero.
        rng = np.random.default_rng(41)
        r = sample_monic(rng, 3)
        n, k = 6, 3
        for j in range(n + 1):
            image = operator_column(r, j)
            assert len(image) == j + 1
            assert all(c == 0 for c in image[: max(j - k, 0)])
            for i in range(max(j - k, 0), j + 1):
                scale = rising_factorial(i + 1, k)
                assert image[i] == r.coeffs[k - (j - i)] * scale

    def test_determinant_in_exact_integers(self):
        # The diagonal entries are integer rising factorials even for
        # complex R, so the determinant can be compared exactly.
        rng = np.random.default_rng(43)
        for n in range(1, 13):
            for k in range(1, 6):
                r = sample_monic(rng, k)
                det = 1
                for j in range(n + 1):
                    diag = operator_column(r, j)[j]
                    assert diag.imag == 0.0
                    assert float(diag.real).is_integer()
                    det *= int(diag.real)
                expected = 1
                for j in range(n + 1):
                    expected *= rising_factorial(j + 1, k)
                assert det == expected
