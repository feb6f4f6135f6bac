import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarpoly.errors import DegreeZeroError, EmptyRootSetError, NonFiniteError
from polarpoly import roots
from polarpoly.polar import PolarProblem, _s_form, s_poly, s_zeros, solve_polar
from polarpoly.polynomial import (
    Polynomial,
    max_coeff_diff,
    poly_from_roots,
    sup_norm,
)
from polarpoly.roots import (
    RootSet,
    _aberth,
    _Evaluator,
    _hull_starts,
    _newton_polish,
    _powers,
    _root_set,
    find_roots,
    max_modulus,
    vieta_residuals,
)

from oracles import (
    blocked_horner,
    closed_form_roots,
    compensated_horner,
    newton_zero,
    normwise_residual,
    sort_roots,
)

EPS = 2.0**-52


def sample_separated_roots(rng, count, min_dist=0.1, radius=1.5):
    while True:
        roots = [
            radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            for _ in range(count)
        ]
        if all(
            abs(a - b) >= min_dist
            for i, a in enumerate(roots)
            for b in roots[:i]
        ):
            return roots


class TestBasics:
    def test_quadratic_example(self):
        rs = find_roots(Polynomial([3, 3, 1]))
        expected = sort_roots(closed_form_roots([3, 3, 1]))
        assert rs.converged
        for got, want in zip(rs.roots, expected):
            assert abs(got - want) <= 1e-12
        assert all(abs(abs(r) - math.sqrt(3)) <= 1e-12 for r in rs.roots)

    def test_linear(self):
        rs = find_roots(Polynomial([2, 1]))
        assert rs.roots == (-2 + 0j,)
        assert rs.converged

    def test_monomial_cluster(self):
        for n in (2, 5, 9, 15):
            rs = find_roots(Polynomial([0] * n + [1]))
            assert rs.roots == (0j,) * n
            assert rs.max_residual == 0.0
            assert rs.converged

    def test_vanishing_low_coefficients_are_exact_zeros(self):
        # z^3 (z^2 + 1): three zeros exactly at 0, then -i and i.
        rs = find_roots(Polynomial([0, 0, 0, 1, 0, 1]))
        assert rs.roots[:3] == (0j,) * 3
        assert abs(rs.roots[3] + 1j) <= 1e-15
        assert abs(rs.roots[4] - 1j) <= 1e-15

    def test_constant_rejected(self):
        with pytest.raises(DegreeZeroError):
            find_roots(Polynomial([5]))

    def test_length_matches_degree(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            deg = int(rng.integers(1, 12))
            p = Polynomial(list(rng.normal(size=deg)) + [1.0])
            assert len(find_roots(p)) == deg

    def test_close_iterates_do_not_settle(self):
        # Two iterates near 1.2159-1.2569i made each other's Aberth
        # correction tiny, so both settled there with converged=True
        # while the zero -1.7252+0.2991i was missed (residual 2.0e-3).
        q = Polynomial([
            -3.4216790362517937 - 8.754639196160145j,
            5.333827118338251 + 0.6067012686139718j,
            -1.7288542264133617 + 2.5319194245550425j,
            -0.8176230193393746 - 1.5483415734801533j,
            1,
        ])
        rs = find_roots(q)
        limits = [newton_zero(q.coeffs, z, 60) for z in rs.roots]
        gaps = np.abs(np.subtract.outer(limits, limits))
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-3, "two zeros refine to the same limit"
        for z, limit in zip(rs.roots, limits):
            assert abs(z - limit) <= 1e-14 * abs(limit)
        assert rs.converged
        assert rs.max_residual <= 1e-15


class TestOrdering:
    def test_modulus_then_argument(self):
        # z^2 + 1 has the tie |i| = |-i|; the argument in (-pi, pi]
        # breaks it in favour of -i.
        rs = find_roots(Polynomial([1, 0, 1]))
        assert abs(rs.roots[0] - (-1j)) <= 1e-12
        assert abs(rs.roots[1] - 1j) <= 1e-12

    def test_negative_real_axis_sorts_last(self):
        # Argument exactly pi belongs to the top of the range.
        rs = find_roots(Polynomial([-1, 0, 1]))
        assert abs(rs.roots[0] - 1) <= 1e-12
        assert abs(rs.roots[1] - (-1)) <= 1e-12

    def test_nondecreasing_modulus(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = Polynomial(list(rng.normal(size=9)) + [1.0])
            rs = find_roots(p)
            mods = [abs(r) for r in rs.roots]
            assert mods == sorted(mods)


class TestAgainstClosedForms:
    def test_random_quadratics(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
            while abs(coeffs[2]) < 0.3:
                coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
            p = Polynomial(coeffs)
            got = find_roots(p).roots
            want = sort_roots(closed_form_roots(p.coeffs))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10

    def test_random_linears(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
            while abs(coeffs[1]) < 0.3:
                coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
            p = Polynomial(coeffs)
            got = find_roots(p).roots[0]
            assert abs(got - closed_form_roots(p.coeffs)[0]) <= 1e-12


class TestReconstruction:
    def test_separated_roots_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            deg = int(rng.integers(2, 16))
            roots = sample_separated_roots(rng, deg)
            p = poly_from_roots(roots)
            rs = find_roots(p)
            assert rs.converged
            rebuilt = poly_from_roots(rs.roots)
            assert max_coeff_diff(rebuilt, p) <= 1e-8 * sup_norm(p)

    def test_vieta_identities(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            deg = int(rng.integers(1, 16))
            p = Polynomial(list(rng.normal(size=deg)) + [1.0])
            rs = find_roots(p)
            sum_err, prod_err = vieta_residuals(p, rs)
            assert sum_err <= 1e-8
            assert prod_err <= 1e-8


class TestDeterminismAndFlags:
    def test_bit_for_bit_determinism(self):
        p = s_poly(12, 3)
        a = find_roots(p)
        b = find_roots(p)
        assert a.roots == b.roots
        assert a.max_residual == b.max_residual
        assert a.converged == b.converged

    def test_not_converged_is_reported(self):
        # Above the companion crossover: from its eigenvalues S(8, 2)
        # settles in one sweep, so it would not be cut off.
        rs = find_roots(s_poly(roots._EIG_MAX + 8, 2), max_iter=1)
        assert not rs.converged

    def test_residual_is_scaled(self):
        rs = find_roots(Polynomial([3, 3, 1]))
        assert 0.0 <= rs.max_residual <= 1e-14


class TestMaxModulus:
    def test_s_poly_2_1(self):
        assert abs(max_modulus(find_roots(s_poly(2, 1))) - math.sqrt(3)) <= 1e-12

    def test_monomial(self):
        assert max_modulus(find_roots(Polynomial([0, 0, 0, 1]))) <= 1e-6

    def test_s_poly_2_2(self):
        # w^2 + 4w + 6 has roots -2 +/- i sqrt(2), modulus sqrt(6).
        assert abs(max_modulus(find_roots(s_poly(2, 2))) - math.sqrt(6)) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyRootSetError):
            max_modulus(RootSet(roots=(), max_residual=0.0, converged=True))


def polar_q(n, seed):
    """Q = solve_polar for R = (z - xi)^k and P with n zeros uniform in
    the unit disk, |xi| <= 2 and k in 1..5, all drawn from ``seed``."""
    rng = np.random.default_rng(10 * n + seed)
    k = int(rng.integers(1, 6))
    xi = 2.0 * math.sqrt(rng.random())
    xi *= cmath.exp(2j * math.pi * rng.random())
    p = poly_from_roots(
        [
            math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            for _ in range(n)
        ]
    )
    return solve_polar(PolarProblem.centered(p, xi, k))


class TestHighDegree:
    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_polar_q_converges(self, n):
        q = polar_q(n, 0)
        rs = find_roots(q)
        assert rs.converged
        assert len(rs) == n
        assert all(cmath.isfinite(z) for z in rs.roots)
        assert normwise_residual(q.coeffs, rs.roots) <= 1e-13
        assert rs.max_residual <= 1e-13

    @pytest.mark.parametrize(("n", "seed"), [(60, 1), (128, 0)])
    def test_zeros_are_newton_limits(self, n, seed):
        # Each zero is within 1e-10 relative of the limit of Newton's
        # method from it, run to 80 digits on the coefficients of Q, and
        # the n limits are distinct, so they are all the zeros of Q.
        q = polar_q(n, seed)
        rs = find_roots(q)
        limits = [
            newton_zero(q.coeffs, z, 100 + n, digits=80) for z in rs.roots
        ]
        gaps = np.abs(np.subtract.outer(limits, limits))
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-6, "two zeros refine to the same limit"
        for z, limit in zip(rs.roots, limits):
            assert abs(z - limit) <= 1e-10 * abs(limit)


    @pytest.mark.parametrize("seed", [587, 1185])
    def test_residual_is_that_of_the_returned_zeros(self, seed):
        # The compensated step used to keep a long step on a drop of |p|
        # alone, to where every term of Q is smaller, and to report the
        # noise floor of the point it left: 3.2e-12 was reported at seed
        # 1185 (n = 192) for zeros whose residual is 1.7e-9.
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(8, 257)), int(rng.integers(1, 6))
        xi = 2 * math.sqrt(rng.random())
        xi *= cmath.exp(2j * math.pi * rng.random())
        zeros = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        q = solve_polar(PolarProblem.centered(poly_from_roots(zeros), xi, k))
        rs = find_roots(q)
        true = normwise_residual(q.coeffs, rs.roots)
        assert rs.converged
        assert true <= 1e-11
        assert true / 2 <= rs.max_residual <= 2 * true


class TestCompensatedHorner:
    """The value of find_roots' compensated step: one Horner loop up to
    16 coefficients, compensated Horner within and over blocks beyond."""

    @staticmethod
    def assert_accurate(coeffs, points):
        # Against exact rational Horner (every double is dyadic), in the
        # form (forward or reversed, per point) that find_roots uses.
        a = np.array(coeffs, dtype=np.complex128)
        n = len(a) - 1
        z = np.array(points, dtype=np.complex128)
        got = _Evaluator(a).compensated(z)
        far = np.abs(z) > 1.0
        xs = np.where(far, 1.0 / z, z)
        cols = np.where(far, a[::-1, None], a[:, None])
        for g, col, x in zip(got, cols.T, xs):
            xr, xi = Fraction(x.real), Fraction(x.imag)
            pr = pi = Fraction(0)
            for c in col[::-1]:
                pr, pi = (
                    pr * xr - pi * xi + Fraction(c.real),
                    pr * xi + pi * xr + Fraction(c.imag),
                )
            exact = abs(complex(float(pr), float(pi)))
            err = abs(
                complex(
                    float(Fraction(g.real) - pr), float(Fraction(g.imag) - pi)
                )
            )
            size = sum(abs(c) * abs(x) ** i for i, c in enumerate(col))
            assert err <= EPS * exact + n**2 * EPS**2 * size

    def test_at_zeros_of_s(self):
        # Near the zeros the terms cancel to about 1e-16 of their size;
        # |w| runs from 0.5 to 2, so both forms are taken.
        self.assert_accurate(s_poly(12, 1).coeffs, s_zeros(12, 1).roots)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_at_zeros_of_centered_q_where_the_step_fires(self, n):
        # find_roots takes the step where the attainable plain accuracy
        # noise/|p'| is poor; with |xi| = 0.6 such zeros lie on both
        # sides of |z| = 1.  Up to eight of each side.
        q = centered_q(n, n, 0.6)
        z = np.array(find_roots(q).roots)
        _, dv, noise = _Evaluator(q.coeffs)(z)
        fires = noise > 2e-11 * (1.0 + np.abs(z)) * np.abs(dv)
        for side in (np.abs(z) <= 1.0, np.abs(z) > 1.0):
            points = z[fires & side]
            assert len(points)
            self.assert_accurate(q.coeffs, points[:: -(-len(points) // 8)])

    @pytest.mark.parametrize("radius", [(0.0, 1.0), (0.2, 3.0), (1.5, 4.0)])
    def test_random_points(self, radius):
        rng = np.random.default_rng(17)
        for degree in (1, 5, 20):
            coeffs = [1.0, 1j] @ rng.normal(size=(2, degree + 1))
            mods = rng.uniform(*radius, size=12)
            points = mods * np.exp(2j * math.pi * rng.random(12))
            self.assert_accurate(coeffs, points)


def centered_q(n, seed, radius=1.5):
    """Q = solve_polar for R = (z - xi)^3 with |xi| = ``radius`` and P
    with n zeros uniform in the unit disk, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    zeros = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    xi = radius * cmath.exp(2j * math.pi * rng.random())
    return solve_polar(PolarProblem.centered(poly_from_roots(zeros), xi, 3))


def exact_derivative(coeffs, z):
    """p'(z) of the ascending coefficients in 60-digit mpmath, times
    z^-deg beyond |z| = 1: the scale in which _Evaluator reports it."""
    import mpmath

    with mpmath.workdps(60):
        w = mpmath.mpc(z)
        p = dp = mpmath.mpc(0)
        for c in coeffs[::-1]:
            dp = dp * w + p
            p = p * w + mpmath.mpc(c)
        if abs(z) > 1.0:
            dp /= w ** (len(coeffs) - 1)
        return complex(dp)


def derivative_floor(coeffs, z):
    """eps times the sum of the moduli of the terms _Evaluator's p' is
    formed from: i |a_i| |z|^(i-1) inside the unit circle; beyond it,
    where p' comes from (deg rev(x) - x rev'(x)) x at x = 1/z, |x| times
    (deg + i) |r_i| |x|^i over the reversed coefficients r."""
    n = len(coeffs) - 1
    i = np.arange(n + 1)
    if abs(z) <= 1.0:
        return EPS * (i * np.abs(coeffs) * abs(z) ** i).sum() / abs(z)
    x = 1.0 / abs(z)
    return EPS * x * ((n + i) * np.abs(coeffs[::-1]) * x**i).sum()


class TestBlockedEvaluator:
    """_Evaluator beyond 16 coefficients: Horner in y = x^b over blocks."""

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_value_within_a_noise_floor(self, n):
        # Against compensated Horner (as accurate as twice the working
        # precision), at the zeros of Q, where the terms cancel to the
        # rounding level, and 1% off them.
        q = centered_q(n, n)
        zeros = np.array(find_roots(q).roots)
        for z in (zeros, zeros * 1.01, zeros * (1 + 0.01j)):
            p, _, noise = _Evaluator(q.coeffs)(z)
            exact = compensated_horner(q.coeffs, z)
            assert (np.abs(p - exact) <= noise).all()

    @pytest.mark.parametrize("n", [17, 64, 256, 512])
    @pytest.mark.parametrize("radius", [0.6, 1.5])
    def test_compensated_matches_the_loop(self, n, radius):
        # The blocked compensated value against the one-loop reference:
        # both are within about eps |p| + n^2 eps^2 sum_i |a_i| |x|^i of
        # the exact value, at the zeros of Q, where the terms cancel,
        # and 1% off them, on both sides of |z| = 1.
        q = centered_q(n, n, radius)
        zeros = np.array(find_roots(q).roots)
        evaluate = _Evaluator(q.coeffs)
        for z in (zeros, zeros * 1.01, zeros * (1 + 0.01j)):
            got = evaluate.compensated(z)
            want = compensated_horner(q.coeffs, z)
            size = evaluate(z)[2] / (4 * EPS)
            bound = 2 * EPS * np.abs(want) + 2 * n**2 * EPS**2 * size
            assert (np.abs(got - want) <= bound).all()

    @pytest.mark.parametrize("n", [200, 512])
    def test_derivative_at_clustered_zeros(self, n):
        # p' is small at a cluster; its error is held to the rounding
        # level of the terms it is formed from.  Six zeros 1e-3 apart
        # inside the unit circle and six beyond it, the rest spread.
        rng = np.random.default_rng(n)
        ring = 1e-3 * np.exp(2j * np.pi * (np.arange(6) / 6 + 0.1))
        spread = 1.2 * np.sqrt(rng.random(n - 12))
        spread = spread * np.exp(2j * np.pi * rng.random(n - 12))
        a = poly_from_roots(
            np.concatenate([0.5 + ring, 1.4j + ring, spread])
        ).coeffs
        zeros = np.array(find_roots(Polynomial(a)).roots)
        z = np.concatenate(
            [zeros[np.argsort(np.abs(zeros - c))[:6]] for c in (0.5, 1.4j)]
        )
        _, dp, _ = _Evaluator(a)(z)
        for got, v in zip(dp, z):
            err = abs(got - exact_derivative(a, v))
            assert err <= 4 * derivative_floor(a, v)

    def test_powers_are_correctly_rounded(self):
        # A correctly rounded x^i is within half an ulp in each part,
        # so within eps/2 |x^i|; the extended products add about 2^-64
        # relative.  Fails where np.longdouble is plain double: products
        # of doubles are off by several ulps by x^32.
        import mpmath

        rng = np.random.default_rng(5)
        x = rng.uniform(0.5, 1.0, 200) * np.exp(2j * np.pi * rng.random(200))
        pw = _powers(x, 32)
        worst = 0.0
        with mpmath.workprec(300):
            for row, v in zip(pw, x):
                v = mpmath.mpc(v)
                for i, got in enumerate(row):
                    exact = v**i
                    err = abs(mpmath.mpc(got) - exact) / abs(exact)
                    worst = max(worst, float(err))
        assert worst <= 0.51 * EPS


class TestSharedPipeline:
    """The pieces find_roots and polar.s_zeros both run."""

    @pytest.mark.parametrize(
        "degree", [*range(16), 16, 17, 33, 64, 128, 256]
    )
    def test_evaluator_matches_the_six_call_loop(self, degree):
        # One Horner state, three numpy calls a step, against the loop
        # that kept value, derivative and size sums apart: the same
        # bits, in batches of one point, of one side of |z| = 1, of
        # both sides, and of none.
        rng = np.random.default_rng(41 + degree)
        a = [1.0, 1j] @ rng.normal(size=(2, degree + 1))
        mods = np.array([0.02, 0.3, 0.9, 0.999, 1.0, 1.001, 1.1, 1.9, 40.0])
        z = mods * np.exp(2j * math.pi * rng.random(len(mods)))
        evaluate = _Evaluator(a)
        for batch in (z, z[:1], z[-1:], z[mods <= 1], z[mods > 1], z[:0]):
            for got, want in zip(evaluate(batch), blocked_horner(a, batch)):
                assert got.shape == want.shape == batch.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("max_iter", [200, 2])
    def test_aberth_returns_the_values_at_its_iterates(self, max_iter):
        # p, p' and the noise floor handed to the polish are those of a
        # fresh call at the returned iterates, to the last bit, also
        # for roots cut off by max_iter, and for the form of s_zeros.
        rng = np.random.default_rng(3)
        a = [1.0, 1j] @ rng.normal(size=(2, 13))
        q = centered_q(64, 64, 0.6)
        ray = np.exp(2j * math.pi * np.arange(1, 21) / 21)
        cases = [
            (_Evaluator(a), _hull_starts(a)),
            (_Evaluator(q.coeffs), _hull_starts(q.coeffs)),
            (_s_form(20, 3)[1], 5.0 * ray - 1.0),
        ]
        with np.errstate(all="ignore"):
            for evaluate, start in cases:
                (z, *values), done = _aberth(start, evaluate, 1e-12, max_iter)
                assert done == (max_iter == 200)
                for got, want in zip(values, evaluate(z)):
                    assert got.tobytes() == want.tobytes()

    def test_find_roots_evaluates_no_iterate_twice_in_a_row(self, monkeypatch):
        # The polish starts from the values of the sweep each root
        # settled in, so a call evaluates a point the call before it
        # did only where a Newton step from that point rounds to no
        # move at all.
        calls = []

        class Counting(_Evaluator):
            def __call__(self, z):
                calls.append(z.copy())
                return super().__call__(z)

        monkeypatch.setattr(roots, "_Evaluator", Counting)
        rng = np.random.default_rng(11)
        polys = [[1.0, 1j] @ rng.normal(size=(2, n + 1)) for n in (3, 12, 40)]
        polys.append(centered_q(64, 64, 0.6).coeffs)
        for a in polys:
            calls.clear()
            find_roots(Polynomial(a))
            assert len(calls) > 2
            for before, after in zip(calls, calls[1:]):
                again = after[np.isin(after, before)]
                p, dp, _ = _Evaluator(a)(again)
                assert (again - p / dp == again).all()

    def test_overflowing_noise_floor_settles_nothing(self):
        # sum_i |a_i| |z|^i beyond the double range: the noise floor
        # reads NaN, no root settles on it, and the result says that it
        # did not converge.  An infinite floor, which every |p| is
        # below, would settle three equal zeros at modulus 0.72 here
        # (true moduli 0.48 to 0.75) and report converged=True.
        a = [
            -5.3e307 + 7.2e306j,
            3.9e307 - 6.3e307j,
            -1.3e307 - 3.4e307j,
            1.6e308 - 1.4e308j,
        ]
        assert not find_roots(Polynomial(a)).converged

    @pytest.mark.parametrize(
        "degree", [0, 1, 2, 5, 15, 16, 17, 31, 32, 33, 256, 512]
    )
    def test_evaluate_ratio_matches_polyval(self, degree):
        # p'/p does not depend on the scale _Evaluator reports p and p'
        # in, so it must match plain evaluation on both sides of |z| = 1.
        # Degree 0 is t(w) of s_zeros at k = 1.
        rng = np.random.default_rng(23 + degree)
        a = [1.0, 1j] @ rng.normal(size=(2, degree + 1))
        mods = np.array([0.3, 0.9, 0.999, 1.0, 1.001, 1.1, 1.9])
        z = mods * np.exp(2j * math.pi * rng.random(len(mods)))
        p, dp, noise = _Evaluator(a)(z)
        want = np.polyval(np.polyder(a[::-1]), z) / np.polyval(a[::-1], z)
        if degree == 0:
            assert (dp == 0).all()
            assert (want == 0).all()
        else:
            rel = np.abs(dp / p - want) / np.abs(want)
            assert rel.max() <= 1e-10
        assert (noise > 0).all()
        # Mixed sides in one call give the values of one point per call,
        # the noise floor and the compensated value to the last bit.
        evaluate = _Evaluator(a)
        compensated = evaluate.compensated(z)
        for i in range(len(z)):
            one = evaluate(z[i : i + 1])
            assert (one[0][0], one[1][0], one[2][0]) == (p[i], dp[i], noise[i])
            assert evaluate.compensated(z[i : i + 1])[0] == compensated[i]
        # No points, no values.
        empty = (*evaluate(z[:0]), evaluate.compensated(z[:0]))
        assert [v.shape for v in empty] == [(0,)] * 4

    def test_polish_rejects_step_that_raises_normwise_residual(self):
        # The step from 0 lands at 1, where |p| halves but the noise
        # floor drops a thousandfold: |p|/noise rises from 1 to 500, so
        # the step is refused although |p| alone went down.
        def evaluate(z):
            at_start = z == 0
            p = np.where(at_start, 1.0, 0.5) + 0j
            noise = np.where(at_start, 1.0, 1e-3)
            return p, np.full(z.shape, -1.0 + 0j), noise

        z0 = np.zeros(1, complex)
        z, p, dp, noise = _newton_polish(evaluate, z0, *evaluate(z0))
        assert (z[0], p[0], noise[0]) == (0, 1, 1.0)

    def test_polish_keeps_step_that_lowers_normwise_residual(self):
        # Same step, same |p| drop, but the noise floor stays: kept, and
        # only as many steps as asked for are taken.
        def evaluate(z):
            p = 0.5**z.real + 0j
            return p, np.full(z.shape, -1.0 + 0j), np.ones(z.shape)

        z0 = np.zeros(1, complex)
        z, p, _, _ = _newton_polish(evaluate, z0, *evaluate(z0), 1)
        assert (z[0], p[0]) == (1, 0.5)
        want = 0.0
        for _ in range(3):
            want += 0.5**want
        z, p, _, _ = _newton_polish(evaluate, z0, *evaluate(z0))
        assert (z[0], p[0]) == (want, 0.5**want)

    def test_polish_steps_only_points_whose_step_was_kept(self):
        # Zeros of a degree-40 polynomial, some exact to the last bit
        # (their first step is refused) and some moved off by 1e-6 to
        # 1e-3 (kept for a step or more).  A refused point would take
        # the same step again, so it is not evaluated again, and the
        # result is that of stepping every point every round.
        rng = np.random.default_rng(7)
        a = [1.0, 1j] @ rng.normal(size=(2, 41))
        zeros = np.array(find_roots(Polynomial(a)).roots)
        moved = np.arange(40) % 3 != 0
        off = 10.0 ** -rng.uniform(3, 6, 40)
        off = off * np.exp(2j * np.pi * rng.random(40))
        z0 = np.where(moved, zeros + off, zeros)
        calls = []

        def counting(v):
            calls.append(v.copy())
            return _Evaluator(a)(v)

        # Reference: every point stepped every round, from the values
        # at z0, which the polish takes and does not evaluate again.
        start = z0, *_Evaluator(a)(z0)
        want = start
        stepped = []
        live = 40
        for _ in range(3):
            stepped.append(live)
            z, pv, dv, noise = want
            cand = np.where(dv == 0, z, z - pv / np.where(dv == 0, 1.0, dv))
            pc, dc, nc = _Evaluator(a)(cand)
            kept = np.abs(pc) * noise < np.abs(pv) * nc
            want = tuple(
                np.where(kept, new, old)
                for new, old in zip((cand, pc, dc, nc), want)
            )
            live = int(kept.sum())
            if not live:
                break
        got = _newton_polish(counting, *start)
        for g, w in zip(got, want):
            assert (g == w).all()
        assert (start[0] == z0).all()
        assert 0 < stepped[1] < 40
        assert [len(v) for v in calls] == stepped

    def test_root_set_orders_and_skips_exact_zeros(self):
        # Zeros found exactly have no polish values; the residual is the
        # largest 4 eps |p| / noise of the rest.
        z = np.array([0, -1, 1j, 0.5])
        p = np.array([EPS, 0.0, 2 * EPS])
        rs = _root_set(z, p, np.full(3, 4 * EPS), True)
        assert rs.roots == (0j, 0.5, 1j, -1)
        assert rs.max_residual == 2 * EPS
        assert rs.converged
        assert _root_set(z[:1], [], [], False).max_residual == 0.0


class TestTopDegree:
    def test_s_zeros_at_the_largest_order(self):
        # t(w) has 515 coefficients here, so it runs blocked.
        rs = s_zeros(514, 515)
        assert rs.converged
        assert rs.max_residual <= 1e-15

    def test_find_roots_at_degree_800(self):
        # Every zero has residual <= 2e-15 unless it is already the
        # double nearest its zero (Newton step below eps |z|), where
        # |p'| |z| eps can exceed that: 1.8e-14 at 7 of these zeros.
        q = polar_q(800, 0)
        rs = find_roots(q)
        assert rs.converged
        z = np.array(rs.roots)
        p, dp, noise = _Evaluator(q.coeffs)(z)
        residual = 4 * EPS * np.abs(p) / noise
        grid = np.abs(p / dp) <= EPS * np.abs(z)
        assert (grid | (residual <= 2e-15)).all()


class TestNonFinite:
    """NaN or infinite coefficients are refused before any start is
    computed, so neither LAPACK nor the iteration sees them."""

    @pytest.fixture(autouse=True)
    def no_starts(self, monkeypatch):
        def refuse(a):
            raise AssertionError("a start was computed")

        monkeypatch.setattr(roots, "_starts", refuse)
        monkeypatch.setattr(roots, "_hull_starts", refuse)

    @pytest.mark.parametrize("degree", [3, 100])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, -math.inf)])
    def test_one_coefficient(self, degree, bad):
        a = np.ones(degree + 1, complex)
        a[1] = bad
        with pytest.raises(NonFiniteError) as info:
            find_roots(Polynomial(a))
        assert info.value.code == "NonFinite"

    def test_overflowed_solve_polar(self):
        # Q at n = 700, k = 20, |xi| = 1.9 has NaN coefficients; find_roots
        # used to run 200 sweeps on it (6.7 s).
        rng = np.random.default_rng(0)
        zeros = np.sqrt(rng.random(700)) * np.exp(2j * np.pi * rng.random(700))
        q = solve_polar(PolarProblem.centered(poly_from_roots(zeros), 1.9, 20))
        assert np.isnan(q.coeffs).any()
        with pytest.raises(NonFiniteError):
            find_roots(q)


def polygon_pipeline(p):
    """find_roots with the Newton-polygon starts at every degree."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_EIG_MAX", 0)
        return find_roots(p)


def assert_same_zeros(a, got, want):
    # Some zero of p lies within n (|p(z)| + noise) / |p'(z)| of any z,
    # the noise floor covering the rounding of p(z).  Every zero of each
    # set lies within the sum of two such radii of a zero of the other.
    evaluate = _Evaluator(np.asarray(a, complex))
    n = len(a) - 1

    def radii(z):
        p, dp, noise = evaluate(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.nan_to_num(n * (np.abs(p) + noise) / np.abs(dp), nan=np.inf)

    z, w = np.array(got.roots), np.array(want.roots)
    gap = np.abs(z[:, None] - w[None, :]) - radii(z)[:, None] - radii(w)
    assert (gap.min(axis=1) <= 0).all()
    assert (gap.min(axis=0) <= 0).all()


@st.composite
def low_degree_coefficients(draw):
    """Coefficients of degree 1 .. _EIG_MAX: drawn directly, with the end
    coefficients of modulus 0.25 to 4, or from zeros of modulus 0.01 to
    3, some of them repeated."""
    if draw(st.booleans()):
        ends = st.complex_numbers(min_magnitude=0.25, max_magnitude=4)
        inner = st.lists(
            st.complex_numbers(max_magnitude=4),
            max_size=roots._EIG_MAX - 1,
        )
        return np.array([draw(ends), *draw(inner), draw(ends)])
    zeros = draw(
        st.lists(
            st.complex_numbers(min_magnitude=0.01, max_magnitude=3),
            min_size=1,
            max_size=roots._EIG_MAX,
        )
    )
    repeats = draw(st.integers(0, min(len(zeros), roots._EIG_MAX - len(zeros))))
    return poly_from_roots(zeros + zeros[:repeats]).coeffs


class TestCompanionStarts:
    """Starts from the companion eigenvalues up to _EIG_MAX."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(low_degree_coefficients())
    def test_converges_where_the_polygon_starts_do(self, a):
        p = Polynomial(a)
        want = polygon_pipeline(p)
        got = find_roots(p)
        if want.converged:
            assert got.converged
            assert_same_zeros(a, got, want)

    @pytest.mark.parametrize("k", range(4, 15))
    def test_complex_pair_near_the_real_axis(self, k):
        # (z - 1)^2 + d: the zeros 1 +/- i sqrt(d), d the rounded 1 + d
        # less 1, within a few eps / sqrt(d), the conditioning of a
        # near-double zero.  The pair must not merge into one zero.
        d = (1.0 + 10.0**-k) - 1.0
        rs = find_roots(Polynomial([1.0 + d, -2.0, 1.0]))
        assert rs.converged
        want = (1 - 1j * math.sqrt(d), 1 + 1j * math.sqrt(d))
        for got, w in zip(rs.roots, want):
            assert abs(got - w) <= 4 * EPS / math.sqrt(d)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16, 24, 32, 40])
    def test_multiple_zero_and_wilkinson(self, n):
        # (z - 1)^n and prod (z - j): clusters and ill-conditioned zeros,
        # all settled with a residual at the rounding level.
        assert n <= roots._EIG_MAX
        for zeros in ([1.0] * n, np.arange(1.0, n + 1)):
            p = poly_from_roots(zeros)
            rs = find_roots(p)
            assert rs.converged
            assert rs.max_residual <= 1e-15
            assert_same_zeros(p.coeffs, rs, polygon_pipeline(p))

    def test_zeros_of_modulus_near_1e17(self):
        # 1 + 1e-200 z^12: no scale of the coefficients is near 1.  The
        # modulus is that of the double nearest 1e-200, to 30 digits.
        import mpmath

        rs = find_roots(Polynomial([1.0] + [0.0] * 11 + [1e-200]))
        assert rs.converged
        assert rs.max_residual <= 1e-15
        z = np.array(rs.roots)
        with mpmath.workdps(30):
            modulus = float(mpmath.mpf(1e-200) ** (mpmath.mpf(-1) / 12))
        assert np.abs(np.abs(z) / modulus - 1).max() <= 8 * EPS
        assert np.abs((z / np.abs(z)) ** 12 + 1).max() <= 32 * EPS

    @pytest.mark.parametrize(("n", "c"), [(30, 1e-200), (40, 1e-300)])
    def test_ends_near_the_double_range(self, n, c):
        # z^n + c: without the scaling by a power of two, LAPACK's
        # balancing stops short and the eigenvalues are off by 3e-6
        # relative at (30, 1e-200) and by a factor 4.7 at (40, 1e-300),
        # where the sweeps then end in NaN.
        import mpmath

        assert n <= roots._EIG_MAX
        rs = find_roots(Polynomial([c] + [0.0] * (n - 1) + [1.0]))
        assert rs.converged
        z = np.array(rs.roots)
        with mpmath.workdps(30):
            modulus = float(mpmath.mpf(c) ** (mpmath.mpf(1) / n))
        assert np.abs(np.abs(z) / modulus - 1).max() <= 32 * EPS
        assert np.abs((z / np.abs(z)) ** n + 1).max() <= 1e-12

    def test_tiny_zeros_are_not_settled_at_their_starts(self):
        # z^3 + 1e-60 from the polygon's starts: the absolute settle
        # test |p/p'| <= 1e-12 accepted them where they lay, 2.4% off
        # in modulus, with max_residual 6.3e-2 and converged=True.
        rs = find_roots(Polynomial([1e-60, 0.0, 0.0, 1.0]))
        assert rs.converged
        assert rs.max_residual <= 1e-15
        for z in rs.roots:
            assert abs(abs(z) - 1e-20) <= 2 * EPS * 1e-20
            assert abs((z / abs(z)) ** 3 + 1) <= 8 * EPS

    @staticmethod
    def spy_polygon(monkeypatch):
        calls = []
        hull = roots._hull_starts
        monkeypatch.setattr(
            roots, "_hull_starts", lambda a: calls.append(len(a)) or hull(a)
        )
        return calls

    def test_overflowing_companion_takes_the_polygon(self, monkeypatch):
        # -a_2 / a_4 = -1e400 is beyond the double range.
        a = [1e-100, -2e100, 1e300, -2e100, 1e-100]
        want = polygon_pipeline(Polynomial(a))
        calls = self.spy_polygon(monkeypatch)
        assert find_roots(Polynomial(a)) == want
        assert calls == [5]

    def test_lapack_failure_takes_the_polygon(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        p = s_poly(12, 3)
        want = polygon_pipeline(p)
        calls = self.spy_polygon(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        assert find_roots(p) == want
        assert calls == [13]

    def test_tiny_cluster_takes_the_polygon(self, monkeypatch):
        # Two zeros 1e-16 from 0 next to ten on the unit circle: the
        # companion eigenvalues there are rounding noise, of modulus
        # about 1e-14, where the absolute settle test accepts them
        # (max_residual 1).  The polygon's starts give 9.2e-6.
        rng = np.random.default_rng(2)
        p = poly_from_roots([1e-16, -1e-16, *np.exp(2j * np.pi * rng.random(10))])
        want = polygon_pipeline(p)
        calls = self.spy_polygon(monkeypatch)
        assert find_roots(p) == want
        assert calls == [13]

    @pytest.mark.parametrize("offset", [0, 1])
    def test_either_side_of_the_crossover(self, monkeypatch, offset):
        n = roots._EIG_MAX + offset
        q = polar_q(n, 0)
        want = polygon_pipeline(q)
        calls = self.spy_polygon(monkeypatch)
        rs = find_roots(q)
        assert calls == [n + 1] * offset
        assert rs.converged
        assert rs.max_residual <= 1e-14
        assert_same_zeros(q.coeffs, rs, want)
