import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from polarpoly.errors import DegreeZeroError, EmptyRootSetError
from polarpoly.polar import PolarProblem, s_poly, s_zeros, solve_polar
from polarpoly.polynomial import (
    Polynomial,
    make_monic,
    max_coeff_diff,
    poly_from_roots,
    sup_norm,
)
from polarpoly.roots import (
    RootSet,
    _horner_comp,
    _oriented,
    find_roots,
    max_modulus,
    vieta_residuals,
)

from oracles import (
    closed_form_roots,
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
            assert max_coeff_diff(rebuilt, make_monic(p)) <= 1e-8 * sup_norm(p)

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
        rs = find_roots(s_poly(8, 2), max_iter=1)
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
    @staticmethod
    def assert_accurate(coeffs, points):
        # Against exact rational Horner (every double is dyadic), in the
        # form (forward or reversed, per point) that find_roots uses.
        a = np.array(coeffs, dtype=np.complex128)
        n = len(a) - 1
        cols, xs = _oriented(a, np.array(points, dtype=np.complex128))[:2]
        got = _horner_comp(cols, xs)
        cols = np.broadcast_to(cols.reshape(n + 1, -1), (n + 1, len(xs)))
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

    @pytest.mark.parametrize("radius", [(0.0, 1.0), (0.2, 3.0), (1.5, 4.0)])
    def test_random_points(self, radius):
        rng = np.random.default_rng(17)
        for degree in (1, 5, 20):
            coeffs = [1.0, 1j] @ rng.normal(size=(2, degree + 1))
            mods = rng.uniform(*radius, size=12)
            points = mods * np.exp(2j * math.pi * rng.random(12))
            self.assert_accurate(coeffs, points)
