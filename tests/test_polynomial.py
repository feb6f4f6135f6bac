import cmath
import math

import numpy as np
import pytest

from polarpoly.polynomial import (
    Polynomial,
    binomial_coeffs,
    derivative_k,
    from_binomial,
    from_pair,
    from_pairs,
    jsonable,
    max_coeff_diff,
    poly_from_pairs,
    poly_from_roots,
    poly_mul,
    rising_factorial,
    sup_norm,
    taylor_shift,
)
from polarpoly.roots import _Evaluator

from oracles import convolve, eval_poly, expand_roots

EPS = 2.0**-52


def coeffs_close(p, q, tol=1e-12):
    scale = max(sup_norm(p), sup_norm(q), 1.0)
    return max_coeff_diff(p, q) <= tol * scale


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Polynomial([])

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError):
            Polynomial([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            Polynomial(np.empty((0, 2)))
        with pytest.raises(ValueError):
            Polynomial(np.array(1.0))

    def test_zero_polynomial_is_single_entry(self):
        assert Polynomial([0, 0, 0]).coeffs.tolist() == [0j]
        assert Polynomial([0]).degree == 0
        assert Polynomial([0]).is_zero()

    def test_trailing_trim_exact_zeros_only(self):
        assert Polynomial([1.0, 2.0, 0.0, -0.0, 0j]).coeffs.tolist() == [1 + 0j, 2 + 0j]
        # a tiny leading coefficient is kept, however large the others
        assert Polynomial([1.0, 1e-20]).degree == 1
        assert Polynomial([1e13, 0, 1]).degree == 2
        assert Polynomial([1e300, 1e-300]).leading == 1e-300
        # a uniformly tiny polynomial is not the zero polynomial
        q = Polynomial([1e-20])
        assert not q.is_zero()

    def test_monic_predicate(self):
        assert not Polynomial([2, 4]).is_monic()
        assert Polynomial([0.5, 1]).is_monic()
        assert Polynomial([0.5, 1 + 1e-13]).is_monic()
        assert not Polynomial([0.5, 1 + 1e-11]).is_monic()

    def test_evaluation(self):
        # The one Horner evaluator, roots._Evaluator: p itself inside the
        # unit circle, z^-2 p(z) beyond it.
        a = Polynomial([1, 0, 1]).coeffs  # 1 + z^2
        p, dp, _ = _Evaluator(a)(np.array([1j, 0.5]))
        assert list(p) == [0, 1.25]
        assert list(dp) == [2j, 1]
        p, dp, _ = _Evaluator(a)(np.array([2.0]))
        assert p[0] == 5 / 4 and dp[0] == 4 / 4


class TestRepresentation:
    # The coefficients are one read-only complex128 vector that no caller
    # can change, and equality is equality of the numbers.
    def test_read_only_complex_vector(self):
        p = Polynomial([1, 2, 3])
        assert isinstance(p.coeffs, np.ndarray)
        assert p.coeffs.dtype == np.complex128 and p.coeffs.ndim == 1
        with pytest.raises(ValueError):
            p.coeffs[0] = 5
        assert p.coeffs.tolist() == [1, 2, 3]

    def test_input_is_copied(self):
        a = np.array([1.0, 2.0, 3.0 + 1j])
        p = Polynomial(a)
        a[0] = 7.0
        assert p.coeffs.tolist() == [1, 2, 3 + 1j]
        assert a.flags.writeable

    def test_signed_zero_equal_and_same_hash(self):
        negative, positive = Polynomial([-0.0, 1]), Polynomial([0.0, 1])
        assert negative == positive
        assert hash(negative) == hash(positive)
        assert Polynomial([complex(0.0, -0.0), 1]) == positive
        assert hash(Polynomial([complex(-0.0, -0.0), 1])) == hash(positive)
        # The sign is kept, though: it is part of the written output.
        assert math.copysign(1.0, negative.coeffs[0].real) == -1.0

    def test_equality_is_by_value(self):
        p = Polynomial([1, 2j, 3])
        assert p == Polynomial(np.array([1, 2j, 3, 0]))
        assert p != Polynomial([1, 2j, 3.0000000000000004])
        assert p != Polynomial([1, 2j])
        assert len({p, Polynomial([1, 2j, 3])}) == 1

    def test_repr_prints_python_complex(self):
        assert repr(Polynomial([1, 2.5 - 0.5j])) == "Polynomial([(1+0j), (2.5-0.5j)])"

    def test_json_pairs(self):
        p = Polynomial([-0.0, 1 + 2j, 1e-300])
        assert jsonable(p) == [[-0.0, 0.0], [1.0, 2.0], [1e-300, 0.0]]
        assert all(type(x) is float for pair in jsonable(p) for x in pair)
        assert math.copysign(1.0, jsonable(p)[0][0]) == -1.0


class TestAgainstScalarLoops:
    # numpy rounds complex products and orders sums differently from
    # CPython, so the array layers match the scalar loops within a bound
    # fixed from eps and the sizes of the terms, and exactly where the
    # arithmetic is the same.
    def test_poly_mul(self):
        rng = np.random.default_rng(61)
        for dp, dq in [(0, 3), (1, 1), (5, 12), (64, 64), (3, 200)]:
            a = rng.normal(size=dp + 1) + 1j * rng.normal(size=dp + 1)
            b = rng.normal(size=dq + 1) + 1j * rng.normal(size=dq + 1)
            got = poly_mul(Polynomial(a), Polynomial(b)).coeffs
            want = np.array(convolve(a, b))
            size = np.array(convolve(np.abs(a), np.abs(b))).real
            bound = 4 * (min(dp, dq) + 2) * EPS * size
            assert (np.abs(got - want) <= bound).all()

    def test_poly_from_roots(self):
        rng = np.random.default_rng(67)
        for n in (1, 2, 7, 12, 64, 256):
            roots = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
            got = poly_from_roots(roots).coeffs
            want = np.array(expand_roots(roots))
            # The coefficients of prod (z + |r|) bound every partial sum.
            size = np.array(expand_roots(-np.abs(roots))).real
            assert (np.abs(got - want) <= 8 * n * EPS * size).all()
            assert got[-1] == 1

    def test_derivative_exact(self):
        rng = np.random.default_rng(71)
        for deg, k in [(1, 1), (12, 3), (40, 5), (100, 0)]:
            a = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            got = derivative_k(Polynomial(a), k).coeffs.tolist()
            want = [
                complex(a[j + k]) * float(rising_factorial(j + 1, k))
                for j in range(deg - k + 1)
            ]
            assert got == want


class TestMul:
    def test_difference_of_squares(self):
        out = poly_mul(Polynomial([1, 1]), Polynomial([-1, 1]))
        assert out.coeffs.tolist() == [-1 + 0j, 0j, 1 + 0j]

    def test_multiplicative_identity(self):
        p = Polynomial([3, -2, 1j])
        assert poly_mul(p, Polynomial([1])) == p

    def test_small_case_with_pointwise_oracle(self):
        p, q = Polynomial([1, 2]), Polynomial([3, 4])
        out = poly_mul(p, q)
        assert out.coeffs.tolist() == [3 + 0j, 10 + 0j, 8 + 0j]
        for z in (0, 1, -1):
            assert eval_poly(out.coeffs, z) == eval_poly(
                p.coeffs, z
            ) * eval_poly(q.coeffs, z)

    def test_zero_propagates(self):
        assert poly_mul(Polynomial([0]), Polynomial([1, 2])).is_zero()

    def test_degree_adds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dp, dq = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            p = Polynomial(list(rng.normal(size=dp)) + [1.0])
            q = Polynomial(list(rng.normal(size=dq)) + [1.0])
            assert poly_mul(p, q).degree == dp + dq

    def test_large_lower_coefficients_keep_the_top(self):
        # (1e11 + z)^2 = 1e22 + 2e11 z + z^2: each factor keeps its
        # degree, but the product's leading 1 sits below 1e-12 of its
        # constant term and must still not be trimmed.
        out = poly_mul(Polynomial([1e11, 1]), Polynomial([1e11, 1]))
        assert out.degree == 2
        assert out.coeffs.tolist() == [1e22 + 0j, 2e11 + 0j, 1 + 0j]

    def test_matches_pointwise_on_unit_circle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dp, dq = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            p = Polynomial(rng.normal(size=dp + 1) + 1j * rng.normal(size=dp + 1))
            q = Polynomial(rng.normal(size=dq + 1) + 1j * rng.normal(size=dq + 1))
            out = poly_mul(p, q)
            m = 2 * (p.degree + q.degree) + 1
            for t in range(m):
                z = cmath.exp(2j * math.pi * t / m)
                want = eval_poly(p.coeffs, z) * eval_poly(q.coeffs, z)
                assert abs(eval_poly(out.coeffs, z) - want) <= 1e-10 * (
                    1 + abs(want)
                )


class TestDerivative:
    def test_power_rule(self):
        assert derivative_k(Polynomial([0, 0, 0, 1]), 1).coeffs.tolist() == [
            0j,
            0j,
            3 + 0j,
        ]

    def test_order_exceeding_degree_gives_zero(self):
        assert derivative_k(Polynomial([0, 0, 1]), 3).is_zero()

    def test_monomial_rising_factorial_scaling(self):
        # k-fold derivative of z^(n+k) is (n+1)_k z^n; at n=2, k=2 the
        # factor is 3*4 = 12.
        out = derivative_k(Polynomial([0, 0, 0, 0, 1]), 2)
        assert out.coeffs.tolist() == [0j, 0j, 12 + 0j]
        for n in range(1, 7):
            for k in range(1, 5):
                mono = Polynomial([0] * (n + k) + [1])
                out = derivative_k(mono, k)
                assert out.degree == n
                assert out.leading == rising_factorial(n + 1, k)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            derivative_k(Polynomial([1, 1]), -1)

    def test_keeps_a_tiny_top(self):
        # (1e15 z^2 + z^4)'' = 2e15 + 12 z^2: the top is 6e-15 of the
        # constant term and still the leading coefficient.
        out = derivative_k(Polynomial([0, 0, 1e15, 0, 1]), 2)
        assert out.coeffs.tolist() == [2e15 + 0j, 0j, 12 + 0j]

    def test_linearity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            deg = int(rng.integers(1, 10))
            k = int(rng.integers(0, 4))
            p = Polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            q = Polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            a, b = complex(rng.normal(), rng.normal()), complex(
                rng.normal(), rng.normal()
            )
            combo = Polynomial(
                [a * x + b * y for x, y in zip(p.coeffs, q.coeffs)]
            )
            lhs = derivative_k(combo, k)
            rhs_coeffs = [
                a * x + b * y
                for x, y in zip(
                    list(derivative_k(p, k).coeffs) + [0j] * deg,
                    list(derivative_k(q, k).coeffs) + [0j] * deg,
                )
            ]
            assert coeffs_close(lhs, Polynomial(rhs_coeffs or [0]), 1e-12)


class TestTaylorShift:
    def test_binomial_square(self):
        out = taylor_shift(Polynomial([0, 0, 1]), 1)
        assert out.coeffs.tolist() == [1 + 0j, 2 + 0j, 1 + 0j]

    def test_zero_shift_is_identity(self):
        p = Polynomial([2, -1, 3])
        assert taylor_shift(p, 0) is p

    def test_complex_center_with_pointwise_oracle(self):
        p = Polynomial([1, 0, 1])
        out = taylor_shift(p, 1j)
        assert out.coeffs.tolist() == [0j, 2j, 1 + 0j]
        for w in (0, 1, 1j):
            assert abs(eval_poly(out.coeffs, w) - eval_poly(p.coeffs, 1j + w)) <= 1e-12

    def test_leading_coefficient_unchanged(self):
        p = Polynomial([1, 2, 3, 4j])
        assert taylor_shift(p, 2 - 1j).leading == 4j

    def test_round_trip(self):
        # The intermediate polynomial is stored in doubles, so the
        # round trip loses eps times the coefficient growth of the
        # shift; a 1e-12 contract therefore needs moderate degrees and
        # centers.
        rng = np.random.default_rng(23)
        for _ in range(100):
            deg = int(rng.integers(1, 11))
            p = Polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            xi = 0.8 * math.sqrt(rng.random()) * cmath.exp(
                2j * math.pi * rng.random()
            )
            back = taylor_shift(taylor_shift(p, xi), -xi)
            assert coeffs_close(p, back, 1e-12)


class TestBinomialForm:
    def test_half_coefficient_example(self):
        assert binomial_coeffs(Polynomial([0, 1, 1])).tolist() == [0j, 0.5 + 0j, 1 + 0j]

    def test_pure_square_example(self):
        assert binomial_coeffs(Polynomial([0, 0, 1])).tolist() == [0j, 0j, 1 + 0j]

    def test_binomial_power_has_unit_coefficients(self):
        for n in range(1, 9):
            p = poly_from_roots([-1.0] * n)  # (1 + w)^n
            assert all(abs(g - 1) <= 1e-12 for g in binomial_coeffs(p))

    def test_padding_to_larger_size(self):
        gamma = binomial_coeffs(Polynomial([1, 1]), n=3)
        assert gamma.tolist() == [1 + 0j, (1 / 3) + 0j, 0j, 0j]
        with pytest.raises(ValueError):
            binomial_coeffs(Polynomial([0, 0, 1]), n=1)

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            deg = int(rng.integers(1, 31))
            p = Polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            back = from_binomial(binomial_coeffs(p))
            assert coeffs_close(p, back, 1e-12)


class TestScalars:
    def test_rising_factorial_values(self):
        assert rising_factorial(3, 1) == 3
        assert rising_factorial(5, 0) == 1
        assert rising_factorial(4, 3) == 120

    def test_rising_factorial_is_exact_integer(self):
        assert rising_factorial(13, 5) == 13 * 14 * 15 * 16 * 17
        assert isinstance(rising_factorial(31, 30), int)

    def test_rising_factorial_validation(self):
        with pytest.raises(ValueError):
            rising_factorial(0, 2)
        with pytest.raises(ValueError):
            rising_factorial(2, -1)


class TestJsonForm:
    def test_round_trip(self):
        p = Polynomial([-0.75, 0, 1])
        assert jsonable(p) == [[-0.75, 0.0], [0.0, 0.0], [1.0, 0.0]]
        assert poly_from_pairs(jsonable(p)) == p

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            "nope",
            [[1]],
            [[1, "x"]],
            [1, 2],
            [[1, 2, 3]],
            [[True, False], [1, 0]],
            [[1, None]],
            [[math.nan, 0], [1, 0]],
            [[0, -math.inf], [1, 0]],
            [[10**400, 0], [1, 0]],
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            poly_from_pairs(bad)

    def test_codec(self):
        values = [0.5 - 0j, -0.0 + 2j, 1e300 + 1e-300j]
        assert from_pairs(jsonable(values), "zero") == values
        assert from_pair([3, -1], "xi") == 3 - 1j
        assert str(from_pair([-0.0, -0.0], "xi")) == "(-0-0j)"
        with pytest.raises(ValueError, match="each zero"):
            from_pairs([[0, 0], [math.inf, 0]], "zero")


def test_poly_from_roots_expands_exactly():
    p = poly_from_roots([0.5, -0.5])
    assert p.coeffs.tolist() == [-0.25 + 0j, 0j, 1 + 0j]
    rng = np.random.default_rng(3)
    for _ in range(10):
        roots = rng.normal(size=5) + 1j * rng.normal(size=5)
        p = poly_from_roots(roots)
        assert p.is_monic()
        for r in roots:
            assert abs(eval_poly(p.coeffs, complex(r))) <= 1e-10 * sup_norm(p)
