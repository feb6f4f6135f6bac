"""Dense complex polynomial arithmetic.

Coefficients live in ascending powers: ``Polynomial([a0, a1, a2])`` is
``a0 + a1*z + a2*z**2``.  Construction trims trailing entries that are
exactly zero and nothing else, so a leading coefficient is kept however
small it is against the others; the zero polynomial is the single entry
``0``.  Callers that judge a coefficient as vanishing do so with their
own tolerance (``polar.grace_factorize``).

Combinatorial scalars (binomial coefficients, rising factorials) are
computed in exact integer arithmetic and converted to floating point at
the point of use, which keeps them cancellation-free for sizes up to
n + k of about 60.

In JSON a complex number is an ``[re, im]`` pair of finite numbers.
Every reader of that form goes through the codec at the end of this
module (``from_pair``, ``from_pairs``); ``to_pairs`` writes lists of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence

MONIC_TOL = 1e-12


class Polynomial:
    """Immutable dense polynomial over the complex numbers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex]):
        entries = [complex(c) for c in coeffs]
        if not entries:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(entries) > 1 and entries[-1] == 0:
            entries.pop()
        self.coeffs: tuple[complex, ...] = (
            (0j,) if entries == [0] else tuple(entries)
        )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> complex:
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return self.coeffs == (0j,)

    def is_monic(self, tol: float = MONIC_TOL) -> bool:
        return abs(self.leading - 1.0) <= tol

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


@dataclass(frozen=True)
class BinomialForm:
    """Coefficients gamma_j of ``p(w) = sum_j C(n, j) * gamma_j * w**j``."""

    n: int
    gamma: tuple[complex, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("binomial form size must be nonnegative")
        if len(self.gamma) != self.n + 1:
            raise ValueError(
                f"expected {self.n + 1} entries, got {len(self.gamma)}"
            )


def make_monic(p: Polynomial) -> Polynomial:
    """Divide through by the leading coefficient."""
    lead = p.leading
    if lead == 0:
        raise ValueError("cannot normalize the zero polynomial")
    if lead == 1.0:
        return p
    return Polynomial(c / lead for c in p.coeffs)


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Coefficient convolution; the zero polynomial propagates.

    The product of two nonzero factors has degree deg p + deg q: its
    leading coefficient is the product of theirs.
    """
    if p.is_zero() or q.is_zero():
        return Polynomial([0])
    out = [0j] * (p.degree + q.degree + 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


def derivative_k(p: Polynomial, k: int) -> Polynomial:
    """k-fold formal derivative; zero polynomial once k exceeds the degree."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k == 0:
        return p
    if k > p.degree:
        return Polynomial([0])
    out = [
        p.coeffs[j + k] * float(rising_factorial(j + 1, k))
        for j in range(p.degree - k + 1)
    ]
    return Polynomial(out)


def _shift_coeffs(coeffs: Sequence[complex], xi: complex) -> list[complex]:
    # Repeated synthetic division (Horner shift): after the sweep the
    # list holds the Taylor coefficients of p about xi.  O(n^2), exact
    # in structure, and it never touches the leading coefficient.
    b = list(coeffs)
    n = len(b) - 1
    for j in range(n):
        for i in range(n - 1, j - 1, -1):
            b[i] += xi * b[i + 1]
    return b


def taylor_shift(p: Polynomial, xi: complex) -> Polynomial:
    """Coefficients of ``w -> p(xi + w)``; leading coefficient unchanged."""
    xi = complex(xi)
    if xi == 0:
        return p
    return Polynomial(_shift_coeffs(p.coeffs, xi))


def binomial_coeffs(p: Polynomial, n: int | None = None) -> BinomialForm:
    """Binomial-basis coefficients gamma_j = coeff_j / C(n, j).

    ``n`` defaults to the degree of ``p``; a larger ``n`` pads with
    zeros, which is how missing coefficients are treated when two
    polynomials of different degree meet in a convolution.
    """
    deg = p.degree
    size = deg if n is None else n
    if size < deg:
        raise ValueError("binomial form size cannot be below the degree")
    gamma = tuple(
        p.coeffs[j] / float(math.comb(size, j)) if j <= deg else 0j
        for j in range(size + 1)
    )
    return BinomialForm(size, gamma)


def from_binomial(bf: BinomialForm) -> Polynomial:
    """Inverse of :func:`binomial_coeffs`."""
    return Polynomial(
        bf.gamma[j] * float(math.comb(bf.n, j)) for j in range(bf.n + 1)
    )


def rising_factorial(a: int, k: int) -> int:
    """Exact integer ``a * (a+1) * ... * (a+k-1)``; empty product is 1."""
    if a < 1:
        raise ValueError("rising factorial base must be >= 1")
    if k < 0:
        raise ValueError("rising factorial order must be >= 0")
    out = 1
    for m in range(a, a + k):
        out *= m
    return out


def poly_from_roots(roots: Iterable[complex]) -> Polynomial:
    """Monic polynomial with the given zeros (with multiplicity)."""
    acc = [1 + 0j]
    for r in roots:
        r = complex(r)
        nxt = [0j] * (len(acc) + 1)
        for i, c in enumerate(acc):
            nxt[i] -= r * c
            nxt[i + 1] += c
        acc = nxt
    return Polynomial(acc)


def sup_norm(p: Polynomial) -> float:
    return max(abs(c) for c in p.coeffs)


def max_coeff_diff(p: Polynomial, q: Polynomial) -> float:
    """Infinity norm of the coefficient-wise difference."""
    return max(
        abs(a - b)
        for a, b in zip_longest(p.coeffs, q.coeffs, fillvalue=0j)
    )


def from_number(value, what: str) -> float:
    """One JSON real: a finite number that is not a boolean."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{what} must be a finite number")


def from_pair(item, what: str) -> complex:
    """One JSON complex: a 2-element list of finite, non-bool numbers."""
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise ValueError(f"{what} must be a [re, im] pair")
    return complex(from_number(item[0], what), from_number(item[1], what))


def from_pairs(data, what: str) -> list[complex]:
    """A non-empty JSON array of complex numbers, ``what`` naming one."""
    if not isinstance(data, (list, tuple)) or not data:
        raise ValueError(f"a {what} list must be a non-empty array")
    return [from_pair(item, f"each {what}") for item in data]


def to_pairs(values: Iterable[complex]) -> list[list[float]]:
    """JSON form of complex numbers: ``[re, im]`` pairs."""
    return [[v.real, v.imag] for v in values]


def poly_to_pairs(p: Polynomial) -> list[list[float]]:
    """JSON form: ascending ``[re, im]`` pairs."""
    return to_pairs(p.coeffs)


def poly_from_pairs(data) -> Polynomial:
    """Parse the JSON form; raises ValueError on malformed input."""
    return Polynomial(from_pairs(data, "coefficient"))
