"""Dense complex polynomial arithmetic.

Coefficients live in ascending powers: ``Polynomial([a0, a1, a2])`` is
``a0 + a1*z + a2*z**2``.  They are held as one read-only complex128
array, ``coeffs``, which every layer computes on directly.  Construction
copies its input, so a caller's array can change afterwards without
touching the polynomial, and trims trailing entries that are exactly
zero and nothing else: a leading coefficient is kept however small it
is against the others, and the zero polynomial is the single entry
``0``.  Callers that judge a coefficient as vanishing do so with their
own tolerance (``polar.grace_factorize``).  Two polynomials are equal
when their coefficients are equal as numbers, so ``-0.0`` and ``0.0``
compare, and hash, alike.

Combinatorial scalars (binomial coefficients, rising factorials) are
computed in exact integer arithmetic and converted to floating point at
the point of use, which keeps them cancellation-free for sizes up to
n + k of about 60.

In JSON a complex number is an ``[re, im]`` pair of finite numbers.
The codec at the end of this module is the one home of that form: its
readers (``from_pair``, ``from_pairs``, ``poly_from_pairs``) parse it,
``jsonable`` turns every result into a JSON tree in it, and
``json_text`` writes a tree as indented JSON text.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator

import numpy as np
from numpy.typing import ArrayLike

MONIC_TOL = 1e-12


class Polynomial:
    """Immutable dense polynomial over the complex numbers."""

    __slots__ = ("coeffs",)

    def __init__(self, values: ArrayLike):
        a = np.array(values, dtype=np.complex128)
        if a.ndim != 1 or not a.size:
            raise ValueError("coefficients must be a non-empty 1-D list")
        if a[-1] == 0:
            nonzero = a.nonzero()[0]
            a = a[: nonzero[-1] + 1] if nonzero.size else np.zeros(1, complex)
        a.setflags(write=False)
        self.coeffs: np.ndarray = a

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def leading(self) -> complex:
        return complex(self.coeffs[-1])

    def is_zero(self) -> bool:
        return self.degree == 0 and self.leading == 0

    def is_monic(self) -> bool:
        return abs(self.leading - 1.0) <= MONIC_TOL

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return a.size == b.size and bool((a == b).all())

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0 into 0.0 and changes no other value, so
        # polynomials that compare equal hash alike.
        return hash((self.coeffs + 0.0).tobytes())

    def __repr__(self) -> str:
        return f"Polynomial({[complex(c) for c in self.coeffs]!r})"


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Coefficient convolution; the zero polynomial propagates.

    The product of two nonzero factors has degree deg p + deg q: its
    leading coefficient is the product of theirs.
    """
    return Polynomial(np.convolve(p.coeffs, q.coeffs))


def derivative_k(p: Polynomial, k: int) -> Polynomial:
    """k-fold formal derivative; zero polynomial once k exceeds the degree."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k > p.degree:
        return Polynomial([0])
    n = p.degree
    scale = [float(rising_factorial(j + 1, k)) for j in range(n - k + 1)]
    return Polynomial(p.coeffs[k:] * scale)


def taylor_shift(p: Polynomial, xi: complex) -> Polynomial:
    """Coefficients of ``w -> p(xi + w)``; leading coefficient unchanged."""
    xi = complex(xi)
    if xi == 0:
        return p
    # Repeated synthetic division (Horner shift), O(n^2) scalar steps:
    # after the sweep the list holds the Taylor coefficients of p about
    # xi, and the leading coefficient is never touched.
    b = p.coeffs.tolist()
    n = len(b) - 1
    for j in range(n):
        for i in range(n - 1, j - 1, -1):
            b[i] += xi * b[i + 1]
    return Polynomial(b)


@functools.lru_cache(maxsize=64)
def binomial_row(n: int) -> np.ndarray:
    """Read-only C(n, j), j = 0..n, each rounded once from the exact
    integer; OverflowError from n = 1030 on."""
    row = np.array([float(math.comb(n, j)) for j in range(n + 1)])
    row.setflags(write=False)
    return row


def binomial_coeffs(p: Polynomial, n: int | None = None) -> np.ndarray:
    """Binomial-basis coefficients gamma_j = coeff_j / C(n, j), j = 0..n.

    They are those of ``p(w) = sum_j C(n, j) * gamma_j * w**j``.  ``n``
    defaults to the degree of ``p``; a larger ``n`` pads with zeros,
    which is how missing coefficients are treated when two polynomials
    of different degree meet in a convolution.
    """
    deg = p.degree
    size = deg if n is None else n
    if size < deg:
        raise ValueError("binomial form size cannot be below the degree")
    gamma = np.zeros(size + 1, np.complex128)
    gamma[: deg + 1] = p.coeffs / binomial_row(size)[: deg + 1]
    return gamma


def from_binomial(gamma: np.ndarray) -> Polynomial:
    """Inverse of :func:`binomial_coeffs`, with n = len(gamma) - 1."""
    return Polynomial(gamma * binomial_row(len(gamma) - 1))


def rising_factorial(a: int, k: int) -> int:
    """Exact integer ``a * (a+1) * ... * (a+k-1)``; empty product is 1."""
    if a < 1:
        raise ValueError("rising factorial base must be >= 1")
    if k < 0:
        raise ValueError("rising factorial order must be >= 0")
    return math.perm(a + k - 1, k)


def poly_from_roots(roots: ArrayLike) -> Polynomial:
    """Monic polynomial with the given zeros (with multiplicity)."""
    roots = np.asarray(roots, dtype=np.complex128)
    # acc[i + 1] holds the coefficient of z^i; acc[0] stays 0, so each
    # factor (z - r) is one slice update, c_i <- c_(i-1) - r c_i.
    acc = np.zeros(roots.size + 2, np.complex128)
    acc[1] = 1.0
    for m, r in enumerate(roots, start=2):
        acc[1 : m + 1] = acc[:m] - r * acc[1 : m + 1]
    return Polynomial(acc[1:])


def sup_norm(p: Polynomial) -> float:
    return float(np.abs(p.coeffs).max())


def coeff_diff(p: Polynomial, q: Polynomial) -> np.ndarray:
    """Coefficient-wise p - q, the shorter one padded with zeros."""
    out = np.zeros(max(p.coeffs.size, q.coeffs.size), np.complex128)
    out[: p.coeffs.size] = p.coeffs
    out[: q.coeffs.size] -= q.coeffs
    return out


def max_coeff_diff(p: Polynomial, q: Polynomial) -> float:
    """Infinity norm of the coefficient-wise difference."""
    return float(np.abs(coeff_diff(p, q)).max())


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


def poly_from_pairs(data) -> Polynomial:
    """Parse the JSON form; raises ValueError on malformed input."""
    return Polynomial(from_pairs(data, "coefficient"))


# The leaves of a JSON tree.
_SCALARS = frozenset({str, float, int, bool, type(None)})


def jsonable(value):
    """The JSON form of a result, the inverse of the readers above.

    A complex number becomes an ``[re, im]`` pair, a Polynomial its
    ascending pairs, a dataclass the dict of its fields, and arrays,
    lists, tuples and dicts are converted item by item; every other
    value is returned as it is.  Numeric arrays, and lists and tuples
    of complex numbers only, are converted by numpy in one step, and a
    list of dataclasses of one type field by field.
    """
    if isinstance(value, Polynomial):
        value = value.coeffs
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds <= _SCALARS:
            return list(value)
        if kinds == {complex}:
            value = np.array(value)
        elif len(kinds) == 1 and dataclasses.is_dataclass(kind := kinds.pop()):
            names = [f.name for f in dataclasses.fields(kind)]
            if names:
                columns = [
                    jsonable(list(map(operator.attrgetter(name), value)))
                    for name in names
                ]
                rows = map(zip, itertools.repeat(names), zip(*columns))
                return list(map(dict, rows))
    if isinstance(value, np.ndarray):
        if value.dtype == np.complex128:
            # The two parts of each entry side by side, as a view.
            pairs = np.ascontiguousarray(value).view(np.float64)
            return pairs.reshape(value.shape + (2,)).tolist()
        if value.dtype.kind in "biuf":
            return value.tolist()
        value = value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return {f.name: jsonable(getattr(value, f.name)) for f in fields}
    return value


# Every scalar of a tree in one call; the C encoder escapes any line
# break inside a string, so its output splits at its separator.
_scalars_text = json.JSONEncoder(separators=("\n", ":")).encode
# One scalar, as the key of a dict is written.
_compact = json.JSONEncoder(separators=(",", ":")).encode


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    ``value`` is a JSON tree, as ``jsonable`` gives it.  The standard
    library serves ``indent`` only from its pure-Python encoder, one
    Python step per number.  Here the tree is laid out as a template
    with ``%s`` for every scalar, dict keys included, each list of
    scalars and each list of ``[re, im]`` pairs in one step, and the
    scalars are written by the C encoder in one call.
    """
    parts: list[str] = []
    leaves: list = []
    _layout(value, "\n", parts, leaves)
    texts = _scalars_text(leaves)[1:-1].split("\n") if leaves else ()
    return "".join(parts) % tuple(texts)


def _layout(value, nl: str, parts: list[str], leaves: list) -> None:
    # Appends the template of ``value``, at the depth whose line break
    # and indent is ``nl``, to ``parts``, and its scalars to ``leaves``.
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        head = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(head + "%s: ")
            leaves.append(_key(key))
            _layout(item, inner, parts, leaves)
            head = "," + inner
        parts.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        column = _column(value, inner)
        if column is None and set(map(type, value)) == {dict}:
            column = _table(value, inner)
        if column is not None:
            template, _, flat = column
            leaves.extend(flat)
            parts.append(_rows(len(value), template, inner, nl))
            return
        head = "[" + inner
        for item in value:
            parts.append(head)
            _layout(item, inner, parts, leaves)
            head = "," + inner
        parts.append(nl + "]")
    else:
        parts.append("%s")
        leaves.append(value)


def _key(key) -> str:
    # A dict key as the standard library writes it, before quoting.
    if key is None or isinstance(key, (int, float)):
        return _compact(key)
    if not isinstance(key, str):
        raise TypeError(
            "keys must be str, int, float, bool or None, "
            f"not {type(key).__name__}"
        )
    return key


def _column(items, nl: str):
    # If the items are all scalars, or all lists of one length of
    # scalars: the template of one item at the depth of ``nl``, its
    # number of scalars and the scalars of all items in order.
    kinds = set(map(type, items))
    if kinds <= _SCALARS:
        return "%s", 1, items
    if kinds <= {list, tuple}:
        widths = set(map(len, items))
        flat = list(itertools.chain.from_iterable(items))
        if len(widths) == 1 and flat and set(map(type, flat)) <= _SCALARS:
            width = widths.pop()
            return _rows(width, "%s", nl + "  ", nl), width, flat
    return None


def _table(rows: list, nl: str):
    # As _column, for dicts with one set of keys whose values under each
    # key form a column: the dicts are laid out column by column.
    if len(set(map(frozenset, rows))) != 1 or not rows[0]:
        return None
    inner = nl + "  "
    items, cells, count = [], [], 0
    for key in sorted(rows[0]):
        column = _column(list(map(operator.itemgetter(key), rows)), inner)
        if column is None:
            return None
        template, width, flat = column
        items.append(inner + "%s: " + template)
        cells.append(zip(itertools.repeat(_key(key)), *[iter(flat)] * width))
        count += 1 + width
    # Row by row, each key followed by its scalars.
    flat = itertools.chain.from_iterable(
        itertools.chain.from_iterable(zip(*cells))
    )
    return "{" + ",".join(items) + nl + "}", count, flat


def _rows(count: int, item: str, inner: str, nl: str) -> str:
    # ``count`` copies of the template ``item`` in a JSON list, one a
    # line at the indent ``inner``, closed at ``nl``.
    return "[" + inner + ("," + inner).join([item] * count) + nl + "]"
