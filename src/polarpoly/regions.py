"""Regions of the plane and zero-localization certificates.

A Region is a disk, a half-plane, or the exterior of a disk; these are
exactly the shapes a localization region K may take.  Membership is
reported as a signed margin (nonnegative means inside) by the one
function ``region_contains``, for a point or elementwise for an array,
so callers can apply their own tolerance.  The open/closed flag is
carried as metadata and reported, but membership at margin zero is
accepted either way: floating point cannot witness a strict boundary.

``localize`` is the one chain from (P, xi, k) to a checked
containment: the command line's ``localize``, the property harness and
the golden examples all call it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    EmptyRootSetError,
    NonFiniteError,
    SZeroAtOriginError,
)
from .polar import PolarProblem, q_zeros, s_zeros, solve_polar
from .polynomial import Polynomial, from_number, from_pair, jsonable
from .roots import RootSet, find_roots

_WELZL_EPS = 1.0 + 1e-14

# How far outside K a quotient may fall and still count as contained:
# localization_check's default, localize --tol's and the harness's.
CONTAINMENT_TOL = 1e-6

REGION_KINDS = ("disk", "half_plane", "exterior_disk")


@dataclass(frozen=True)
class Region:
    """A disk, half-plane, or exterior-of-disk region.

    For half-planes ``center`` is a point on the boundary line and
    ``normal`` the outward unit normal; ``radius`` is unused.
    """

    kind: str
    center: complex = 0j
    radius: float = 0.0
    normal: complex = 1 + 0j
    closed: bool = True

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if not isinstance(self.closed, bool):
            raise ValueError("region field 'closed' must be true or false")
        object.__setattr__(self, "center", complex(self.center))
        if not cmath.isfinite(self.center):
            raise ValueError("region center must be finite")
        if self.kind == "half_plane":
            normal = complex(self.normal)
            if not (cmath.isfinite(normal) and normal):
                raise ValueError("normal must be finite and non-zero")
            try:
                mag = abs(normal)
            except OverflowError:  # a finite normal; its half is exact
                normal = complex(normal.real / 2.0, normal.imag / 2.0)
                mag = abs(normal)
            # A normal within two ulps of unit length, as normalizing
            # leaves it and to_dict writes it, is kept: dividing it by its
            # modulus again can move its last bit.
            if abs(mag - 1.0) > 2.0**-51:
                normal = normal / mag
            object.__setattr__(self, "normal", normal)
        else:
            object.__setattr__(self, "radius", float(self.radius))
            if not 0.0 <= self.radius < math.inf:
                raise ValueError("radius must be finite and nonnegative")

    def to_dict(self) -> dict:
        """The JSON form, without the field that the kind leaves unused."""
        out = jsonable(self)
        del out["radius" if self.kind == "half_plane" else "normal"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Region":
        """Read the JSON form; the constructor checks the values."""
        if not isinstance(data, dict) or data.get("kind") not in REGION_KINDS:
            raise ValueError(f"region 'kind' must be one of {REGION_KINDS}")

        def field(name, read, default=None):
            return read(data.get(name, default), f"region field {name!r}")

        center = field("center", from_pair, [0, 0])
        if data["kind"] == "half_plane":
            shape = {"normal": field("normal", from_pair)}
        else:
            shape = {"radius": field("radius", from_number)}
        closed = data.get("closed", True)
        return cls(kind=data["kind"], center=center, closed=closed, **shape)


@dataclass(frozen=True)
class Witness:
    """Best factorization of one zero: zeta = xi - alpha*beta.

    ``quotient`` is (xi - zeta) / beta, the candidate alpha; ``margin``
    is its signed membership margin in K.
    """

    zero: complex
    beta: complex
    quotient: complex
    margin: float


@dataclass(frozen=True)
class LocalizationReport:
    contained: bool
    witnesses: tuple[Witness, ...]
    max_violation: float
    tol: float


def region_contains(region: Region, z):
    """Signed membership margin; >= 0 means inside.

    disk: radius - |z - center|; half-plane: -Re(conj(normal) * (z -
    boundary point)); exterior: |z - center| - radius.  ``z`` is a
    point or an array of points; the margins have its shape.
    """
    d = np.asarray(z) - region.center
    if region.kind == "disk":
        return region.radius - np.abs(d)
    if region.kind == "half_plane":
        return -(d.real * region.normal.real + d.imag * region.normal.imag)
    return np.abs(d) - region.radius


def _in_circle(center: complex, radius: float, p: complex) -> bool:
    return abs(p - center) <= radius * _WELZL_EPS


def _diameter(a: complex, b: complex) -> tuple[complex, float]:
    # A sum of halves, which cannot overflow; halving is exact from
    # 2^-1021 on.
    center = a / 2.0 + b / 2.0
    return center, max(abs(a - center), abs(b - center))


def _circumcircle(
    a: complex, b: complex, c: complex
) -> tuple[complex, float] | None:
    # Re-centering on the bounding box midpoint (a sum of halves, which
    # cannot overflow) keeps the determinant well scaled; multiplying
    # by the power of two 2^-e that brings the largest coordinate into
    # [1/2, 1) (e from -1022 on, so that 2^-e is a double) is exact and
    # keeps the products below from overflowing or underflowing.
    ox = min(a.real, b.real, c.real) / 2.0 + max(a.real, b.real, c.real) / 2.0
    oy = min(a.imag, b.imag, c.imag) / 2.0 + max(a.imag, b.imag, c.imag) / 2.0
    ax, ay = a.real - ox, a.imag - oy
    bx, by = b.real - ox, b.imag - oy
    cx, cy = c.real - ox, c.imag - oy
    big = max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy))
    down = math.ldexp(1.0, -max(math.frexp(big)[1], -1022))
    ax, ay, bx, by = ax * down, ay * down, bx * down, by * down
    cx, cy = cx * down, cy * down
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d / down
    y = oy + (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d / down
    center = complex(x, y)
    return center, max(abs(a - center), abs(b - center), abs(c - center))


def enclosing_disk(points) -> Region:
    """Minimum enclosing closed disk (Welzl's incremental algorithm).

    Three nested loops: each point p outside the current circle resets
    it to p alone, each earlier point q outside that circle sets it to
    the circle on the diameter pq, and each point before q outside
    that one sets it to the circle through p, q and that point.  The
    circumcircle is computed in coordinates scaled by an exact power
    of two, so its products neither overflow nor underflow.

    The points are visited in the fixed stride order i*s mod n, with s
    the first integer from 0.618 n on that is coprime to n, in place of
    a random shuffle: the result is deterministic for a fixed input
    order, and sorted input, such as zeros ordered by modulus, does not
    meet a new extreme point at almost every step, as it would in its
    own order, where the search turns quadratic.  The returned radius
    is raised to the farthest point distance as ``region_contains``
    measures it, by numpy's complex modulus (np.abs, which differs from
    Python's abs in the last bit), so every input point has a
    nonnegative membership margin.  A NaN or infinite point raises
    NonFiniteError, and so do finite points for which a distance or
    the disk itself leaves the double range.
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise EmptyInputError("need at least one point")
    if not all(map(cmath.isfinite, pts)):
        raise NonFiniteError("points must be finite")
    n = len(pts)
    stride = max(1, round(0.618 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    pts = [pts[i * stride % n] for i in range(n)]
    center, radius = pts[0], 0.0
    try:
        for i, p in enumerate(pts):
            if _in_circle(center, radius, p):
                continue
            center, radius = p, 0.0
            for j, q in enumerate(pts[:i]):
                if _in_circle(center, radius, q):
                    continue
                center, radius = _diameter(p, q)
                for s in pts[:j]:
                    if not _in_circle(center, radius, s):
                        circle = _circumcircle(p, q, s)
                        if circle is not None:
                            center, radius = circle
    except OverflowError:  # a distance beyond the double range
        radius = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        radius = max(radius, float(np.abs(np.array(pts) - center).max()))
    if not (cmath.isfinite(center) and math.isfinite(radius)):
        raise NonFiniteError("the enclosing disk exceeds the double range")
    return Region(kind="disk", center=center, radius=radius, closed=True)


def localization_check(
    q_zeros: RootSet,
    xi: complex,
    region: Region,
    s_zeros: RootSet,
    tol: float = CONTAINMENT_TOL,
) -> LocalizationReport:
    """Certify that every zero of Q lies in xi - K * Z(S).

    For each zero zeta the check looks for some beta in Z(S) with
    (xi - zeta) / beta inside K (margin >= -tol); the witness records
    the best beta (the first on a tie).  A NaN margin is the best of
    its row, so its witness, ``contained`` (false) and
    ``max_violation`` (NaN) all show it.  Z(S) never meets the origin
    for genuine S inputs, so a near-zero beta signals a caller error.
    """
    if not s_zeros.roots:
        raise EmptyRootSetError("S has no zeros to divide by")
    xi = complex(xi)
    for b in s_zeros.roots:
        if abs(b) <= 1e-14:
            raise SZeroAtOriginError(
                "a zero of S sits at the origin", beta=b
            )
    if not q_zeros.roots:
        raise EmptyRootSetError("Q has no zeros to check")
    zeta = np.array(q_zeros.roots)
    with np.errstate(invalid="ignore", over="ignore"):
        quotients = (xi - zeta)[:, None] / np.array(s_zeros.roots)
    margins = region_contains(region, quotients)
    best = margins.argmax(axis=1)
    rows = np.arange(len(best))
    chosen = margins[rows, best]
    witnesses = tuple(map(
        Witness, q_zeros.roots, [s_zeros.roots[j] for j in best.tolist()],
        quotients[rows, best].tolist(), chosen.tolist(),
    ))
    # Adding 0.0 turns the -0.0 of a smallest margin of 0.0 into 0.0 and
    # keeps NaN.
    return LocalizationReport(
        contained=bool((chosen >= -tol).all()),
        witnesses=witnesses,
        max_violation=float(np.maximum(0.0, -chosen.min()) + 0.0),
        tol=tol,
    )


@dataclass(frozen=True)
class Localization:
    """What ``localize`` computed; ``p_roots`` is None unless the zeros
    of P were found for the default K."""

    problem: PolarProblem
    Q: Polynomial
    q_roots: RootSet
    s_roots: RootSet
    p_roots: RootSet | None
    region: Region
    report: LocalizationReport


def localize(
    P: Polynomial, xi: complex, k: int, zeros=None,
    region: Region | None = None, s_roots: RootSet | None = None,
    tol: float = CONTAINMENT_TOL,
) -> Localization:
    """Solve for Q about xi and certify every zero of Q in xi - K Z(S).

    The steps run in a fixed order, so a refusal is the first that
    applies: the problem checks P and the scale, then come the zeros of
    S (unless ``s_roots`` gives them), Q and its zeros.  K is ``region``
    or else the enclosing disk of ``zeros`` shifted by -xi, where
    ``zeros`` defaults to the zeros of P that ``find_roots`` gives.
    """
    problem = PolarProblem.centered(P, xi, k)
    if s_roots is None:
        s_roots = s_zeros(P.degree, k)
    Q = solve_polar(problem)
    q_roots = q_zeros(xi, Q, s_roots)
    p_roots = None
    if region is None:
        if zeros is None:
            p_roots = find_roots(P)
            zeros = p_roots.roots
        region = enclosing_disk([z - xi for z in zeros])
    report = localization_check(q_roots, xi, region, s_roots, tol=tol)
    return Localization(problem, Q, q_roots, s_roots, p_roots, region, report)


def polar_zero_bound(xi: complex, k: int) -> float:
    """Disk radius |xi| + (|xi| + 1) * (k + 1) bounding Z(Q) for R = (z-xi)^k.

    Valid for every monic P with all zeros in the closed unit disk; it
    can be arbitrarily loose (the centered monomial family keeps all
    zeros at the origin for every k).  NonFiniteError where the radius
    exceeds the double range.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    try:
        mag = abs(complex(xi))
        radius = mag + (mag + 1.0) * (k + 1)
    except OverflowError:  # |xi| or k beyond the double range
        radius = math.inf
    if not math.isfinite(radius):
        raise NonFiniteError("the disk radius exceeds the double range")
    return radius
