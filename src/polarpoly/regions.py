"""Regions of the plane and zero-localization certificates.

A Region is a disk, a half-plane, or the exterior of a disk; these are
exactly the shapes a localization region K may take.  Membership is
reported as a signed margin (nonnegative means inside) by the one
function ``region_contains``, for a point or elementwise for an array,
so callers can apply their own tolerance.  The open/closed flag is
carried as metadata and reported, but membership at margin zero is
accepted either way: floating point cannot witness a strict boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    EmptyRootSetError,
    SZeroAtOriginError,
)
from .polynomial import from_number, from_pair, jsonable
from .roots import RootSet

_WELZL_EPS = 1.0 + 1e-14

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
        object.__setattr__(self, "center", complex(self.center))
        if self.kind == "half_plane":
            mag = abs(complex(self.normal))
            if mag == 0:
                raise ValueError("half-plane normal must be non-zero")
            object.__setattr__(self, "normal", complex(self.normal) / mag)
        else:
            if self.radius < 0:
                raise ValueError("radius must be nonnegative")
            object.__setattr__(self, "radius", float(self.radius))

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "center": jsonable(self.center),
            "closed": self.closed,
        }
        if self.kind == "half_plane":
            out["normal"] = jsonable(self.normal)
        else:
            out["radius"] = self.radius
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Region":
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("region JSON must be an object with a 'kind'")
        kind = data["kind"]
        closed = data.get("closed", True)
        if not isinstance(closed, bool):
            raise ValueError("region field 'closed' must be true or false")

        def pair(name, default=None):
            return from_pair(data.get(name, default), f"region field {name!r}")

        if kind == "half_plane":
            return cls(
                kind=kind,
                center=pair("center", [0, 0]),
                normal=pair("normal"),
                closed=closed,
            )
        if kind in ("disk", "exterior_disk"):
            radius = from_number(data.get("radius"), "region field 'radius'")
            return cls(
                kind=kind,
                center=pair("center", [0, 0]),
                radius=radius,
                closed=closed,
            )
        raise ValueError(f"unknown region kind {kind!r}")


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
    center = (a + b) / 2.0
    return center, max(abs(a - center), abs(b - center))


def _circumcircle(
    a: complex, b: complex, c: complex
) -> tuple[complex, float] | None:
    # Coordinates are re-centered on the bounding box midpoint first,
    # which keeps the determinant well scaled.
    ox = (min(a.real, b.real, c.real) + max(a.real, b.real, c.real)) / 2.0
    oy = (min(a.imag, b.imag, c.imag) + max(a.imag, b.imag, c.imag)) / 2.0
    ax, ay = a.real - ox, a.imag - oy
    bx, by = b.real - ox, b.imag - oy
    cx, cy = c.real - ox, c.imag - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    y = oy + (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    center = complex(x, y)
    return center, max(abs(a - center), abs(b - center), abs(c - center))


def _circle_two_boundary(
    pts: list[complex], p: complex, q: complex
) -> tuple[complex, float]:
    circ = _diameter(p, q)
    left: tuple[complex, float] | None = None
    right: tuple[complex, float] | None = None
    pq = q - p

    def cross(v: complex) -> float:
        return pq.real * (v.imag - p.imag) - pq.imag * (v.real - p.real)

    for s in pts:
        if _in_circle(*circ, s):
            continue
        cc = _circumcircle(p, q, s)
        if cc is None:
            continue
        side = cross(s)
        d = cross(cc[0])
        if side > 0.0 and (left is None or d > cross(left[0])):
            left = cc
        elif side < 0.0 and (right is None or d < cross(right[0])):
            right = cc

    if left is None and right is None:
        return circ
    if left is None:
        return right  # type: ignore[return-value]
    if right is None:
        return left
    return left if left[1] <= right[1] else right


def _circle_one_boundary(
    pts: list[complex], p: complex
) -> tuple[complex, float]:
    center, radius = p, 0.0
    for i, q in enumerate(pts):
        if not _in_circle(center, radius, q):
            if radius == 0.0:
                center, radius = _diameter(p, q)
            else:
                center, radius = _circle_two_boundary(pts[: i + 1], p, q)
    return center, radius


def enclosing_disk(points) -> Region:
    """Minimum enclosing closed disk (Welzl, move-to-front, no shuffle).

    Deterministic for a fixed input order.  The returned radius is
    raised to the exact farthest point distance, so every input point
    has a nonnegative membership margin.
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise EmptyInputError("need at least one point")
    circle: tuple[complex, float] | None = None
    for i, p in enumerate(pts):
        if circle is None or not _in_circle(*circle, p):
            circle = _circle_one_boundary(pts[: i + 1], p)
    center, radius = circle
    radius = max(radius, max(abs(p - center) for p in pts))
    return Region(kind="disk", center=center, radius=radius, closed=True)


def localization_check(
    q_zeros: RootSet,
    xi: complex,
    region: Region,
    s_zeros: RootSet,
    tol: float = 1e-6,
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
    witnesses = tuple(
        Witness(zero, s_zeros.roots[j], complex(row[j]), float(m[j]))
        for zero, row, m, j in zip(
            q_zeros.roots, quotients, margins, margins.argmax(axis=1)
        )
    )
    chosen = np.array([w.margin for w in witnesses])
    # Adding 0.0 turns the -0.0 of a smallest margin of 0.0 into 0.0 and
    # keeps NaN.
    return LocalizationReport(
        contained=bool((chosen >= -tol).all()),
        witnesses=witnesses,
        max_violation=float(np.maximum(0.0, -chosen.min()) + 0.0),
        tol=tol,
    )


def polar_zero_bound(xi: complex, k: int) -> float:
    """Disk radius |xi| + (|xi| + 1) * (k + 1) bounding Z(Q) for R = (z-xi)^k.

    Valid for every monic P with all zeros in the closed unit disk; it
    can be arbitrarily loose (the centered monomial family keeps all
    zeros at the origin for every k).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    mag = abs(complex(xi))
    return mag + (mag + 1.0) * (k + 1)
