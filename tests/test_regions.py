import cmath
import math

import numpy as np
import pytest

from polarpoly.errors import (
    EmptyInputError,
    EmptyRootSetError,
    NonFiniteError,
    SZeroAtOriginError,
)
from polarpoly.polar import PolarProblem, s_poly, solve_polar
from polarpoly.polynomial import Polynomial, poly_from_roots, taylor_shift
from polarpoly import cli, regions, verify
from polarpoly.regions import (
    Region,
    enclosing_disk,
    localization_check,
    localize,
    polar_zero_bound,
    region_contains,
)
from polarpoly.roots import RootSet, find_roots

from oracles import (
    best_factors,
    brute_force_disk,
    per_row_localization_check,
    region_from_dict,
    region_margin,
    two_boundary_disk,
)

EPS = float(np.finfo(float).eps)
REGIONS = (
    Region(kind="disk", center=0.1 - 0.2j, radius=1.0),
    Region(kind="half_plane", center=0.3j, normal=1 + 1j),
    Region(kind="exterior_disk", center=-0.2 + 0j, radius=0.8),
)

# JSON that Region.from_dict must refuse.
MALFORMED_REGIONS = [
    {},
    {"kind": "blob"},
    {"kind": "disk", "center": [0, 0]},
    {"kind": "disk", "center": [0], "radius": 1},
    {"kind": "half_plane", "center": [0, 0]},
    {"kind": "disk", "center": [0, 0], "radius": math.nan},
    {"kind": "disk", "center": [0, 0], "radius": math.inf},
    {"kind": "disk", "center": [0, 0], "radius": True},
    {"kind": "disk", "center": [True, 0], "radius": 1},
    {"kind": "exterior_disk", "center": [math.nan, 0], "radius": 1},
    {"kind": "half_plane", "center": [0, 0], "normal": [math.inf, 0]},
    {"kind": "disk", "center": [0, 0], "radius": 1, "closed": "false"},
    {"kind": "half_plane", "normal": [1, 0], "closed": 0},
]


def random_points(rng, count, scale):
    return scale * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))


def root_set(roots):
    return RootSet(roots=tuple(roots), max_residual=0.0, converged=True)


class TestRegion:
    def test_disk_boundary_margin(self):
        disk = Region(kind="disk", center=0j, radius=2.0, closed=True)
        assert region_contains(disk, 2.0) == 0.0
        assert region_contains(disk, 1.0) == 1.0
        assert region_contains(disk, 3.0) == -1.0

    def test_half_plane_margin(self):
        # Re z <= 0: outward normal +1, boundary through the origin.
        half = Region(kind="half_plane", center=0j, normal=1 + 0j)
        assert region_contains(half, -1.0) == 1.0
        assert region_contains(half, 1j) == 0.0
        assert region_contains(half, 0.5) == -0.5

    def test_exterior_margin(self):
        ext = Region(kind="exterior_disk", center=0j, radius=1.0)
        assert region_contains(ext, 0.5) == -0.5
        assert region_contains(ext, 2.0) == 1.0

    def test_contains_uses_tolerance(self):
        disk = Region(kind="disk", center=0j, radius=1.0)
        assert region_contains(disk, 1.0 + 1e-9) >= -1e-6
        assert not region_contains(disk, 1.1) >= -1e-6

    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.kind)
    def test_array_margins_match_scalar_margins(self, region):
        z = random_points(np.random.default_rng(11), 28, 3.0).reshape(7, 4)
        margins = region_contains(region, z)
        assert margins.shape == z.shape
        for point, margin in zip(z.ravel(), margins.ravel()):
            assert margin == region_contains(region, complex(point))

    def test_validation(self):
        with pytest.raises(ValueError):
            Region(kind="square")
        with pytest.raises(ValueError):
            Region(kind="disk", radius=-1.0)
        with pytest.raises(ValueError):
            Region(kind="half_plane", normal=0j)

    def test_normal_is_normalized(self):
        region = Region(kind="half_plane", center=0j, normal=3 + 4j)
        assert abs(abs(region.normal) - 1.0) <= 1e-15

    def test_normal_whose_modulus_overflows(self):
        # |1.5e308 (1 + i)| exceeds the doubles; half the normal does
        # not, and points the same way.
        region = Region(kind="half_plane", normal=1.5e308 + 1.5e308j)
        assert region.normal == complex(0.75e308, 0.75e308) / abs(
            complex(0.75e308, 0.75e308)
        )
        assert abs(abs(region.normal) - 1.0) <= 1e-15

    def test_json_round_trip(self):
        for region in (
            Region(kind="disk", center=1 - 2j, radius=0.5, closed=False),
            Region(kind="exterior_disk", center=0j, radius=2.0),
            Region(kind="half_plane", center=1j, normal=1j),
        ):
            again = Region.from_dict(region.to_dict())
            assert again.kind == region.kind
            assert again.center == region.center
            assert again.closed == region.closed

    def test_half_plane_round_trip_keeps_every_bit(self):
        # The written normal is already of unit length; dividing it by its
        # modulus again on reading moved the last bit of 1 + 1j and of 43
        # of the 200 random normals here.
        rng = np.random.default_rng(26)
        normals = [1 + 1j, 3 + 4j, 1j, -1.0] + [
            complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-300, 300)
            for _ in range(200)
        ]
        for normal in normals:
            region = Region(kind="half_plane", center=0.5j, normal=normal)
            again = Region.from_dict(region.to_dict()).normal
            assert again.real.hex() == region.normal.real.hex()
            assert again.imag.hex() == region.normal.imag.hex()

    @pytest.mark.parametrize("bad", MALFORMED_REGIONS)
    def test_from_dict_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Region.from_dict(bad)


def valid_region_json(rng):
    """Region JSON of all three kinds, with 'closed' true, false or
    left out, a center given or left out, integer or float values,
    and half-plane normals of every scale, the overflowing one too."""
    out = []
    for kind in ("disk", "half_plane", "exterior_disk"):
        for closed in (True, False, None):
            for scale in (1e-300, 1.0, 3, 1e300, 1.5e308):
                data = {"kind": kind}
                if closed is not None:
                    data["closed"] = closed
                if scale != 3:
                    data["center"] = (rng.uniform(-1, 1, 2) * scale).tolist()
                if kind == "half_plane":
                    data["normal"] = [scale, -scale]
                else:
                    data["radius"] = scale
                out.append(data)
    return out


class TestOneCheckPerRegion:
    @pytest.mark.parametrize(
        "data", valid_region_json(np.random.default_rng(5))
    )
    def test_reads_as_before(self, data):
        region = Region.from_dict(data)
        assert region == region_from_dict(data)

    @pytest.mark.parametrize("bad", MALFORMED_REGIONS)
    def test_reference_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            region_from_dict(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_code_built_non_finite_values(self, value):
        bad = (
            dict(kind="disk", radius=value),
            dict(kind="exterior_disk", radius=value),
            dict(kind="disk", center=complex(value, 0), radius=1.0),
            dict(kind="exterior_disk", center=complex(0, value), radius=1.0),
            dict(kind="half_plane", center=complex(value, 0)),
            dict(kind="half_plane", normal=value),
            dict(kind="half_plane", normal=complex(1, value)),
        )
        for fields in bad:
            with pytest.raises(ValueError):
                Region(**fields)

    @pytest.mark.parametrize("closed", ["false", 0, None])
    def test_code_built_closed_must_be_a_bool(self, closed):
        with pytest.raises(ValueError):
            Region(kind="disk", radius=1.0, closed=closed)


class TestEnclosingDisk:
    def test_antipodal_pair(self):
        disk = enclosing_disk([0.5, -0.5])
        assert abs(disk.center) <= 1e-15
        assert abs(disk.radius - 0.5) <= 1e-15

    def test_single_point_degenerate(self):
        disk = enclosing_disk([0j])
        assert disk.center == 0j
        assert disk.radius == 0.0
        assert disk.closed

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            enclosing_disk([])

    def test_against_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(120):
            count = int(rng.integers(1, 9))
            pts = [
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                for _ in range(count)
            ]
            disk = enclosing_disk(pts)
            center, radius = brute_force_disk(pts)
            assert abs(disk.radius - radius) <= 1e-9 * (1 + radius)
            assert abs(disk.center - center) <= 1e-7 * (1 + radius)

    def test_all_points_contained(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            count = int(rng.integers(1, 12))
            pts = [
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                for _ in range(count)
            ]
            disk = enclosing_disk(pts)
            for p in pts:
                assert region_contains(disk, p) >= -1e-12 * (1 + disk.radius)

    def test_every_point_has_a_nonnegative_margin(self):
        # The promise with no tolerance: the radius is the largest
        # distance as region_contains measures it (np.abs).  Raised by
        # Python's abs (libm hypot) instead, some point of 644 of these
        # 3000 sets lay outside by up to 2.5e-16 of the radius.
        rng = np.random.default_rng(0)
        for _ in range(3000):
            n = rng.integers(2, 60)
            z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (
                10 ** rng.uniform(-3, 3)
            )
            disk = enclosing_disk(z)
            assert (region_contains(disk, z) >= 0.0).all()

    def test_sorted_input_stays_linear(self, monkeypatch):
        # Points sorted by modulus, the order find_roots returns zeros
        # in: visited in that order, nearly every point is a new extreme
        # and the search refits a two-point circle, which starts from
        # the circle on a diameter, at almost every step (9311 refits for
        # the centered points here; 83, 27 and 13 for the three sets in
        # stride order).
        calls = []
        refit = regions._diameter

        def counting(*args):
            calls.append(1)
            return refit(*args)

        monkeypatch.setattr(regions, "_diameter", counting)
        rng = np.random.default_rng(3)
        for n, shift in ((256, 0.0), (256, 5.0), (20, 0.0)):
            pts = np.sqrt(rng.uniform(size=n)) * np.exp(
                2j * np.pi * rng.uniform(size=n)
            )
            pts = sorted(pts + shift, key=abs)
            calls.clear()
            disk = enclosing_disk(pts)
            assert len(calls) <= n
            margins = region_contains(disk, np.array(pts))
            assert (margins >= -1e-12 * (1 + disk.radius)).all()
            if n <= 20:
                center, radius = brute_force_disk(pts)
                assert abs(disk.radius - radius) <= 1e-9 * (1 + radius)

    def test_matches_two_boundary_reference(self):
        # The same (center, radius), bit for bit, as the search that
        # ranked circumcircles left and right of each pair.
        rng = np.random.default_rng(19)
        sets = []
        for n in (1, 2, 3, 4, 5, 6, 8, 12, 20, 45, 64, 128, 256):
            for _ in range(8 if n <= 64 else 3):
                pts = np.sqrt(rng.uniform(size=n)) * np.exp(
                    2j * np.pi * rng.uniform(size=n)
                )
                shift = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                sets += [
                    list(pts),
                    sorted(pts, key=abs),
                    sorted(pts + shift, key=abs),
                ]
            sets += [
                [cmath.exp(2j * math.pi * m / n) for m in range(n)],
                [cmath.exp(2j * math.pi * m / (n + 1)) - 1
                 for m in range(1, n + 1)],
                [complex(t, 0.5 * t) for t in rng.uniform(-1, 1, n)],
                [complex(t, t) for t in range(n)],
                [complex(rng.uniform(), rng.uniform())] * n,
            ]
        for pts in sets:
            disk = enclosing_disk(pts)
            assert (disk.center, disk.radius) == two_boundary_disk(pts)

    def test_exact_tie_checked_by_brute_force(self):
        # Four points on one circle about 0.1 - 0.1j: the two searches
        # keep different defining triples, and the centers differ in
        # the last bit.  Such ties are held to the brute-force disk.
        pts = [0.5 + 0.1j, 0.3 - 0.5j, -0.3 + 0.1j, 0.3 + 0.3j]
        disk = enclosing_disk(pts)
        assert (disk.center, disk.radius) != two_boundary_disk(pts)
        center, radius = brute_force_disk(pts)
        assert abs(disk.radius - radius) <= 1e-15
        assert abs(disk.center - center) <= 1e-15

    @pytest.mark.parametrize("e", [-1000, -600, 345, 1000])
    def test_power_of_two_scaling_is_exact(self, e):
        # Far from 1 the circumcircle's cubes would overflow or
        # underflow; scaled by a power of two, they do not.
        scale = 2.0**e
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            pts = random_points(rng, n, 1.0)
            disk = enclosing_disk(pts)
            scaled = enclosing_disk(pts * scale)
            assert scaled.center == disk.center * scale
            assert scaled.radius == disk.radius * scale
        # The three cube roots of unity need all three points.
        roots = [scale * cmath.exp(2j * math.pi * m / 3) for m in range(3)]
        assert enclosing_disk(roots).radius <= scale * (1 + 1e-15)

    def test_subnormal_triangle(self):
        # All three points within 2^-1022 of each other, where the
        # power of two that would scale them up is beyond the doubles.
        scale = 2.0**-1060
        roots = [scale * cmath.exp(2j * math.pi * m / 3) for m in range(3)]
        assert enclosing_disk(roots).radius <= scale * (1 + 1e-3)

    @pytest.mark.parametrize(
        "pts",
        [[math.nan, 1], [1, math.nan], [0.5, complex(math.inf, 0)]],
        ids=["nan_first", "nan_last", "inf"],
    )
    def test_non_finite_rejected(self, pts):
        with pytest.raises(NonFiniteError) as info:
            enclosing_disk(pts)
        assert info.value.code == "NonFinite"

    def test_distance_beyond_the_double_range(self):
        # Finite points 2.3e308 apart: |p - q| exceeds the doubles, and
        # Python's complex abs raised OverflowError.
        with pytest.raises(NonFiniteError) as info:
            enclosing_disk([1.5e308, 1.6e308 + 1e308j, 1.7e308j])
        assert info.value.code == "NonFinite"

    def test_circumcircle_midpoint_near_the_top_of_the_range(self):
        # The sum of the bounding box's ends, 2.6e308 and 2.7e308,
        # overflows; the sum of their halves does not.
        a, b, c = 1.5e308, 1.6e308 + 0.1e308j, 1e308 + 1.7e308j
        center, radius = regions._circumcircle(a, b, c)
        assert cmath.isfinite(center) and math.isfinite(radius)
        # The same triangle at 2^-1000 gives the same circle, scaled.
        down = 2.0**-1000
        small = regions._circumcircle(a * down, b * down, c * down)
        assert abs(center * down - small[0]) <= 1e-14 * radius * down
        assert abs(radius * down - small[1]) <= 1e-14 * radius * down

    def test_circumcircle_of_collinear_points(self):
        # Three points on a line have no circumcircle.
        assert regions._circumcircle(0, 1, 2) is None

    def test_diameter_midpoint_near_the_top_of_the_range(self):
        # 1.6e308 + 1.5e308 overflows; the disk on the two points as a
        # diameter does not.
        disk = enclosing_disk([1.6e308, 1.5e308])
        assert disk.center == 1.55e308
        assert disk.radius == pytest.approx(5e306, rel=1e-14)


class TestLocalizationCheck:
    def test_free_case_degenerate_region(self):
        # Q = z^n and xi = 0: every quotient is 0 and so is every margin,
        # and max_violation is 0.0, not -0.0.  (n, k) = (1, 1) is
        # `localize --P-roots [[0,0]] --xi 0 --k 1`.
        for n, k in ((3, 2), (1, 1)):
            q_zeros = find_roots(Polynomial([0] * n + [1]))
            s_zeros = find_roots(s_poly(n, k))
            region = Region(kind="disk", center=0j, radius=0.0)
            report = localization_check(q_zeros, 0.0, region, s_zeros)
            assert report.contained
            assert math.copysign(1.0, report.max_violation) == 1.0

    def test_worked_boundary_case(self):
        q_zeros = find_roots(Polynomial([-0.75, 0, 1]))
        s_zeros = find_roots(s_poly(2, 1))
        region = Region(kind="disk", center=0j, radius=0.5)
        report = localization_check(q_zeros, 0.0, region, s_zeros, tol=1e-6)
        assert report.contained
        assert all(abs(w.margin) <= 1e-8 for w in report.witnesses)

    def test_far_zero_not_contained(self):
        q_zeros = RootSet(roots=(10 + 0j,), max_residual=0.0, converged=True)
        s_zeros = find_roots(s_poly(2, 1))
        region = Region(kind="disk", center=0j, radius=0.5)
        report = localization_check(q_zeros, 0.0, region, s_zeros, tol=1e-6)
        assert not report.contained
        assert report.max_violation > 1.0

    def test_witnesses_record_best_beta(self):
        q_zeros = find_roots(Polynomial([-0.75, 0, 1]))
        s_zeros = find_roots(s_poly(2, 1))
        region = Region(kind="disk", center=0j, radius=0.5)
        report = localization_check(q_zeros, 0.0, region, s_zeros)
        for w in report.witnesses:
            assert any(abs(w.beta - b) <= 1e-12 for b in s_zeros.roots)
            assert abs(w.quotient - (0.0 - w.zero) / w.beta) <= 1e-12

    def test_nan_zero_of_q_is_reported(self):
        q_zeros = root_set([complex(math.nan, 0.0)])
        s_zeros = root_set([-1.5 + 0.8j, -0.5 - 0.2j])
        report = localization_check(
            q_zeros, 0.0, Region(kind="disk", radius=1.0), s_zeros
        )
        assert not report.contained
        assert math.isnan(report.witnesses[0].margin)
        assert math.isnan(report.max_violation)

    def test_nan_zero_of_s_is_reported(self):
        # The NaN beta is not the first one, so a strict ">" scan that
        # starts from the finite beta never picks it.
        q_zeros = root_set([0.1 + 0j])
        s_zeros = root_set([-1.5 + 0.8j, complex(math.nan, 0.0)])
        report = localization_check(
            q_zeros, 0.0, Region(kind="disk", radius=1.0), s_zeros
        )
        assert not report.contained
        assert cmath.isnan(report.witnesses[0].beta)
        assert math.isnan(report.witnesses[0].margin)
        assert math.isnan(report.max_violation)

    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.kind)
    @pytest.mark.parametrize(
        "shape", [(1, 1), (5, 3), (256, 261)], ids=lambda s: f"{s[0]}x{s[1]}"
    )
    def test_matches_pair_by_pair_reference(self, region, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        q_roots = [complex(z) for z in random_points(rng, shape[0], 2.0)]
        s_roots = [complex(b) for b in random_points(rng, shape[1], 3.0)]
        xi, tol = 0.7 - 0.4j, 1e-6
        report = localization_check(
            root_set(q_roots), xi, region, root_set(s_roots), tol=tol
        )

        def margin(z):
            return region_margin(
                region.kind, region.center, region.radius, region.normal, z
            )

        want = best_factors(q_roots, xi, s_roots, margin)
        assert len(report.witnesses) == len(want)
        for w, zeta, (j, quotient, m) in zip(report.witnesses, q_roots, want):
            assert w.zero == zeta
            assert w.beta == s_roots[j]
            assert abs(w.quotient - quotient) <= 4 * EPS * abs(quotient)
            assert abs(w.margin - m) <= 4 * EPS * (1 + abs(quotient))
        assert report.contained == all(m >= -tol for _, _, m in want)

    def test_s_zero_at_origin_rejected(self):
        q_zeros = find_roots(Polynomial([0, 1]))
        bad = RootSet(roots=(0j, 1 + 0j), max_residual=0.0, converged=True)
        with pytest.raises(SZeroAtOriginError):
            localization_check(
                q_zeros, 0.0, Region(kind="disk", radius=1.0), bad
            )

    def test_empty_s_rejected(self):
        q_zeros = find_roots(Polynomial([0, 1]))
        empty = RootSet(roots=(), max_residual=0.0, converged=True)
        with pytest.raises(EmptyRootSetError):
            localization_check(
                q_zeros, 0.0, Region(kind="disk", radius=1.0), empty
            )

    def test_shrinking_tol_never_rescues_containment(self):
        q_zeros = find_roots(Polynomial([-0.75, 0, 1]))
        s_zeros = find_roots(s_poly(2, 1))
        # A slightly-too-small disk leaves margins just below zero.
        region = Region(kind="disk", center=0j, radius=0.5 - 1e-7)
        tols = [1e-4, 1e-6, 1e-8, 1e-10]
        results = [
            localization_check(q_zeros, 0.0, region, s_zeros, tol=t).contained
            for t in tols
        ]
        for earlier, later in zip(results, results[1:]):
            assert earlier or not later

    def test_random_unit_disk_instances_contained(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            n = int(rng.integers(2, 13))
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
            region = enclosing_disk([z - xi for z in zeros])
            report = localization_check(
                find_roots(q), xi, region, find_roots(s_poly(n, k)), tol=1e-6
            )
            assert report.contained


def report_bytes(report):
    # Every number of a report as bytes, so that NaN and -0.0 compare.
    numbers = [report.contained, report.max_violation, report.tol]
    for w in report.witnesses:
        numbers += [w.zero, w.beta, w.quotient, w.margin]
    return np.array(numbers, dtype=np.complex128).tobytes()


class TestWitnessReadOut:
    """localization_check reads each witness from its matrices once;
    the per-row construction it replaced is the reference, bit for
    bit."""

    def check(self, q_roots, xi, region, s_roots, tol=1e-6):
        q, s = root_set(q_roots), root_set(s_roots)
        got = localization_check(q, xi, region, s, tol=tol)
        want = per_row_localization_check(q, xi, region, s, tol=tol)
        assert report_bytes(got) == report_bytes(want)
        for w in got.witnesses:
            assert type(w.beta) is complex and type(w.margin) is float
        return got

    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.kind)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_margins(self, region, seed):
        rng = np.random.default_rng(400 + seed)
        for rows, cols in [(1, 1), (3, 7), (40, 45)]:
            q_roots = [complex(z) for z in random_points(rng, rows, 2.0)]
            s_roots = [complex(b) for b in random_points(rng, cols, 3.0)]
            self.check(q_roots, 0.7 - 0.4j, region, s_roots)

    def test_tied_margins(self):
        # About the origin every beta of modulus 1 gives the same
        # margin, so each row is one tie, won by the first beta; the
        # margin of 0.0 comes out unsigned in max_violation.
        s_roots = [1 + 0j, -1 + 0j, 1j, -1j]
        for radius in (0.25, 0.5, 1.0):
            report = self.check(
                [0.5 + 0j, -0.5j, 0.3 + 0.4j], 0.0,
                Region(kind="disk", center=0j, radius=radius), s_roots,
            )
            assert all(w.beta == s_roots[0] for w in report.witnesses)
            assert math.copysign(1.0, report.max_violation) == 1.0
        assert report.contained

    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.kind)
    def test_nan_margins(self, region):
        nan = complex(math.nan, 0.0)
        report = self.check(
            [0.1 + 0j, nan, -0.3 + 0.2j], 0.2j, region,
            [-1.5 + 0.8j, nan, 0.5 - 0.2j],
        )
        assert not report.contained
        assert math.isnan(report.max_violation)
        assert all(math.isnan(w.margin) for w in report.witnesses)


class TestLocalize:
    P = poly_from_roots([0.5, -0.25 + 0.25j, 0.1 - 0.3j])
    XI = 0.5 + 0j

    def test_default_region_is_the_disk_of_the_found_zeros(self):
        loc = localize(self.P, self.XI, 2)
        shifted = [z - self.XI for z in loc.p_roots.roots]
        assert loc.region == enclosing_disk(shifted)
        assert loc.report.contained

    def test_given_zeros_or_region_find_no_zeros_of_p(self):
        zeros = [0.5, -0.25 + 0.25j, 0.1 - 0.3j]
        loc = localize(self.P, self.XI, 2, zeros)
        assert loc.p_roots is None
        assert loc.region == enclosing_disk([z - self.XI for z in zeros])
        region = Region(kind="disk", radius=2.0)
        loc = localize(self.P, self.XI, 2, region=region)
        assert (loc.p_roots, loc.region) == (None, region)

    def test_given_zeros_of_s_are_reused(self):
        s_roots = localize(self.P, self.XI, 2).s_roots
        assert localize(self.P, self.XI, 2, s_roots=s_roots).s_roots is s_roots

    def test_the_command_line_and_the_harness_chain_no_step_themselves(self):
        # Every chain from (P, xi, k) to a checked containment goes
        # through localize, so a change to one step lands on both sides.
        for module in (cli, verify):
            for name in ("q_zeros", "enclosing_disk", "localization_check"):
                assert not hasattr(module, name), (module.__name__, name)


class TestPolarZeroBound:
    def test_values(self):
        assert polar_zero_bound(0.0, 1) == 2.0
        assert polar_zero_bound(1.0, 2) == 7.0

    def test_free_case_is_loose(self):
        for k in range(1, 6):
            bound = polar_zero_bound(0.0, k)
            assert bound == k + 1
            q = solve_polar(
                PolarProblem.centered(Polynomial([0, 0, 0, 1]), 0.0, k)
            )
            assert all(abs(r) <= 1e-6 for r in find_roots(q).roots)

    def test_validation(self):
        with pytest.raises(ValueError):
            polar_zero_bound(0.0, 0)

    @pytest.mark.parametrize(
        ("xi", "k"), [(1e308, 10), (0.0, 10**400), (1.5e308 + 1.5e308j, 1)]
    )
    def test_radius_beyond_the_double_range(self, xi, k):
        with pytest.raises(NonFiniteError):
            polar_zero_bound(xi, k)

    def test_bounds_random_instances(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            n = int(rng.integers(2, 13))
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
            bound = polar_zero_bound(xi, k)
            for r in find_roots(q).roots:
                assert abs(r) <= bound + 1e-8
