import cmath
import math

import numpy as np
import pytest

from polarpoly.errors import (
    EmptyInputError,
    EmptyRootSetError,
    SZeroAtOriginError,
)
from polarpoly.polar import PolarProblem, s_poly, solve_polar
from polarpoly.polynomial import Polynomial, poly_from_roots, taylor_shift
from polarpoly.regions import (
    Region,
    enclosing_disk,
    localization_check,
    polar_zero_bound,
    region_contains,
)
from polarpoly.roots import RootSet, find_roots

from oracles import brute_force_disk


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
        assert disk.contains(1.0 + 1e-9, tol=1e-6)
        assert not disk.contains(1.1, tol=1e-6)

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

    @pytest.mark.parametrize(
        "bad",
        [
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
        ],
    )
    def test_from_dict_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Region.from_dict(bad)


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


class TestLocalizationCheck:
    def test_free_case_degenerate_region(self):
        q_zeros = find_roots(Polynomial([0, 0, 0, 1]))
        s_zeros = find_roots(s_poly(3, 2))
        report = localization_check(
            q_zeros, 0.0, Region(kind="disk", center=0j, radius=0.0), s_zeros
        )
        assert report.contained

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
