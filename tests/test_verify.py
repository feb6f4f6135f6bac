import json

import numpy as np
import pytest

from polarpoly.polynomial import (
    Polynomial,
    jsonable,
    poly_from_roots,
    rising_factorial,
    sup_norm,
)
from polarpoly.polar import PolarProblem, solve_polar
from polarpoly.verify import (
    CaseInstance,
    SuiteConfig,
    case_metrics,
    replay_case,
    reproduce_paper_examples,
    residual_norm,
    run_property_suite,
    sample_case,
)


class TestResidualNorm:
    def test_exact_solution_has_zero_residual(self):
        out = residual_norm(
            Polynomial([-0.25, 0, 1]),
            Polynomial([0, 1]),
            Polynomial([-0.75, 0, 1]),
        )
        assert out == 0.0

    def test_wrong_solution_measured(self):
        # d/dz(z^3 + z^2) = 3z^2 + 2z differs from 3z^2 by 2z.
        out = residual_norm(
            Polynomial([0, 0, 1]), Polynomial([0, 1]), Polynomial([0, 1, 1])
        )
        assert out == 2.0

    def test_free_case(self):
        for n in range(1, 6):
            for k in range(1, 4):
                mono = Polynomial([0] * n + [1])
                r = Polynomial([0] * k + [1])
                assert residual_norm(mono, r, mono) == 0.0

    def test_catches_corrupted_solver_output(self):
        p = poly_from_roots([0.4, -0.3 + 0.2j, 0.1j])
        q = solve_polar(PolarProblem.centered(p, 0.5, 2))
        corrupted = Polynomial(
            list(q.coeffs[:-1]) + [q.coeffs[-1] + 1e-3]
        )
        scale = float(rising_factorial(p.degree + 1, 2)) * sup_norm(p)
        assert residual_norm(p, poly_from_roots([0.5, 0.5]), q) <= 1e-9 * scale
        assert (
            residual_norm(p, poly_from_roots([0.5, 0.5]), corrupted)
            > 1e-9 * scale
        )


class TestSuiteConfig:
    def test_defaults(self):
        cfg = SuiteConfig()
        assert cfg.cases == 500
        assert cfg.seed == 42
        assert cfg.n_range == (2, 12)
        assert cfg.k_range == (1, 5)
        assert cfg.zero_sampler == "unit_disk"
        assert cfg.residual_tol == 1e-9
        assert cfg.equivalence_tol == 1e-10
        assert cfg.containment_tol == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_range": (5, 2)},
            {"n_range": (0, 3)},
            {"k_range": (0, 2)},
            {"cases": 0},
            {"zero_sampler": "gaussian"},
            {"zero_sampler": "grid", "grid_points": ()},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SuiteConfig(**kwargs)


class TestRunPropertySuite:
    def test_small_run_passes_everything(self):
        report = run_property_suite(SuiteConfig(cases=60, seed=11))
        assert report.all_passed
        for prop in report.properties:
            assert prop.cases == 60
            assert prop.failures == 0
        names = {p.name for p in report.properties}
        assert names == {
            "residual",
            "path_equivalence",
            "convolution_identity",
            "localization",
            "remark_bound",
            "s_radius",
            "factorize_roundtrip",
        }

    def test_seed_determinism_byte_identical(self):
        cfg = SuiteConfig(cases=40, seed=42)
        assert run_property_suite(cfg).to_json() == run_property_suite(cfg).to_json()

    def test_different_seeds_differ(self):
        a = run_property_suite(SuiteConfig(cases=40, seed=1)).to_json()
        b = run_property_suite(SuiteConfig(cases=40, seed=2)).to_json()
        assert a != b

    def test_report_serializes_to_json(self):
        report = run_property_suite(SuiteConfig(cases=10, seed=3))
        parsed = json.loads(report.to_json())
        assert parsed["generator"] == "numpy-pcg64"
        assert parsed["seed"] == 3
        assert parsed["all_passed"] is True

    def test_annulus_sampler(self):
        report = run_property_suite(
            SuiteConfig(cases=30, seed=5, zero_sampler="annulus")
        )
        assert report.all_passed

    def test_grid_sampler_all_zeros_at_origin(self):
        # Degenerate lattice {0}: every instance is a centered monomial,
        # so the suite reduces to the free case and must pass.
        report = run_property_suite(
            SuiteConfig(
                cases=25, seed=9, zero_sampler="grid", grid_points=(0j,)
            )
        )
        assert report.all_passed

    def test_failing_cases_dump_and_replay(self):
        # An impossible tolerance forces failures; each dump must be a
        # self-contained instance whose replay reproduces the observed
        # value exactly.
        cfg = SuiteConfig(cases=8, seed=13, residual_tol=0.0)
        report = run_property_suite(cfg)
        prop = report.property_by_name("residual")
        assert prop.failures == 8
        assert len(prop.failing) == 8
        for dump in prop.failing:
            metrics = replay_case(dump["instance"])
            assert metrics["residual_rel"] == dump["observed"]
            assert metrics["residual_rel"] > 0.0

    def test_dumps_carry_full_artifacts(self):
        cfg = SuiteConfig(cases=3, seed=13, residual_tol=0.0)
        report = run_property_suite(cfg)
        dump = report.property_by_name("residual").failing[0]["instance"]
        for key in ("n", "k", "zeros", "xi", "P", "Q", "Q_roots"):
            assert key in dump

    def test_dump_built_for_failing_cases_only(self):
        # residual_tol = 0 fails "residual" and "convolution_identity" on
        # every case; both entries of a case carry the same dump, equal
        # to the instance and artifacts of case_metrics, and no passing
        # property keeps one.
        cfg = SuiteConfig(cases=4, seed=13, residual_tol=0.0)
        report = run_property_suite(cfg)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        cache = {}
        want = []
        for _ in range(cfg.cases):
            inst = sample_case(rng, cfg)
            metrics = case_metrics(inst, cache, cfg.containment_tol)
            want.append({**jsonable(inst), **metrics["artifacts"]})
        residual = report.property_by_name("residual").failing
        convolution = report.property_by_name("convolution_identity").failing
        assert [f["instance"] for f in residual] == want
        assert [f["instance"] for f in convolution] == want
        assert all(
            a["instance"] is b["instance"]
            for a, b in zip(residual, convolution)
        )
        for name in ("path_equivalence", "localization", "s_radius"):
            assert report.property_by_name(name).failing == []


class TestCaseMetrics:
    def test_fixed_worked_instance(self):
        inst = CaseInstance(
            n=2, k=1, zeros=(0.5 + 0j, -0.5 + 0j), xi=0j
        )
        metrics = case_metrics(inst)
        assert metrics["residual_rel"] <= 1e-12
        assert metrics["path_equivalence_rel"] <= 1e-12
        assert metrics["convolution_rel"] <= 1e-12
        assert abs(metrics["containment_margin"]) <= 1e-8
        assert metrics["remark_excess"] <= -1.0
        assert not metrics["factorize_impossible"]

    def test_artifacts_are_pair_lists(self):
        # The contract of the suite judge in bench/workloads.py: every
        # artifact is a list of [re, im] lists of two floats.
        inst = CaseInstance(n=3, k=2, zeros=(0.5, -0.5j, 0.25 + 0.25j), xi=1j)
        artifacts = case_metrics(inst)["artifacts"]
        assert set(artifacts) == {"P", "Q", "Q_roots"}
        for pairs in artifacts.values():
            assert isinstance(pairs, list) and pairs
            for pair in pairs:
                assert isinstance(pair, list) and len(pair) == 2
                assert all(isinstance(x, float) for x in pair)

    def test_round_trip_through_dict(self):
        inst = CaseInstance(n=2, k=2, zeros=(0.1 + 0.2j, -0.3j), xi=1 - 1j)
        again = CaseInstance.from_dict(jsonable(inst))
        assert again == inst


class TestGoldenExamples:
    def test_all_pass(self):
        report = reproduce_paper_examples()
        assert report.all_passed

    def test_free_case_block(self):
        report = reproduce_paper_examples()
        prop = report.property_by_name("free_case_identity")
        assert prop.cases == 40  # n in 1..8 times k in 1..5
        assert prop.failures == 0
        assert prop.worst == 0.0  # the identity is exact at xi = 0

    def test_bound_looseness_block(self):
        report = reproduce_paper_examples()
        prop = report.property_by_name("bound_looseness")
        assert prop.cases == 5
        assert prop.failures == 0
        assert prop.worst <= 1e-6
        assert len(prop.notes) == 5

    def test_counterexample_block(self):
        report = reproduce_paper_examples()
        prop = report.property_by_name("factorization_counterexample")
        assert prop.cases == 1
        assert prop.failures == 0
        assert any("index 1" in note for note in prop.notes)

    def test_deterministic(self):
        assert (
            reproduce_paper_examples().to_json()
            == reproduce_paper_examples().to_json()
        )
