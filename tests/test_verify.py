import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

from polarpoly.polynomial import (
    Polynomial,
    jsonable,
    poly_from_roots,
    sup_norm,
)
from polarpoly import regions, verify
from polarpoly.cli import main
from polarpoly.errors import NonFiniteError
from polarpoly.polar import (
    GraceFactorization,
    PolarProblem,
    grace_factorize,
    solve_polar,
)
from polarpoly.regions import LocalizationReport, Witness
from polarpoly.verify import (
    CaseInstance,
    PropertyResult,
    SuiteConfig,
    case_metrics,
    replay_case,
    reproduce_paper_examples,
    residual_norm,
    run_property_suite,
    sample_case,
)

from oracles import rising_factorial


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

    def test_reads_inf_without_a_warning_where_the_image_overflows(self):
        # The n = 1000 draw of test_polar's TestSameBitsAsScalarLoops:
        # for a k = 20 and a k = 50 problem R*Q is finite (max |Q| 5.9e301
        # and 2.3e300) and its k-th derivative is not.  The pyproject
        # filter turns a RuntimeWarning into an error.
        n = 1000
        rng = np.random.default_rng(n)
        readings = []
        for k in (1, 2, 3, 4, 5, 20, 50):
            p = poly_from_roots(unit_disk(rng, n))
            for prob in (
                PolarProblem.centered(p, 0.3 + 0.2j, k),
                PolarProblem.centered(p, -1.5j, k),
                PolarProblem(p, poly_from_roots(2.0 * unit_disk(rng, k))),
            ):
                try:
                    q = solve_polar(prob)
                except NonFiniteError:
                    continue
                readings.append((k, residual_norm(p, prob.R, q)))
                rng.normal(size=(2, n + k + 1))
        assert [k for k, r in readings if r == math.inf] == [20, 50]
        assert all(math.isfinite(r) for _, r in readings if r != math.inf)


def unit_disk(rng, count):
    return np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


class TestSuiteConfig:
    def test_defaults(self):
        cfg = SuiteConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "n_range", "k_range", "cases", "seed",
        ]
        assert cfg.cases == 500
        assert cfg.seed == 42
        assert cfg.n_range == (2, 12)
        assert cfg.k_range == (1, 5)
        assert verify.RESIDUAL_TOL == 1e-9
        assert verify.EQUIVALENCE_TOL == 1e-10
        assert verify.CONTAINMENT_TOL == 1e-6
        # The sampler and the tolerances are fixed, not settings.
        for name in ("zero_sampler", "grid_points", "residual_tol",
                     "equivalence_tol", "containment_tol"):
            with pytest.raises(TypeError):
                SuiteConfig(**{name: None})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_range": (5, 2)},
            {"n_range": (0, 3)},
            {"k_range": (0, 2)},
            {"cases": 0},
            {"k_range": (3, 2)},
            {"cases": -1},
            {"seed": -1},
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

    def test_failing_cases_dump_and_replay(self, monkeypatch):
        # An impossible tolerance forces failures; each dump must be a
        # self-contained instance whose replay reproduces the observed
        # value exactly.
        monkeypatch.setattr(verify, "RESIDUAL_TOL", 0.0)
        cfg = SuiteConfig(cases=8, seed=13)
        report = run_property_suite(cfg)
        prop = report.property_by_name("residual")
        assert prop.failures == 8
        assert len(prop.failing) == 8
        for dump in prop.failing:
            metrics = replay_case(dump["instance"])
            assert metrics["residual_rel"] == dump["observed"]
            assert metrics["residual_rel"] > 0.0

    def test_dumps_carry_full_artifacts(self, monkeypatch):
        monkeypatch.setattr(verify, "RESIDUAL_TOL", 0.0)
        cfg = SuiteConfig(cases=3, seed=13)
        report = run_property_suite(cfg)
        dump = report.property_by_name("residual").failing[0]["instance"]
        for key in ("n", "k", "zeros", "xi", "P", "Q", "Q_roots"):
            assert key in dump

    def test_dump_built_for_failing_cases_only(self, monkeypatch):
        # RESIDUAL_TOL = 0 fails "residual" and "convolution_identity" on
        # every case; both entries of a case carry the same dump, equal
        # to the instance and artifacts of case_metrics, and no passing
        # property keeps one.
        monkeypatch.setattr(verify, "RESIDUAL_TOL", 0.0)
        cfg = SuiteConfig(cases=4, seed=13)
        report = run_property_suite(cfg)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        cache = {}
        want = []
        for _ in range(cfg.cases):
            inst = sample_case(rng, cfg)
            metrics = case_metrics(inst, cache)
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

    @pytest.mark.parametrize("shape", ["monomial", "annulus"])
    def test_every_property_within_its_constant(self, shape):
        # P = z^n about a seeded xi (the free case shifted), and zeros
        # uniform in area in the annulus 1/2 <= |z| <= 1, the unit
        # disk's edge; n in 2..12 and k in 1..5 as the suite samples.
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, k = int(rng.integers(2, 13)), int(rng.integers(1, 6))
            if shape == "monomial":
                zeros = np.zeros(n, complex)
            else:
                radii = np.sqrt(0.25 + 0.75 * rng.random(n))
                zeros = radii * np.exp(2j * np.pi * rng.random(n))
            xi = complex(2.0 * unit_disk(rng, 1)[0])
            zeros = tuple(map(complex, zeros))
            m = case_metrics(CaseInstance(n, k, zeros, xi))
            assert m["residual_rel"] <= verify.RESIDUAL_TOL
            assert m["path_equivalence_rel"] <= verify.EQUIVALENCE_TOL
            assert m["convolution_rel"] <= verify.RESIDUAL_TOL
            assert m["containment_margin"] >= -verify.CONTAINMENT_TOL
            assert m["remark_excess"] <= verify.REMARK_SLACK
            assert m["s_radius_excess"] <= verify.S_RADIUS_SLACK
            if not m["factorize_impossible"]:
                assert m["factorize_error"] <= verify.FACTORIZE_TOL

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

    @pytest.mark.parametrize(
        ("change", "field"),
        [
            ({"n": 5}, "'n'"),
            ({"n": 2.7}, "'n'"),
            ({"n": True}, "'n'"),
            ({"k": 1.0}, "'k'"),
            ({"k": True}, "'k'"),
            ({"k": 0}, "'k'"),
        ],
    )
    def test_malformed_dump_is_refused(self, change, field):
        dump = {"n": 2, "k": 1, "zeros": [[0.1, 0], [0.2, 0]], "xi": [0, 0]}
        with pytest.raises(ValueError, match=field):
            replay_case({**dump, **change})

    def test_nan_witness_margin_propagates(self, monkeypatch):
        # A report that says contained=false must not yield a margin
        # that passes the localization property.
        def check(q_roots, xi, region, s_roots, tol):
            witnesses = tuple(
                Witness(0j, 1 + 0j, 0j, m) for m in (0.5, math.nan)
            )
            return LocalizationReport(False, witnesses, math.nan, tol)

        monkeypatch.setattr(regions, "localization_check", check)
        inst = CaseInstance(n=2, k=1, zeros=(0.5 + 0j, -0.5 + 0j), xi=0j)
        assert math.isnan(case_metrics(inst)["containment_margin"])

    def test_factorization_impossible_is_reported_and_noted(self, monkeypatch):
        # All six zeros at 0.01, xi = 0: alpha_0 = 1e-12 counts as
        # vanishing while beta_0, about 4.6e-10, does not.  The case
        # has no factorize_error, passes the round trip, and the suite
        # notes it.
        inst = CaseInstance(n=6, k=5, zeros=(0.01 + 0j,) * 6, xi=0j)
        metrics = case_metrics(inst)
        assert metrics["factorize_impossible"]
        assert metrics["factorize_error"] is None

        monkeypatch.setattr(verify, "sample_case", lambda rng, cfg: inst)
        report = run_property_suite(SuiteConfig(cases=2))
        roundtrip = report.property_by_name("factorize_roundtrip")
        assert (roundtrip.passes, roundtrip.failures) == (2, 0)
        assert roundtrip.notes == [
            "2 degenerate instances reported FactorizationImpossible "
            "(counted as conforming)"
        ]

    def test_numerical_miss_is_returned_not_refused(self):
        # Draw 3 of the harness at n in [32, 64], seed 1: n = 56, k = 2,
        # xi = 1.7878-0.2315i.  A factor exists, and it reproduces
        # Q(xi+w) only to about 1e-8; that is a reconstruction error to
        # report, not an impossibility.
        cfg = SuiteConfig(cases=200, seed=1, n_range=(32, 64))
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        inst = [sample_case(rng, cfg) for _ in range(4)][3]
        assert (inst.n, inst.k) == (56, 2)
        q = solve_polar(PolarProblem.centered(inst.P, inst.xi, inst.k))
        fact = grace_factorize(inst.P, q, inst.xi)
        assert fact.exact_match_error > 1e-10
        metrics = case_metrics(inst)
        assert not metrics["factorize_impossible"]
        assert metrics["factorize_error"] >= fact.exact_match_error

    def test_factorization_beyond_the_double_range(self, monkeypatch):
        # P(xi + w) leaves the double range at n = 1000 about xi =
        # 0.5+0.5i, so grace_factorize raises NonFiniteError; the case
        # reads factorize_error inf, replays the same, and the suite
        # records it as a failure instead of ending.
        n = 1000
        zeros = tuple(cmath.exp(2j * math.pi * (j + 0.3) / n)
                      for j in range(n))
        inst = CaseInstance(n=n, k=1, zeros=zeros, xi=0.5 + 0.5j)
        metrics = case_metrics(inst)
        assert metrics["factorize_error"] == math.inf
        assert not metrics["factorize_impossible"]
        assert math.isnan(metrics["path_equivalence_rel"])
        assert math.isnan(metrics["convolution_rel"])
        replayed = replay_case(jsonable(inst))
        assert json.dumps(jsonable(replayed)) == json.dumps(jsonable(metrics))

        monkeypatch.setattr(verify, "sample_case", lambda rng, cfg: inst)
        report = run_property_suite(SuiteConfig(cases=1))
        roundtrip = report.property_by_name("factorize_roundtrip")
        assert (roundtrip.failures, roundtrip.worst) == (1, math.inf)

    @pytest.mark.parametrize(
        ("n", "k", "xi"),
        [(9, 3, 0.5 - 0.25j), (60, 2, 1.5 + 0.5j), (120, 5, -1.25 + 1j)],
    )
    def test_artifacts_are_what_localize_prints(self, capsys, n, k, xi):
        # The containment check judges the zeros that localize prints:
        # the harness's Q, zeros of Q and smallest margin equal the
        # command's bit for bit.  n = 60 and 120 take q_zeros' model
        # path, n = 9 find_roots.
        rng = np.random.default_rng(n)
        zeros = tuple(map(complex, unit_disk(rng, n)))
        metrics = case_metrics(CaseInstance(n, k, zeros, xi))
        argv = [
            "localize", "--P-roots", json.dumps(jsonable(zeros)),
            f"--xi={xi.real!r}{xi.imag:+}i", "--k", str(k),
        ]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        artifacts = json.loads(json.dumps(metrics["artifacts"]))
        assert artifacts["Q"] == printed["Q"]
        assert artifacts["Q_roots"] == printed["Q_roots"]
        margins = [w["margin"] for w in printed["witnesses"]]
        assert metrics["containment_margin"] == min(margins)

    def test_nan_factor_error_propagates(self, monkeypatch):
        def factorize(P, Q, xi):
            s_r = Polynomial([math.nan, 1.0])
            return GraceFactorization(s_r, np.zeros(2), 0.0)

        monkeypatch.setattr(verify, "grace_factorize", factorize)
        inst = CaseInstance(n=2, k=1, zeros=(0.5 + 0j, -0.5 + 0j), xi=0j)
        assert math.isnan(case_metrics(inst)["factorize_error"])


class TestPropertyResult:
    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_nan_worst_propagates(self, sense):
        prop = PropertyResult("p", 1.0, sense)
        prop.record(True, 0.5, None)
        prop.record(False, math.nan, {})
        prop.record(True, 0.25, None)
        assert math.isnan(prop.worst)


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
