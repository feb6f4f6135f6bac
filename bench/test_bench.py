"""Self-test of the benchmark, in well under a minute:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LOCALIZE = workloads.WORKLOADS["localize"]


def last_line(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=HERE.parent,
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = last_line("--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"]
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_known_bad_localize_case_counts_as_failed(capsys):
    rng = np.random.default_rng(62)
    good = workloads.localize_case(0, rng, 12, 2, 0.3 + 0.1j)
    # The centered fast path loses all accuracy here: backward error ~3e-1.
    bad = workloads.localize_case(1, rng, 62, 1, 1.46 + 0j)
    outcomes = run.run_loop(LOCALIZE, [good, bad], math.inf)
    assert outcomes[0].ok and outcomes[0].bwd < 1e-12
    assert not outcomes[1].ok and outcomes[1].bwd > 1e-2
    # A known defect: it counts as failed, and the run stays correct.
    assert outcomes[1].known
    loop = sum(o.seconds for o in outcomes)
    values, notes = run.end_to_end(outcomes, [loop], 1e-3, [0.2], [40.0])
    run.report("localize", 0, outcomes, values, run.END_TO_END, notes)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 1)
    assert values["good_cases_per_s"] == pytest.approx(1 / loop)
    assert values["good_share"] == 0.5
    assert values["good_bwd_digits"] > 12
    # The same failure below n = 16, where the command works at this
    # commit, is new.
    outcomes[0].ok, outcomes[0].reasons = False, ["backward error 1.0e-01"]
    run.report("localize", 0, outcomes, values, run.END_TO_END, notes)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (False, 2)


def test_known_defects_are_bounded_by_place_and_reason():
    rng = np.random.default_rng(5)
    bwd = workloads.Verdict(False, 0.3, ("backward error 3.0e-01", "contained=false"))
    crash = workloads.Verdict(False, math.inf, ("exit code 2",))
    known = LOCALIZE.known
    assert known(workloads.localize_case(0, rng, 62, 1, 1.46 + 0j), bwd)
    assert known(workloads.localize_case(1, rng, 206, 2, 0.5j), bwd)
    assert not known(workloads.localize_case(2, rng, 12, 1, 1.46 + 0j), bwd)
    assert not known(workloads.localize_case(3, rng, 62, 1, 1.46 + 0j), crash)
    suite = workloads.WORKLOADS["suite"].known
    case = next(workloads.suite_cases(rng))
    assert suite(case, workloads.Verdict(False, 1e-16, ("factorize_error 9.2e-10",)))
    assert not suite(case, workloads.Verdict(False, 1e-16, ("factorize_error 2.0e-08",)))
    assert not suite(case, workloads.Verdict(
        False, 1e-16, ("factorize_error 9.2e-10", "residual_rel 1.0e-06")))
    assert not suite(case, workloads.Verdict(False, 1e-16, ("residual_rel 1.0e-06",)))


def test_passes_must_send_the_same_cases():
    case = {"id": 0, "n": 8, "k": 1, "xi_abs": 0.5, "seconds": 0.2, "ok": True,
            "known": False, "bwd": 1e-16, "reasons": []}
    merged = run.best_of([{"cases": [case]}, {"cases": [dict(case, seconds=0.1)]}])
    assert merged[0].seconds == 0.1
    with pytest.raises(ValueError):
        run.best_of([{"cases": [case]}, {"cases": [case, dict(case, id=1)]}])
    with pytest.raises(SystemExit):
        run.best_of([{"cases": [case]}, {"cases": [dict(case, id=1)]}])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_layer_self_times_add_up_to_each_traced_case(workload):
    wl = workloads.WORKLOADS[workload]
    tracer = spans.Tracer()
    state = workloads.RunState()
    for case in itertools.islice(wl.cases(np.random.default_rng(3)), 4):
        with tracer.patched(), tracer.case(case.id, case.n):
            assert run.call(wl, case, state).error is None
    per_case = defaultdict(float)
    case_time = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, parent, case_id, _ = span
        assert own >= 0.0
        per_case[case_id] += own
        if name == spans.CASE:
            assert parent is None
            case_time[case_id] = end - start
    assert len(case_time) == 4
    for case_id, seconds in case_time.items():
        assert per_case[case_id] == pytest.approx(seconds, rel=1e-9, abs=1e-12)
    layers = {span[0] for span in tracer.spans}
    assert layers > {spans.CASE}


def test_tracing_restores_the_program():
    from polarpoly import cli, polar, roots, verify

    tracer = spans.Tracer()
    with tracer.patched():
        assert cli.find_roots is not roots.find_roots
    assert cli.find_roots is roots.find_roots
    assert verify.find_roots is roots.find_roots
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(polar.solve_polar, "__wrapped__")


def test_oracle_backward_error():
    # P = z^2 - 1/4, R = z: Q = z^2 - 3/4 solves T_R(Q) = 3 P exactly.
    P = np.array([-0.25, 0, 1], dtype=complex)
    R = np.array([0, 1], dtype=complex)
    assert oracle.backward_error(P, R, np.array([-0.75, 0, 1], dtype=complex)) == 0.0
    assert oracle.backward_error(P, R, np.array([-0.75, 0], dtype=complex)) > 0.1
    assert oracle.root_residual(np.array([-0.75, 0, 1], dtype=complex),
                                np.array([0.75 ** 0.5, -(0.75 ** 0.5)])) < 1e-15
