"""The first case of every benchmark workload, run in process through
the workload's own call and judge: the benchmark reads coefficient
arrays and the suite's artifacts at several sites, and its own
self-test runs whole benchmark processes."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_first_case_is_good(name):
    workload = workloads.WORKLOADS[name]
    # The generator bench/run.py seeds for this workload at seed 1.
    rng = np.random.default_rng([1, list(workloads.WORKLOADS).index(name)])
    case = next(workload.cases(rng))
    verdict = workload.check(case, workload.run(case, workloads.RunState()))
    assert verdict.ok, verdict.reasons
