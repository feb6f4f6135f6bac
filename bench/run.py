#!/usr/bin/env python3
"""Benchmark of polarpoly: closed loop, one caller, one thread.

    python3 bench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Runs one workload (``suite``, ``localize`` or ``solve``) for
``--seconds`` on inputs made from ``--seed``, checks every output with
the benchmark's own oracle and prints one line per metric.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of an untraced run, with ``--trace 1`` the per-layer
metrics of a traced run.  ``--workload all`` runs every workload in a
process of its own.  The exit code is nonzero only when the benchmark
itself fails, never because the program failed cases.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import spans
import workloads

END_TO_END = (
    ("setup_s", "s"),
    ("good_cases_per_s", "1/s"),
    ("good_share", "ratio"),
    ("case_p50_ms", "ms"),
    ("case_tail_ms", "ms"),
    ("good_bwd_digits", "digits"),
    ("peak_rss_mb", "MB"),
)
# Times are CPU times of the one thread that runs the program
# (time.process_time for a case, getrusage of the child for a launch):
# the caller is a single closed loop, so on an idle machine they equal
# wall times, and on a machine shared with other tenants they leave out
# the time the others take.  They still follow the slowdown the others
# cause through shared cores and caches, which swings by half within
# seconds, so every time is scaled to a reference speed of the machine:
# calibration(), a fixed piece of work that shares no code with
# polarpoly, is timed before and after each block of at least
# CALIBRATE_EVERY_S of case time (each case, for all but suite) and
# around each set-up launch, and the times in between are multiplied by
# REFERENCE_S over the mean of the two.  REFERENCE_S is calibration()
# on a 2-vCPU Xeon virtual machine when it was quiet, so scaled times
# read in its milliseconds.
#
# An untraced run sends the same cases in each of the workload's passes,
# each pass a fresh process, and keeps each case's best time: no pass
# reuses what another cached.  A pass sends a fixed count of cases (see
# Workload.rate) and ends the run with an error once it has taken more
# than PASS_LIMIT times its share of --seconds.  SETUP_LAUNCHES fresh
# interpreters are timed, spread before each pass and after the last.
PASS_LIMIT = 5.0
REFERENCE_S = 0.7e-3
CALIBRATE_EVERY_S = 0.02  # of case time
SETUP_LAUNCHES = 12
TAIL_BEYOND = 10
OUT_DIR = Path(__file__).resolve().parent / "out"
# One thread: numerical libraries start no worker threads of their own.
ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass
class Done:
    case: workloads.Case
    seconds: float
    output: object
    error: str | None


@dataclass
class Outcome:
    """A judged case, as a pass reports it."""

    id: int
    n: int
    k: int
    xi_abs: float | None
    seconds: float  # scaled to the reference speed
    ok: bool
    known: bool  # failed with a defect recorded in the workload's ledger
    bwd: float
    reasons: list[str]


def seeded(workload: str, seed: int) -> np.random.Generator:
    index = list(workloads.WORKLOADS).index(workload)
    return np.random.default_rng([seed, index])


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(entry: str, launches: int) -> list[float]:
    """CPU times of fresh interpreters importing polarpoly and ``entry``,
    scaled to the reference speed."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        f"import polarpoly, {entry}; "
        "sys.exit(0 if polarpoly.__file__.startswith(sys.argv[1]) else 3)"
    )
    times = []
    speed = calibration()
    for _ in range(launches):
        before = children_cpu()
        subprocess.run([sys.executable, "-c", code, str(workloads.SRC)],
                       check=True, cwd=workloads.ROOT, stdout=subprocess.DEVNULL,
                       env={**os.environ, **ONE_THREAD})
        seconds = children_cpu() - before
        after = calibration()
        times.append(seconds * REFERENCE_S / ((speed + after) / 2))
        speed = after
    return times


def call(workload, case: workloads.Case, state: workloads.RunState) -> Done:
    """The timed call of one case; an exception is a failed case."""
    t0 = process_time()
    try:
        output, error = workload.run(case, state), None
    except Exception as exc:  # a program failure, judged as a failed case
        output, error = None, traceback.format_exception_only(exc)[-1].strip()
    return Done(case, process_time() - t0, output, error)


def judge(workload, d: Done) -> Outcome:
    if d.error is not None:
        verdict = workloads.Verdict(False, math.inf, (d.error,))
    else:
        verdict = workload.check(d.case, d.output)
    xi = None if d.case.xi is None else abs(d.case.xi)
    known = not verdict.ok and workload.known(d.case, verdict)
    return Outcome(d.case.id, d.case.n, d.case.k, xi, d.seconds,
                   verdict.ok, known, verdict.bwd, list(verdict.reasons))


def calibration() -> float:
    """CPU time of a fixed piece of work like polarpoly's own: Horner
    steps on small complex arrays, big-integer and complex arithmetic.
    The better of two tries, so one interruption does not count."""
    z = np.exp(2j * np.pi * np.arange(48) / 48) * 0.9
    c = np.linspace(1.0, 2.0, 48) + 0.5j
    best = math.inf
    for _ in range(2):
        t0 = process_time()
        for _ in range(10):
            p = np.full_like(z, c[-1])
            for a in c[-2::-1]:
                p = p * z + a
        x, acc = 3 ** 200, 0j
        for i in range(400):
            x = (x * 7 + i) % (1 << 640)
            acc = acc * 0.5 + complex(i, -i)
        best = min(best, process_time() - t0)
    return best


def run_loop(workload, cases, limit: float, samples: list | None = None) -> list[Outcome]:
    """Send the cases one after another, their times scaled to the
    reference speed.  Each output is judged, outside the timed call, as
    soon as it returns, so memory does not grow with the case count.
    Running past ``limit`` seconds is an error.  With a list for
    ``samples``, the calibration times are appended to it."""
    state = workloads.RunState()
    outcomes, block = [], []
    speeds = [calibration()]
    begin = perf_counter()

    def scale_block() -> None:
        speeds.append(calibration())
        factor = REFERENCE_S / ((speeds[-2] + speeds[-1]) / 2)
        for o in block:
            o.seconds *= factor
        block.clear()

    for case in cases:
        block.append(judge(workload, call(workload, case, state)))
        outcomes.append(block[-1])
        if sum(o.seconds for o in block) >= CALIBRATE_EVERY_S:
            scale_block()
        if perf_counter() - begin > limit:
            raise SystemExit(f"bench: {workload.name} pass ran past {limit:.0f} s "
                             f"after {len(outcomes)} cases")
    if block:
        scale_block()
    if samples is not None:
        samples.extend(speeds)
    return outcomes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pass_count(workload, seconds: float) -> int:
    return max(1, round(workload.rate * seconds / workload.passes))


def run_pass(name: str, seed: int, seconds: float) -> None:
    """One pass of an untraced run, in this process.  Prints the
    outcomes as JSON."""
    workload = workloads.WORKLOADS[name]
    cases = itertools.islice(workload.cases(seeded(name, seed)),
                             pass_count(workload, seconds))
    samples = []
    outcomes = run_loop(workload, cases, PASS_LIMIT * seconds / workload.passes, samples)
    print(json.dumps({"rss_mb": peak_rss_mb(), "calibration": samples,
                      "cases": [asdict(o) for o in outcomes]}))


def spawn_pass(name: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--pass"],
        check=True, cwd=workloads.ROOT, stdout=subprocess.PIPE, text=True,
        env={**os.environ, **ONE_THREAD},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def best_of(passes: list[dict]) -> list[Outcome]:
    """Each case's best time over the passes; it fails if any pass
    failed it.  Every pass sends the same cases."""
    merged = []
    for runs in zip(*(p["cases"] for p in passes), strict=True):
        if len({(r["id"], r["n"], r["k"]) for r in runs}) != 1:
            raise SystemExit("bench: passes sent different cases")
        first = Outcome(**runs[0])
        first.seconds = min(r["seconds"] for r in runs)
        first.ok = all(r["ok"] for r in runs)
        first.known = not first.ok and all(r["ok"] or r["known"] for r in runs)
        first.bwd = max(r["bwd"] for r in runs)
        first.reasons = sorted({reason for r in runs for reason in r["reasons"]})
        merged.append(first)
    return merged


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: value,
    percentile, samples beyond.  Short runs fall back to the maximum."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    beyond = TAIL_BEYOND
    return ordered[-beyond - 1], 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def end_to_end(outcomes: list[Outcome], pass_seconds: list[float], speed: float,
               setup: list[float], rss: list[float]):
    """End-to-end metrics and one note per metric on how it was taken.
    All times are scaled; ``speed`` is the median calibration time."""
    n = len(outcomes)
    good = sum(o.ok for o in outcomes)
    loop = sum(o.seconds for o in outcomes)
    # Every case at its own time, a failed one too: at this commit about
    # half the localize cases fail, so ranking failures at infinity would
    # leave the median undefined.  good_share carries the failures.
    times = sorted(o.seconds * 1e3 for o in outcomes)
    tail_ms, pct, beyond = tail(times)
    # The accuracy of the answers that count as good; failures are in
    # good_share.  No good case reads as no digits.
    bwd = statistics.median([o.bwd for o in outcomes if o.ok] or [1.0])
    values = {
        "setup_s": statistics.median(setup),
        "good_cases_per_s": good / loop,
        "good_share": good / n,
        "case_p50_ms": statistics.median(times),
        "case_tail_ms": tail_ms,
        "good_bwd_digits": -math.log10(max(bwd, 1e-300)),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "setup_s": f"median of {len(setup)} launches",
        "good_cases_per_s": f"{good} good cases over {loop:.3f} s, the sum of the "
                            f"cases' best times; passes took "
                            + ", ".join(f"{s:.3f}" for s in pass_seconds) + " s",
        "good_share": f"{good} good of {n} cases",
        "case_p50_ms": f"{n} cases, best of {len(pass_seconds)} passes; calibration "
                       f"median {speed * 1e3:.3f} ms, reference {REFERENCE_S * 1e3:.3f} ms",
        "case_tail_ms": f"p{pct:.2f}, {beyond} beyond, {n} cases",
        "good_bwd_digits": f"median backward error {bwd:.2e} of {good} good cases;"
                           f" worst of all {max(o.bwd for o in outcomes):.2e}",
        "peak_rss_mb": f"median of {len(rss)} pass processes",
    }
    return values, [notes[name] for name, _ in END_TO_END]


def report(name, seed, outcomes: list[Outcome], values: dict, units, notes) -> None:
    """Prints the metrics and the failed cases.  The run is correct when
    every failed case is a known defect of its workload; all failed cases
    count in ``failed``."""
    failed = [o for o in outcomes if not o.ok]
    new = [o for o in failed if not o.known]
    print(f"workload {name}  seed {seed}  attempted {len(outcomes)}  failed {len(failed)}"
          f" ({len(new)} not known)  fail_share {len(failed) / len(outcomes):.4f}")
    for (metric, unit), note in zip(units, notes):
        print(f"  {metric:<36} {values[metric]:>14.6g} {unit:<7} {note}")
    for o in failed:
        xi = "-" if o.xi_abs is None else f"{o.xi_abs:.3f}"
        print(f"  failed case {o.id} ({'known' if o.known else 'NEW'}): "
              f"n={o.n} k={o.k} |xi|={xi}: " + "; ".join(o.reasons))
    print(json.dumps({
        "correct": not new,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units},
    }))


def run_untraced(name: str, seed: int, seconds: float) -> None:
    workload = workloads.WORKLOADS[name]
    launches = SETUP_LAUNCHES // (workload.passes + 1)
    measure_setup(workload.entry, 1)  # untimed: writes the bytecode caches
    setup, passes = [], []
    for _ in range(workload.passes):
        setup += measure_setup(workload.entry, launches)
        passes.append(spawn_pass(name, seed, seconds))
    setup += measure_setup(workload.entry, launches)
    outcomes = best_of(passes)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"cases-{name}-{seed}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "cases": [asdict(o) for o in outcomes]}))
    pass_seconds = [sum(c["seconds"] for c in p["cases"]) for p in passes]
    speed = statistics.median(t for p in passes for t in p["calibration"])
    values, notes = end_to_end(outcomes, pass_seconds, speed, setup,
                               [p["rss_mb"] for p in passes])
    report(name, seed, outcomes, values, END_TO_END, notes)


def run_traced(name: str, seed: int, seconds: float) -> None:
    """Each case twice, traced and untraced, the order alternating from
    case to case, until ``seconds`` have passed."""
    workload = workloads.WORKLOADS[name]
    cases = workload.cases(seeded(name, seed))
    first = next(cases)
    # One untimed call first, so that neither side pays for first use.
    call(workload, first, workloads.RunState())
    tracer = spans.Tracer()
    state, plain_state = workloads.RunState(), workloads.RunState()
    done, plain = [], []
    begin = perf_counter()
    for i, case in enumerate(itertools.chain([first], cases)):
        for traced in (True, False) if i % 2 else (False, True):
            if traced:
                with tracer.patched(), tracer.case(case.id, case.n):
                    done.append(call(workload, case, state))
            else:
                plain.append(call(workload, case, plain_state))
        if perf_counter() - begin >= seconds:
            break
    wall = sum(d.seconds for d in done)
    plain_wall = sum(d.seconds for d in plain)
    layer = tracer.metrics(len(done), state, wall - plain_wall)
    path = OUT_DIR / f"trace-{name}-{seed}.json"
    tracer.write(path, {"workload": name, "seed": seed})
    values = {m: v for m, (v, _) in layer.items()}
    own = sum(values[f"{t}.self_s"] for t in spans.TRACED) + values["bench.case.self_s"]
    print(f"{len(done)} cases: traced {wall:.3f} s, untraced {plain_wall:.3f} s; "
          f"self times sum to {own:.6g} s/case, traced case {values['trace.case_s']:.6g}"
          f" s/case; spans in {path.relative_to(workloads.ROOT)}")
    report(name, seed, [judge(workload, d) for d in done], values, spans.PER_LAYER,
           [""] * len(spans.PER_LAYER))


def run_all(args) -> int:
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="", flush=True)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One pass of an untraced run, in a process of its own.
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if args.one_pass:
        run_pass(args.workload, args.seed, args.seconds)
    elif args.trace:
        run_traced(args.workload, args.seed, args.seconds)
    else:
        run_untraced(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
