#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload suite --seeds 1-10 [--trace 1]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles and the quartile spread
(q3 - q1) / median, next to its bound in BENCHMARK.json if it has one.
``--json PATH`` also stores the figures in PATH, under the workload and
``--label`` (by default ``untraced`` or ``traced``), next to what the
file already holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    parser.add_argument("--label")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("a spread needs at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
               "failed": sum(r["failed"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, bound = metric["name"], metric.get("bound")
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary["metrics"][name] = {"unit": metric["unit"], "median": median,
                                    "q1": q1, "q3": q3, "spread": spread,
                                    "bound": bound}
        flag = "  <-- above a third of the bound" if bound and spread >= bound / 3 else ""
        print(f"{name:<36} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} bound {bound}{flag}")
    if args.json:
        stored = json.loads(args.json.read_text()) if args.json.exists() else {}
        label = args.label or ("traced" if args.trace else "untraced")
        stored.setdefault(args.workload, {})[label] = summary
        args.json.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
