#!/usr/bin/env python3
"""Known-failure ledger: the cases polarpoly fails in the benchmark.

    python3 bench/spread.py --workload localize --seeds 1-10   # and suite, solve
    python3 bench/ledger.py --seeds 1-10 --json bench/known_failures.json

Every untraced run of ``bench/run.py`` writes each case it sent, judged,
to ``bench/out/cases-<workload>-<seed>.json``.  This script gathers the
failed cases of those runs, (n, k, |xi|, reasons) per workload, and adds
probes of the defects behind them that no workload isolates.  Rerun both
after a fix and compare.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys

import numpy as np

import oracle
import run
import spread
import workloads
from polarpoly import polar, polynomial, verify


def failures(seeds: list[int]) -> dict:
    """The failed cases of the stored runs, per workload."""
    out = {}
    for name in workloads.WORKLOADS:
        runs = [json.loads((run.OUT_DIR / f"cases-{name}-{seed}.json").read_text())
                for seed in seeds]
        cases = [dict(c, seed=r["seed"]) for r in runs for c in r["cases"]]
        failed = [{key: c[key] for key in ("seed", "id", "n", "k", "xi_abs", "bwd",
                                           "known", "reasons")}
                  for c in cases if not c["ok"]]
        out[name] = {"seeds": seeds, "attempted": len(cases), "failed": len(failed),
                     "not_known": sum(not c["known"] for c in failed),
                     "failures": failed}
    return out


def count(cases: list[dict], reason: str) -> int:
    return sum(any(r.startswith(reason) for r in c["reasons"]) for c in cases)


def trim_probe(seed: int) -> dict:
    """The library oracle verify.residual_norm multiplies R by Q with
    poly_mul, whose 1e-12 relative trim can drop the top coefficients."""
    rng = np.random.default_rng([seed, 34])
    n, k, radius = 34, 3, 1.84
    zeros = workloads.unit_disk(rng, n)
    xi = complex(radius * np.exp(2j * np.pi * rng.random()))
    P = polynomial.poly_from_roots(zeros)
    R = polynomial.poly_from_roots([xi] * k)
    Q = polar.solve_polar_shifted(P, xi, k)
    product = polynomial.poly_mul(R, Q)
    return {
        "n": n, "k": k, "xi_abs": radius,
        "poly_mul_degree": product.degree, "expected_degree": n + k,
        "library_residual_norm": verify.residual_norm(P, R, Q),
        "oracle_bwd": oracle.backward_error(
            np.array(P.coeffs), np.array(R.coeffs), np.array(Q.coeffs)),
    }


def constructor_trim_probe(seed: int) -> dict:
    """``Polynomial(coeffs)`` drops coefficients below 1e-12 of the
    largest, so a monic P with a coefficient above 1e12 loses its leading
    1 and PolarProblem rejects it as not monic.  Draws of n = 256 zeros in
    the unit disk do that about once in a thousand."""
    rng = np.random.default_rng([seed, 256])
    for draw in range(1, 20001):
        coeffs = oracle.poly_from_zeros(workloads.unit_disk(rng, 256))
        if np.abs(coeffs).max() > 1e12:
            return {"n": 256, "draw": draw,
                    "max_coeff": float(np.abs(coeffs).max()),
                    "degree_after_constructor": workloads.Polynomial(coeffs).degree}
    return {"n": 256, "draw": None}


def xi_flag_probe() -> int:
    """Exit code of ``localize --xi -0.5+0.1i``: argparse reads the
    leading minus as an option."""
    argv = ["localize", "--P-roots", "[[0.5,0]]", "--xi", "-0.5+0.1i", "--k", "1"]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return workloads.cli.main(argv)
        except SystemExit as exc:
            return exc.code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=spread.seed_list, default=spread.seed_list("1-10"))
    parser.add_argument("--seed", type=int, default=0, help="seed of the probes")
    parser.add_argument("--json", type=str)
    args = parser.parse_args()
    runs = failures(args.seeds)
    localize = runs["localize"]["failures"]
    # run.judge gives an exception an infinite backward error.
    raised = [c for c in localize if c["bwd"] == math.inf and
              not any(r.startswith("exit code") for r in c["reasons"])]
    ledger = {
        "command": f"python3 bench/ledger.py --seeds {args.seeds[0]}-{args.seeds[-1]}"
                   f" --seed {args.seed}",
        "runs": runs,
        "defects": {
            "fast_path_bwd": {
                "what": "solve_polar_shifted backward error above 1e-9 (localize)",
                "cases": count(localize, "backward error"),
                "worst": max((c["bwd"] for c in localize if math.isfinite(c["bwd"])),
                             default=None),
            },
            "exceptions": {
                "what": "an exception escapes the localize command",
                "cases": len(raised),
                "reasons": sorted({r for c in raised for r in c["reasons"]}),
                "n": sorted({c["n"] for c in raised}),
            },
            "contained_false_exit_0": {
                "what": "localize exits 0 while reporting contained=false",
                "cases": count(localize, "contained=false"),
            },
            "zero_violation_not_contained": {
                "what": "max_violation 0.0 beside contained=false",
                "cases": count(localize, "max_violation 0.0"),
                "n": sorted({c["n"] for c in localize
                             if "max_violation 0.0" in c["reasons"]}),
            },
            "poly_mul_trim": {
                "what": "poly_mul trims top coefficients, so verify.residual_norm "
                        "compares a truncated R*Q",
                **trim_probe(args.seed),
            },
            "constructor_trim": {
                "what": "Polynomial() trims the leading 1 of a monic P with a "
                        "coefficient above 1e12",
                **constructor_trim_probe(args.seed),
            },
            "xi_leading_minus": {
                "what": "'--xi -a+bi' is a usage error; '--xi=-a+bi' works",
                "exit": xi_flag_probe(),
            },
        },
    }
    for name, r in runs.items():
        print(f"{name}: {r['failed']} of {r['attempted']} cases fail, "
              f"{r['not_known']} outside the known defects")
    print(json.dumps(ledger["defects"], indent=2, default=str))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
