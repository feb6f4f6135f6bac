"""The benchmark's workloads: seeded inputs, the timed call, the checks.

Every workload is a closed loop with one caller: a case is sent only
after the previous one returned.  Inputs come from the seed alone and
are built before the timed call; each output is judged, outside the
timed call, by the rules below and the numpy oracle in ``oracle.py``.

polarpoly is imported from the ``src`` directory of the checkout this
file sits in, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "polarpoly" / "__init__.py").is_file():
    raise SystemExit(f"bench: no polarpoly sources under {SRC}")
sys.path.insert(0, str(SRC))

import polarpoly  # noqa: E402
from polarpoly import Polynomial, cli, polar, poly_from_roots, verify  # noqa: E402

if not Path(polarpoly.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"bench: polarpoly imported from {polarpoly.__file__}")

K_RANGE = (1, 5)

# The property rules of polarpoly.verify.run_property_suite at its
# default SuiteConfig, fixed here so the judge cannot drift with the
# code it judges: (metric, "max" or "min", limit).
SUITE_RULES = (
    ("residual_rel", "max", 1e-9),
    ("path_equivalence_rel", "max", 1e-10),
    ("convolution_rel", "max", 1e-9),
    ("containment_margin", "min", -1e-6),
    ("remark_excess", "max", 1e-8),
    ("s_radius_excess", "max", 1e-9),
)
FACTORIZE_TOL = 1e-10
CONTAINMENT_TOL = 1e-6


@dataclass(eq=False)
class Case:
    """One input.  ``P`` and ``R`` are coefficient arrays for the oracle;
    ``call`` is what the timed call receives."""

    id: int
    n: int
    k: int
    xi: complex | None
    P: np.ndarray
    R: np.ndarray
    call: object


@dataclass(frozen=True)
class Verdict:
    ok: bool
    bwd: float
    reasons: tuple[str, ...] = ()


@dataclass
class RunState:
    """What one run of a workload carries from case to case."""

    s_cache: dict = field(default_factory=dict)
    s_lookups: int = 0
    s_hits: int = 0
    output_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # the module a user of this workload imports
    # Each pass sends rate * seconds / passes cases, a count fixed by the
    # run's length alone, so every run of a seed sends the same cases
    # whatever the speed of the commit or the load of the machine.  At
    # the commit that defined the benchmark, on a 2-vCPU Xeon virtual
    # machine, a run of 30 s then takes 25 to 60 s with its checks and
    # set-up launches; a localize pass sends 45 cases, spread evenly over
    # log n.
    rate: float
    # Fresh processes that send those cases in one run; each case keeps
    # its best time over them.  localize is too slow per case for a
    # third pass to leave enough cases for a steady median.
    passes: int
    cases: Callable[[np.random.Generator], Iterator[Case]]
    run: Callable[[Case, RunState], object]
    check: Callable[[Case, object], Verdict]
    # Whether a failed case is one of the defects recorded at the commit
    # that defined the benchmark (bench/known_failures.json).  A run is
    # correct when every case it failed is; any other failure is new.
    known: Callable[[Case, Verdict], bool]


def unit_disk(rng: np.random.Generator, count: int) -> np.ndarray:
    """Points uniform in area in the closed unit disk."""
    radius = np.sqrt(rng.random(count))
    return radius * np.exp(2j * np.pi * rng.random(count))


def spread_pairs(n_range: tuple[int, int]) -> Iterator[tuple[int, int]]:
    """Every pair (n, k) with n in ``n_range`` and k in K_RANGE, ordered
    by the bit-reversed rank of (n, k), over and over.  Each prefix of
    that order covers the degrees and orders evenly, so the case mix, and
    with it the cost of a run, does not depend on where the run stops.
    The order is the same for every seed; the seed draws the zeros and xi."""
    pool = [(n, k) for n in range(n_range[0], n_range[1] + 1)
            for k in range(K_RANGE[0], K_RANGE[1] + 1)]
    bits = (len(pool) - 1).bit_length()
    ranks = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    order = [pool[r] for r in ranks if r < len(pool)]
    while True:
        yield from order


def radical_inverse(i: int, base: int) -> float:
    """The i-th point of the van der Corput sequence in ``base``: the
    digits of i mirrored about the radix point."""
    out, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * scale
        scale /= base
    return out


def _bwd_verdict(
    case: Case, P: np.ndarray, Q: np.ndarray, reasons: list[str]
) -> Verdict:
    bwd = oracle.backward_error(P, case.R, Q)
    if len(Q) != case.n + 1:
        reasons.append(f"Q has degree {len(Q) - 1}, expected {case.n}")
    if not bwd <= oracle.BWD_TOL:
        reasons.append(f"backward error {bwd:.1e}")
    return Verdict(not reasons, bwd, tuple(reasons))


# --- suite: the property-harness mix ------------------------------------

def suite_cases(rng: np.random.Generator) -> Iterator[Case]:
    """n in [2, 12], k in [1, 5], zeros of P in the unit disk, |xi| <= 2."""
    for case_id, (n, k) in enumerate(spread_pairs((2, 12))):
        zeros = unit_disk(rng, n)
        xi = complex(2.0 * unit_disk(rng, 1)[0])
        inst = verify.CaseInstance(
            n=n, k=k, zeros=tuple(complex(z) for z in zeros), xi=xi
        )
        yield Case(case_id, n, k, xi, oracle.poly_from_zeros(zeros),
                   oracle.poly_from_zeros([xi] * k), inst)


def suite_run(case: Case, state: RunState) -> dict:
    # One S-root cache per run, as run_property_suite keeps it.
    state.s_lookups += 1
    state.s_hits += (case.n, case.k) in state.s_cache
    return verify.case_metrics(case.call, state.s_cache, CONTAINMENT_TOL)


def suite_known(case: Case, verdict: Verdict) -> bool:
    """grace_factorize misses its 1e-10 tolerance on rare draws: once in
    100 800 cases (seeds 1 to 10 and 100 to 124), at 9.2e-10.  A miss
    within a hundred times the tolerance, alone, is that defect."""
    return all(r.startswith("factorize_error ") for r in verdict.reasons) and \
        float(verdict.reasons[0].split()[1]) <= 100 * FACTORIZE_TOL


def suite_check(case: Case, m: dict) -> Verdict:
    reasons = []
    for name, sense, limit in SUITE_RULES:
        value = m[name]
        ok = value <= limit if sense == "max" else value >= limit
        if not ok:
            reasons.append(f"{name} {value:.1e}")
    if not m["factorize_impossible"] and not m["factorize_error"] <= FACTORIZE_TOL:
        reasons.append(f"factorize_error {m['factorize_error']:.1e}")
    # The P the solvers were given, as case_metrics reports it.
    P = oracle.from_pairs(m["artifacts"]["P"])
    return _bwd_verdict(case, P, oracle.from_pairs(m["artifacts"]["Q"]), reasons)


# --- localize: the CLI command, in process -------------------------------

def localize_case(
    case_id: int, rng: np.random.Generator, n: int, k: int, xi: complex
) -> Case:
    """A ``polarpoly localize`` call on n zeros drawn from ``rng``."""
    zeros = unit_disk(rng, n)
    roots = json.dumps([[z.real, z.imag] for z in zeros])
    # "--xi=" keeps a leading minus from reading as an option.
    argv = ["localize", "--P-roots", roots,
            f"--xi={xi.real!r}{xi.imag:+}i", "--k", str(k)]
    return Case(case_id, n, k, xi, oracle.poly_from_zeros(zeros),
                oracle.poly_from_zeros([xi] * k), argv)


def localize_cases(rng: np.random.Generator) -> Iterator[Case]:
    """n log-uniform over [8, 256], k in [1, 5], zeros of P in the unit
    disk, xi uniform in |xi| <= 2.  Each (n, k) comes at most once per
    process, so no cache keyed on them earns a hit that a one-command-per-
    process user would not get.

    Case i takes n, k and |xi| from point i + 1 of the Halton sequence
    in bases 2, 3 and 5, so every prefix spreads evenly over the degrees,
    the orders and the radii: the cost of a run and the share of its
    cases in the range where the command fails at this commit barely
    move from seed to seed.  n, k and |xi| are the same for every seed;
    the seed draws the zeros and the argument of xi."""
    seen = set()
    for i in range(1, 1 << 16):
        n = round(8 * 32 ** radical_inverse(i, 2))
        k = K_RANGE[0] + int(5 * radical_inverse(i, 3))
        if (n, k) in seen:
            continue
        seen.add((n, k))
        radius = 2.0 * math.sqrt(radical_inverse(i, 5))
        xi = complex(radius * np.exp(2j * np.pi * rng.random()))
        yield localize_case(len(seen) - 1, rng, n, k, xi)


def localize_run(case: Case, state: RunState) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(case.call)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    text = out.getvalue()
    state.output_bytes += len(text)
    return code, text


# The ways the command fails at the commit that defined the benchmark.
# The centered fast path, solve_polar_shifted, shifts P by xi and loses
# accuracy like (1 + |xi|)^n: its backward error passes 1e-9 once
# n log(1 + |xi|) passes about 32, and the zeros of Q then leave the
# region.  The localization check reports contained=false from n = 19
# at |xi| near 2 and k = 5 even where Q is accurate.  At high n the root
# finder misses zeros at any xi, margins turn NaN beside a max_violation
# of 0.0, and n = 206 once raised an OverflowError.  Over thousands of
# cases no failure came below n = 19, so from n = 16 a failure for these
# reasons is a known defect; any failure below, or for another reason,
# is new.
LOCALIZE_KNOWN_REASONS = ("backward error", "contained=false", "max_violation 0.0",
                          "non-finite margin", "root residual", "OverflowError")
LOCALIZE_KNOWN_N = 16


def localize_known(case: Case, verdict: Verdict) -> bool:
    return case.n >= LOCALIZE_KNOWN_N and all(
        r.startswith(LOCALIZE_KNOWN_REASONS) for r in verdict.reasons)


def localize_check(case: Case, output: tuple[int, str]) -> Verdict:
    code, text = output
    if code != 0:
        return Verdict(False, math.inf, (f"exit code {code}",))
    data = json.loads(text)
    reasons = []
    if not data["contained"]:
        reasons.append("contained=false")
        if data["max_violation"] == 0.0:
            reasons.append("max_violation 0.0")
    margins = [w["margin"] for w in data["witnesses"]] + [data["max_violation"]]
    if not all(math.isfinite(v) for v in margins):
        reasons.append("non-finite margin")
    Q = oracle.from_pairs(data["Q"])
    zeros = oracle.from_pairs(data["Q_roots"])
    if len(zeros) != case.n:
        reasons.append(f"{len(zeros)} zeros for degree {case.n}")
    residual = oracle.root_residual(Q, zeros) if len(zeros) else math.inf
    if not residual <= oracle.ROOT_RESIDUAL_TOL:
        reasons.append(f"root residual {residual:.1e}")
    return _bwd_verdict(case, case.P, Q, reasons)


# --- solve: general-R solves, no root finding ---------------------------

def solve_cases(rng: np.random.Generator) -> Iterator[Case]:
    """n in [64, 256], k in [1, 5], P and R monic with zeros in the unit
    disk.  They are built with poly_from_roots: ``Polynomial`` of the
    coefficients would drop the leading 1 of a P whose largest
    coefficient passes 1e12, which happens for some draws near n = 256."""
    for case_id, (n, k) in enumerate(spread_pairs((64, 256))):
        P = poly_from_roots(unit_disk(rng, n))
        R = poly_from_roots(unit_disk(rng, k))
        yield Case(case_id, n, k, None, np.array(P.coeffs), np.array(R.coeffs),
                   polar.PolarProblem(P, R))


def solve_run(case: Case, state: RunState) -> Polynomial:
    return polar.solve_polar(case.call)


def solve_check(case: Case, Q: Polynomial) -> Verdict:
    return _bwd_verdict(case, case.P, np.array(Q.coeffs, dtype=np.complex128), [])


def solve_known(case: Case, verdict: Verdict) -> bool:
    return False  # no solve case fails at the commit that defined the benchmark


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite", "polarpoly.verify", 288.0, 3, suite_cases, suite_run,
                 suite_check, suite_known),
        Workload("localize", "polarpoly.cli", 3.0, 2, localize_cases, localize_run,
                 localize_check, localize_known),
        Workload("solve", "polarpoly.polar", 15.0, 3, solve_cases, solve_run,
                 solve_check, solve_known),
    )
}
