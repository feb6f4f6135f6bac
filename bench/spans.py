"""Traced runs: spans around each call into a polarpoly layer.

The tracer rebinds public functions where their callers look them up:
in ``polarpoly.verify`` and ``polarpoly.cli``, and ``solve_polar`` in
``polarpoly.polar`` for the benchmark's own call.  Calls a layer makes
inside its own module are not rebound, so their time stays in the
caller's self time.  No program file is edited, and every binding is
restored on exit.

A span is ``[name, start, end, parent, case, n]``: ``parent`` is the
index of the enclosing span (None for a case), ``case`` and ``n`` the
id and degree of the case it ran for.  A layer's self time is its span
time minus the time of its direct child spans, so over one case the
self times of all spans, the case span included, add up to the case.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle

CASE = "bench.case"
TRACED = (
    "roots.find_roots",
    "polar.solve_polar",
    "polar.solve_polar_shifted",
    "polar.s_poly",
    "polar.grace_convolve",
    "polar.grace_factorize",
    "polynomial.poly_from_roots",
    "polynomial.taylor_shift",
    "regions.enclosing_disk",
    "regions.localization_check",
    "verify.case_metrics",
    "verify.residual_norm",
    "cli.main",
    "svgplot.render_scene",
)
CALLERS = ("verify", "cli")
OWN_CALLS = ("polar.solve_polar",)
# Calls whose arguments and result feed the counters below.
OBSERVED = frozenset({
    "roots.find_roots", "polar.solve_polar", "polar.solve_polar_shifted",
    "regions.localization_check",
})

# Every per-layer metric with its unit, in report order.  Counts and
# times are per traced case; a ratio with no attempts reads 0.
PER_LAYER = (
    *((f"{name}.{kind}", unit) for name in TRACED
      for kind, unit in (("calls", "1/case"), ("self_s", "s/case"))),
    ("roots.find_roots.degree_sum", "1/case"),
    ("roots.find_roots.converged_ratio", "ratio"),
    ("roots.find_roots.fp_warnings", "1/case"),
    ("polar.bwd_ok_ratio", "ratio"),
    ("regions.localization_check.pairs", "1/case"),
    ("regions.contained_ratio", "ratio"),
    ("verify.s_cache_hit_ratio", "ratio"),
    ("cli.output_bytes", "B/case"),
    ("bench.case.self_s", "s/case"),
    ("trace.case_s", "s/case"),
    ("trace.overhead_s", "s"),
)


def _ratio(hits: float, attempts: float) -> float:
    return hits / attempts if attempts else 0.0


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # (P, Q, R, xi, k) of each solver call; R is None on the centered
        # path, whose R = (z - xi)^k the oracle builds after the run.
        self.solves: list[tuple] = []
        self._stack: list[int] = []
        self._case: tuple[int, int] | None = None
        self._rebind: list[tuple] | None = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, *self._case])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def case(self, case_id: int, n: int):
        self._case = (case_id, n)
        index = self._open(CASE)
        try:
            yield
        finally:
            self._close(index)
            self._case = None

    def _observe(self, name: str, bound: dict, result) -> None:
        c = self.counts
        if name == "roots.find_roots":
            c["degree_sum"] += bound["p"].degree
            c["converged"] += result.converged
        elif name == "polar.solve_polar":
            problem = bound["problem"]
            self.solves.append(
                (problem.P.coeffs, result.coeffs, problem.R.coeffs, None, None))
        elif name == "polar.solve_polar_shifted":
            self.solves.append(
                (bound["P"].coeffs, result.coeffs, None, complex(bound["xi"]), bound["k"]))
        elif name == "regions.localization_check":
            c["pairs"] += len(bound["q_zeros"].roots) * len(bound["s_zeros"].roots)
            c["contained"] += result.contained

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        observed = name in OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                if name == "roots.find_roots":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", RuntimeWarning)
                        result = fn(*args, **kwargs)
                    self.counts["fp_warnings"] += sum(
                        issubclass(w.category, RuntimeWarning) for w in caught
                    )
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observed:
                self._observe(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _bindings(self) -> list[tuple]:
        """(module, name, original, wrapper) for every rebinding."""
        out = []
        callers = [importlib.import_module(f"polarpoly.{c}") for c in CALLERS]
        for name in TRACED:
            layer, func = name.split(".")
            home = importlib.import_module(f"polarpoly.{layer}")
            original = getattr(home, func)
            wrapper = self._wrap(name, original)
            for module in callers + ([home] if name in OWN_CALLS else []):
                if getattr(module, func, None) is original:
                    out.append((module, func, original, wrapper))
        return out

    @contextmanager
    def patched(self):
        """Rebind every traced function for the duration of the block."""
        if self._rebind is None:
            self._rebind = self._bindings()
        try:
            for module, func, _, wrapper in self._rebind:
                setattr(module, func, wrapper)
            yield self
        finally:
            for module, func, original, _ in self._rebind:
                setattr(module, func, original)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        out = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def bwd_ok(self) -> int:
        ok = 0
        for P, Q, R, xi, k in self.solves:
            R = oracle.poly_from_zeros([xi] * k) if R is None else np.array(R)
            ok += oracle.backward_error(np.array(P), R, np.array(Q)) <= oracle.BWD_TOL
        return ok

    def metrics(self, cases: int, state, overhead_s: float) -> dict:
        """Every per-layer metric as ``{name: (value, unit)}``."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
        c = self.counts
        per_case = 1.0 / cases
        values = {}
        for name in TRACED:
            values[f"{name}.calls"] = calls[name] * per_case
            values[f"{name}.self_s"] = self_s[name] * per_case
        values.update({
            "roots.find_roots.degree_sum": c["degree_sum"] * per_case,
            "roots.find_roots.converged_ratio": _ratio(
                c["converged"], calls["roots.find_roots"]),
            "roots.find_roots.fp_warnings": c["fp_warnings"] * per_case,
            "polar.bwd_ok_ratio": _ratio(self.bwd_ok(), len(self.solves)),
            "regions.localization_check.pairs": c["pairs"] * per_case,
            "regions.contained_ratio": _ratio(
                c["contained"], calls["regions.localization_check"]),
            "verify.s_cache_hit_ratio": _ratio(state.s_hits, state.s_lookups),
            "cli.output_bytes": state.output_bytes * per_case,
            "bench.case.self_s": self_s[CASE] * per_case,
            "trace.case_s": sum(
                end - start for name, start, end, *_ in self.spans if name == CASE
            ) * per_case,
            "trace.overhead_s": overhead_s,
        })
        return {name: (values[name], unit) for name, unit in PER_LAYER}

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans, times relative to the first one, as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - t0, end - t0, parent, case, n]
                for name, start, end, parent, case, n in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent",
                                          "case", "n"], "spans": rows}, fh)
