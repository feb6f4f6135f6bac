"""Property harness and golden-example suite.

The harness samples random instances (P from sampled zeros, a center
xi, an order k), runs every library property on each instance and
aggregates pass/fail counts with worst-case margins.  Failing cases are
dumped as self-contained JSON instances; ``replay_case`` recomputes the
metrics of such a dump and reproduces the failure bit for bit.

``residual_norm`` checks a claimed solution through ``apply_tr``, which
the solver does not call; the check that shares no code with the
library is ``bench/oracle.py``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FactorizationImpossible, NonFiniteError
from .polar import (
    PolarProblem,
    apply_tr,
    grace_convolve,
    grace_factorize,
    s_poly,
    solve_polar,
)
from .polynomial import (
    Polynomial,
    from_pair,
    from_pairs,
    json_text,
    jsonable,
    max_coeff_diff,
    poly_from_roots,
    rising_row,
    sup_norm,
    taylor_shift,
)
from .regions import CONTAINMENT_TOL, localize, polar_zero_bound
from .roots import RESIDUAL_TOL, RootSet, find_roots, max_modulus

GENERATOR_NAME = "numpy-pcg64"

# Property tolerances; RESIDUAL_TOL and CONTAINMENT_TOL are imported.
EQUIVALENCE_TOL = 1e-10
REMARK_SLACK = 1e-8
S_RADIUS_SLACK = 1e-9
FACTORIZE_TOL = 1e-10
FREE_CASE_TOL = 1e-12
LOOSENESS_TOL = 1e-6


@dataclass(frozen=True)
class SuiteConfig:
    n_range: tuple[int, int] = (2, 12)
    k_range: tuple[int, int] = (1, 5)
    cases: int = 500
    seed: int = 42

    def __post_init__(self):
        if self.n_range[0] > self.n_range[1] or self.n_range[0] < 1:
            raise ValueError("empty or invalid n range")
        if self.k_range[0] > self.k_range[1] or self.k_range[0] < 1:
            raise ValueError("empty or invalid k range")
        if self.cases < 1:
            raise ValueError("need at least one case")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class CaseInstance:
    """One sampled problem: P given by its zeros, a center and an order."""

    n: int
    k: int
    zeros: tuple[complex, ...]
    xi: complex

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("case field 'k' must be a positive integer")
        if self.n != len(self.zeros):
            raise ValueError("case field 'n' must be the number of zeros")

    @property
    def P(self) -> Polynomial:
        return poly_from_roots(self.zeros)

    @classmethod
    def from_dict(cls, data: dict) -> "CaseInstance":
        """Read a dumped instance; ValueError on a malformed field."""
        for name in ("n", "k"):  # exactly int: JSON's true is refused
            if type(data.get(name)) is not int:
                raise ValueError(f"case field {name!r} must be an integer")
        return cls(
            n=data["n"],
            k=data["k"],
            zeros=tuple(from_pairs(data.get("zeros"), "zero")),
            xi=from_pair(data.get("xi"), "xi"),
        )


def _nan_or(pick, values):
    """``pick(values)`` for the builtin ``min`` or ``max``, or NaN if any
    value is NaN: the builtins drop a NaN that does not come first."""
    return math.nan if any(map(math.isnan, values)) else pick(values)


@dataclass
class PropertyResult:
    name: str
    tolerance: float
    sense: str  # "max": observed <= tolerance; "min": observed >= -tolerance
    cases: int = 0
    passes: int = 0
    failures: int = 0
    worst: float | None = None
    notes: list[str] = field(default_factory=list)
    failing: list[dict] = field(default_factory=list)

    def record(self, ok: bool, observed: float, instance: dict | None):
        self.cases += 1
        if self.worst is None:
            self.worst = observed
        else:
            pick = max if self.sense == "max" else min
            self.worst = _nan_or(pick, (self.worst, observed))
        if ok:
            self.passes += 1
        else:
            self.failures += 1
            self.failing.append(
                {
                    "property": self.name,
                    "observed": observed,
                    "tolerance": self.tolerance,
                    "instance": instance,
                }
            )


@dataclass
class SuiteReport:
    generator: str
    seed: int
    config: dict
    properties: list[PropertyResult]

    @property
    def all_passed(self) -> bool:
        return all(p.failures == 0 for p in self.properties)

    def property_by_name(self, name: str) -> PropertyResult:
        for p in self.properties:
            if p.name == name:
                return p
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {**jsonable(self), "all_passed": self.all_passed}

    def to_json(self) -> str:
        return json_text(self.to_dict())


def residual_norm(P: Polynomial, R: Polynomial, Q: Polynomial) -> float:
    """Sup norm of d^k/dz^k(R*Q) - (n+1)_k * P.

    The image is ``apply_tr(R, Q)``, a product and a derivative that
    share no code with the solver's substitution; ``bench/oracle.py``
    shares no code with it.  Reads inf where the image leaves the double
    range, as it can for R*Q near the top of the range, or NaN where it
    and (n+1)_k * P are both infinite at one power (``max_coeff_diff``).
    Raises DegreeTooLargeError where the factors (j+1)_k of the image do
    not fit a double (``rising_row``), as from deg R = 171 on.
    """
    n = P.degree
    lhs = apply_tr(R, Q)
    scale = float(rising_row(n, R.degree)[n])
    rhs = Polynomial(scale * P.coeffs)
    return max_coeff_diff(lhs, rhs)


def _disk_point(rng: np.random.Generator) -> complex:
    """A point uniform in the unit disk."""
    r = math.sqrt(rng.random())
    return r * cmath.exp(2j * math.pi * rng.random())


def sample_case(rng: np.random.Generator, cfg: SuiteConfig) -> CaseInstance:
    """P's zeros uniform in the unit disk, xi uniform in |xi| <= 2."""
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    k = int(rng.integers(cfg.k_range[0], cfg.k_range[1] + 1))
    zeros = tuple(_disk_point(rng) for _ in range(n))
    xi = 2.0 * _disk_point(rng)
    return CaseInstance(n=n, k=k, zeros=zeros, xi=xi)


def case_metrics(
    inst: CaseInstance,
    s_cache: dict[tuple[int, int], RootSet] | None = None,
    containment_tol: float = CONTAINMENT_TOL,
) -> dict:
    """All per-instance property metrics, shared by suite and replay.

    A factorization whose shifted pair leaves the double range reads
    ``factorize_error`` inf.
    """
    n, k, xi = inst.n, inst.k, inst.xi
    P = inst.P
    s_cache = {} if s_cache is None else s_cache
    loc = localize(
        P, xi, k, inst.zeros, s_roots=s_cache.get((n, k)), tol=containment_tol
    )
    s_cache[(n, k)] = s_roots = loc.s_roots
    Q, q_roots = loc.Q, loc.q_roots

    scale = float(rising_row(n, k)[n]) * sup_norm(P)
    residual_rel = residual_norm(P, loc.problem.R, Q) / scale

    # The Grace-convolution path to Q shares no code with solve_polar:
    # Q(xi + w) is P(xi + w) convolved with S.
    s = s_poly(n, k)
    ps, qs = taylor_shift(P, xi), taylor_shift(Q, xi)
    rhs = grace_convolve(ps, s)
    convolution_rel = max_coeff_diff(qs, rhs) / sup_norm(qs)
    path_rel = max_coeff_diff(Q, taylor_shift(rhs, -xi)) / sup_norm(Q)

    witnesses = loc.report.witnesses
    containment_margin = _nan_or(min, [w.margin for w in witnesses])

    remark_excess = max_modulus(q_roots) - polar_zero_bound(xi, k)
    s_radius_excess = max_modulus(s_roots) - (k + 1)

    try:
        fact = grace_factorize(ps, qs, 0.0)
        s_error = max_coeff_diff(fact.s_r, s) / sup_norm(s)
        factorize_error = _nan_or(max, (fact.exact_match_error, s_error))
        factorize_impossible = False
    except FactorizationImpossible:
        factorize_error = None
        factorize_impossible = True
    except NonFiniteError:
        factorize_error = math.inf
        factorize_impossible = False

    return {
        "residual_rel": residual_rel,
        "path_equivalence_rel": path_rel,
        "convolution_rel": convolution_rel,
        "containment_margin": containment_margin,
        "remark_excess": remark_excess,
        "s_radius_excess": s_radius_excess,
        "factorize_error": factorize_error,
        "factorize_impossible": factorize_impossible,
        "artifacts": jsonable({"P": P, "Q": Q, "Q_roots": q_roots.roots}),
    }


def replay_case(data: dict) -> dict:
    """Recompute the metrics of a dumped instance, standalone; none of
    them depends on the containment tolerance."""
    return case_metrics(CaseInstance.from_dict(data))


def run_property_suite(cfg: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Run every library property on ``cfg.cases`` sampled instances.

    Deterministic for a fixed config: the RNG is seeded PCG64 and the
    aggregation uses associative merges only, so the report serializes
    to identical bytes on every run.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    # (property, case_metrics key, tolerance, sense), in report order.
    table = (
        ("residual", "residual_rel", RESIDUAL_TOL, "max"),
        ("path_equivalence", "path_equivalence_rel", EQUIVALENCE_TOL, "max"),
        ("convolution_identity", "convolution_rel", RESIDUAL_TOL, "max"),
        ("localization", "containment_margin", CONTAINMENT_TOL, "min"),
        ("remark_bound", "remark_excess", REMARK_SLACK, "max"),
        ("s_radius", "s_radius_excess", S_RADIUS_SLACK, "max"),
        ("factorize_roundtrip", "factorize_error", FACTORIZE_TOL, "max"),
    )
    props = {
        name: PropertyResult(name, tol, sense) for name, _, tol, sense in table
    }
    s_cache: dict[tuple[int, int], RootSet] = {}
    equality_pairs: set[tuple[int, int]] = set()
    impossible_count = 0

    for _ in range(cfg.cases):
        inst = sample_case(rng, cfg)
        m = case_metrics(inst, s_cache)
        dump = None  # built for the first failing property only
        for name, key, tol, sense in table:
            # A FactorizationImpossible case has no factorize_error and
            # counts as a pass with value 0.0.
            value = 0.0 if m[key] is None else m[key]
            ok = value <= tol if sense == "max" else value >= -tol
            if not ok and dump is None:
                dump = {**jsonable(inst), **m["artifacts"]}
            props[name].record(ok, value, dump)
        if abs(m["s_radius_excess"]) <= S_RADIUS_SLACK:
            equality_pairs.add((inst.n, inst.k))
        impossible_count += m["factorize_impossible"]

    for n, k in sorted(equality_pairs):
        props["s_radius"].notes.append(
            f"max root modulus equals k+1 at (n={n}, k={k})"
        )
    if impossible_count:
        props["factorize_roundtrip"].notes.append(
            f"{impossible_count} degenerate instances reported "
            "FactorizationImpossible (counted as conforming)"
        )

    return SuiteReport(
        generator=GENERATOR_NAME,
        seed=cfg.seed,
        config=jsonable(cfg),
        properties=list(props.values()),
    )


def reproduce_paper_examples() -> SuiteReport:
    """Golden cases: the centered-monomial identity, the loose disk
    bound, and the factorization counterexample.

    Checks, in order: (i) solving for P = z^n about xi = 0 returns z^n
    itself for n in 1..8, k in 1..5, with all zeros collapsing to the
    origin and the degenerate region K = {0} certifying containment;
    (ii) the crude disk radius k+1 keeps growing with k although every
    zero stays at 0; (iii) the pair (w^2, w^2 + w) admits no
    convolution factor, witnessed at index 1.
    """
    free = PropertyResult("free_case_identity", FREE_CASE_TOL, "max")
    loose = PropertyResult("bound_looseness", LOOSENESS_TOL, "max")
    counter = PropertyResult(
        "factorization_counterexample", FREE_CASE_TOL, "max"
    )

    for n in range(1, 9):
        for k in range(1, 6):
            mono = Polynomial([0j] * n + [1.0])
            loc = localize(mono, 0.0, k, [0j] * n)
            q = loc.Q
            off = float(np.abs(q.coeffs[:-1]).max(initial=abs(q.leading - 1)))
            ok = off <= FREE_CASE_TOL and loc.report.contained
            free.record(
                ok, off, {"n": n, "k": k, "case": "free_case_identity"}
            )

    previous = 0.0
    for k in range(1, 6):
        bound = polar_zero_bound(0.0, k)
        mono = Polynomial([0j] * 8 + [1.0])
        q = solve_polar(PolarProblem.centered(mono, 0.0, k))
        observed = max_modulus(find_roots(q))
        ok = (
            abs(bound - (k + 1)) <= FREE_CASE_TOL
            and observed <= LOOSENESS_TOL
            and bound > previous
        )
        loose.record(ok, observed, {"k": k, "case": "bound_looseness"})
        loose.notes.append(
            f"k={k}: bound radius {bound:g}, observed max zero modulus "
            f"{observed:.2e}"
        )
        previous = bound

    try:
        grace_factorize(Polynomial([0, 0, 1]), Polynomial([0, 1, 1]), 0.0)
        counter.record(
            False, math.inf, {"case": "factorization_counterexample"}
        )
    except FactorizationImpossible as exc:
        witness_ok = (
            exc.index == 1
            and abs(exc.alpha) <= FREE_CASE_TOL
            and abs(exc.beta - 0.5) <= FREE_CASE_TOL
        )
        counter.record(
            witness_ok,
            abs(exc.beta - 0.5),
            {"case": "factorization_counterexample"},
        )
        counter.notes.append(
            f"witness index {exc.index}, alpha={exc.alpha.real:g}, "
            f"beta={exc.beta.real:g}"
        )

    return SuiteReport(
        generator=GENERATOR_NAME,
        seed=0,
        config={"kind": "paper-examples"},
        properties=[free, loose, counter],
    )
