"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see
them).  Criterion 5 is split into the blanket bound max |Z(S)| <= k + 1
and the exact statement of where that bound is strict.  A margin above
1e-3 for every n >= 2 would be false: for k = 1,
S(w) = ((1+w)^(n+1) - 1)/w has -2 as a zero when n is odd, of modulus
exactly k + 1 = 2.  The strict-margin test therefore checks the k = 1
radius against its closed form, the 1e-3 margin for k >= 2 on the grid,
and that the grid pairs without that margin are exactly (k = 1, odd n).
"""

import cmath
import json
import math

import numpy as np
import pytest

from polarpoly.errors import FactorizationImpossible
from polarpoly.polar import (
    PolarProblem,
    grace_convolve,
    grace_factorize,
    s_poly,
    s_zeros,
    solve_polar,
)
from polarpoly.polynomial import (
    Polynomial,
    binomial_coeffs,
    max_coeff_diff,
    poly_from_roots,
    sup_norm,
    taylor_shift,
)
from polarpoly.regions import enclosing_disk, localization_check, polar_zero_bound
from polarpoly.roots import find_roots, max_modulus, vieta_residuals
from polarpoly.verify import (
    SuiteConfig,
    residual_norm,
    run_property_suite,
    sample_case,
)

from oracles import (
    closed_form_roots,
    rising_factorial,
    s_radius_k1,
    sort_roots,
)


def report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({name}): {status} - {detail}")


def _sample_batch(seed: int, count: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    cfg = SuiteConfig(n_range=(1, 12), k_range=(1, 5), cases=count)
    return [sample_case(rng, cfg) for _ in range(count)]


@pytest.fixture(scope="module")
def batch_1000():
    """Shared instances for the residual and path-equivalence criteria:
    Q from the solver and from the convolution identity
    Q(xi+w) = P(xi+w) * S(w), which shares no code with the solver."""
    out = []
    for inst in _sample_batch(20250801, 1000):
        p = inst.P
        q = solve_polar(PolarProblem.centered(p, inst.xi, inst.k))
        conv = grace_convolve(
            taylor_shift(p, inst.xi), s_poly(inst.n, inst.k)
        )
        out.append((inst, p, q, taylor_shift(conv, -inst.xi)))
    return out


@pytest.fixture(scope="module")
def batch_500():
    """Shared instances for the convolution/localization/bound criteria."""
    s_roots_cache = {}
    out = []
    for inst in _sample_batch(20250802, 500):
        p = inst.P
        q = solve_polar(PolarProblem.centered(p, inst.xi, inst.k))
        q_roots = find_roots(q)
        key = (inst.n, inst.k)
        if key not in s_roots_cache:
            s_roots_cache[key] = find_roots(s_poly(*key))
        region = enclosing_disk([z - inst.xi for z in inst.zeros])
        out.append((inst, p, q, q_roots, region, s_roots_cache[key]))
    return out


def test_criterion_01_free_case_golden():
    worst_off = 0.0
    for n in range(1, 9):
        for k in range(1, 6):
            mono = Polynomial([0j] * n + [1.0])
            q = solve_polar(PolarProblem.centered(mono, 0.0, k))
            assert q.degree == n
            assert q.leading == 1.0
            off = max((abs(c) for c in q.coeffs[:-1]), default=0.0)
            worst_off = max(worst_off, off)
            assert off <= 1e-12
            # the crude bound radius k+1 never shrinks below 2 while
            # the zeros stay put at the origin
            bound = polar_zero_bound(0.0, k)
            actual = max_modulus(find_roots(q))
            assert bound == k + 1 >= 2
            assert actual <= 1e-6
    report(
        1, "free-case golden", True,
        f"Q = z^n exactly for 40 (n, k) pairs; worst stray coefficient "
        f"{worst_off:.1e}; bound k+1 loose against actual 0",
    )


def test_criterion_02_residual_property(batch_1000):
    worst = 0.0
    for inst, p, q, _ in batch_1000:
        r = poly_from_roots([inst.xi] * inst.k)
        scale = float(rising_factorial(inst.n + 1, inst.k)) * sup_norm(p)
        rel = residual_norm(p, r, q) / scale
        worst = max(worst, rel)
        assert rel <= 1e-9
    rng = np.random.Generator(np.random.PCG64(20250803))
    cfg = SuiteConfig(n_range=(1, 12), k_range=(1, 5), cases=1)
    worst_general = 0.0
    for _ in range(300):
        inst = sample_case(rng, cfg)
        p = inst.P
        deg_r = int(rng.integers(1, 6))
        r_zeros = [
            2.0 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            for _ in range(deg_r)
        ]
        r = poly_from_roots(r_zeros)
        q = solve_polar(PolarProblem(p, r))
        scale = float(rising_factorial(inst.n + 1, deg_r)) * sup_norm(p)
        rel = residual_norm(p, r, q) / scale
        worst_general = max(worst_general, rel)
        assert rel <= 1e-9
    report(
        2, "residual property", True,
        f"1000 centered instances worst {worst:.2e}, "
        f"300 general-R instances worst {worst_general:.2e} (tol 1e-9)",
    )


def test_criterion_03_path_equivalence(batch_1000):
    worst = 0.0
    for _, _, q, q_grace in batch_1000:
        rel = max_coeff_diff(q_grace, q) / sup_norm(q)
        worst = max(worst, rel)
        assert rel <= 1e-10
    report(
        3, "path equivalence", True,
        f"solver vs Grace-convolution path agree on 1000 instances, "
        f"worst {worst:.2e} (tol 1e-10)",
    )


def test_criterion_04_convolution_identity(batch_500):
    worst = 0.0
    for inst, p, q, _, _, _ in batch_500:
        lhs = taylor_shift(q, inst.xi)
        rhs = grace_convolve(taylor_shift(p, inst.xi), s_poly(inst.n, inst.k))
        rel = max_coeff_diff(lhs, rhs) / sup_norm(lhs)
        worst = max(worst, rel)
        assert rel <= 1e-9
    report(
        4, "convolution identity", True,
        f"500 instances, worst relative error {worst:.2e} (tol 1e-9)",
    )


@pytest.fixture(scope="module")
def s_radius_grid():
    return {
        (n, k): max_modulus(s_zeros(n, k))
        for n in range(1, 31)
        for k in range(1, 9)
    }


def test_criterion_05_s_radius_bound(s_radius_grid):
    worst_excess = -math.inf
    equality = set()
    for (n, k), mm in s_radius_grid.items():
        excess = mm - (k + 1)
        worst_excess = max(worst_excess, excess)
        assert excess <= 1e-9, (n, k, mm)
        if abs(excess) <= 1e-9:
            equality.add((n, k))
    # k+1 is reached at n = 1 (S = k+1 + w) and, for k = 1, at odd n,
    # where S(w) = ((1+w)^(n+1) - 1)/w has the zero -2
    expected = {(1, k) for k in range(1, 9)} | {
        (n, 1) for n in range(1, 31, 2)
    }
    assert equality == expected, (
        f"unexpected equality {sorted(equality - expected)}, "
        f"missing equality {sorted(expected - equality)}"
    )
    report(
        5, "s-radius bound", True,
        f"max |Z(S)| <= k+1+1e-9 on {len(s_radius_grid)} pairs, worst "
        f"excess {worst_excess:.2e}; equality within 1e-9 at exactly "
        f"{len(equality)} pairs: n=1 for every k, and k=1 for odd n",
    )


def test_criterion_05_s_radius_strict_margin(s_radius_grid):
    """Where the bound max |Z(S)| <= k+1 holds with margin > 1e-3.

    A margin above 1e-3 for every n >= 2 is false in exact arithmetic:
    for k = 1 the zeros of S are exp(2*pi*i*m/(n+1)) - 1, so
    max |Z(S)| = 2*sin(pi*ceil(n/2)/(n+1)), which is exactly k+1 = 2
    for odd n.  For even n the margin 2 - 2*cos(pi/(2(n+1))) drops
    below 1e-3 from n = 50 on, so no fixed margin holds for all n even
    then.  What is checked, on the grid n <= 30, k <= 8:

    (a) for k = 1, max |Z(S)| matches the closed form within 1e-9;
    (b) for k >= 2 and n >= 2, the margin (k+1) - max |Z(S)| > 1e-3;
    (c) the pairs with n >= 2 and margin <= 1e-3 are exactly
        (n, 1) for odd n in 3..29.

    Whether (b) holds for every n is not settled here; it is checked
    on the grid only.
    """
    k1_err = {
        n: abs(mm - s_radius_k1(n))
        for (n, k), mm in s_radius_grid.items()
        if k == 1
    }
    k1_off = sorted((n, err) for n, err in k1_err.items() if err > 1e-9)
    margins = {
        (n, k): (k + 1) - mm
        for (n, k), mm in s_radius_grid.items()
        if n >= 2
    }
    thin_k2 = sorted(
        (n, k, m) for (n, k), m in margins.items() if k >= 2 and m <= 1e-3
    )
    smallest_k2 = min((m, n, k) for (n, k), m in margins.items() if k >= 2)
    thin = {key for key, m in margins.items() if m <= 1e-3}
    expected_thin = {(n, 1) for n in range(3, 31, 2)}
    ok = not k1_off and not thin_k2 and thin == expected_thin
    thin_ns = sorted(n for n, _ in thin)
    thin_ks = sorted({k for _, k in thin})
    report(
        5, "s-radius strict margin", ok,
        f"k=1 radius vs closed form worst {max(k1_err.values()):.1e} "
        f"(tol 1e-9), {len(k1_off)} off; k>=2, n>=2 smallest margin "
        f"{smallest_k2[0]:.3f} at (n={smallest_k2[1]}, k={smallest_k2[2]}), "
        f"{len(thin_k2)} at or below 1e-3; margin <= 1e-3 at "
        f"{len(thin)} pairs, k in {thin_ks}, n in {thin_ns}",
    )
    assert not k1_off, f"k=1 radius off its closed form at (n, error): {k1_off}"
    assert not thin_k2, f"k>=2 margin <= 1e-3 at (n, k, margin): {thin_k2}"
    assert thin == expected_thin, (
        f"margin <= 1e-3 unexpectedly at {sorted(thin - expected_thin)}, "
        f"not at {sorted(expected_thin - thin)}"
    )


def test_criterion_06_localization_containment(batch_500):
    worst_margin = math.inf
    for inst, _, _, q_roots, region, s_roots in batch_500:
        rep = localization_check(q_roots, inst.xi, region, s_roots, tol=1e-6)
        assert rep.contained
        worst_margin = min(
            worst_margin, min(w.margin for w in rep.witnesses)
        )
    worked_q = find_roots(Polynomial([-0.75, 0, 1]))
    worked_s = find_roots(s_poly(2, 1))
    worked_region = enclosing_disk([0.5, -0.5])
    rep = localization_check(worked_q, 0.0, worked_region, worked_s, tol=1e-6)
    assert rep.contained
    boundary = max(abs(w.margin) for w in rep.witnesses)
    assert boundary <= 1e-8
    report(
        6, "localization containment", True,
        f"500 instances contained at tol 1e-6 (worst margin "
        f"{worst_margin:.2e}); worked instance boundary margin "
        f"{boundary:.1e} <= 1e-8",
    )


def test_criterion_07_corrected_disk_bound(batch_500):
    worst = -math.inf
    for inst, _, _, q_roots, _, _ in batch_500:
        bound = polar_zero_bound(inst.xi, inst.k)
        excess = max_modulus(q_roots) - bound
        worst = max(worst, excess)
        assert excess <= 1e-8
    report(
        7, "corrected disk bound", True,
        f"every zero within |xi| + (|xi|+1)(k+1) + 1e-8 on 500 "
        f"instances, worst excess {worst:.2e}",
    )


def test_criterion_08_factorization():
    with pytest.raises(FactorizationImpossible) as exc_info:
        grace_factorize(Polynomial([0, 0, 1]), Polynomial([0, 1, 1]), 0.0)
    assert exc_info.value.index == 1

    rng = np.random.Generator(np.random.PCG64(20250804))
    cfg = SuiteConfig(n_range=(1, 12), k_range=(1, 5), cases=1)
    accepted = 0
    worst_recon = 0.0
    worst_match = 0.0
    while accepted < 200:
        inst = sample_case(rng, cfg)
        p = inst.P
        alphas = binomial_coeffs(taylor_shift(p, inst.xi), inst.n)
        amax = max(abs(a) for a in alphas)
        if min(abs(a) for a in alphas) <= 1e-8 * amax:
            continue  # degenerate draw; the criterion covers the rest
        accepted += 1
        q = solve_polar(PolarProblem.centered(p, inst.xi, inst.k))
        fact = grace_factorize(p, q, inst.xi)
        worst_recon = max(worst_recon, fact.exact_match_error)
        assert fact.exact_match_error <= 1e-10
        s = s_poly(inst.n, inst.k)
        match = max_coeff_diff(fact.s_r, s) / sup_norm(s)
        worst_match = max(worst_match, match)
        assert match <= 1e-10
    report(
        8, "factorization", True,
        f"counterexample impossible at witness index 1; 200 "
        f"non-degenerate instances: worst reconstruction {worst_recon:.2e}, "
        f"worst S_R mismatch {worst_match:.2e} (tol 1e-10)",
    )


def test_criterion_09_root_finder_oracle():
    rng = np.random.Generator(np.random.PCG64(20250805))
    worst_closed = 0.0
    rootsets = []
    for i in range(200):
        degree = 1 if i % 4 == 0 else 2
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        while abs(coeffs[-1]) < 0.3:
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(
                size=degree + 1
            )
        p = Polynomial(coeffs)
        rs = find_roots(p)
        rootsets.append((p, rs))
        want = sort_roots(closed_form_roots(p.coeffs))
        for got, expect in zip(rs.roots, want):
            err = abs(got - expect)
            worst_closed = max(worst_closed, err)
            assert err <= 1e-10

    worst_recon = 0.0
    for _ in range(60):
        degree = int(rng.integers(2, 16))
        while True:
            roots = [
                1.5 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
                for _ in range(degree)
            ]
            if all(
                abs(a - b) >= 0.1
                for idx, a in enumerate(roots)
                for b in roots[:idx]
            ):
                break
        p = poly_from_roots(roots)
        rs = find_roots(p)
        rootsets.append((p, rs))
        rebuilt = poly_from_roots(rs.roots)
        rel = max_coeff_diff(rebuilt, p) / sup_norm(p)
        worst_recon = max(worst_recon, rel)
        assert rel <= 1e-8

    worst_vieta = 0.0
    for p, rs in rootsets:
        sum_err, prod_err = vieta_residuals(p, rs)
        worst_vieta = max(worst_vieta, sum_err, prod_err)
        assert sum_err <= 1e-8
        assert prod_err <= 1e-8
    report(
        9, "root-finder oracle", True,
        f"200 closed-form comparisons worst {worst_closed:.2e} (tol "
        f"1e-10); reconstruction worst {worst_recon:.2e} (tol 1e-8); "
        f"Vieta worst {worst_vieta:.2e} on all {len(rootsets)} root sets",
    )


def test_criterion_10_determinism(run_cli):
    first = run_property_suite(SuiteConfig(seed=42)).to_json()
    second = run_property_suite(SuiteConfig(seed=42)).to_json()
    assert first == second
    parsed = json.loads(first)
    assert parsed["all_passed"] is True

    out = run_cli("paper-examples")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["all_passed"] is True
    assert all(p["failures"] == 0 for p in payload["properties"])
    report(
        10, "determinism", True,
        f"seed-42 suite reports byte-identical ({len(first)} bytes); "
        f"CLI golden examples exit 0 with all cases passing",
    )
