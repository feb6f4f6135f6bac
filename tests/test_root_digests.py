"""Every bit of the three root searches, pinned on seeded corpora.

The goldens of test_cli.py pin zeros at degrees 3, 40 and 64 only, and
verify_seed42.json only the worst value of each property.  Here each
search's roots bytes, ``max_residual`` and ``converged`` are hashed per
input: ``find_roots`` on unit-disk zeros, random coefficients and
clusters at degrees 1-40, 64, 128 and 256; ``q_zeros`` on the first 300
draws of the property harness and on 20 draws of the ``localize`` mix;
``s_zeros`` on 20 pairs (n, k).  tests/data/root_digests.json holds one
digest per family, and the digest of each input, so that a failure
names the first input that differs.  A change of output must regenerate
the file on purpose, from the root of the repo:

    PYTHONPATH=src:tests python -c '
    import json; from test_root_digests import DIGESTS, FAMILIES, family
    out = {name: family(name) for name in FAMILIES}
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")'
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from polarpoly import polar, roots
from polarpoly.errors import DomainError
from polarpoly.polar import PolarProblem, q_zeros, s_zeros, solve_polar
from polarpoly.polynomial import BINOMIAL_MAX, Polynomial, poly_from_roots
from polarpoly.roots import _Evaluator, find_roots
from polarpoly.verify import SuiteConfig, sample_case

DIGESTS = Path(__file__).resolve().parent / "data" / "root_digests.json"

S_PAIRS = (
    (1, 1), (2, 1), (3, 2), (5, 3), (7, 5), (12, 4), (16, 1), (25, 2),
    (40, 5), (41, 1), (64, 3), (100, 10), (128, 5), (200, 20), (256, 1),
    (256, 5), (300, 50), (512, 7), (700, 3), (1000, 20),
)


def unit_disk(rng, count):
    return np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


def find_roots_inputs():
    rng = np.random.default_rng(40)
    for n in [*range(1, 41), 64, 128, 256]:
        yield f"unit-disk zeros, n = {n}", poly_from_roots(unit_disk(rng, n))
        coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        yield f"random coefficients, n = {n}", Polynomial(coeffs)
        centers = unit_disk(rng, -(-n // 4))
        zeros = centers[np.arange(n) % len(centers)] + 1e-4 * unit_disk(rng, n)
        yield f"clusters, n = {n}", poly_from_roots(zeros)


def q_zeros_inputs():
    # The property harness's draws, then the localize mix: n
    # log-uniform over [8, 256], k in [1, 5], |xi| <= 2.
    rng = np.random.Generator(np.random.PCG64(1))
    for i in range(300):
        inst = sample_case(rng, SuiteConfig())
        yield f"suite draw {i}", (inst.P, inst.xi, inst.k)
    rng = np.random.default_rng(2)
    for i in range(20):
        n = round(8 * 32 ** rng.random())
        k = int(rng.integers(1, 6))
        xi = 2.0 * complex(unit_disk(rng, 1)[0])
        yield f"localize draw {i}, n = {n}", (
            poly_from_roots(unit_disk(rng, n)), xi, k,
        )


def search_q(inputs):
    P, xi, k = inputs
    Q = solve_polar(PolarProblem.centered(P, xi, k))
    return q_zeros(xi, Q, s_zeros(P.degree, k))


FAMILIES = {
    "find_roots": (find_roots_inputs, find_roots),
    "q_zeros": (q_zeros_inputs, search_q),
    "s_zeros": (
        lambda: ((f"n = {n}, k = {k}", (n, k)) for n, k in S_PAIRS),
        lambda pair: s_zeros(*pair),
    ),
}


def input_digests(name):
    """(description, digest of the search's output) for each input."""
    inputs, search = FAMILIES[name]
    for label, data in inputs():
        try:
            rs = search(data)
            raw = np.array(rs.roots, np.complex128).tobytes() + struct.pack(
                "<d?", rs.max_residual, rs.converged
            )
        except DomainError as exc:
            raw = type(exc).__name__.encode()
        yield label, hashlib.sha256(raw).hexdigest()[:16]


def family(name):
    digests = [d for _, d in input_digests(name)]
    whole = hashlib.sha256("".join(digests).encode()).hexdigest()
    return {"digest": whole, "inputs": digests}


@pytest.mark.parametrize("name", FAMILIES)
def test_search_bits_unchanged(name):
    pinned = json.loads(DIGESTS.read_text())[name]
    found = list(input_digests(name))
    whole = hashlib.sha256("".join(d for _, d in found).encode()).hexdigest()
    if whole == pinned["digest"]:
        return
    assert len(found) == len(pinned["inputs"]), "the corpus changed size"
    for (label, got), want in zip(found, pinned["inputs"]):
        assert got == want, f"{name}: first input that differs: {label}"
    pytest.fail(f"{name}: the family digest is stale")


def test_corpus_covers_the_size_switches():
    # The blocked evaluator (beyond 16 coefficients), the polygon starts
    # (beyond degree 40) and the starts of q_zeros from Z(S) all run.
    degrees = [P.degree for _, P in find_roots_inputs()]
    assert {1, 16, 17, 40, 64, 256} <= set(degrees)
    localize = [P.degree for label, (P, _, _) in q_zeros_inputs()
                if label.startswith("localize")]
    assert len(localize) == 20 and max(localize) > 40
    assert all(n + k <= BINOMIAL_MAX for n, k in S_PAIRS)


def test_starts_from_z_s_save_a_third_of_the_points(monkeypatch):
    # A guard on the work q_zeros' starts save beyond degree 40, counted
    # rather than timed: over the localize draws with n > 40, the points
    # evaluated on Q (sweeps, polish and q_zeros' Q(c)) are at most 0.65
    # times those of find_roots(Q), the polygon's starts (11,873 against
    # 19,690 when this guard was set).
    cases = []
    for label, (P, xi, k) in q_zeros_inputs():
        if label.startswith("localize") and P.degree > 40:
            Q = solve_polar(PolarProblem.centered(P, xi, k))
            cases.append((xi, Q, s_zeros(P.degree, k)))
    points = []

    class Counting(_Evaluator):
        def __call__(self, z):
            points.append(len(z))
            return super().__call__(z)

    monkeypatch.setattr(roots, "_Evaluator", Counting)
    monkeypatch.setattr(polar, "_Evaluator", Counting)
    totals = []
    for search in (lambda c: q_zeros(*c), lambda c: find_roots(c[1])):
        points.clear()
        assert all(search(case).converged for case in cases)
        totals.append(sum(points))
    assert len(cases) == 13
    assert totals[0] <= 0.65 * totals[1], totals
