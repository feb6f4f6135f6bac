"""Command-line front end.

Subcommands map one to one onto library operations; results are JSON on
stdout (or CSV with --format csv), diagnostics go to stderr.  Exit
codes: 0 success, 1 domain errors (reported as structured JSON with an
"error" field), 2 usage errors.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import math
import sys

from .errors import DomainError
from .polar import (
    PolarProblem,
    grace_factorize,
    s_poly,
    s_zeros,
    solve_polar,
)
from .polynomial import (
    Polynomial,
    from_pairs,
    json_text,
    jsonable,
    poly_from_pairs,
    poly_from_roots,
)
from .regions import Region, enclosing_disk, localization_check, polar_zero_bound
from .roots import find_roots, max_modulus
from .svgplot import render_scene
from .verify import SuiteConfig, reproduce_paper_examples, run_property_suite


def parse_complex(text: str) -> complex:
    """Parse ``a``, ``a+bi``, ``a-bi``, ``bi`` or ``i`` (no whitespace).

    Python's own ``complex`` reads the number once the trailing ``i``
    is spelled ``j``.  Both parts must be finite: ``nan``, ``inf`` and
    overflowing literals such as ``1e400`` are rejected.
    """
    s = text.strip()
    try:
        value = complex(s[:-1] + "j") if s.endswith("i") else complex(float(s))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(value):
        raise ValueError(f"complex number {text!r} is not finite")
    return value


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _json_arg(parse, what: str):
    # argparse type for a JSON flag: json.loads, then ``parse``; a
    # JSONDecodeError is a ValueError, so both become a usage error.
    def convert(text: str):
        try:
            return parse(json.loads(text))
        except ValueError as exc:
            msg = f"bad {what} JSON: {exc}"
            raise argparse.ArgumentTypeError(msg) from None

    return convert


_poly_arg = _json_arg(poly_from_pairs, "polynomial")
_roots_arg = _json_arg(lambda data: from_pairs(data, "root"), "root list")
_region_arg = _json_arg(Region.from_dict, "region")


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            "must be a finite non-negative number"
        )
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _index_rows(values) -> list[list]:
    return [[i, v.real, v.imag] for i, v in enumerate(values)]


def _require_poly(args, parser: argparse.ArgumentParser) -> Polynomial:
    if (args.P is None) == (args.P_roots is None):
        parser.error("exactly one of --P or --P-roots is required")
    if args.P is not None:
        return args.P
    return poly_from_roots(args.P_roots)


def _add_poly_flags(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--P", type=_poly_arg, metavar="JSON",
        help="coefficients as [[re,im],...] in ascending powers",
    )
    sub.add_argument(
        "--P-roots", dest="P_roots", type=_roots_arg, metavar="JSON",
        help="zeros as [[re,im],...]; expanded to a monic polynomial",
    )


def _add_output_flags(sub: argparse.ArgumentParser, svg: bool = False):
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="output format (default json)",
    )
    if svg:
        sub.add_argument(
            "--svg", metavar="PATH", help="write an SVG zero plot to PATH"
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and
    # building it takes about a quarter of an in-process `localize`
    # call at n = 12.
    parser = argparse.ArgumentParser(
        prog="polarpoly",
        description=(
            "Construct polar polynomials, compute their zeros and "
            "certify zero-localization statements."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser(
        "solve", help="solve d^k/dz^k(R*Q) = (n+1)_k P for the monic Q"
    )
    _add_poly_flags(solve)
    solve.add_argument("--xi", type=_complex_arg, metavar="A+BI")
    solve.add_argument("--k", type=_positive_int)
    solve.add_argument(
        "--R", type=_poly_arg, metavar="JSON",
        help="general monic R (conflicts with --xi/--k)",
    )
    _add_output_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    spoly = subs.add_parser(
        "spoly", help="the binomial coefficient polynomial S(w)"
    )
    spoly.add_argument("--n", type=_positive_int, required=True)
    spoly.add_argument("--k", type=_positive_int, required=True)
    _add_output_flags(spoly)
    spoly.set_defaults(func=_cmd_spoly)

    roots = subs.add_parser("roots", help="all zeros of a polynomial")
    _add_poly_flags(roots)
    roots.add_argument("--tol", type=_tolerance, default=1e-12)
    _add_output_flags(roots, svg=True)
    roots.set_defaults(func=_cmd_roots)

    localize = subs.add_parser(
        "localize",
        help="solve, find zeros and certify Z(Q) within xi - K*Z(S)",
    )
    _add_poly_flags(localize)
    localize.add_argument("--xi", type=_complex_arg, required=True)
    localize.add_argument("--k", type=_positive_int, required=True)
    localize.add_argument(
        "--K", type=_region_arg, metavar="JSON",
        help="region JSON; default is the minimum enclosing disk of "
        "the shifted zeros of P",
    )
    localize.add_argument("--tol", type=_tolerance, default=1e-6)
    _add_output_flags(localize, svg=True)
    localize.set_defaults(func=_cmd_localize)

    bound = subs.add_parser(
        "bound", help="the crude disk radius |xi| + (|xi|+1)(k+1)"
    )
    bound.add_argument("--xi", type=_complex_arg, required=True)
    bound.add_argument("--k", type=_positive_int, required=True)
    _add_output_flags(bound)
    bound.set_defaults(func=_cmd_bound)

    factorize = subs.add_parser(
        "factorize", help="extract the convolution factor S_R from (P, Q)"
    )
    factorize.add_argument("--P", type=_poly_arg, required=True)
    factorize.add_argument("--Q", type=_poly_arg, required=True)
    factorize.add_argument("--xi", type=_complex_arg, required=True)
    _add_output_flags(factorize)
    factorize.set_defaults(func=_cmd_factorize)

    verify = subs.add_parser(
        "verify", help="run the randomized property suite"
    )
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--cases", type=_positive_int, default=500)
    _add_output_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    golden = subs.add_parser(
        "paper-examples", help="run the built-in golden example suite"
    )
    _add_output_flags(golden)
    golden.set_defaults(func=_cmd_paper_examples)

    return parser


def _cmd_solve(args, parser):
    P = _require_poly(args, parser)
    if args.R is not None:
        if args.xi is not None or args.k is not None:
            parser.error("--R conflicts with --xi/--k")
        Q = solve_polar(PolarProblem(P, args.R))
        k, path = args.R.degree, "general"
    else:
        if args.xi is None or args.k is None:
            parser.error("solve needs either --R or both --xi and --k")
        Q = solve_polar(PolarProblem.centered(P, args.xi, args.k))
        k, path = args.k, "centered"
    payload = {"Q": Q, "n": P.degree, "k": k, "path": path}
    return payload, (["index", "re", "im"], _index_rows(Q.coeffs)), None, 0


def _cmd_spoly(args, parser):
    S = s_poly(args.n, args.k)
    payload = {"S": S, "n": args.n, "k": args.k}
    return payload, (["index", "re", "im"], _index_rows(S.coeffs)), None, 0


def _cmd_roots(args, parser):
    P = _require_poly(args, parser)
    rs = find_roots(P, tol=args.tol)
    rows = (["index", "re", "im"], _index_rows(rs.roots))
    scene = render_scene([("zero", rs.roots)]) if args.svg else None
    return rs, rows, scene, 0


def _cmd_localize(args, parser):
    P = _require_poly(args, parser)
    n, k, xi = P.degree, args.k, args.xi
    # The problem refuses P (DegreeZero, NotMonic), then sizes it or S
    # cannot represent (DegreeTooLarge), before any zero is sought.
    problem = PolarProblem.centered(P, xi, k)
    S = s_poly(n, k)
    s_roots = s_zeros(n, k)
    Q = solve_polar(problem)
    q_roots = find_roots(Q)
    region = args.K
    if region is None:
        zeros = args.P_roots or find_roots(P).roots
        region = enclosing_disk([z - xi for z in zeros])
    report = localization_check(q_roots, xi, region, s_roots, tol=args.tol)
    payload = {
        "n": n,
        "k": k,
        "xi": xi,
        "Q": Q,
        "S": S,
        "K": region.to_dict(),
        "Q_roots": q_roots.roots,
        "S_roots": s_roots.roots,
        **vars(report),
        "bound_radius": polar_zero_bound(xi, k),
        "max_zero_modulus": max_modulus(q_roots),
    }
    rows = (
        [
            "zero_re", "zero_im", "beta_re", "beta_im",
            "quotient_re", "quotient_im", "margin",
        ],
        [
            [
                w.zero.real, w.zero.imag, w.beta.real, w.beta.imag,
                w.quotient.real, w.quotient.imag, w.margin,
            ]
            for w in report.witnesses
        ],
    )
    scene = None
    if args.svg:
        scene = render_scene(
            [("Q zero", q_roots.roots), ("S zero", s_roots.roots)], [region]
        )
    return payload, rows, scene, 0


def _cmd_bound(args, parser):
    radius = polar_zero_bound(args.xi, args.k)
    return {"radius": radius}, (["radius"], [[radius]]), None, 0


def _cmd_factorize(args, parser):
    if args.P.degree != args.Q.degree:
        parser.error("--P and --Q must have the same degree")
    fact = grace_factorize(args.P, args.Q, args.xi)
    payload = {
        "S_R": fact.s_r,
        "c": fact.c,
        "exact_match_error": fact.exact_match_error,
    }
    rows = (["index", "c_re", "c_im"], _index_rows(fact.c))
    return payload, rows, None, 0


def _report_rows(report):
    header = ["property", "cases", "passes", "failures", "worst"]
    rows = [
        [p.name, p.cases, p.passes, p.failures, p.worst]
        for p in report.properties
    ]
    return header, rows


def _cmd_verify(args, parser):
    report = run_property_suite(SuiteConfig(seed=args.seed, cases=args.cases))
    code = 0 if report.all_passed else 1
    return report.to_dict(), _report_rows(report), None, code


def _cmd_paper_examples(args, parser):
    report = reproduce_paper_examples()
    code = 0 if report.all_passed else 1
    return report.to_dict(), _report_rows(report), None, code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, rows, scene, code = args.func(args, parser)
    except DomainError as exc:
        out = {"error": exc.code, "message": str(exc), **exc.details}
        print(json.dumps(jsonable(out), sort_keys=True))
        return 1
    if scene is not None:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(scene)
        print(f"wrote {args.svg}", file=sys.stderr)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        header, body = rows
        writer.writerow(header)
        writer.writerows(body)
    else:
        print(json_text(jsonable(payload)))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
