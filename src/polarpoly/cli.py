"""Command-line front end.

Subcommands map one to one onto library operations; results are JSON on
stdout (or CSV with --format csv), diagnostics go to stderr.  Exit
codes: 0 success, 1 domain errors (reported as structured JSON with an
"error" field), 2 usage errors, 141 (128 + SIGPIPE) when the reader of
stdout has gone.

Importing this module loads what every command needs; ``verify``,
``svgplot`` and ``csv`` are imported by the commands and options that
use them.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys

from .errors import DomainError
from .polar import (
    PolarProblem,
    grace_factorize,
    s_poly,
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
from .regions import (
    CONTAINMENT_TOL,
    Region,
    localize,
    polar_zero_bound,
)
from .roots import SETTLE_TOL, find_roots, max_modulus


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


def _number_arg(parse, low, rule: str):
    # argparse type for a number flag: ``parse``, then a finite value of
    # at least ``low``; text that does not parse and a value out of
    # range are both usage errors that state ``rule``.
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = math.nan
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(rule)
        return value

    return convert


_tolerance = _number_arg(float, 0.0, "must be a finite non-negative number")
_positive_int = _number_arg(int, 1, "must be a positive integer")
_seed = _number_arg(int, 0, "must be a non-negative integer")


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
    roots.add_argument("--tol", type=_tolerance, default=SETTLE_TOL)
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
    localize.add_argument("--tol", type=_tolerance, default=CONTAINMENT_TOL)
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
    verify.add_argument("--seed", type=_seed, default=42)
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
    scene = ([("zero", rs.roots)], ()) if args.svg else None
    return rs, rows, scene, 0


def _cmd_localize(args, parser):
    P = _require_poly(args, parser)
    n, k, xi = P.degree, args.k, args.xi
    loc = localize(P, xi, k, args.P_roots, args.K, tol=args.tol)
    q_roots, s_roots, report = loc.q_roots, loc.s_roots, loc.report
    root_sets = {"Q": q_roots, "S": s_roots}
    if loc.p_roots is not None:
        root_sets["P"] = loc.p_roots
    payload = {
        "n": n,
        "k": k,
        "xi": xi,
        "Q": loc.Q,
        "S": s_poly(n, k),
        "K": loc.region.to_dict(),
        "Q_roots": q_roots.roots,
        "S_roots": s_roots.roots,
        **{
            f"{name}_{flag}": getattr(rs, flag)
            for name, rs in root_sets.items()
            for flag in ("converged", "max_residual")
        },
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
        series = [("Q zero", q_roots.roots), ("S zero", s_roots.roots)]
        scene = (series, [loc.region])
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
    from .verify import SuiteConfig, run_property_suite

    report = run_property_suite(SuiteConfig(seed=args.seed, cases=args.cases))
    code = 0 if report.all_passed else 1
    return report.to_dict(), _report_rows(report), None, code


def _cmd_paper_examples(args, parser):
    from .verify import reproduce_paper_examples

    report = reproduce_paper_examples()
    code = 0 if report.all_passed else 1
    return report.to_dict(), _report_rows(report), None, code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _respond(args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (``polarpoly ... | head -1``).
        # End as a process killed by SIGPIPE would, without a traceback;
        # fd 1 now points at devnull, so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def _respond(args, parser) -> int:
    # Runs the command and writes its output; returns the exit code.  A
    # command returns its payload, its CSV rows, and what ``--svg``
    # draws (``render_scene``'s arguments) or None.
    try:
        payload, rows, scene, code = args.func(args, parser)
    except DomainError as exc:
        out = {"error": exc.code, "message": str(exc), **exc.details}
        print(json.dumps(jsonable(out), sort_keys=True))
        return 1
    if scene is not None:
        from .svgplot import render_scene

        svg = render_scene(*scene)
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            # A path that cannot be written is a usage error.
            print(
                f"polarpoly: error: cannot write {args.svg}: {exc.strerror}",
                file=sys.stderr,
            )
            return 2
        print(f"wrote {args.svg}", file=sys.stderr)
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        header, body = rows
        writer.writerow(header)
        writer.writerows(body)
    else:
        print(json_text(jsonable(payload)))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
