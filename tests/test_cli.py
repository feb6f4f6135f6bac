import cmath
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from polarpoly import cli, regions
from polarpoly.cli import main, parse_complex
from polarpoly.polynomial import jsonable, poly_from_roots
from polarpoly.regions import enclosing_disk

from oracles import s_zeros_k1, sort_roots

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"


class TestComplexFlagSyntax:
    @pytest.mark.parametrize(
        ("text", "want"),
        [
            ("0", 0j),
            ("1.5", 1.5 + 0j),
            ("-2", -2 + 0j),
            ("1+0i", 1 + 0j),
            ("1-2i", 1 - 2j),
            ("-1.5+0.5i", -1.5 + 0.5j),
            ("2i", 2j),
            ("-i", -1j),
            ("i", 1j),
            ("0.25-0.75i", 0.25 - 0.75j),
            ("+i", 1j),
            ("1e-3+2E+3i", 0.001 + 2000j),
        ],
    )
    def test_accepted(self, text, want):
        assert parse_complex(text) == want

    @pytest.mark.parametrize(
        "text",
        [
            "", "z", "1+2j5", "1 + 2i", "2x+1i",
            "nan", "inf", "-Infinity", "1e400", "1+nani", "1e400i",
            "1 +2i", "1+2j", "2j", "(1+2i)", "1+2ji",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)


class TestNonFiniteInput:
    """Booleans and non-finite numbers are usage errors on every flag."""

    P = "[[-0.25,0],[0,0],[1,0]]"

    @pytest.mark.parametrize(
        ("flag", "argv"),
        [
            ("--P", ["roots", "--P", "[[NaN,0],[1,0]]"]),
            ("--P", ["roots", "--P", "[[true,false],[1,0]]"]),
            (
                "--P-roots",
                [
                    "localize", "--P-roots", "[[Infinity,0],[0.5,0]]",
                    "--xi", "0", "--k", "1",
                ],
            ),
            ("--R", ["solve", "--P", P, "--R", "[[1e400,0],[1,0]]"]),
            (
                "--Q",
                ["factorize", "--P", P, "--Q", "[[0,NaN],[0,0],[1,0]]",
                 "--xi", "0"],
            ),
            (
                "--K",
                [
                    "localize", "--P", P, "--xi", "0", "--k", "1", "--K",
                    '{"kind": "disk", "center": [0, 0], "radius": NaN}',
                ],
            ),
            ("--xi", ["localize", "--P", P, "--xi", "nan", "--k", "1"]),
            (
                "--tol",
                [
                    "localize", "--P", P, "--xi", "0", "--k", "1",
                    "--tol", "nan",
                ],
            ),
            (
                "--tol",
                [
                    "localize", "--P", P, "--xi", "0", "--k", "1",
                    "--tol", "-1e-12",
                ],
            ),
            (
                "--K",
                [
                    "localize", "--P", P, "--xi", "0", "--k", "1", "--K",
                    '{"kind": "disk", "center": [0, 0], "radius": 1, '
                    '"closed": "false"}',
                ],
            ),
        ],
    )
    def test_usage_error(self, run_cli, flag, argv):
        out = run_cli(*argv)
        assert out.returncode == 2
        assert out.stdout == ""
        assert f"argument {flag}:" in out.stderr

    @pytest.mark.parametrize(
        ("argv", "rule"),
        [
            (["spoly", "--n", "x", "--k", "1"], "must be a positive integer"),
            (
                ["localize", "--P", "[[1,0],[1,0]]", "--xi", "0",
                 "--k", "1", "--tol", "abc"],
                "must be a finite non-negative number",
            ),
            (["verify", "--seed", "x"], "must be a non-negative integer"),
            (
                ["localize", "--P", "[[1,0],[1,0]]", "--xi", "0",
                 "--k", "1.5"],
                "must be a positive integer",
            ),
        ],
    )
    def test_unparsable_number_states_the_rule(self, capsys, argv, rule):
        # Text that does not parse gets the same message as a value out
        # of range, not one that names the private validator.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f": {rule}")

    def test_roots_takes_no_tol(self, capsys):
        # The settle test is relative to each zero, so `roots` has no
        # tolerance to set; `localize --tol` is the containment one.
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--P", "[[1,0],[1,0]]", "--tol", "1e-12"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: --tol 1e-12" in out.err


class TestSolve:
    def test_centered_solve_worked_example(self, run_cli):
        out = run_cli(
            "solve", "--P", "[[-0.25,0],[0,0],[1,0]]", "--xi", "0", "--k", "1"
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        q = [complex(re, im) for re, im in payload["Q"]]
        assert max(abs(a - b) for a, b in zip(q, [-0.75, 0, 1])) <= 1e-12
        assert payload["path"] == "centered"

    def test_solve_from_roots(self, run_cli):
        out = run_cli(
            "solve", "--P-roots", "[[0.5,0],[-0.5,0]]", "--xi", "0", "--k", "1"
        )
        payload = json.loads(out.stdout)
        q = [complex(re, im) for re, im in payload["Q"]]
        assert max(abs(a - b) for a, b in zip(q, [-0.75, 0, 1])) <= 1e-12

    def test_general_r_path_matches(self, run_cli):
        centered = json.loads(
            run_cli(
                "solve", "--P", "[[-0.25,0],[0,0],[1,0]]",
                "--xi", "0", "--k", "1",
            ).stdout
        )
        general = json.loads(
            run_cli(
                "solve", "--P", "[[-0.25,0],[0,0],[1,0]]",
                "--R", "[[0,0],[1,0]]",
            ).stdout
        )
        assert general["path"] == "general"
        for (ar, ai), (br, bi) in zip(centered["Q"], general["Q"]):
            assert abs(complex(ar, ai) - complex(br, bi)) <= 1e-10

    def test_conflicting_flags_usage_error(self, run_cli):
        out = run_cli(
            "solve", "--P", "[[0,0],[1,0]]", "--xi", "0", "--k", "1",
            "--R", "[[0,0],[1,0]]",
        )
        assert out.returncode == 2
        assert "--R" in out.stderr

    def test_missing_polynomial_usage_error(self, run_cli):
        out = run_cli("solve", "--xi", "0", "--k", "1")
        assert out.returncode == 2
        assert "--P" in out.stderr

    def test_both_polynomial_flags_usage_error(self, run_cli):
        out = run_cli(
            "solve", "--P", "[[0,0],[1,0]]", "--P-roots", "[[0,0]]",
            "--xi", "0", "--k", "1",
        )
        assert out.returncode == 2

    def test_bad_polynomial_json_usage_error(self, run_cli):
        out = run_cli("solve", "--P", "[1,2,3]", "--xi", "0", "--k", "1")
        assert out.returncode == 2
        assert "--P" in out.stderr

    def test_non_monic_domain_error(self, run_cli):
        out = run_cli(
            "solve", "--P", "[[1,0],[2,0]]", "--xi", "0", "--k", "1"
        )
        assert out.returncode == 1
        payload = json.loads(out.stdout)
        assert payload["error"] == "NotMonic"

    def test_constant_r_domain_error(self, run_cli):
        out = run_cli("solve", "--P", "[[1,0],[1,0]]", "--R", "[[1,0]]")
        assert out.returncode == 1
        assert json.loads(out.stdout) == {
            "error": "DegreeZero", "message": "R must be non-constant",
        }
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "flags",
        [
            ["solve", "--xi", "0.5", "--k"],
            ["solve", "--R"],
            ["localize", "--xi", "0.5", "--k"],
        ],
    )
    def test_operator_scale_limit(self, capsys, flags):
        # (n+1)_k = (k+1)! for P = z: 170! fits a double, 171! does not.
        def run(k):
            R = json.dumps([[0, 0]] * k + [[1, 0]])
            argv = [flags[0], "--P", "[[0,0],[1,0]]", *flags[1:]]
            code = main(argv + [R if flags[-1] == "--R" else str(k)])
            return code, json.loads(capsys.readouterr().out)

        code, payload = run(169)
        assert code == 0 and payload["n"] == 1
        code, payload = run(170)
        assert code == 1
        assert payload["error"] == "DegreeTooLarge"
        assert (payload["n"], payload["k"]) == (1, 170)

    def test_constant_p_refused_before_scale(self, capsys):
        argv = ["solve", "--P", "[[1,0]]", "--xi", "0", "--k", "4000"]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "DegreeZero"

    def test_csv_format(self, run_cli):
        out = run_cli(
            "solve", "--P", "[[-0.25,0],[0,0],[1,0]]",
            "--xi", "0", "--k", "1", "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out.stdout)))
        assert rows[0] == ["index", "re", "im"]
        assert len(rows) == 4
        assert float(rows[1][1]) == -0.75


class TestSPolyRootsBound:
    def test_spoly(self, run_cli):
        out = run_cli("spoly", "--n", "2", "--k", "1")
        payload = json.loads(out.stdout)
        assert payload["S"] == [[3.0, 0.0], [3.0, 0.0], [1.0, 0.0]]

    def test_spoly_validation(self, run_cli):
        assert run_cli("spoly", "--n", "0", "--k", "1").returncode == 2

    def test_spoly_degree_too_large(self, run_cli):
        out = run_cli("spoly", "--n", "1100", "--k", "1")
        assert out.returncode == 1
        assert json.loads(out.stdout) == {
            "error": "DegreeTooLarge",
            "message": "S(1100, 1) needs binomial coefficients of n + k = "
            "1101, which exceed the double range from n + k = 1030 on",
            "n": 1100,
            "k": 1,
        }
        assert "Traceback" not in out.stderr

    def test_localize_degree_too_large(self, run_cli):
        zeros = json.dumps([[0.5, 0.0]] * 1029)
        out = run_cli(
            "localize", "--P-roots", zeros, "--xi", "0", "--k", "1"
        )
        assert out.returncode == 1
        payload = json.loads(out.stdout)
        assert payload["error"] == "DegreeTooLarge"
        assert (payload["n"], payload["k"]) == (1029, 1)

    def test_localize_q_beyond_the_double_range(self, capsys):
        # Q at n = 1000, k = 20, xi = 1.9 overflows (exact max |Q|
        # 5.2e411); the solver refuses it before any zero of Q is sought.
        rng = np.random.default_rng(0)
        zeros = np.sqrt(rng.random(1000)) * np.exp(2j * np.pi * rng.random(1000))
        argv = ["localize", "--P-roots", json.dumps(jsonable(zeros))]
        assert main(argv + ["--xi", "1.9", "--k", "20"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "NonFinite"
        assert (payload["n"], payload["k"]) == (1000, 20)

    def test_localize_q_near_the_top_of_the_double_range(self, capsys):
        # Q at n = 700, k = 20, xi = 1.9 fits (exact max |Q| 6.3e295), so
        # localize answers.  It answers wrongly, with zeros of Q that read
        # converged: the fault is in Q's coefficients, not in the zero
        # search, since with the exact Q of this P the case reads
        # contained=true.  That is the high-k defect that an exact
        # solve for Q mends.
        rng = np.random.default_rng(0)
        zeros = np.sqrt(rng.random(700)) * np.exp(2j * np.pi * rng.random(700))
        argv = ["localize", "--P-roots", json.dumps(jsonable(zeros))]
        assert main(argv + ["--xi", "1.9", "--k", "20"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["Q_converged"] is True
        assert payload["contained"] is False

    def test_localize_nan_zero_of_p(self, monkeypatch, capsys):
        # A NaN zero of P leaves no default K: enclosing_disk refuses it
        # rather than return a disk that depends on the zeros' order.
        # localize finds the zeros of P through regions.find_roots.
        find = regions.find_roots

        def nan_last(p):
            rs = find(p)
            return replace(rs, roots=rs.roots[:-1] + (complex(math.nan),))

        monkeypatch.setattr(regions, "find_roots", nan_last)
        p = "[[-0.25,0],[0,0],[1,0]]"
        assert main(["localize", "--P", p, "--xi", "0", "--k", "1"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "NonFinite"

    @pytest.mark.parametrize(
        ("argv", "names_p"),
        [
            (["solve", "--xi", "0", "--k", "1"], True),
            (["localize", "--xi", "0", "--k", "1"], True),
            (["roots"], False),
        ],
        ids=["solve", "localize", "roots"],
    )
    def test_zeros_whose_expansion_overflows(self, run_cli, argv, names_p):
        # Finite zeros of modulus 1e200 give P coefficients beyond the
        # double range: P is refused as it is, and nothing is written
        # to stderr.
        zeros = "[[1e200,0],[-1e200,0],[1e200,1]]"
        out = run_cli(argv[0], "--P-roots", zeros, *argv[1:])
        assert out.returncode == 1
        payload = json.loads(out.stdout)
        assert payload["error"] == "NonFinite"
        assert payload["message"].startswith("P ") == names_p
        assert out.stderr == ""

    def test_roots_linear(self, run_cli):
        out = run_cli("roots", "--P", "[[2,0],[1,0]]")
        payload = json.loads(out.stdout)
        assert payload["converged"] is True
        assert abs(complex(*payload["roots"][0]) - (-2)) <= 1e-12

    def test_roots_quadratic_modulus(self, run_cli):
        out = run_cli("roots", "--P", "[[3,0],[3,0],[1,0]]")
        payload = json.loads(out.stdout)
        for re, im in payload["roots"]:
            assert abs(abs(complex(re, im)) - math.sqrt(3)) <= 1e-10

    def test_roots_large_constant_keeps_degree(self, run_cli):
        # z^2 + 1e13: the leading 1 is 1e-13 of the constant term and
        # still the leading coefficient.
        out = run_cli("roots", "--P", "[[1e13,0],[0,0],[1,0]]")
        payload = json.loads(out.stdout)
        assert payload["converged"] is True
        got = sorted(complex(re, im).imag for re, im in payload["roots"])
        want = math.sqrt(1e13)
        assert got == pytest.approx([-want, want], rel=1e-14)
        assert all(re == 0.0 for re, _ in payload["roots"])

    def test_bound(self, run_cli):
        payload = json.loads(run_cli("bound", "--xi", "1+0i", "--k", "2").stdout)
        assert payload["radius"] == 7.0

    def test_bound_usage(self, run_cli):
        assert run_cli("bound", "--xi", "nope", "--k", "2").returncode == 2

    @pytest.mark.parametrize(
        ("xi", "k"), [("0", "1" + "0" * 400), ("1e308", "10")]
    )
    def test_bound_beyond_the_double_range(self, run_cli, xi, k):
        # A k with 401 digits does not convert to a double, and the
        # radius at |xi| = 1e308 overflows: both are NonFinite.
        out = run_cli("bound", "--xi", xi, "--k", k)
        assert out.returncode == 1
        assert json.loads(out.stdout)["error"] == "NonFinite"
        assert "Traceback" not in out.stderr


class TestFactorize:
    def test_counterexample_reports_domain_error(self, run_cli):
        out = run_cli(
            "factorize", "--P", "[[0,0],[0,0],[1,0]]",
            "--Q", "[[0,0],[1,0],[1,0]]", "--xi", "0",
        )
        assert out.returncode == 1
        payload = json.loads(out.stdout)
        assert payload["error"] == "FactorizationImpossible"
        assert payload["index"] == 1
        assert payload["beta"] == [0.5, 0.0]

    def test_successful_factorization(self, run_cli):
        out = run_cli(
            "factorize", "--P", "[[-0.25,0],[0,0],[1,0]]",
            "--Q", "[[-0.75,0],[0,0],[1,0]]", "--xi", "0",
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        s_r = [complex(re, im) for re, im in payload["S_R"]]
        assert max(abs(a - b) for a, b in zip(s_r, [3, 0, 1])) <= 1e-10
        assert payload["exact_match_error"] <= 1e-10


    def test_degree_limit(self, capsys):
        # C(n, j) fits a double up to n = 1029; beyond, DegreeTooLarge
        # (was an OverflowError traceback from n = 1030 on).
        def run(n):
            top = json.dumps([[0, 0]] * n + [[1, 0]])
            code = main(["factorize", "--P", top, "--Q", top, "--xi", "0"])
            return code, json.loads(capsys.readouterr().out)

        code, payload = run(1029)
        assert code == 0 and payload["exact_match_error"] == 0.0
        code, payload = run(1030)
        assert code == 1
        assert payload["error"] == "DegreeTooLarge"
        assert payload["n"] == 1030

    def test_shift_overflow_is_non_finite(self, run_cli):
        # The shift by xi overflows: a domain error, with no numpy
        # warning on stderr.
        big = "[[1,0],[1e308,0],[1e308,0]]"
        out = run_cli("factorize", "--P", big, "--Q", big, "--xi", "1e5")
        assert out.returncode == 1
        assert json.loads(out.stdout)["error"] == "NonFinite"
        assert out.stderr == ""

    def test_unequal_degrees_usage_error(self, run_cli):
        out = run_cli(
            "factorize", "--P", "[[1,0],[1,0]]",
            "--Q", "[[1,0],[0,0],[1,0]]", "--xi", "0",
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert "--P and --Q must have the same degree" in out.stderr
        assert "Traceback" not in out.stderr


class TestLocalize:
    def test_constant_p_domain_error(self, run_cli):
        out = run_cli("localize", "--P", "[[1,0]]", "--xi", "0", "--k", "1")
        assert out.returncode == 1
        assert json.loads(out.stdout) == {
            "error": "DegreeZero", "message": "P must be non-constant",
        }
        assert "Traceback" not in out.stderr

    def test_non_monic_reported_before_degree_too_large(self, run_cli):
        # n + k = 1031 is beyond S, but P is refused first.
        coeffs = json.dumps([[1, 0]] * 1030 + [[2, 0]])
        out = run_cli("localize", "--P", coeffs, "--xi", "0", "--k", "1")
        assert out.returncode == 1
        assert json.loads(out.stdout)["error"] == "NotMonic"

    def test_top_of_the_accepted_range(self, capsys):
        # n + k = 1029, the largest S accepts: the command ends in an
        # answer or a domain error, whichever it is, not in a traceback
        # or a usage error.
        n = 1024
        rng = np.random.default_rng(0)
        zeros = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        argv = ["localize", "--P-roots", json.dumps(jsonable(zeros))]
        code = main(argv + ["--xi", "1", "--k", "5"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert ("contained" if code == 0 else "error") in payload

    def test_root_set_flags(self, capsys):
        # Q's and S's flags always; P's only where K is the disk of the
        # zeros find_roots found for --P.
        p = "[[-0.25,0],[0,0],[1,0]]"
        disk = '{"kind": "disk", "center": [0, 0], "radius": 2}'
        cases = {
            "--P": ["--P", p],
            "--P-roots": ["--P-roots", "[[0.5,0],[-0.5,0]]"],
            "--K": ["--P", p, "--K", disk],
        }
        flags = {}
        for name, argv in cases.items():
            assert main(["localize", *argv, "--xi", "0.5", "--k", "2"]) == 0
            payload = json.loads(capsys.readouterr().out)
            flags[name] = sorted(
                key for key in payload
                if key.endswith(("_converged", "_max_residual"))
            )
            for key in flags[name]:
                want = bool if key.endswith("_converged") else float
                assert type(payload[key]) is want
            assert payload["Q_converged"] and payload["S_converged"]
        qs = ["Q_converged", "Q_max_residual", "S_converged", "S_max_residual"]
        assert flags["--P"] == ["P_converged", "P_max_residual", *qs]
        assert flags["--P-roots"] == flags["--K"] == qs

    def test_pipeline_contained(self, run_cli):
        out = run_cli(
            "localize", "--P", "[[-0.25,0],[0,0],[1,0]]",
            "--xi", "0", "--k", "1",
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["contained"] is True
        assert payload["K"]["kind"] == "disk"
        assert abs(payload["K"]["radius"] - 0.5) <= 1e-9
        assert payload["bound_radius"] == 2.0
        assert len(payload["witnesses"]) == 2
        for w in payload["witnesses"]:
            assert abs(w["margin"]) <= 1e-8

    def test_default_region_is_disk_of_given_zeros(self, run_cli):
        zeros = [0.5, -0.25 + 0.25j, 0.1 - 0.3j, 0.7j]
        xi = 0.5 - 0.5j
        payload = json.loads(
            run_cli(
                "localize", "--P-roots",
                json.dumps([[z.real, z.imag] for z in zeros]),
                "--xi", "0.5-0.5i", "--k", "2",
            ).stdout
        )
        want = enclosing_disk([z - xi for z in zeros]).to_dict()
        assert payload["K"] == want
        assert payload["contained"] is True

    def test_default_region_same_for_coefficients_and_zeros(self, capsys):
        # K comes from the zeros of P, given or found, and not from the
        # zeros of the shifted P, which lose accuracy like (1+|xi|)^n.
        rng = np.random.default_rng(0)
        zeros = np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
        regions = []
        for flag, value in (
            ("--P", jsonable(poly_from_roots(zeros))),
            ("--P-roots", jsonable(list(zeros))),
        ):
            argv = ["localize", flag, json.dumps(value), "--xi", "1.9"]
            assert main(argv + ["--k", "2"]) == 0
            regions.append(json.loads(capsys.readouterr().out)["K"])
        by_coeffs, by_zeros = regions
        assert by_coeffs["radius"] == pytest.approx(
            by_zeros["radius"], rel=1e-9
        )
        assert complex(*by_coeffs["center"]) == pytest.approx(
            complex(*by_zeros["center"]), abs=1e-9
        )

    def test_s_roots_at_degree_64(self, run_cli):
        # S(64, 1) = ((1+w)^65 - 1)/w: its zeros are exp(2 pi i m/65) - 1.
        zeros = [
            0.5 * cmath.exp(2j * math.pi * (j + 0.5) / 64) for j in range(64)
        ]
        payload = json.loads(
            run_cli(
                "localize", "--P-roots",
                json.dumps([[z.real, z.imag] for z in zeros]),
                "--xi", "0", "--k", "1",
            ).stdout
        )
        got = [complex(re, im) for re, im in payload["S_roots"]]
        assert got == sort_roots(got)
        want = s_zeros_k1(64)
        for w in want:
            assert min(abs(g - w) for g in got) <= 1e-14
        assert len(got) == len(want)

    def test_user_supplied_region(self, run_cli):
        region = json.dumps(
            {"kind": "disk", "center": [0, 0], "radius": 3.0, "closed": True}
        )
        payload = json.loads(
            run_cli(
                "localize", "--P", "[[-0.25,0],[0,0],[1,0]]",
                "--xi", "0", "--k", "1", "--K", region,
            ).stdout
        )
        assert payload["contained"] is True
        assert payload["K"]["radius"] == 3.0

    def test_half_plane_normal_whose_modulus_overflows(self, run_cli):
        region = '{"kind":"half_plane","normal":[1.5e308,1.5e308]}'
        out = run_cli(
            "localize", "--P", "[[-0.25,0],[0,0],[1,0]]",
            "--xi", "0", "--k", "1", "--K", region,
        )
        assert out.returncode == 0
        assert "Traceback" not in out.stderr
        normal = json.loads(out.stdout)["K"]["normal"]
        assert normal == [math.sqrt(0.5), math.sqrt(0.5)]

    def test_round_trip_solve_roots_localize(self, run_cli):
        solved = json.loads(
            run_cli(
                "solve", "--P-roots",
                "[[0.5,0],[-0.25,0.25],[0.1,-0.3]]",
                "--xi", "0.5-0.5i", "--k", "2",
            ).stdout
        )
        rooted = json.loads(
            run_cli("roots", "--P", json.dumps(solved["Q"])).stdout
        )
        assert rooted["converged"] is True
        localized = json.loads(
            run_cli(
                "localize", "--P-roots",
                "[[0.5,0],[-0.25,0.25],[0.1,-0.3]]",
                "--xi", "0.5-0.5i", "--k", "2",
            ).stdout
        )
        assert localized["contained"] is True
        for (ar, ai), (br, bi) in zip(localized["Q_roots"], rooted["roots"]):
            assert abs(complex(ar, ai) - complex(br, bi)) <= 1e-8


class TestSvgOutput:
    def test_roots_svg(self, run_cli, tmp_path):
        target = tmp_path / "zeros.svg"
        out = run_cli(
            "roots", "--P", "[[3,0],[3,0],[1,0]]", "--svg", str(target)
        )
        assert out.returncode == 0
        tree = ET.parse(target)
        ns = "{http://www.w3.org/2000/svg}"
        markers = tree.getroot().findall(f".//{ns}circle")
        assert len(markers) == 2

    def test_localize_svg_has_region_path(self, run_cli, tmp_path):
        target = tmp_path / "loc.svg"
        run_cli(
            "localize", "--P", "[[-0.25,0],[0,0],[1,0]]",
            "--xi", "0", "--k", "1", "--svg", str(target),
        )
        tree = ET.parse(target)
        ns = "{http://www.w3.org/2000/svg}"
        markers = tree.getroot().findall(f".//{ns}circle")
        paths = tree.getroot().findall(f".//{ns}path")
        assert len(markers) == 4  # two zeros of Q, two of S
        assert len(paths) == 1  # one region boundary

    def test_nothing_drawn_without_svg(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("render_scene called without --svg")

        monkeypatch.setattr("polarpoly.svgplot.render_scene", refuse)
        for argv in (
            ["localize", "--P", "[[-0.25,0],[0,0],[1,0]]",
             "--xi", "0", "--k", "1"],
            ["roots", "--P", "[[3,0],[3,0],[1,0]]"],
        ):
            assert main(argv) == 0
        assert capsys.readouterr().out

    def test_only_named_files_written(self, run_cli, tmp_path):
        before = set(os.listdir(tmp_path))
        target = tmp_path / "out.svg"
        run_cli(
            "roots", "--P", "[[2,0],[1,0]]", "--svg", str(target),
            cwd=tmp_path,
        )
        after = set(os.listdir(tmp_path))
        assert after - before == {"out.svg"}


class TestOutputFailures:
    def test_closed_stdout_ends_like_sigpipe(self, tmp_path, src_env):
        # ``polarpoly localize ... | head -1``: the reader goes before
        # the output is written.
        proc = subprocess.Popen(
            [sys.executable, "-m", "polarpoly", "localize",
             "--P-roots", ZEROS64, "--xi=0.5", "--k", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=src_env, cwd=tmp_path,
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert stderr == b""

    def test_unwritable_svg_is_a_usage_error(self, run_cli, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        out = run_cli("roots", "--P", "[[1,0],[1,0]]", "--svg", str(target))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.splitlines() == [
            f"polarpoly: error: cannot write {target}: "
            "No such file or directory"
        ]


class TestSuiteCommands:
    def test_verify_small(self, run_cli):
        out = run_cli("verify", "--cases", "15", "--seed", "4")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["all_passed"] is True
        assert payload["seed"] == 4

    def test_verify_negative_seed_is_a_usage_error(self, run_cli):
        out = run_cli("verify", "--seed", "-1")
        assert out.returncode == 2
        assert "--seed" in out.stderr
        assert "Traceback" not in out.stderr

    def test_verify_csv(self, run_cli):
        out = run_cli("verify", "--cases", "10", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out.stdout)))
        assert rows[0] == ["property", "cases", "passes", "failures", "worst"]
        assert len(rows) == 8

    def test_paper_examples_passes(self, run_cli):
        out = run_cli("paper-examples")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["all_passed"] is True

    def test_unknown_subcommand(self, run_cli):
        assert run_cli("frobnicate").returncode == 2


P2 = "[[-0.25,0],[0,0],[1,0]]"
ZEROS4 = "[[0.5,0],[-0.25,0.25],[0.1,-0.3],[0,0.7]]"
LOCALIZE = ["localize", "--P-roots", ZEROS4, "--xi", "0.5-0.5i", "--k", "2"]
# 40 zeros in the unit disk on a sunflower spiral: with |xi| = 0.8 and
# k = 3, Q has 23 zeros inside |z| = 1 and 17 beyond, and 41
# coefficients, so the root finder's blocked evaluator runs on both sides.
ZEROS40 = (
    "[[0.106,0.0],[-0.136,0.124],[0.021,-0.237],[0.171,0.223],"
    "[-0.314,-0.056],[0.297,-0.189],[-0.099,0.37],[-0.19,-0.365],"
    "[0.411,0.15],[-0.428,0.177],[0.206,-0.441],[0.152,0.486],"
    "[-0.459,-0.266],[0.539,-0.119],[-0.329,0.468],[-0.076,-0.586],"
    "[0.467,0.393],[-0.628,0.026],[0.458,-0.456],[-0.031,0.663],"
    "[-0.436,-0.522],[0.69,0.093],[-0.585,0.407],[0.16,-0.71],"
    "[0.37,0.645],[-0.723,-0.231],[0.702,-0.324],[-0.304,0.727],"
    "[-0.271,-0.755],[0.722,0.38],[-0.802,0.211],[0.456,-0.709],"
    "[0.145,0.844],[-0.687,-0.532],[0.879,-0.073],[-0.608,0.657],"
    "[0.004,-0.907],[0.618,0.681],[-0.928,-0.086],[0.752,-0.571]]"
)

# The same spiral with 64 zeros: about xi = 1.5+0.3i localize starts
# the sweeps for Q's zeros from Z(S) placed at Q's centroid c and sized
# by Q(c), as beyond degree 40 at every xi.
ZEROS64 = (
    "[[0.084,0.0],[-0.107,0.098],[0.016,-0.187],[0.135,0.176],"
    "[-0.248,-0.044],[0.235,-0.149],[-0.079,0.292],[-0.15,-0.289],"
    "[0.325,0.119],[-0.338,0.14],[0.163,-0.349],[0.121,0.384],"
    "[-0.363,-0.211],[0.426,-0.094],[-0.26,0.37],[-0.06,-0.464],"
    "[0.369,0.311],[-0.496,0.021],[0.362,-0.36],[-0.024,0.524],"
    "[-0.344,-0.413],[0.546,0.073],[-0.462,0.322],[0.126,-0.562],"
    "[0.292,0.51],[-0.571,-0.182],[0.555,-0.256],[-0.24,0.574],"
    "[-0.215,-0.597],[0.571,0.3],[-0.634,0.167],[0.36,-0.561],"
    "[0.115,0.667],[-0.543,-0.421],[0.695,-0.058],[-0.48,0.519],"
    "[0.003,-0.717],[0.489,0.539],[-0.734,-0.068],[0.594,-0.451],"
    "[-0.135,0.744],[-0.407,-0.647],[0.747,0.205],[-0.697,0.358],"
    "[0.275,-0.743],[0.302,0.742],[-0.732,-0.347],[0.782,-0.241],"
    "[-0.418,0.713],[-0.175,-0.817],[0.688,0.489],[-0.846,0.105],"
    "[0.558,-0.655],[0.032,0.868],[-0.615,-0.624],[0.884,0.045],"
    "[-0.688,0.569],[0.124,-0.892],[0.515,0.748],[-0.893,-0.205],"
    "[0.804,-0.455],[-0.287,0.886],[-0.39,-0.854],[0.871,0.37]]"
)

# (argv, golden file under tests/data); an "error_" golden exits 1.
GOLDENS = [
    (["verify", "--seed", "42"], "verify_seed42.json"),
    (["paper-examples"], "paper_examples.json"),
    (["solve", "--P", P2, "--xi", "0.5-0.5i", "--k", "2"], "solve.json"),
    (
        ["solve", "--P", P2, "--xi", "0.5-0.5i", "--k", "2", "--format",
         "csv"],
        "solve.csv",
    ),
    (
        ["solve", "--P-roots", ZEROS4, "--R", "[[0.25,0.5],[-1,0.5],[1,0]]"],
        "solve_general.json",
    ),
    (["spoly", "--n", "5", "--k", "3"], "spoly.json"),
    (["bound", "--xi", "1+0.5i", "--k", "3"], "bound.json"),
    (["roots", "--P-roots", ZEROS4], "roots.json"),
    (["roots", "--P-roots", ZEROS4, "--format", "csv"], "roots.csv"),
    (LOCALIZE, "localize.json"),
    (
        LOCALIZE
        + ["--K", '{"kind": "half_plane", "center": [0.25, 0], '
           '"normal": [-1, 0.5], "closed": false}'],
        "localize_half_plane.json",
    ),
    (LOCALIZE + ["--format", "csv"], "localize.csv"),
    (
        ["factorize", "--P", P2, "--Q", "[[-0.75,0],[0,0],[1,0]]", "--xi",
         "0.5-0.5i"],
        "factorize.json",
    ),
    (
        ["factorize", "--P", "[[0,0],[0,0],[1,0]]", "--Q",
         "[[0,0],[1,0],[1,0]]", "--xi", "0"],
        "error_factorization_impossible.json",
    ),
    (["solve", "--P", "[[1,0],[2,0]]", "--xi", "0", "--k", "1"],
     "error_not_monic.json"),
    (["spoly", "--n", "1100", "--k", "1"], "error_degree_too_large.json"),
    (
        ["localize", "--P-roots", ZEROS40, "--xi", "0.64+0.48i", "--k", "3"],
        "localize_degree40.json",
    ),
    (
        ["localize", "--P-roots", ZEROS64, "--xi", "1.5+0.3i", "--k", "3"],
        "localize_degree64.json",
    ),
]


@pytest.mark.parametrize(("argv", "golden"), GOLDENS)
def test_report_bytes_unchanged(capsys, argv, golden):
    # The checked-in stdout of each command; an output change must
    # regenerate its file on purpose, from the root of the repo:
    #   PYTHONPATH=src:tests python -c '
    #   import contextlib; from polarpoly.cli import main
    #   from test_cli import DATA, GOLDENS
    #   for argv, golden in GOLDENS:
    #       with open(DATA / golden, "w") as fh:
    #           with contextlib.redirect_stdout(fh):
    #               main(argv)'
    assert main(argv) == (1 if golden.startswith("error_") else 0)
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


def readme_cli_commands():
    """The command lines of README's ``## CLI`` code block, as argv."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```", 2)[1]
    return [shlex.split(line) for line in block.splitlines() if line]


@pytest.mark.parametrize(
    "argv", readme_cli_commands(), ids=lambda argv: argv[1]
)
def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys, argv):
    # Every example README shows exits 0 and prints one JSON object;
    # `roots --svg zeros.svg` writes into the temporary directory.
    assert argv[0] == "polarpoly"
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
    assert isinstance(json.loads(capsys.readouterr().out), dict)


def test_subnormal_coefficients_settle_at_a_finite_residual(capsys):
    # At the zero of 1e-320 + z, and at the zeros +-(2.013 - 2.013i)e-155
    # of a fuzz input with subnormal coefficients, the noise floor on
    # the coefficients as given underflows to 0 with the value under
    # it, and max_residual would read inf.  The search runs on the
    # coefficients centred by a power of two, where neither underflows:
    # both converge, with residuals 0.0 and 6.1e-18.
    cases = [
        ("[[1e-320,0],[1,0]]", [-1e-320]),
        (
            "[[-0.0, 8.1044139193137e-310], [-0.0, 9.317492833657087e-233],"
            " [1.0, 0.0]]",
            [s * cmath.sqrt(-8.1044139193137e-310j) for s in (1, -1)],
        ),
    ]
    for P, want in cases:
        assert main(["roots", "--P", P]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["max_residual"] <= 1e-15
        got = [complex(re, im) for re, im in report["roots"]]
        for w in want:
            assert min(abs(g - w) for g in got) <= 1e-14 * abs(w)


def test_subnormal_leading_coefficient_converges(capsys):
    # 1 + 1e-310 z^2, zeros near +-1e155 i: on the coefficients as
    # given the reversed evaluation at x = 1/z meets the subnormal
    # range.  A real part of 5.95e138 against a modulus of 1e155 is
    # rounding.
    assert main(["roots", "--P", "[[1,0],[0,0],[1e-310,0]]"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True
    assert report["max_residual"] <= 1e-15
    size = 1.0 / math.sqrt(1e-310)  # of the subnormal double 1e-310
    for re, im in report["roots"]:
        assert abs(abs(complex(re, im)) / size - 1) <= 1e-14
        assert abs(re) <= 1e-15 * abs(im)
