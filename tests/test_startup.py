"""What each entry point imports, each checked in a fresh interpreter:
``import polarpoly.polar`` (the library) and ``import polarpoly.cli``
(the command line) load only the modules they run, and the package
namespace resolves its public names on first access."""

import subprocess
import sys

import pytest


@pytest.fixture
def loaded(src_env):
    """Runs ``code`` in a fresh interpreter; returns the names it
    prints, one a line."""

    def _run(code: str) -> list[str]:
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=src_env, check=True,
        )
        return out.stdout.splitlines()

    return _run


MODULES = "import sys; print('\\n'.join(sorted(sys.modules)))"


def test_polar_loads_only_the_math_it_runs(loaded):
    modules = set(loaded("import polarpoly.polar; " + MODULES))
    own = {m for m in modules if m.startswith("polarpoly")}
    assert own == {
        "polarpoly", "polarpoly.errors", "polarpoly.polynomial",
        "polarpoly.roots", "polarpoly.polar",
    }
    assert not modules & {"json", "numpy.typing"}


def test_regions_loads_the_steps_localize_chains(loaded):
    modules = set(loaded("import polarpoly.regions; " + MODULES))
    assert {"polarpoly.polar", "polarpoly.roots"} <= modules
    assert "polarpoly.verify" not in modules


def test_cli_leaves_out_what_only_some_commands_run(loaded):
    modules = set(loaded("import polarpoly.cli; " + MODULES))
    assert not modules & {"polarpoly.verify", "polarpoly.svgplot", "csv"}


def test_localize_imports_nothing_after_set_up(loaded):
    # Every module a command runs is loaded with its entry module, so
    # no import cost moves from set-up into the command.
    code = (
        "import contextlib, io, sys, polarpoly.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = polarpoly.cli.main(['localize', '--P-roots',\n"
        "        '[[0.5,0],[-0.25,0.25],[0.1,-0.3]]', '--xi', '0.5',\n"
        "        '--k', '2'])\n"
        "print(code)\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    code, *added = loaded(code)
    assert code == "0"
    assert [m for m in added if m.startswith("polarpoly")] == []


def test_every_public_name_is_its_home_modules_object(loaded):
    code = (
        "import sys, polarpoly\n"
        "for name in polarpoly.__all__:\n"
        "    obj = getattr(polarpoly, name)\n"
        "    home = sys.modules[obj.__module__]\n"
        "    print(name, obj.__module__, obj is getattr(home, name))\n"
    )
    lines = loaded(code)
    assert len(lines) == 41
    for line in lines:
        name, home, same = line.split()
        assert home.startswith("polarpoly."), name
        assert same == "True", name


def test_dir_and_star_import_give_all(loaded):
    code = (
        "import polarpoly\n"
        "print(sorted(set(polarpoly.__all__) - set(dir(polarpoly))))\n"
        "ns = {}\n"
        "exec('from polarpoly import *', ns)\n"
        "print(sorted(set(ns) - {'__builtins__'}) == polarpoly.__all__)\n"
    )
    assert loaded(code) == ["[]", "True"]


def test_submodules_and_unknown_names(loaded):
    code = (
        "import polarpoly\n"
        "print(polarpoly.verify.__name__)\n"
        "for name in ('apply_tr', 'GraceFactorization', 'no_such_name'):\n"
        "    try:\n"
        "        getattr(polarpoly, name)\n"
        "    except AttributeError:\n"
        "        print(name, 'AttributeError')\n"
    )
    assert loaded(code) == [
        "polarpoly.verify",
        "apply_tr AttributeError",
        "GraceFactorization AttributeError",
        "no_such_name AttributeError",
    ]
