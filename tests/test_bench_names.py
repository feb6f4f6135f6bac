"""The benchmark's tracer looks library functions up by name, and reads
some of their arguments by parameter name, and the benchmark's own
code calls into the library; a name that no longer resolves, or a call
that no longer binds to its signature, should fail here, not only in a
benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"
TREE = ast.parse(SPANS.read_text(encoding="utf-8"))


def traced_names():
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED tuple")


def observed_arguments():
    """(traced name, parameter) for every ``bound["..."]`` read in a
    ``name == "<layer.func>"`` branch of ``_observe``."""
    observe = next(
        node for node in ast.walk(TREE)
        if isinstance(node, ast.FunctionDef) and node.name == "_observe"
    )
    out = []
    for branch in ast.walk(observe):
        test = getattr(branch, "test", None)
        if not (
            isinstance(branch, ast.If)
            and isinstance(test, ast.Compare)
            and getattr(test.left, "id", None) == "name"
            and isinstance(test.ops[0], ast.Eq)
        ):
            continue
        name = ast.literal_eval(test.comparators[0])
        for stmt in branch.body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Subscript)
                    and getattr(node.value, "id", None) == "bound"
                ):
                    out.append((name, ast.literal_eval(node.slice)))
    assert out, "no bound[...] reads found in _observe"
    return out


def resolve(name):
    module, func = name.split(".")
    return getattr(importlib.import_module(f"polarpoly.{module}"), func)


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    assert callable(resolve(name))


@pytest.mark.parametrize(
    ("name", "parameter"), observed_arguments(),
    ids=lambda v: v,
)
def test_observed_argument_is_a_parameter(name, parameter):
    assert parameter in inspect.signature(resolve(name)).parameters


def polarpoly_aliases(tree):
    """name -> object for everything a file imports from polarpoly, at
    any depth (a test may import inside a function)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import polarpoly.x" binds polarpoly; "as y" binds x.
                if alias.name.split(".")[0] == "polarpoly":
                    module = alias.name if alias.asname else "polarpoly"
                    out[alias.asname or "polarpoly"] = importlib.import_module(
                        module
                    )
        elif isinstance(node, ast.ImportFrom) and (
            (node.module or "").split(".")[0] == "polarpoly"
        ):
            home = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(home, alias.name, None)
                if obj is None:  # a submodule not imported by the package
                    name = f"{node.module}.{alias.name}"
                    obj = importlib.import_module(name)
                out[alias.asname or alias.name] = obj
    return out


def dotted(node):
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + names[::-1]


def bench_calls():
    """(site, callee name, object, positional count, keywords) for every
    call in bench/*.py into polarpoly: through a name the file imports
    from polarpoly, or through one that another bench module imports
    (``workloads.cli.main``).  Calls with ``*args`` or ``**kwargs`` give
    None for the count they hide."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(BENCH.glob("*.py"))
    }
    aliases = {stem: polarpoly_aliases(tree) for stem, tree in trees.items()}
    out = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            chain = dotted(node.func) if isinstance(node, ast.Call) else None
            if not chain:
                continue
            if chain[0] in aliases[stem]:
                obj, rest = aliases[stem][chain[0]], chain[1:]
            elif chain[0] in aliases and chain[1:2] and (
                chain[1] in aliases[chain[0]]
            ):
                obj, rest = aliases[chain[0]][chain[1]], chain[2:]
            else:
                continue
            for name in rest:
                obj = getattr(obj, name)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = [k.arg for k in node.keywords]
            out.append((
                f"{stem}.py:{node.lineno}",
                ".".join(chain[-2:]),
                obj,
                None if starred else len(node.args),
                None if None in keywords else keywords,
            ))
    return out


BENCH_CALLS = bench_calls()


def test_bench_calls_found():
    names = {name for _, name, *_ in BENCH_CALLS}
    assert {
        "verify.case_metrics",
        "polar.solve_polar_shifted",
        "polynomial.poly_mul",
        "cli.main",
    } <= names


@pytest.mark.parametrize(
    ("site", "name", "obj", "positional", "keywords"), BENCH_CALLS,
    ids=[f"{site}:{name}" for site, name, *_ in BENCH_CALLS],
)
def test_bench_call_binds(site, name, obj, positional, keywords):
    signature = inspect.signature(obj)
    bind = signature.bind if positional is not None else signature.bind_partial
    bind(*range(positional or 0), **dict.fromkeys(keywords or ()))
