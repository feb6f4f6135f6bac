"""The benchmark's tracer looks library functions up by name, and reads
some of their arguments by parameter name; a name that no longer
resolves should fail here, not only in a traced run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
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
