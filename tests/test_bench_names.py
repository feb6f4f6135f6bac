"""The benchmark's tracer looks library functions up by name; a name
that no longer resolves should fail here, not only in a traced run."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_names():
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED tuple")


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module, func = name.split(".")
    home = importlib.import_module(f"polarpoly.{module}")
    assert callable(getattr(home, func))
