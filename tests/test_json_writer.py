"""The indented JSON writer, polynomial.json_text, against the standard
library: it must write exactly json.dumps(v, indent=2, sort_keys=True)."""

import ast
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarpoly
from polarpoly import cli
from polarpoly.polynomial import Polynomial, json_text, jsonable
from polarpoly.regions import Witness

DATA = Path(__file__).parent / "data"


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "path", sorted(DATA.glob("*.json")), ids=lambda p: p.name
)
def test_goldens(path):
    value = json.loads(path.read_text())
    assert json_text(value) == reference(value)


def test_localize_payload_at_the_top_degree(monkeypatch, capsys):
    # The tree cli.main hands the writer, at n = 256, k = 5, |xi| = 1.9.
    rng = np.random.default_rng(256)
    zeros = np.sqrt(rng.random(256)) * np.exp(2j * np.pi * rng.random(256))
    xi = 1.9 * complex(np.exp(0.7j))
    trees = []

    def recording(value):
        trees.append(value)
        return json_text(value)

    monkeypatch.setattr(cli, "json_text", recording)
    roots = json.dumps([[z.real, z.imag] for z in zeros])
    cli.main(
        ["localize", "--P-roots", roots, f"--xi={xi.real!r}{xi.imag:+}i",
         "--k", "5"]
    )
    (tree,) = trees
    assert len(tree["witnesses"]) == 256
    assert capsys.readouterr().out == reference(tree) + "\n"


SPECIAL = [
    [math.nan, math.inf, -math.inf, -0.0, 0.0],
    [2**64, -(2**64) - 1, 3**50],
    [[True, 1.0], [1.0, True]],
    {"nan": math.nan, "pairs": [[math.inf, -0.0], [2**70, False]]},
    [],
    {},
    [[]],
    [{}],
    [[], []],
    [{}, {}],
    {"a": [], "b": {}, "c": [[], [{}]], "d": {"e": {}}},
    [[1.0], [2.0, 3.0]],
    ["a,b", "[", "]", '"', "\\", "], [", "é", "→ ∞", "\n", "%s", "%"],
    {"a,b": "[x]", '"q"': "\\", "é": ["ü", None], "%s": "%d"},
    [["a,b", "]"], ["[", '"']],
    [
        {"beta": [1.0, -0.0], "margin": 0.5},
        {"beta": [math.nan, 2.0], "margin": -1},
    ],
    [{"k": "x,y"}, {"k": "]"}],
    [{"a": {"b": 1}}, {"a": {"b": 2}}],
    [{"a": [1]}, {"a": [1, 2]}],
    {2: "two", 1.5: [1], -0.0: {}},
    {True: 1},
    {None: 2},
    [{1: "x", 2: [None, "%"]}, {1: "y", 2: [True, "]"]}],
    ((1.0, 2.0), (3.0, 4.0)),
    [[[1.0, 2.0]], [[3.0]]],
    "top",
    -0.0,
    2**100,
    None,
]


@pytest.mark.parametrize("value", SPECIAL, ids=repr)
def test_special_values(value):
    assert json_text(value) == reference(value)


@pytest.mark.parametrize("value", [{(1,): 2}, {1: 2, "a": 3}, [object()]])
def test_refuses_what_the_standard_library_refuses(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        json_text(value)


scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)


def _uniform(children):
    # The shapes laid out without a Python step per item: lists of
    # scalars, lists of equally long lists of scalars, and lists of
    # dicts with one key set.
    widths = st.integers(min_value=0, max_value=3)
    pairs = widths.flatmap(
        lambda w: st.lists(
            st.lists(scalars, min_size=w, max_size=w), max_size=4
        )
    )
    keys = st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True)
    tables = keys.flatmap(
        lambda ks: st.lists(
            st.fixed_dictionaries({k: scalars | pairs | children for k in ks}),
            max_size=4,
        )
    )
    return st.lists(scalars, max_size=5) | pairs | tables


trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4)
    | _uniform(children),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trees)
def test_generated_trees(value):
    assert json_text(value) == reference(value)


def item_by_item(value):
    # jsonable's rule without its one-step paths.
    if isinstance(value, Polynomial):
        value = value.coeffs
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [item_by_item(item) for item in value]
    if isinstance(value, dict):
        return {key: item_by_item(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value):
        return {
            f.name: item_by_item(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return value


@dataclasses.dataclass
class Empty:
    pass


GRID = np.arange(6).reshape(2, 3) * (1 - 2j) + np.array([-0.0, 0.5, 1e300])


@pytest.mark.parametrize(
    "value",
    [
        Polynomial([-0.0, 1 + 2j, 1e-300]),
        GRID,
        GRID.T,
        GRID[:, ::2],
        np.array(-0.0 + 1j),
        np.zeros((2, 0), complex),
        np.array([1, 2]),
        np.array([0.5, -0.0]),
        np.array([True, False]),
        np.array([1 + 1j, 2], dtype=np.complex64),
        (1j, -0.0 - 0j, complex(math.inf, 0)),
        [1j, 2.0, None],
        [1.0, 2, True, None, "s"],
        [Witness(1j, 2 + 0j, -1j, 0.5), Witness(0j, 1j, 3 + 0j, -0.0)],
        [Empty(), Empty()],
        [Witness(1j, 2 + 0j, -1j, 0.5), Empty()],
        {"roots": (1j, 2j), "rows": [Witness(1j, 1j, 1j, 1.0)]},
    ],
    ids=repr,
)
def test_jsonable_one_step_paths_match_item_by_item(value):
    assert repr(jsonable(value)) == repr(item_by_item(value))


def test_no_other_indented_json_writer():
    # Every indented JSON text of the package comes from json_text: no
    # module passes ``indent`` to json.dumps, json.dump or an encoder.
    package = Path(polarpoly.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                names = [kw.arg for kw in node.keywords]
                assert "indent" not in names, f"{path.name}:{node.lineno}"
