"""Malformed JSON documents at the CLI boundary.

Each JSON option (``--grid``, ``--spec``, ``--certificate``,
``--instance``, ``alon-furedi --S``) is fed mutations of a valid document:
any value may be replaced by an arbitrary JSON value and any key dropped.
``main`` must answer every one of them with a verdict or a usage error
(exit 0 to 3), never with exit 4, which is kept for library bugs.

hypothesis is a test-only dependency; the module is skipped without it.
Examples are derandomized so every run checks the same documents.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from combnull import MonicFamily, MultisetGrid, ZZ, level_certificate, reduce
from combnull.cli import main
from combnull.serialization import certificate_to_json
from conftest import P

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3)
    | st.text(max_size=4)
    | st.sampled_from(["ZZ", "GF(5)", "x1", "x1^2-x1", "0", "(0,)", "(0,0)", "I_t"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


@st.composite
def mutations(draw, doc):
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    if isinstance(doc, dict):
        return {
            key: draw(mutations(value))
            for key, value in doc.items()
            if draw(st.integers(0, 11)) != 0
        }
    if isinstance(doc, list):
        return [draw(mutations(value)) for value in doc]
    return doc


def _documents():
    grid = MultisetGrid.build(ZZ, [[0, 1], [0, 1]])
    level = certificate_to_json(level_certificate(P("x1^3*x2 - x1*x2"), grid, 1))
    family = MonicFamily.build([P("x1^2 - 1", nvars=2), P("x1*x2 - x2", nvars=2)])
    division = certificate_to_json(reduce(P("x1^3*x2 + x2^3"), family))
    return {
        "grid": {"ring": "ZZ", "S": [[0, 1], [0, 1]], "psi": [{"0": 1, "1": 2}, None]},
        "axes": {"ring": "GF(5)", "axes": [{"S": [0, 1], "psi": {"0": 1, "1": 1}}]},
        "punctured": {"ring": "ZZ", "S": [[0, 1], [0, 1]], "E": [[0], [1]]},
        "spec": {"ring": "ZZ", "S": [[0, 1]], "B": {"(0,)": [[1]], "(1,)": [[1]]}},
        "level": json.loads(json.dumps(level)),
        "division": json.loads(json.dumps(division)),
        "instance": {
            "pgrid": {"ring": "ZZ", "S": [[0, 1], [0, 1]], "E": [[0], [0]]},
            "planes": [{"poly": "x1 - 1", "degree": 1}, {"poly": "x2 - 1"}],
            "t": 1,
        },
        "supports": [[0, 1, 2], [0, 1]],
    }


DOCUMENTS = _documents()
GRID_COMMANDS = {
    "grid": ("membership", "certificate", "normal-form"),
    "axes": ("membership", "certificate", "normal-form"),
    "punctured": ("punctured", "mixed"),
}


def commands(name, doc):
    text = json.dumps(doc)
    if name in GRID_COMMANDS:
        return [
            (command, "--grid", text, "--t", "1", "--poly", "x1^2-x1")
            for command in GRID_COMMANDS[name]
        ]
    if name == "spec":
        return [("groebner-check", "--ring", "ZZ", "--spec", text, "--basis", "x1^2-x1")]
    if name == "instance":
        return [("cover", "--instance", text)]
    if name == "supports":
        return [("alon-furedi", "--ring", "ZZ", "--S", text, "--beta", "(1,0)", "--poly", "x1")]
    return [("verify", "--certificate", text)]


def exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


def test_valid_documents_are_accepted():
    for name, doc in DOCUMENTS.items():
        for argv in commands(name, doc):
            assert exit_code(argv) in (0, 1), argv


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_malformed_documents_get_an_exit_code(name):
    @FUZZ
    @given(mutations(DOCUMENTS[name]))
    def check(doc):
        for argv in commands(name, doc):
            assert exit_code(argv) in (0, 1, 2, 3), argv

    check()
