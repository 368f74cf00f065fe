"""Exit-status contract under arbitrary and mutated documents.

``parse_document`` may only raise the package's own errors, and
``validate`` answers 0, 1 or 2 with an ``error:`` line, never a traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cover_lattice import CoverLatticeError, parse_document, run_cli

VALID_DOCS = [
    {"universe": ["1", "2", "3"]},
    {"universe": ["1", "2", "3"], "cover": [["1", "2"], ["2", "3"]], "labels": ["x", None]},
    {"universe": ["1", "2"], "count": 2, "covers": [[["1", "2"]], [["1"], ["2"]]]},
    {"universe": ["1", "2", "3"], "readings": {"x": ["1", "2"], "y": ["2", "3"]}},
    {"sensitive": ["1"], "max_resolution": 1},
    {
        "states": ["1", "2"],
        "actions": ["a", "b"],
        "transition": {"1": {"a": ["2"], "b": ["1"]}, "2": {"a": ["2"], "b": ["1", "2"]}},
        "initial": ["1"],
        "goal": ["2"],
    },
]

KEYS = sorted({k for doc in VALID_DOCS for k in doc}) + ["bogus"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False)
    | st.sampled_from(["1", "2", "3", "a", "x", ""])
    | st.text(max_size=3)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _paths(node, path=()):
    """The path to every node of a JSON value, the root's included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_docs(draw):
    """A valid document with one or two nodes replaced by arbitrary JSON or deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCS))))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return doc


documents = st.one_of(mutated_docs(), mutated_docs(), mutated_docs(), json_values)


@settings(max_examples=500, deadline=None)
@given(documents)
def test_parse_raises_only_package_errors(doc):
    try:
        parse_document(json.dumps(doc))
    except CoverLatticeError:
        pass


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=100, deadline=None)
@given(doc=documents)
def test_validate_exit_status(doc_path, doc):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_cli(["validate", "--input", str(doc_path)])
    assert status in (0, 1, 2)
    if status:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        assert out.getvalue().startswith("ok: ")


def test_valid_seed_documents_validate():
    for doc in VALID_DOCS:
        parse_document(json.dumps(doc))
