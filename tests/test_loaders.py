"""Property test of the three JSON loaders: class specs, operators and template files.

Each valid document is mutated a few times (a node replaced, deleted or
added to).  A mutated document must either load, and then round-trip
through ``to_json``, or raise ``gaugeinv.InputError``; and the command that
reads it must never exit 4, the code of an internal error.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gaugeinv import InputError
from gaugeinv.classify import ClassSpec, analyze
from gaugeinv.cli import EXIT_INTERNAL, load_templates, main
from gaugeinv.opalg import DiffOperator

SPEC = {"dimension": 2, "maximal_terms": [{"vector": [2, 1], "coefficient": "p"},
                                          {"vector": [1, 2], "coefficient": "1"}]}
OPERATOR = [{"vector": [1, 1], "coeff": "1"}, {"vector": [1, 0], "coeff": "a[0,1]"},
            {"vector": [0, 0], "coeff": "a[0,0]*b"}]
XY_SPEC = {"dimension": 2, "maximal_terms": [{"vector": [1, 1], "coefficient": "1"}]}
TEMPLATES = {"stages": [
    {"templates": [{"prefactor": "1", "factors": [{"powers": [[1, 0]], "shift": "p"},
                                                   {"powers": [[0, 1]], "shift": "q"}]}],
     "targets": [[1, 0], [0, 1]]}]}

KEYS = ["dimension", "maximal_terms", "vector", "coefficient", "coeff", "stages",
        "templates", "targets", "factors", "powers", "shift", "prefactor"]
LEAVES = (st.none() | st.booleans() | st.integers(-1, 3) | st.sampled_from([0.5, 2.0, 1e300])
          | st.sampled_from(["", "1", "p", "g", "a[1,0]", "q;[1,0]", "1/0", "p^", "[1, 0]"]))
VALUES = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=3)
                      | st.dictionaries(st.sampled_from(KEYS), kids, max_size=2), max_leaves=6)


def _mutate(data, node):
    """node with one node inside it replaced, deleted or added to; mostly a deep one."""
    keys = (list(node) if isinstance(node, dict)
            else list(range(len(node))) if isinstance(node, list) else [])
    if keys and data.draw(st.integers(0, 3)):
        key = data.draw(st.sampled_from(keys))
        node[key] = _mutate(data, node[key])
        return node
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "delete" and keys:
        del node[data.draw(st.sampled_from(keys))]
    elif action == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = data.draw(VALUES)
    elif action == "add" and isinstance(node, list):
        node.append(data.draw(VALUES))
    else:
        return data.draw(LEAVES | VALUES)
    return node


def _mutated(data, document):
    doc = copy.deepcopy(document)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    return doc


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _load_spec(doc, path):
    spec = ClassSpec.from_json(doc)
    assert ClassSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


def _load_operator(doc, path):
    op = DiffOperator.from_json(doc)
    assert DiffOperator.from_json(json.loads(json.dumps(op.to_json()))) == op


def _load_templates(doc, path):
    load_templates(path, analyze(ClassSpec.from_json(XY_SPEC)))


# loader -> (valid document, loading function, command line with the file last)
LOADERS = {
    "spec": (SPEC, _load_spec, ["analyze"]),
    "operator": (OPERATOR, _load_operator, ["gauge"]),
    "templates": (TEMPLATES, _load_templates, ["invariants", "SPEC", "--templates"]),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("loaders")
    (path / "xy-class.json").write_text(json.dumps(XY_SPEC))
    return path


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_document_loads_or_is_an_input_error(workdir, loader, data):
    document, load, command = LOADERS[loader]
    doc = _mutated(data, document)
    path = workdir / f"{loader}.json"
    path.write_text(json.dumps(doc))
    try:
        load(doc, str(path))
    except InputError:
        pass
    argv = [str(workdir / "xy-class.json") if a == "SPEC" else a for a in command]
    assert _exit_code([*argv, str(path)]) != EXIT_INTERNAL


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_the_unmutated_documents_load(workdir, loader):
    document, load, command = LOADERS[loader]
    path = workdir / f"{loader}-valid.json"
    path.write_text(json.dumps(document))
    load(document, str(path))
    argv = [str(workdir / "xy-class.json") if a == "SPEC" else a for a in command]
    assert _exit_code([*argv, str(path)]) == 0
