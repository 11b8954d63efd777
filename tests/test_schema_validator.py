"""The stdlib schema validator against jsonschema as an oracle.

``load_document`` must accept exactly the documents that
``jsonschema.Draft202012Validator(SCHEMA)`` accepts, and when it rejects
one it must name a place where the oracle also finds a violation.  The
inputs are every single mutation of the seven fixtures and of generated
acyclic documents (each value replaced by a value of another JSON type or
an empty array or object, each object key deleted, an extra key in each
object) and seeded pairs of such mutations.
"""

import copy
import json
import random
from pathlib import Path

import jsonschema
import pytest

from eqcartan import schema
from eqcartan.novikov import ScalarSetup
from eqcartan.schema import SCHEMA, DocumentError, load_document

from conftest import random_equivariant_differential

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures")
                  .glob("*.json"))
ORACLE = jsonschema.Draft202012Validator(SCHEMA)
REPLACEMENTS = (True, False, 0, 1, 1.0, 1.5, -1, "Z", None, [], {})
ANNOTATIONS = {"$schema", "title"}
DELETE = object()


def generated_document(seed):
    """A complex and d_family block for a random acyclic differential."""
    coefficients = "Q" if seed % 2 else "F5"
    setup = ScalarSetup.make(1, coefficients)
    diff = random_equivariant_differential(random.Random(seed), setup)
    names = [g.name for g in diff.basis]

    def entries(op):
        return [{"target": names[t], "source": names[s], "value": str(v)}
                for (t, s), v in sorted(op.entries.items())]

    return {
        "schema_version": 1,
        "scalar_setup": {"lattice_generator": "1",
                         "coefficients": coefficients},
        "complex": {
            "grading": {"kind": "Z/2"},
            "generators": [{"name": g.name, "index": g.index}
                           for g in diff.basis],
            "differential": {"degree": 1,
                             "entries": entries(diff.components[0])},
        },
        "d_family": {"order": diff.order,
                     "components": [entries(op) for op in diff.components]},
    }


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _nodes(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _nodes(sub, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def edits(doc):
    """Every single mutation of ``doc`` as ``(path, new value)``, where a
    new value of DELETE removes the key: each value replaced by another
    (an array by ``[]`` among them), each key deleted, an extra key added
    to each object."""
    out = []
    for path, value in _nodes(doc):
        if path:
            out += [(path, new) for new in REPLACEMENTS
                    if not (type(new) is type(value) and new == value)]
        if isinstance(value, dict):
            out += [(path + (key,), DELETE) for key in value]
            out.append((path + ("extra",), 1))
    return out


def mutated(doc, edit):
    path, new = edit
    out = copy.deepcopy(doc)
    parent = _at(out, path[:-1])
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(new)
    return out


def verdict(doc, tmp_path):
    """None if load_document accepts ``doc``, else the path it reports."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    try:
        load_document(str(p))
    except DocumentError as exc:
        message = str(exc)
        assert message.startswith("schema violation at "), message
        return message[len("schema violation at "):].split(": ", 1)[0]
    return None


def assert_agrees(doc, tmp_path):
    where = verdict(doc, tmp_path)
    errors = list(ORACLE.iter_errors(doc))
    assert (where is None) == (not errors), (doc, where, errors)
    if where is not None:
        assert where in {"/".join(map(str, e.absolute_path))
                         for e in errors}, (doc, where)


DOCUMENTS = ([(p.stem, json.loads(p.read_text())) for p in FIXTURES]
             + [(f"generated-{seed}", generated_document(seed))
                for seed in (1, 2, 3)])


@pytest.mark.parametrize("doc", [d for _, d in DOCUMENTS],
                         ids=[name for name, _ in DOCUMENTS])
def test_every_single_mutation_agrees_with_jsonschema(doc, tmp_path):
    assert ORACLE.is_valid(doc)
    for edit in edits(doc):
        assert_agrees(mutated(doc, edit), tmp_path)


def test_seeded_double_mutations_agree_with_jsonschema(tmp_path):
    rng = random.Random(7)
    docs = [d for _, d in DOCUMENTS]
    for _ in range(1000):
        doc = rng.choice(docs)
        first = mutated(doc, rng.choice(edits(doc)))
        assert_agrees(mutated(first, rng.choice(edits(first))), tmp_path)


def _monotone():
    return json.loads((FIXTURES[0].parent / "monotone_case.json").read_text())


def test_boolean_schema_version_is_rejected(tmp_path):
    doc = _monotone()
    doc["schema_version"] = True
    assert not ORACLE.is_valid(doc)
    assert verdict(doc, tmp_path) == "schema_version"


@pytest.mark.parametrize("field,path", [
    ("index", ("complex", "generators", 0)),
    ("degree", ("complex", "differential")),
    ("order", ("d_family",)),
])
def test_integral_float_is_an_integer(tmp_path, field, path):
    doc = _monotone()
    _at(doc, path)[field] = float(_at(doc, path)[field])
    assert ORACLE.is_valid(doc)
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    value = _at(load_document(str(p)), path)[field]
    assert value == int(value) and type(value) is int


def test_integral_float_gives_the_integer_answer(tmp_path, capsys):
    """``"order": 3.0`` used to reach ``range`` as a float (exit 4)."""
    from eqcartan import cli
    doc = _monotone()
    doc["d_family"]["order"] = 3.0
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(doc))
    ints = tmp_path / "ints.json"
    ints.write_text(json.dumps(_monotone()))
    outs = []
    for p in (floats, ints):
        code = cli.main(["cartan", "solve-iota", str(p)])
        outs.append((code, capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def _keyword_problems(node, where="SCHEMA"):
    """Keywords and keyword values in a schema that _check does not
    implement exactly as JSON Schema defines them."""
    problems = []
    for key, value in node.items():
        if key in ANNOTATIONS:
            continue
        if key not in schema._KEYWORDS:
            problems.append(f"{where}: unknown keyword {key!r}")
        elif key == "type" and value not in schema._TYPES:
            problems.append(f"{where}: unsupported type {value!r}")
        elif key == "additionalProperties" and value is not False:
            problems.append(f"{where}: additionalProperties must be false")
        elif key in ("const", "enum"):
            for v in (value if key == "enum" else [value]):
                if not isinstance(v, (str, int)) or isinstance(v, bool):
                    problems.append(f"{where}: {key} value {v!r} is not a "
                                    "string or an integer")
        elif key == "properties":
            for name, sub in value.items():
                problems += _keyword_problems(sub, f"{where}/{name}")
        elif key == "items":
            problems += _keyword_problems(value, f"{where}/items")
    return problems


def test_schema_uses_only_implemented_keywords():
    assert _keyword_problems(SCHEMA) == []


def test_keyword_walk_sees_an_unimplemented_keyword():
    planted = copy.deepcopy(SCHEMA)
    planted["properties"]["scalar_setup"]["maxProperties"] = 2
    assert _keyword_problems(planted) == [
        "SCHEMA/scalar_setup: unknown keyword 'maxProperties'"]
