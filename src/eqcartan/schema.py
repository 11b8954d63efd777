"""JSON document format, schema validation and deterministic serialization.

A workbench document is a single JSON object carrying the scalar setup and
any of the optional blocks (complex, d_family, lambda_family, iota_family,
quantum_ring, z2_data, cone).  The schema rejects unknown fields so typos
fail loudly instead of being silently ignored.  Scalars inside documents
are strings in the Novikov grammar, e.g. "q^2 - 3*q^(1/2)".

``SCHEMA`` is a JSON Schema (draft 2020-12) document, printed by
``eqcartan --schema``.  ``load_document`` checks documents against it with a
small stdlib validator that implements exactly the keywords ``SCHEMA`` uses:
``type`` (object, array, string, integer, boolean), ``properties``,
``required``, ``additionalProperties: false``, ``items``, ``minItems``,
``enum``, ``const`` and ``minimum`` (``$schema`` and ``title`` are
annotations).  It follows the draft's equality: ``true`` is not ``1`` and
``1.0`` is an integer.

Reports are serialized with ``dumps``: sorted keys, fixed indentation,
arithmetic objects rendered through their canonical text form — two runs
on the same input produce identical bytes.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # each builder imports what it uses; --schema loads none
    from .novikov import NovikovElem, ScalarSetup
    from .complexes import GeneratorInfo, GradedComplex, GradingKind
    from .cartan import CartanData, EquivariantDifferential
    from .finite2 import Z2CartanData
    from .quantum import QuantumRing

__all__ = ["SCHEMA", "DocumentError", "load_document", "dumps", "jsonify",
           "setup_from", "complex_from", "differential_family_from",
           "cartan_from", "quantum_from", "z2_from", "cone_from"]


class DocumentError(ValueError):
    """Malformed input document (schema or content level)."""


_ENTRY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["target", "source", "value"],
    "properties": {
        "target": {"type": "string"},
        "source": {"type": "string"},
        "value": {"type": "string"},
    },
}

_ENTRIES = {"type": "array", "items": _ENTRY}

_TERM = {
    "type": "object",
    "additionalProperties": False,
    "required": ["term", "value"],
    "properties": {
        "term": {"type": "string"},
        "value": {"type": "string"},
    },
}

_TERMS = {"type": "array", "items": _TERM}

_GENERATOR = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name"],
    "properties": {
        "name": {"type": "string"},
        "index": {"type": "integer"},
    },
}

_GRADING = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["Z", "Z/2", "Z/2m"]},
        "m": {"type": "integer", "minimum": 1},
    },
}

_COMPLEX = {
    "type": "object",
    "additionalProperties": False,
    "required": ["generators", "differential"],
    "properties": {
        "grading": _GRADING,
        "generators": {"type": "array", "items": _GENERATOR, "minItems": 1},
        "q_degree_two": {"type": "boolean"},
        "differential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["entries"],
            "properties": {
                "degree": {"type": "integer"},
                "entries": _ENTRIES,
            },
        },
    },
}

_FAMILY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["components"],
    "properties": {
        "order": {"type": "integer", "minimum": 1},
        "components": {"type": "array", "items": _ENTRIES, "minItems": 1},
    },
}

_IOTA_FAMILY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["components"],
    "properties": {
        "regime": {"enum": ["monotone", "cy"]},
        "components": {"type": "array", "items": _ENTRIES},
    },
}

_QUANTUM = {
    "type": "object",
    "additionalProperties": False,
    "required": ["basis", "unit", "table"],
    "properties": {
        "basis": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name", "degree"],
                "properties": {
                    "name": {"type": "string"},
                    "degree": {"type": "integer"},
                },
            },
        },
        "unit": {"type": "string"},
        "omega": _TERMS,
        "table": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["left", "right", "terms"],
                "properties": {
                    "left": {"type": "string"},
                    "right": {"type": "string"},
                    "terms": _TERMS,
                },
            },
        },
    },
}

_Z2 = {
    "type": "object",
    "additionalProperties": False,
    "required": ["generators"],
    "properties": {
        "generators": {"type": "array", "items": _GENERATOR, "minItems": 1},
        "operators": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                name: _ENTRIES
                for name in ("d", "iota", "lambda", "sigma", "Sigma",
                             "xi", "Xi")
            },
        },
    },
}

_CONE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["minus", "plus", "map"],
    "properties": {
        "minus": _COMPLEX,
        "plus": _COMPLEX,
        "map": _ENTRIES,
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "eqcartan workbench document",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "scalar_setup"],
    "properties": {
        "schema_version": {"const": 1},
        "scalar_setup": {
            "type": "object",
            "additionalProperties": False,
            "required": ["lattice_generator", "coefficients"],
            "properties": {
                "lattice_generator": {"type": "string"},
                "coefficients": {"type": "string"},
            },
        },
        "complex": _COMPLEX,
        "d_family": _FAMILY,
        "lambda_family": _FAMILY,
        "iota_family": _IOTA_FAMILY,
        "quantum_ring": _QUANTUM,
        "z2_data": _Z2,
        "cone": _CONE,
    },
}


# -- validation ---------------------------------------------------------------


def _is_integer(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": _is_integer,
}

# the keywords _check reads; any other keyword in SCHEMA would go unchecked
_KEYWORDS = frozenset({"type", "properties", "required",
                       "additionalProperties", "items", "minItems", "enum",
                       "const", "minimum"})


def _same(value, expected) -> bool:
    """JSON equality of scalars: a boolean equals only a boolean."""
    return (isinstance(value, bool) == isinstance(expected, bool)
            and value == expected)


def _violation(path: list, reason: str) -> DocumentError:
    return DocumentError(
        f"schema violation at {'/'.join(map(str, path))}: {reason}")


def _check(value, schema: dict, path: list):
    """Raise DocumentError at the first place ``value`` breaks ``schema``;
    return ``value`` with every integer-typed number as an ``int`` (so
    ``"order": 3.0`` reads as 3)."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        raise _violation(path, f"{json.dumps(value)} is not of type {kind!r}")
    if "const" in schema and not _same(value, schema["const"]):
        raise _violation(path, f"{json.dumps(schema['const'])} was expected")
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        raise _violation(path,
                         f"{json.dumps(value)} is not one of {schema['enum']}")
    if ("minimum" in schema and isinstance(value, (int, float))
            and not isinstance(value, bool) and value < schema["minimum"]):
        raise _violation(
            path, f"{value} is less than the minimum of {schema['minimum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise _violation(path, f"{key!r} is a required property")
        if schema.get("additionalProperties", True) is False:
            extra = [key for key in value if key not in props]
            if extra:
                raise _violation(path, f"unexpected properties {extra}")
        for key, sub in props.items():
            if key in value:
                value[key] = _check(value[key], sub, path + [key])
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise _violation(path,
                             f"needs at least {schema['minItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                value[i] = _check(item, schema["items"], path + [i])
    return int(value) if kind == "integer" else value


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and bad UTF-8; RecursionError, arrays
        # or objects nested deeper than the parser's stack
        raise DocumentError(f"cannot read document: {exc}") from exc
    return _check(doc, SCHEMA, [])


def _order_setting(value: Optional[str], name: str) -> Optional[int]:
    """A truncation order from a command-line flag or the environment.

    A positive integer (surrounding blanks allowed) is that order; None or
    the empty string means unset (None); anything else, a sign included,
    raises InputError.
    """
    from .novikov import InputError
    if value is None or value == "":
        return None
    text = value.strip()
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return int(text)


# -- builders -----------------------------------------------------------------


def setup_from(doc: dict) -> ScalarSetup:
    from .novikov import NovikovError, ScalarSetup
    block = doc["scalar_setup"]
    try:
        return ScalarSetup.make(Fraction(block["lattice_generator"]),
                                block["coefficients"])
    except (NovikovError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad scalar setup: {exc}") from exc


def _grading_from(block: Optional[dict]) -> GradingKind:
    from .complexes import GradingKind
    if not block:
        return GradingKind("Z")
    if block["kind"] == "Z/2m":
        if "m" not in block:
            raise DocumentError("grading kind Z/2m requires field m")
        return GradingKind("Z/2m", block["m"])
    return GradingKind(block["kind"])


def _generators_from(items) -> Tuple[GeneratorInfo, ...]:
    from .complexes import GeneratorInfo
    names = [g["name"] for g in items]
    if len(set(names)) != len(names):
        raise DocumentError("duplicate generator names")
    return tuple(GeneratorInfo(g["name"], g.get("index", 0)) for g in items)


def _positions(basis) -> Dict[str, int]:
    return {g.name: i for i, g in enumerate(basis)}


def _entries_from(items, setup, **positions) -> Dict[tuple, NovikovElem]:
    """Sum the values of ``items`` by position.  Each keyword names the
    field of an item that holds a generator and maps generator names to
    positions: ``target=`` and ``source=`` for matrix entries, ``term=`` for
    a quantum column.  Keys are tuples of positions in keyword order."""
    from .novikov import NovikovError
    out: Dict[tuple, NovikovElem] = {}
    for e in items:
        for field, pos in positions.items():
            if e[field] not in pos:
                raise DocumentError(f"unknown {field} generator {e[field]!r}")
        key = tuple(pos[e[field]] for field, pos in positions.items())
        try:
            v = setup.parse(e["value"])
        except NovikovError as exc:
            at = ",".join(e[field] for field in positions)
            raise DocumentError(
                f"bad scalar {e['value']!r} at ({at}): {exc}") from exc
        out[key] = out[key] + v if key in out else v
    return out


def _matrix_from(items, basis, setup) -> Dict[tuple, NovikovElem]:
    pos = _positions(basis)
    return _entries_from(items, setup, target=pos, source=pos)


def _complex_block(block: dict, setup: ScalarSetup) -> GradedComplex:
    """The complex of a ``complex`` block or of a cone side."""
    from .complexes import GradedComplex, OperatorMatrix
    grading = _grading_from(block.get("grading"))
    basis = _generators_from(block["generators"])
    entries = _matrix_from(block["differential"]["entries"], basis, setup)
    d = OperatorMatrix(basis, basis, entries,
                       block["differential"].get("degree", 1))
    return GradedComplex(setup, grading, basis, d,
                         block.get("q_degree_two", False))


def complex_from(doc: dict) -> GradedComplex:
    if "complex" not in doc:
        raise DocumentError("document has no 'complex' block")
    return _complex_block(doc["complex"], setup_from(doc))


def differential_family_from(doc: dict, order: Optional[int] = None
                             ) -> EquivariantDifferential:
    """The document's d_eq mod u^N.  Its d_0 is the differential of the
    'complex' block, of degree 1; a d_family's component 0 must equal it.
    N is ``order`` (``u-decompose --order``), else ``d_family.order``, else
    EQCARTAN_U_ORDER (parsed even when unused, so a malformed value is
    malformed input), else K + 2."""
    from .cartan import EquivariantDifferential
    env_order = _order_setting(os.environ.get("EQCARTAN_U_ORDER"),
                               "EQCARTAN_U_ORDER")
    if "complex" not in doc:
        blocks = "/".join(b for b in ("d_family", "iota_family",
                                      "lambda_family") if b in doc)
        raise DocumentError(f"{blocks or 'd_eq'} needs a 'complex' block "
                            "for its basis")
    C = complex_from(doc)
    if C.d.degree != 1:
        raise DocumentError(
            f"the 'complex' block's differential has degree {C.d.degree}, "
            "but it is d_0 of d_eq, of degree 1")
    block = doc.get("d_family", {})
    comps = [_matrix_from(items, C.basis, C.setup)
             for items in block.get("components", ())]
    diff = EquivariantDifferential.build(
        C.setup, C.grading, C.basis, comps or [C.d.entries],
        order or block.get("order") or env_order)
    if diff.components[0].entries != C.d.entries:
        raise DocumentError("d_family component 0 differs from the 'complex' "
                            "block's differential, which is d_0")
    return diff


def cartan_from(doc: dict) -> CartanData:
    from .cartan import CartanData, _iota_degree
    from .complexes import OperatorMatrix
    diff = differential_family_from(doc)
    regime = "monotone"
    iota_ops = ()
    if "iota_family" in doc:
        block = doc["iota_family"]
        regime = block.get("regime", "monotone")
        ops = []
        for k, items in enumerate(block["components"]):
            entries = _matrix_from(items, diff.basis, diff.setup)
            ops.append(OperatorMatrix(diff.basis, diff.basis, entries,
                                      _iota_degree(regime, k)))
        iota_ops = tuple(ops)
    return CartanData(diff, iota_ops, regime)


def lambda_family_from(doc: dict, diff: EquivariantDifferential):
    if "lambda_family" not in doc:
        return None
    return [_matrix_from(items, diff.basis, diff.setup)
            for items in doc["lambda_family"]["components"]]


def quantum_from(doc: dict) -> QuantumRing:
    from .quantum import QuantumRing
    from .complexes import GeneratorInfo
    if "quantum_ring" not in doc:
        raise DocumentError("document has no 'quantum_ring' block")
    block = doc["quantum_ring"]
    setup = setup_from(doc)
    basis = tuple(GeneratorInfo(b["name"], b["degree"])
                  for b in block["basis"])
    pos = _positions(basis)
    if len(pos) != len(basis):
        raise DocumentError("duplicate quantum basis names")
    if block["unit"] not in pos:
        raise DocumentError(f"unknown unit {block['unit']!r}")

    def column(terms):
        return {k: v for (k,), v in _entries_from(terms, setup,
                                                  term=pos).items()}

    table = {}
    for row in block["table"]:
        for role in ("left", "right"):
            if row[role] not in pos:
                raise DocumentError(f"unknown class {row[role]!r}")
        key = (pos[row["left"]], pos[row["right"]])
        if key in table:
            raise DocumentError(f"repeated product-table row for "
                                f"({row['left']!r}, {row['right']!r})")
        table[key] = column(row["terms"])
    omega = column(block.get("omega", []))
    return QuantumRing(setup, basis, table, pos[block["unit"]], omega)


def z2_from(doc: dict) -> Z2CartanData:
    from .finite2 import Z2CartanData
    if "z2_data" not in doc:
        raise DocumentError("document has no 'z2_data' block")
    block = doc["z2_data"]
    setup = setup_from(doc)
    basis = _generators_from(block["generators"])
    ops = block.get("operators", {})
    maps = {}
    for json_name, field in (("d", "d"), ("iota", "iota"),
                             ("lambda", "lam"), ("sigma", "sigma"),
                             ("Sigma", "Sigma"), ("xi", "xi"), ("Xi", "Xi")):
        maps[field] = _matrix_from(ops.get(json_name, []), basis, setup)
    return Z2CartanData.build(setup, basis, **maps)


def cone_from(doc: dict):
    from .complexes import OperatorMatrix
    if "cone" not in doc:
        raise DocumentError("document has no 'cone' block")
    block = doc["cone"]
    setup = setup_from(doc)
    minus = _complex_block(block["minus"], setup)
    plus = _complex_block(block["plus"], setup)
    # chain map entries: targets in minus, sources in plus
    entries = _entries_from(block["map"], setup,
                            target=_positions(minus.basis),
                            source=_positions(plus.basis))
    cmap = OperatorMatrix(plus.basis, minus.basis, entries, 0)
    return cmap, minus, plus


# -- deterministic output -----------------------------------------------------


@cache
def _report_types():
    """The scalar types a report prints as text: imported at the first
    report value that is not plain JSON, never for --schema."""
    from .novikov import NovikovElem, USeries
    return NovikovElem, USeries, Fraction


def jsonify(obj):
    """Recursively convert report objects to JSON-safe primitives."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, float):
        return float(obj)
    if obj is None or isinstance(obj, (str, int)):
        return obj
    return str(obj) if isinstance(obj, _report_types()) else obj


def dumps(report) -> str:
    return json.dumps(jsonify(report), sort_keys=True, indent=2) + "\n"
