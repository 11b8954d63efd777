"""The exit-code contract under a seeded fuzz of the fixtures.

Each fixture document takes MUTANTS seeded mutations of one or two
schema-level edits: an entry value from a small pool, the ring, the lattice
generator, an index, order or degree in -3..4, or a generator reference
renamed to another generator of the document.  Every mutated document runs
in process through the eleven document commands, and every exit must be 0
(true), 1 (false), 2 (malformed) or 3 (undetermined): never 4, the
internal error, and never an exception that escapes ``cli.main``.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from eqcartan import cli

FIXTURES = sorted(
    (Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
MUTANTS = 9  # per fixture: 108 documents over the 12 fixtures
SEED = 16

COMMANDS = (
    ["validate"], ["cohomology"], ["u-decompose"],
    ["cartan", "verify"], ["cartan", "solve-iota"],
    ["cartan", "connection", "--which", "q"],
    ["cartan", "connection", "--which", "u"],
    ["cone"], ["finite2", "verify"], ["finite2", "assemble"],
    ["quantum", "check"],
)

VALUES = ("0", "1", "-1", "2", "3", "q", "q^-1", "q^2 + 1", "1/2", "q^(1/2)",
          "u", "")
RINGS = ("Q", "Z", "F2", "F3", "F5", "Z/6", "Z/4", "R")
LATTICES = ("1", "1/2", "2", "0", "-1", "x")
NUMBERS = tuple(range(-3, 5))
REFERENCES = ("source", "target", "left", "right", "term", "unit")


def _names(node, out):
    """Every generator or basis name in the document."""
    if isinstance(node, dict):
        if isinstance(node.get("name"), str):
            out.add(node["name"])
        for v in node.values():
            _names(v, out)
    elif isinstance(node, list):
        for v in node:
            _names(v, out)
    return out


def _sites(node, names, out):
    """Every editable leaf as (container, key, pool)."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        if isinstance(v, (dict, list)):
            _sites(v, names, out)
        elif k == "value":
            out.append((node, k, VALUES))
        elif k == "coefficients":
            out.append((node, k, RINGS))
        elif k == "lattice_generator":
            out.append((node, k, LATTICES))
        elif k in ("index", "order", "degree") and isinstance(v, int):
            out.append((node, k, NUMBERS))
        elif k in REFERENCES and isinstance(v, str):
            out.append((node, k, names))
    return out


def _mutants(path, rng):
    """MUTANTS documents, each the fixture with one or two edits, with the
    edits as (key, old, new) for the failure message."""
    base = json.loads(path.read_text())
    names = tuple(sorted(_names(base, set())))
    for _ in range(MUTANTS):
        doc = copy.deepcopy(base)
        sites = _sites(doc, names, [])
        edits = []
        for node, key, pool in rng.sample(sites, min(len(sites),
                                                     rng.randint(1, 2))):
            new = rng.choice([p for p in pool if p != node[key]] or pool)
            edits.append((key, node[key], new))
            node[key] = new
        yield doc, edits


@pytest.fixture
def unset_orders(monkeypatch):
    monkeypatch.delenv("EQCARTAN_Q_ORDER", raising=False)
    monkeypatch.delenv("EQCARTAN_U_ORDER", raising=False)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_mutated_fixtures_exit_within_the_contract(
        tmp_path, capsys, unset_orders, path):
    rng = random.Random(f"{SEED}:{path.stem}")
    for m, (doc, edits) in enumerate(_mutants(path, rng)):
        target = tmp_path / f"{path.stem}-{m}.json"
        target.write_text(json.dumps(doc))
        for command in COMMANDS:
            code = cli.main(command + [str(target)])
            capsys.readouterr()
            assert code in (0, 1, 2, 3), (path.stem, edits, command, code)


def test_the_fuzz_covers_every_fixture_and_enough_documents():
    assert len(FIXTURES) * MUTANTS >= 100
    for path in FIXTURES:
        doc = json.loads(path.read_text())
        assert _sites(doc, tuple(_names(doc, set())), [])
