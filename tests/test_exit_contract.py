"""The exit-code contract under a seeded fuzz of the fixtures and flags.

Each fixture document takes MUTANTS seeded mutations of one or two
schema-level edits: an entry value from a small pool, the ring, the lattice
generator, an index, order or degree in -3..4, or a generator reference
renamed to another generator of the document.  Every mutated document runs
in process through the eleven document commands, and

(a) every exit must be 0 (true), 1 (false), 2 (malformed) or 3
    (undetermined): never 4, the internal error, and never an exception
    that escapes ``cli.main``;
(c) ``u-decompose`` may exit 1 only on a document that ``validate`` does
    not pass.

The flag-only commands and the order flags on one fixture take a seeded
fuzz of their arguments, and (a) holds there too, argparse's usage exit 2
included.  ``python tests/exit_fuzz.py`` runs the document fuzz at other
seeds and sizes.
"""

import contextlib
import copy
import io
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


def _mutants(path, rng, count):
    """``count`` documents, each the fixture with one or two edits, with the
    edits as (key, old, new) for the failure message."""
    base = json.loads(path.read_text())
    names = tuple(sorted(_names(base, set())))
    for _ in range(count):
        doc = copy.deepcopy(base)
        sites = _sites(doc, names, [])
        edits = []
        for node, key, pool in rng.sample(sites, min(len(sites),
                                                     rng.randint(1, 2))):
            new = rng.choice([p for p in pool if p != node[key]] or pool)
            edits.append((key, node[key], new))
            node[key] = new
        yield doc, edits


@contextlib.contextmanager
def _quiet():
    """Drop what is written to stdout and stderr."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        yield


def check_fixture(path, seed, count, workdir):
    """Run the COMMANDS on ``count`` mutants of ``path`` drawn at ``seed``
    and assert (a) and (c); return the number of documents."""
    rng = random.Random(f"{seed}:{path.stem}")
    for m, (doc, edits) in enumerate(_mutants(path, rng, count)):
        target = workdir / f"{path.stem}-{seed}-{m}.json"
        target.write_text(json.dumps(doc))
        codes = {}
        for command in COMMANDS:
            try:
                with _quiet():
                    code = cli.main(command + [str(target)])
            except SystemExit as exc:  # fails the run, in a script too
                raise AssertionError((path.stem, edits, command,
                                      "SystemExit escaped cli.main")) from exc
            codes[" ".join(command)] = code
            assert code in (0, 1, 2, 3), (path.stem, edits, command, code)
        assert codes["u-decompose"] != 1 or codes["validate"] != 0, (
            path.stem, edits, "u-decompose false on a valid document")
    return count


@pytest.fixture
def unset_orders(monkeypatch):
    monkeypatch.delenv("EQCARTAN_Q_ORDER", raising=False)
    monkeypatch.delenv("EQCARTAN_U_ORDER", raising=False)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_mutated_fixtures_exit_within_the_contract(
        tmp_path, unset_orders, path):
    check_fixture(path, SEED, MUTANTS, tmp_path)


FLAG_ROUNDS = 4
ORDER_DOCUMENT = str(FIXTURES[0].parent / "classes_case.json")
ORDERS = ("1", "2", "3", "0", "-1", "", " 2", "x", "1.5")
FLAG_COMMANDS = (
    (["quantum", "obstruction"], {
        "--lambda": ("0", "1", "-2", "1/2", "1/5", "1e3", "inf", "abc", ""),
        "--d": ("-1", "0", "1", "2", "5", "x", ""),
        "--ring": ("Z", " Z ", "Q", "F2", "F5", "Z/6", "F1", "F4", "Fx",
                   "")}),
    (["morse", "alpha1"], {"--grid": ("-1", "0", "1", "2", "8", "x", "")}),
    (["morse", "additivity"], {
        "--delta": ("1e-2,1e-3", "1e-3,1e-2", "nan", "0", "1e-200", "1e300",
                    "-1e-2", "inf", ",", "", "abc")}),
    (["cohomology", ORDER_DOCUMENT], {"--q-order": ORDERS}),
    (["u-decompose", ORDER_DOCUMENT], {"--q-order": ORDERS,
                                       "--order": ORDERS}),
    (["cartan", "connection", "--which", "u", ORDER_DOCUMENT],
     {"--q-order": ORDERS}),
    (["quantum", "check", ORDER_DOCUMENT], {"--order": ORDERS}),
)


def _flag_argvs(rng):
    """For each command, flag and pool value, FLAG_ROUNDS argument vectors
    with that value and the other flags drawn from their pools or left
    out."""
    for command, flags in FLAG_COMMANDS:
        for flag, pool in flags.items():
            for value in pool * FLAG_ROUNDS:
                argv = list(command)
                for other, others in flags.items():
                    if other == flag:
                        argv += [flag, value]
                    elif rng.random() < 0.9:
                        argv += [other, rng.choice(others)]
                yield argv


def test_flag_inputs_exit_within_the_contract(unset_orders):
    argvs = list(_flag_argvs(random.Random(SEED)))
    assert len(argvs) >= 300
    for argv in argvs:
        # argparse's usage error exits through SystemExit with code 2
        try:
            with _quiet():
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2, 3), argv


def test_the_fuzz_covers_every_fixture_and_enough_documents():
    assert len(FIXTURES) * MUTANTS >= 100
    for path in FIXTURES:
        doc = json.loads(path.read_text())
        assert _sites(doc, tuple(_names(doc, set())), [])
