"""The document fuzz of the exit contract, and its pinned answers.

Each fixture document takes seeded mutations of one or two schema-level
edits: an entry value from a small pool, the ring, the lattice generator,
an index, order or degree in -3..4, or a generator reference renamed to
another generator of the document.  ``runs`` writes each mutant to the one
relative name ``mutant.json`` (so ``validate``'s ``document`` field reads
the same on every run) and yields one ``Run`` per (fixture, mutant,
command) of the eleven document commands, run in process.  ``violations``
names the runs that break

(a) every exit is 0 (true), 1 (false), 2 (malformed) or 3 (undetermined):
    never 4, the internal error, and no ``SystemExit`` escapes ``cli.main``;
(c) ``u-decompose`` exits 1 only on a document that ``validate`` does not
    pass.

``tests/answer_corpus.txt`` holds the ``line`` of every run of the seed-16
fuzz, 9 mutants per fixture, with EQCARTAN_Q_ORDER and EQCARTAN_U_ORDER
unset: the stem, the mutant's number, the exit code, the first 16 hex
digits of the sha256 of stdout, and the command.  A change to it is a
change of answer.  ``test_golden_cli`` asserts (a), (c) and these lines on
one run of that fuzz.  ``tests/answer_corpus_fuzz.txt`` holds, in the same
format and seed by seed, the lines of the seeds 1-3 fuzz with 40 mutants
per fixture and the orders unset; ``tests/exit_fuzz.py`` asserts them with
(a), (c) and the order property (d).  Run as a script,

    python tests/answer_corpus.py [--fuzz] [--write]

prints every line that differs from the seed-16 corpus (with ``--fuzz``,
from the seeds 1-3 one) and exits 1 if any does; ``--write`` rewrites the
file instead.  The package must be importable; it needs only the standard
library.
"""

import argparse
import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from eqcartan import cli

CORPUS = Path(__file__).resolve().parent / "answer_corpus.txt"
FIXTURES = sorted(
    (Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
MUTANTS = 9  # per fixture: 108 documents over the 12 fixtures
SEED = 16
# the documents of tests/exit_fuzz.py: 1,440 over the 12 fixtures
FUZZ_CORPUS = CORPUS.with_name("answer_corpus_fuzz.txt")
FUZZ_SEEDS = (1, 2, 3)
FUZZ_MUTANTS = 40
DOCUMENT = "mutant.json"
ORDER_VARIABLES = ("EQCARTAN_Q_ORDER", "EQCARTAN_U_ORDER")

COMMANDS = (
    "validate", "cohomology", "u-decompose", "cartan verify",
    "cartan solve-iota", "cartan connection --which q",
    "cartan connection --which u", "cone", "finite2 verify",
    "finite2 assemble", "quantum check",
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
    edits as (key, old, new)."""
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


class Run(NamedTuple):
    seed: int
    stem: str
    mutant: int
    edits: list
    command: str
    code: object  # the exit code, or the text of an escaped SystemExit
    stdout: str

    def line(self):
        """The run's line of the corpus."""
        digest = hashlib.sha256(self.stdout.encode("utf-8")).hexdigest()[:16]
        return f"{self.stem} {self.mutant} {self.code} {digest} {self.command}"

    def document(self):
        """The mutated document, named for a failure message."""
        return f"{self.stem} seed {self.seed} mutant {self.mutant} {self.edits}"


def runs(seed=SEED, count=MUTANTS):
    """One ``Run`` per (fixture, mutant, command) of ``count`` mutants per
    fixture drawn at ``seed``, in the working directory and environment."""
    for path in FIXTURES:
        rng = random.Random(f"{seed}:{path.stem}")
        for m, (doc, edits) in enumerate(_mutants(path, rng, count)):
            Path(DOCUMENT).write_text(json.dumps(doc))
            for command in COMMANDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = cli.main(command.split() + [DOCUMENT])
                    except SystemExit as exc:
                        code = f"SystemExit({exc.code!r})"
                yield Run(seed, path.stem, m, edits, command, code,
                          out.getvalue())


def violations(all_runs):
    """Each run that breaks (a) or (c), as a line naming the property, the
    document and its edits."""
    valid, bad = {}, []
    for r in all_runs:
        document = r.document()
        if r.command == "validate":
            valid[document] = r.code == 0
        if r.code not in (0, 1, 2, 3):
            bad.append(f"(a) {r.command} exits {r.code}: {document}")
        elif r.command == "u-decompose" and r.code == 1 and valid[document]:
            bad.append(f"(c) u-decompose false on a valid document: "
                       f"{document}")
    return bad


def differences(path, lines):
    """Each (pinned, now) pair of corpus lines that differ between the
    file ``path`` and ``lines``, with None where one side has no line."""
    pinned = path.read_text().splitlines()
    return [(a, b) for a, b in itertools.zip_longest(pinned, lines)
            if a != b]


@contextlib.contextmanager
def in_a_scratch_directory():
    """Run in a fresh temporary working directory, with the orders unset."""
    for name in ORDER_VARIABLES:
        os.environ.pop(name, None)
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            yield
        finally:
            os.chdir(start)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--fuzz", action="store_true",
                   help="the seeds 1-3 corpus of tests/exit_fuzz.py")
    p.add_argument("--write", action="store_true",
                   help="rewrite the corpus from this run")
    args = p.parse_args(argv)
    path, seeds, count = ((FUZZ_CORPUS, FUZZ_SEEDS, FUZZ_MUTANTS) if args.fuzz
                          else (CORPUS, (SEED,), MUTANTS))
    with in_a_scratch_directory():
        lines = [r.line() for seed in seeds for r in runs(seed, count)]
    if args.write:
        path.write_text("".join(f"{line}\n" for line in lines))
        print(f"wrote {len(lines)} lines to {path.name}")
        return 0
    differ = differences(path, lines)
    for a, b in differ:
        print(f"pinned {a}\n   now {b}")
    total = len(lines) + sum(b is None for _, b in differ)
    print(f"{total - len(differ)} of {total} answers match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
