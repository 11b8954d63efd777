"""The answers of the exit-contract fuzz, pinned: one line per run.

``tests/answer_corpus.txt`` holds one line per (fixture, mutant, command)
of the document fuzz in test_exit_contract.py, at its seed and size: the
fixture's stem, the mutant's number, the exit code, the first 16 hex
digits of the sha256 of stdout, and the command.  Each mutant is written
to the one relative name ``mutant.json`` in the working directory, so
``validate``'s ``document`` field reads the same on every run.  The
commands run in process with EQCARTAN_Q_ORDER and EQCARTAN_U_ORDER unset.
A refactor must leave the file byte-identical; a change to it is a change
of answer.

``test_golden_cli`` checks the file against a fresh run.  Run as a script,

    python tests/answer_corpus.py [--write]

prints every line that differs and exits 1 if any does; ``--write``
rewrites the file instead.  The package must be importable (installed, or
src on PYTHONPATH).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from eqcartan import cli  # noqa: E402
from test_exit_contract import (COMMANDS, FIXTURES, MUTANTS, SEED,  # noqa: E402
                                _mutants)

CORPUS = Path(__file__).resolve().parent / "answer_corpus.txt"
DOCUMENT = "mutant.json"


def corpus_lines():
    """The corpus's lines from a fresh run in the working directory, in the
    order of the fuzz."""
    for path in FIXTURES:
        rng = random.Random(f"{SEED}:{path.stem}")
        for m, (doc, _) in enumerate(_mutants(path, rng, MUTANTS)):
            Path(DOCUMENT).write_text(json.dumps(doc))
            for command in COMMANDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(command + [DOCUMENT])
                digest = hashlib.sha256(
                    out.getvalue().encode("utf-8")).hexdigest()[:16]
                yield f"{path.stem} {m} {code} {digest} {' '.join(command)}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help="rewrite the corpus from this run")
    args = p.parse_args(argv)
    for name in ("EQCARTAN_Q_ORDER", "EQCARTAN_U_ORDER"):
        os.environ.pop(name, None)
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            lines = list(corpus_lines())
        finally:
            os.chdir(start)
    if args.write:
        CORPUS.write_text("".join(f"{line}\n" for line in lines))
        print(f"wrote {len(lines)} lines to {CORPUS.name}")
        return 0
    pinned = CORPUS.read_text().splitlines()
    differ = [(a, b) for a, b in zip(pinned, lines) if a != b]
    for a, b in differ:
        print(f"pinned {a}\n   now {b}")
    if len(pinned) != len(lines):
        print(f"{len(pinned)} pinned lines, {len(lines)} now")
    print(f"{len(lines) - len(differ)} of {len(lines)} answers match")
    return 1 if differ or len(pinned) != len(lines) else 0


if __name__ == "__main__":
    sys.exit(main())
