"""The document fuzz of answer_corpus.py at chosen seeds and sizes.

Usage: python tests/exit_fuzz.py [--seeds 1 2 3] [--mutants 40]

Each fixture takes ``--mutants`` mutated documents per seed, and every one
runs through the eleven document commands in process, first with the
EQCARTAN_*_ORDER variables unset.  Every run must keep ``answer_corpus``'s
properties (a) and (c), and at the default seeds and count its line must
match ``tests/answer_corpus_fuzz.txt``.  The same documents then run at
EQCARTAN_Q_ORDER 2, 8 and 64, and at EQCARTAN_U_ORDER 2, 4 and 8, and keep
(a) and (c) there too, and

(d) no command's exit goes from 0 to 1 or from 1 to 0 between two orders,
    and none that exits 0 or 1 at an order exits 3 at a higher one.

The run fails (exit 1, naming the property and each failing document's
edits, or each pinned line and the line now) if any run breaks one; it
stops after the first sweep if that one does.  The package must be
importable (installed, or src on PYTHONPATH).
"""

import argparse
import os
import sys
import time

from answer_corpus import COMMANDS, FIXTURES, FUZZ_CORPUS, FUZZ_MUTANTS, \
    FUZZ_SEEDS, differences, in_a_scratch_directory, runs, violations

RISING = (("EQCARTAN_Q_ORDER", ("2", "8", "64")),
          ("EQCARTAN_U_ORDER", ("2", "4", "8")))


def _flips(codes):
    """Whether exit codes at rising orders break (d)."""
    return {0, 1} <= set(codes) or any(
        c in (0, 1) and 3 in codes[i + 1:] for i, c in enumerate(codes))


def order_violations(seeds, count):
    """The runs at the RISING orders that break (a) or (c), and each
    (document, command) whose exits break (d)."""
    bad = []
    for name, values in RISING:
        codes = {}
        for value in values:
            os.environ[name] = value
            for seed in seeds:
                fuzz = list(runs(seed, count))
                bad += violations(fuzz)
                for r in fuzz:
                    codes.setdefault((r.command, r.document()), []).append(
                        r.code)
        del os.environ[name]
        bad += [f"(d) {command} exits {seen} at {name} {', '.join(values)}: "
                f"{document}" for (command, document), seen in codes.items()
                if _flips(seen)]
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=list(FUZZ_SEEDS))
    p.add_argument("--mutants", type=int, default=FUZZ_MUTANTS,
                   help="mutated documents per fixture and seed")
    args = p.parse_args(argv)
    start = time.perf_counter()
    with in_a_scratch_directory():
        bad, lines = [], []
        for seed in args.seeds:
            fuzz = list(runs(seed, args.mutants))
            bad += violations(fuzz)
            lines += [r.line() for r in fuzz]
        if (tuple(args.seeds), args.mutants) == (FUZZ_SEEDS, FUZZ_MUTANTS):
            bad += [f"answer moved: pinned {a}\n   now {b}"
                    for a, b in differences(FUZZ_CORPUS, lines)]
        if not bad:
            bad = order_violations(args.seeds, args.mutants)
    for line in bad:
        print(line)
    documents = len(args.seeds) * len(FIXTURES) * args.mutants
    print(f"{documents} documents x {len(COMMANDS)} commands: {len(bad)} "
          f"outside the contract, in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
