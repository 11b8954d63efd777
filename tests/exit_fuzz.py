"""The document fuzz of test_exit_contract.py at chosen seeds and sizes.

Usage: python tests/exit_fuzz.py [--seeds 1 2 3] [--mutants 40]

Each fixture takes ``--mutants`` mutated documents per seed, and every one
runs through the eleven document commands in process.  The run fails
(exit 1, with the failing document's edits) unless (a) every exit is 0, 1,
2 or 3 and (c) ``u-decompose`` exits 1 only on documents that ``validate``
does not pass.  The package must be importable (installed, or src on
PYTHONPATH); the EQCARTAN_*_ORDER variables are unset for the run.
"""

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_exit_contract import COMMANDS, FIXTURES, check_fixture  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--mutants", type=int, default=40,
                   help="mutated documents per fixture and seed")
    args = p.parse_args(argv)
    for name in ("EQCARTAN_Q_ORDER", "EQCARTAN_U_ORDER"):
        os.environ.pop(name, None)
    start = time.perf_counter()
    documents = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            for path in FIXTURES:
                documents += check_fixture(path, seed, args.mutants,
                                           Path(workdir))
    print(f"{documents} documents x {len(COMMANDS)} commands within the "
          f"contract in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
