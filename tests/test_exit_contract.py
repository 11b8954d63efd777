"""The exit-code contract under a seeded fuzz of the flags.

The flag-only commands and the order flags on one fixture take a seeded
fuzz of their arguments, and every exit must be 0 (true), 1 (false), 2
(malformed, argparse's usage exit included) or 3 (undetermined): never 4,
the internal error.  The document fuzz lives in ``answer_corpus``:
``test_golden_cli`` asserts its properties (a) and (c) and its pinned
answers at seed 16, and ``python tests/exit_fuzz.py`` asserts (a), (c) and
the order property (d) at seeds 1-3.
"""

import contextlib
import io
import json
import random

from answer_corpus import (FIXTURES, MUTANTS, ORDER_VARIABLES, SEED,
                           _names, _sites)
from eqcartan import cli


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


def test_flag_inputs_exit_within_the_contract(monkeypatch):
    for name in ORDER_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    argvs = list(_flag_argvs(random.Random(SEED)))
    assert len(argvs) >= 300
    for argv in argvs:
        # argparse's usage error exits through SystemExit with code 2
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2, 3), argv


def test_the_fuzz_covers_every_fixture_and_enough_documents():
    assert len(FIXTURES) * MUTANTS >= 100
    for path in FIXTURES:
        doc = json.loads(path.read_text())
        assert _sites(doc, tuple(_names(doc, set())), [])
