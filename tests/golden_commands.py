"""The golden CLI contract: every golden command, its exit code, and the
file that holds its stdout.

Each command runs from the repository root with EQCARTAN_Q_ORDER and
EQCARTAN_U_ORDER unset, its document named by its path from there.
``tests/golden/<golden_name(argv)>.out`` holds its stdout, byte for byte.
A refactor must reproduce them exactly; a change to one of these files is a
change of answer.

``test_golden_cli`` runs the commands in process.  Run as a script,

    python tests/golden_commands.py

runs each one as ``python -m eqcartan.cli`` under the interpreter that runs
the script, so it checks whichever ``eqcartan`` that interpreter imports
(an installed package, or ``src`` with ``PYTHONPATH=src``).  It prints
every command whose exit code or stdout differs and exits 1 if any does.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# (argv, exit code)
COMMANDS = [
    (["validate", "fixtures/classes_case.json"], 0),
    (["validate", "fixtures/cone_case.json"], 0),
    (["validate", "fixtures/dvr_case.json"], 0),
    (["validate", "fixtures/exact_case.json"], 0),
    (["validate", "fixtures/mod2_case.json"], 0),
    (["validate", "fixtures/monotone_case.json"], 0),
    (["validate", "fixtures/quantum_cp1.json"], 0),
    (["validate", "fixtures/torsion_case.json"], 0),
    (["validate", "fixtures/z2_case.json"], 0),
    (["validate", "fixtures/classes_cy_case.json"], 0),
    (["validate", "fixtures/cp2_lift.json"], 0),
    (["cohomology", "fixtures/monotone_case.json"], 0),
    (["cohomology", "fixtures/dvr_case.json"], 0),
    (["cohomology", "fixtures/classes_case.json"], 0),
    (["cohomology", "fixtures/exact_case.json"], 0),
    (["cohomology", "fixtures/torsion_case.json"], 0),
    (["u-decompose", "fixtures/dvr_case.json"], 0),
    (["u-decompose", "fixtures/exact_case.json"], 0),
    (["u-decompose", "fixtures/torsion_case.json"], 0),
    (["cartan", "verify", "fixtures/monotone_case.json"], 0),
    (["cartan", "solve-iota", "fixtures/monotone_case.json"], 0),
    (["cartan", "solve-iota", "fixtures/exact_case.json"], 0),
    (["cartan", "solve-iota", "fixtures/classes_case.json"], 0),
    (["cartan", "connection", "--which", "q",
      "fixtures/monotone_case.json"], 0),
    (["cartan", "connection", "--which", "u",
      "fixtures/monotone_case.json"], 0),
    (["cartan", "connection", "--which", "q", "fixtures/exact_case.json"], 0),
    (["cartan", "connection", "--which", "u", "fixtures/exact_case.json"], 0),
    (["cartan", "verify", "fixtures/classes_case.json"], 0),
    (["cartan", "verify", "fixtures/mod2_case.json"], 0),
    (["cartan", "connection", "--which", "q",
      "fixtures/classes_case.json"], 0),
    (["cartan", "connection", "--which", "u",
      "fixtures/classes_case.json"], 0),
    (["cartan", "verify", "fixtures/classes_cy_case.json"], 0),
    (["cartan", "connection", "--which", "q",
      "fixtures/classes_cy_case.json"], 0),
    (["cartan", "connection", "--which", "u",
      "fixtures/classes_cy_case.json"], 0),
    (["cartan", "connection", "--which", "q", "fixtures/cp2_lift.json"], 0),
    (["cartan", "connection", "--which", "u", "fixtures/cp2_lift.json"], 0),
    (["cartan", "solve-iota", "--regime", "cy",
      "fixtures/classes_case.json"], 0),
    (["quantum", "check", "fixtures/quantum_cp1.json"], 0),
    (["finite2", "verify", "fixtures/z2_case.json"], 0),
    (["finite2", "assemble", "fixtures/z2_case.json"], 0),
    (["cone", "fixtures/cone_case.json"], 0),
    # the order flags: a q-order for the eliminations, a u-order for the
    # analysis
    (["cohomology", "--q-order", "8", "fixtures/classes_case.json"], 0),
    (["u-decompose", "--order", "6", "fixtures/torsion_case.json"], 0),
    # the failure paths: broken_case breaks the Cartan identities, the
    # lambda cross-check and the ring axioms, its cy twin the same
    # identities under the cy normalization, and broken_z2_case three
    # finite2 relations, so assemble refuses to assemble
    (["validate", "fixtures/failing/broken_case.json"], 1),
    (["cartan", "verify", "fixtures/failing/broken_case.json"], 1),
    (["cartan", "verify", "fixtures/failing/broken_cy_case.json"], 1),
    (["quantum", "check", "fixtures/failing/broken_case.json"], 1),
    (["validate", "fixtures/failing/broken_z2_case.json"], 1),
    (["finite2", "verify", "fixtures/failing/broken_z2_case.json"], 1),
    (["finite2", "assemble", "fixtures/failing/broken_z2_case.json"], 1),
    # a Z-graded |q| = 2 complex that validate accepts, with an entry of d
    # that no displayed degree shift places: refused, not dropped
    (["cohomology", "fixtures/qdegree_z_case.json"], 2),
    (["u-decompose", "fixtures/qdegree_z_case.json"], 2),
    (["cartan", "connection", "--which", "q",
      "fixtures/qdegree_z_case.json"], 2),
    # an iota_family entry with an unknown generator: validate reads the
    # family as cartan verify does, and both refuse it
    (["validate", "fixtures/failing/bad_iota_case.json"], 2),
    (["cartan", "verify", "fixtures/failing/bad_iota_case.json"], 2),
    # d_0 is the complex block's differential: a d_family whose component 0
    # differs from it is malformed, for validate as for the cartan commands
    (["validate", "fixtures/failing/d0_mismatch_case.json"], 2),
    (["u-decompose", "fixtures/failing/d0_mismatch_case.json"], 2),
    # a cone side whose d does not square to zero: validate lists why the
    # cone cannot be built, and cone refuses to build it
    (["validate", "fixtures/failing/bad_cone_case.json"], 1),
    (["cone", "fixtures/failing/bad_cone_case.json"], 2),
    # commands without a document
    (["--schema"], 0),
    (["quantum", "obstruction", "--lambda", "2", "--d", "3", "--ring", "Z"],
     0),
    (["quantum", "obstruction", "--lambda", "3", "--d", "4", "--ring", "F5"],
     0),
    (["morse", "alpha1"], 0),
    (["morse", "weights"], 0),
    (["morse", "additivity", "--delta", "1e-2,1e-3"], 0),
]


def golden_name(argv):
    """The name of a command's stdout file, less ``.out``: its words joined
    by '-', a document's path from ``fixtures/`` with '/' read as '_'."""
    return "-".join(a.removeprefix("fixtures/") for a in argv).replace(
        "/", "_")


def golden_bytes(argv):
    return (GOLDEN / f"{golden_name(argv)}.out").read_bytes()


def main():
    env = {k: v for k, v in os.environ.items()
           if k not in ("EQCARTAN_Q_ORDER", "EQCARTAN_U_ORDER")}
    failed = 0
    for argv, code in COMMANDS:
        run = subprocess.run([sys.executable, "-m", "eqcartan.cli", *argv],
                             cwd=ROOT, env=env, capture_output=True)
        problems = []
        if run.returncode != code:
            problems.append(f"exit code {run.returncode}, expected {code}")
        if run.stdout != golden_bytes(argv):
            problems.append(f"stdout differs from {golden_name(argv)}.out")
        if problems:
            failed += 1
            print(f"FAIL eqcartan {' '.join(argv)}: {'; '.join(problems)}")
            sys.stdout.write(run.stderr.decode("utf-8", "replace"))
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} golden commands "
          "match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
