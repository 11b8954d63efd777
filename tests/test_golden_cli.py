"""CLI stdout and exit codes of the fixture commands, byte for byte.

``tests/golden`` holds the stdout of every command in ``CLI_MATRIX`` and
``CLI_GLOBAL`` (run from the repository root, documents given as
``fixtures/<name>``) and their exit codes.  A refactor must reproduce them
exactly; a change to one of these files is a change of answer.
"""

import json
from pathlib import Path

import pytest

from eqcartan import cli
from test_acceptance import CLI_GLOBAL, CLI_MATRIX

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())

COMMANDS = ([("-".join(a).replace("/", "_"), a[:-1] + ["fixtures/" + a[-1]])
             for a in CLI_MATRIX]
            + [("-".join(a), a) for a in CLI_GLOBAL])


def test_every_command_has_a_golden_file():
    assert sorted(EXIT_CODES) == sorted(ident for ident, _ in COMMANDS)
    assert len(list(GOLDEN.glob("*.out"))) == len(COMMANDS)


@pytest.mark.parametrize("ident,argv", COMMANDS, ids=[i for i, _ in COMMANDS])
def test_cli_stdout_matches_golden(capsys, monkeypatch, ident, argv):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("EQCARTAN_Q_ORDER", raising=False)
    monkeypatch.delenv("EQCARTAN_U_ORDER", raising=False)
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_CODES[ident]
    assert out.encode("utf-8") == (GOLDEN / f"{ident}.out").read_bytes()


@pytest.mark.parametrize("which", ["q", "u"])
def test_cy_twin_connection_goldens_equal_the_monotone_ones(which):
    # classes_cy_case.json is classes_case.json with every iota entry times
    # q^-1 in the cy regime: the same Gamma_q and Gamma_u, so the same bytes
    name = "cartan-connection---which-{}-{}.json.out"
    assert ((GOLDEN / name.format(which, "classes_cy_case")).read_bytes()
            == (GOLDEN / name.format(which, "classes_case")).read_bytes())


@pytest.mark.parametrize("fixture,regime", [("classes_case", "monotone"),
                                            ("classes_cy_case", "cy")])
def test_a_regime_flag_matching_the_document_keeps_its_golden(
        capsys, monkeypatch, fixture, regime):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("EQCARTAN_Q_ORDER", raising=False)
    monkeypatch.delenv("EQCARTAN_U_ORDER", raising=False)
    code = cli.main(["cartan", "connection", "--which", "u", "--regime",
                     regime, f"fixtures/{fixture}.json"])
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == (
        GOLDEN / f"cartan-connection---which-u-{fixture}.json.out"
    ).read_bytes()
