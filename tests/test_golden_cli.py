"""CLI stdout and exit codes of the golden commands, byte for byte.

``golden_commands.COMMANDS`` lists the commands, their exit codes and, by
``golden_name``, the files in ``tests/golden`` that hold their stdout.
The seed-16 document fuzz of ``answer_corpus`` runs once: every run keeps
the exit contract's properties (a) and (c), and ``answer_corpus.txt`` pins
each run's exit code and stdout hash.
"""

import pytest

from eqcartan import cli
from answer_corpus import CORPUS, runs, violations
from golden_commands import COMMANDS, GOLDEN, ROOT, golden_bytes, golden_name

NAMES = [golden_name(argv) for argv, _ in COMMANDS]


def test_every_command_has_a_golden_file():
    # and every file in tests/golden is a listed command's stdout
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        f"{name}.out" for name in NAMES)


@pytest.mark.parametrize("argv,code", COMMANDS, ids=NAMES)
def test_cli_stdout_matches_golden(capsys, monkeypatch, argv, code):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("EQCARTAN_Q_ORDER", raising=False)
    monkeypatch.delenv("EQCARTAN_U_ORDER", raising=False)
    assert cli.main(argv) == code
    assert capsys.readouterr().out.encode("utf-8") == golden_bytes(argv)


def test_fuzzed_answers_match_the_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EQCARTAN_Q_ORDER", raising=False)
    monkeypatch.delenv("EQCARTAN_U_ORDER", raising=False)
    fuzz = list(runs())
    bad = violations(fuzz)
    assert not bad, "\n".join(bad)
    assert [r.line() for r in fuzz] == CORPUS.read_text().splitlines()


@pytest.mark.parametrize("which", ["q", "u"])
def test_cy_twin_connection_goldens_equal_the_monotone_ones(which):
    # classes_cy_case.json is classes_case.json with every iota entry times
    # q^-1 in the cy regime: the same Gamma_q and Gamma_u, so the same bytes
    argv = ["cartan", "connection", "--which", which]
    assert (golden_bytes(argv + ["fixtures/classes_cy_case.json"])
            == golden_bytes(argv + ["fixtures/classes_case.json"]))


@pytest.mark.parametrize("fixture,regime", [("classes_case", "monotone"),
                                            ("classes_cy_case", "cy")])
def test_a_regime_flag_matching_the_document_keeps_its_golden(
        capsys, monkeypatch, fixture, regime):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("EQCARTAN_Q_ORDER", raising=False)
    monkeypatch.delenv("EQCARTAN_U_ORDER", raising=False)
    argv = ["cartan", "connection", "--which", "u", f"fixtures/{fixture}.json"]
    assert cli.main(argv[:-1] + ["--regime", regime, argv[-1]]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden_bytes(argv)
