import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eqcartan import cli, complexes
from eqcartan.linalg import UndeterminedError
from eqcartan.novikov import (InternalError, InversionError, LatticeMismatch,
                              NovikovError)
from eqcartan.schema import DocumentError, dumps, load_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- document loading ----------------------------------------------------------


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_bundled_fixtures_load(path):
    doc = load_document(str(path))
    assert doc["schema_version"] == 1


def test_missing_file_is_malformed(tmp_path):
    with pytest.raises(DocumentError):
        load_document(str(tmp_path / "nope.json"))


def test_bad_json_is_malformed(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(DocumentError):
        load_document(str(p))


def test_unknown_field_rejected(tmp_path):
    p = tmp_path / "extra.json"
    p.write_text(json.dumps({
        "schema_version": 1,
        "scalar_setup": {"lattice_generator": "1", "coefficients": "Q"},
        "surprise": True,
    }))
    with pytest.raises(DocumentError):
        load_document(str(p))


def test_wrong_schema_version_rejected(tmp_path):
    p = tmp_path / "v2.json"
    p.write_text(json.dumps({
        "schema_version": 2,
        "scalar_setup": {"lattice_generator": "1", "coefficients": "Q"},
    }))
    with pytest.raises(DocumentError):
        load_document(str(p))


@pytest.mark.parametrize("content", [b'{"a": "\xff"}',
                                     b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "nested-too-deep"])
def test_unreadable_json_is_malformed(capsys, tmp_path, content):
    p = tmp_path / "unreadable.json"
    p.write_bytes(content)
    with pytest.raises(DocumentError):
        load_document(str(p))
    code, out = run_cli(capsys, "validate", str(p))
    assert code == 2
    assert json.loads(out)["kind"] == "malformed input"


def test_dumps_is_sorted_with_trailing_newline():
    s = dumps({"b": 1, "a": 2})
    assert s.endswith("\n")
    assert s.index('"a"') < s.index('"b"')


# -- exit codes ----------------------------------------------------------------


def test_validate_passes_on_every_fixture(capsys):
    for path in ALL_FIXTURES:
        code, out = run_cli(capsys, "validate", str(path))
        assert code == 0, (path, out)
        json.loads(out)


def test_malformed_document_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    code, out = run_cli(capsys, "validate", str(p))
    assert code == 2
    assert json.loads(out)["kind"] == "malformed input"


@pytest.mark.parametrize("command", [["validate"], ["quantum", "check"]])
def test_repeated_product_table_row_exits_2(capsys, tmp_path, command):
    # a second (e, e) row stating e*e = 7: rows are not summed, so the
    # document is ambiguous and must not be checked as if it were not
    doc = json.loads((FIXTURES / "quantum_cp1.json").read_text())
    table = doc["quantum_ring"]["table"]
    table.insert(len(table) - 1, {"left": "e", "right": "e",
                                  "terms": [{"term": "one", "value": "7"}]})
    p = tmp_path / "repeated.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(capsys, *command, str(p))
    assert code == 2
    report = json.loads(out)
    assert report["kind"] == "malformed input"
    assert "('e', 'e')" in report["error"]


ENTRY = ("complex", "differential", "entries", 0, "value")


@pytest.mark.parametrize("fixture, path, value, message", [
    ("monotone_case", ("scalar_setup", "lattice_generator"), "2/3",
     "bad scalar setup: 1 must be an integer multiple of the lattice "
     "generator"),
    ("monotone_case", ENTRY, "(q",
     "bad scalar '(q' at (y,x): unbalanced parens in '(q'"),
    ("monotone_case", ENTRY, "q)",
     "bad scalar 'q)' at (y,x): unbalanced parens in 'q)'"),
    ("quantum_cp1", ("quantum_ring", "basis", 1, "name"), "one",
     "duplicate quantum basis names"),
    ("quantum_cp1", ("quantum_ring", "unit"), "x", "unknown unit 'x'"),
    ("quantum_cp1", ("quantum_ring", "table", 1, "right"), "x",
     "unknown class 'x'"),
], ids=["lattice", "open-paren", "close-paren", "duplicate-basis",
        "unknown-unit", "unknown-table-class"])
def test_refused_input_exits_2_with_its_message(capsys, tmp_path, fixture,
                                                path, value, message):
    # one field of a bundled fixture set to a value the document grammar
    # or the quantum ring refuses
    doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    p = tmp_path / "refused.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "validate", str(p))
    assert code == 2
    assert json.loads(out) == {"error": message, "kind": "malformed input"}


def test_repeated_terms_within_a_table_row_are_summed(capsys, tmp_path):
    doc = json.loads((FIXTURES / "quantum_cp1.json").read_text())
    doc["quantum_ring"]["table"][-1]["terms"] = [
        {"term": "one", "value": "q^2 - 1"}, {"term": "one", "value": "1"}]
    p = tmp_path / "split.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "quantum", "check", str(p))
    assert code == 0
    assert json.loads(out)["uq_identity"]["holds"]


def _not_square_document(tmp_path):
    # d does not square to zero: a three-step complex with two arrows
    p = tmp_path / "notsquare.json"
    p.write_text(json.dumps({
        "schema_version": 1,
        "scalar_setup": {"lattice_generator": "1", "coefficients": "Q"},
        "complex": {
            "grading": {"kind": "Z"},
            "generators": [{"name": "a", "index": 0},
                           {"name": "b", "index": 1},
                           {"name": "c", "index": 2}],
            "differential": {"degree": 1, "entries": [
                {"target": "b", "source": "a", "value": "1"},
                {"target": "c", "source": "b", "value": "1"},
            ]},
        },
    }))
    return p


def test_verified_false_exits_1(capsys, tmp_path):
    code, out = run_cli(capsys, "validate", str(_not_square_document(tmp_path)))
    assert code == 1
    assert not json.loads(out)["valid"]


@pytest.mark.parametrize("command", ["cohomology", "u-decompose"])
def test_a_non_complex_exits_2(capsys, tmp_path, command):
    code, out = run_cli(capsys, command, str(_not_square_document(tmp_path)))
    assert code == 2
    assert json.loads(out)["kind"] == "malformed input"


@pytest.mark.parametrize("command", [
    ["validate"], ["u-decompose"], ["cartan", "verify"],
    ["cartan", "solve-iota"], ["cartan", "connection", "--which", "u"]])
def test_d_family_order_below_its_components_exits_2(capsys, tmp_path,
                                                     command):
    doc = json.loads((FIXTURES / "monotone_case.json").read_text())
    doc["d_family"]["order"] = 1
    doc["d_family"]["components"].append([])
    p = tmp_path / "short_order.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(capsys, *command, str(p))
    assert code == 2
    assert json.loads(out) == {
        "error": "truncation order must cover every differential component",
        "kind": "malformed input"}


def test_a_lambda_component_the_document_leaves_out_is_checked(capsys,
                                                                tmp_path):
    # d_1 = q^3 on (y, x) derives lambda_1 = 3q^2, which the one-component
    # lambda_family declares zero by leaving it out
    doc = json.loads((FIXTURES / "monotone_case.json").read_text())
    doc["d_family"]["components"].append(
        [{"target": "y", "source": "x", "value": "q^3"}])
    p = tmp_path / "short_lambda.json"
    p.write_text(json.dumps(doc))
    missing = {"invariant": "lambda = dq(d)", "component": 1,
               "entry": ["y", "x"], "declared": "0", "derived": "3*q^2"}
    code, out = run_cli(capsys, "validate", str(p))
    report = json.loads(out)
    assert code == 1 and not report["valid"]
    assert report["blocks"]["lambda_family"]["violations"] == [missing]
    code, out = run_cli(capsys, "cartan", "verify", str(p))
    assert code == 1
    assert json.loads(out)["lambda_family_cross_check"] == {
        "mismatches": [missing], "holds": False}


def _bad_iota(doc, *, drop=(), **entry):
    doc["iota_family"]["components"][1] = [
        {"target": "x", "source": "x", "value": "2", **entry}]
    for block in drop:
        del doc[block]
    return doc


@pytest.mark.parametrize("edit, message", [
    ({"source": "v"}, "unknown source generator 'v'"),
    ({"value": "q^^2"}, "bad scalar 'q^^2' at (x,x): "),
    ({"drop": ("complex", "d_family")},
     "iota_family/lambda_family needs a 'complex' block for its basis"),
    ({"drop": ("complex", "d_family", "iota_family")},
     "lambda_family needs a 'complex' block for its basis"),
], ids=["unknown-generator", "bad-scalar", "no-complex", "lambda-only"])
def test_validate_reads_the_iota_family_as_cartan_verify_does(
        capsys, tmp_path, edit, message):
    doc = json.loads((FIXTURES / "classes_case.json").read_text())
    p = tmp_path / "bad_iota.json"
    p.write_text(json.dumps(_bad_iota(doc, **edit)))
    code, out = run_cli(capsys, "validate", str(p))
    assert code == 2
    assert json.loads(out)["error"].startswith(message)
    assert run_cli(capsys, "cartan", "verify", str(p)) == (code, out)


Z_DOCUMENT = str(FIXTURES / "mod2_case.json")  # Z coefficients


@pytest.mark.parametrize("argv", [
    ["quantum", "obstruction", "--lambda", "abc", "--d", "3", "--ring", "F5"],
    ["quantum", "obstruction", "--lambda", "1", "--d", "3", "--ring", "F4"],
    ["quantum", "obstruction", "--lambda", "1", "--d", "3", "--ring", "Fx"],
    ["quantum", "obstruction", "--lambda", "1", "--d", "0", "--ring", "F5"],
    ["morse", "additivity", "--delta", "nan"],
    ["morse", "additivity", "--delta", "0"],
    ["morse", "additivity", "--delta", "1e-2,abc"],
    ["morse", "alpha1", "--grid", "0"],
    # one grid point resolves no winding; delta^2 underflows to 0, so the
    # whole trajectory is a piece; delta^2 overflows; distances increase
    ["morse", "alpha1", "--grid", "1"],
    ["morse", "additivity", "--delta", "1e-200"],
    ["morse", "additivity", "--delta", "1e300"],
    ["morse", "additivity", "--delta", "1e-3,1e-2"],
    ["cohomology", Z_DOCUMENT],
    ["u-decompose", Z_DOCUMENT],
    ["cartan", "solve-iota", Z_DOCUMENT],
    # the iota of classes_case.json read in the cy regime is another Gamma
    ["cartan", "connection", "--which", "q", "--regime", "cy",
     str(FIXTURES / "classes_case.json")],
], ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_bad_arguments_exit_2(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["kind"] == "malformed input"


@pytest.mark.parametrize("exc", [InternalError("planted defect"),
                                 ZeroDivisionError("planted defect"),
                                 NovikovError("planted defect"),
                                 InversionError("planted defect"),
                                 LatticeMismatch("planted defect")],
                         ids=lambda e: type(e).__name__)
def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, exc):
    def boom(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_morse_weights", boom)
    code = cli.main(["morse", "weights"])
    captured = capsys.readouterr()
    assert code == 4
    report = json.loads(captured.out)
    assert report["kind"] == "internal error"
    assert "planted defect" in report["error"]
    assert "Traceback" in captured.err


def test_an_undetermined_kernel_exits_3(capsys, monkeypatch):
    # no document reaches an UndeterminedError today, so the kernel plants
    # one
    def undetermined(*args):
        raise UndeterminedError("planted truncation")
    monkeypatch.setattr(complexes, "cohomology_over_novikov_field",
                        undetermined)
    code, out = run_cli(capsys, "cohomology",
                        str(FIXTURES / "monotone_case.json"))
    assert code == 3
    assert json.loads(out) == {"error": "planted truncation",
                               "kind": "undetermined at truncation"}


def test_an_unbalanced_long_exact_sequence_exits_1(capsys, monkeypatch):
    # no document unbalances the long exact sequence today, so the
    # bookkeeping is made to report it
    real = complexes.les_consistency
    monkeypatch.setattr(complexes, "les_consistency",
                        lambda *args: {**real(*args), "balanced": False})
    code, out = run_cli(capsys, "u-decompose", str(FIXTURES / "dvr_case.json"))
    assert code == 1
    assert json.loads(out)["les_consistency"]["balanced"] is False


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("document, code", [
    ("failing/broken_case.json", 1), ("monotone_case.json", 0)])
def test_a_closed_stdout_keeps_the_exit_code(document, code, unbuffered):
    # the reader of stdout is gone before the report is written, so the
    # write fails with EPIPE; the exit code is still the verdict's, as
    # with an open stdout, and nothing is left to fail at exit
    root = FIXTURES.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "eqcartan.cli", "validate",
            str(FIXTURES / document)]
    assert subprocess.run(argv, env=env, capture_output=True,
                          timeout=120).returncode == code
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(argv, env=env, stdout=write,
                              stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == code
    assert b"Exception ignored" not in proc.stderr


def test_quantum_obstruction_exit_codes(capsys):
    code, out = run_cli(capsys, "quantum", "obstruction",
                        "--lambda", "2", "--d", "3", "--ring", "Z")
    assert code == 0
    assert json.loads(out)["verdict"] == "forbidden"
    code, out = run_cli(capsys, "quantum", "obstruction",
                        "--lambda", "1", "--d", "1", "--ring", "F2")
    assert code == 2
    assert json.loads(out)["verdict"] == "inapplicable"


def test_quantum_obstruction_maps_a_rational_lambda_into_fp(capsys):
    # 1/2 = 3 in F5, a unit: the summand is forbidden (2*3*3^2 = 4 mod 5)
    code, out = run_cli(capsys, "quantum", "obstruction",
                        "--lambda", "1/2", "--d", "3", "--ring", "F5")
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] == "forbidden"
    assert report["lambda"] == "3"
    assert report["certificate"]["surviving_coefficient"] == "4"


def test_quantum_obstruction_rejects_lambda_without_fp_image(capsys):
    code, out = run_cli(capsys, "quantum", "obstruction",
                        "--lambda", "1/5", "--d", "3", "--ring", "F5")
    assert code == 2
    assert json.loads(out)["kind"] == "malformed input"


def test_quantum_obstruction_reads_the_ring_as_a_document_does(capsys):
    argv = ["quantum", "obstruction", "--lambda", "2", "--d", "3", "--ring"]
    # blanks around a ring name are ignored, as in a coefficients field
    assert run_cli(capsys, *argv, " Z ") == run_cli(capsys, *argv, "Z")
    for ring, error in [("Fx", "unknown coefficient ring 'Fx'"),
                        ("Q", "unsupported ring 'Q'"),
                        ("Z/6", "unsupported ring 'Z/6'")]:
        code, out = run_cli(capsys, *argv, ring)
        assert code == 2
        assert json.loads(out)["error"] == error
    # the ring is read before the check looks at d or lambda
    code, out = run_cli(capsys, "quantum", "obstruction", "--lambda", "abc",
                        "--d", "0", "--ring", "F4")
    assert code == 2
    assert json.loads(out)["error"] == "4 is not prime"


def test_schema_flag(capsys):
    code, out = run_cli(capsys, "--schema")
    assert code == 0
    schema = json.loads(out)
    assert schema["properties"]["schema_version"]["const"] == 1
    assert schema["additionalProperties"] is False


IMPORT_PROBE = """
import contextlib, io, json, sys
import eqcartan.cli
watched = ("eqcartan.novikov", "eqcartan.linalg", "eqcartan.complexes",
           "eqcartan.cartan", "eqcartan.quantum", "eqcartan.finite2",
           "numpy", "jsonschema")
steps = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = eqcartan.cli.main(argv)
    steps.append([code, [m for m in watched if m in sys.modules]])
print(json.dumps(steps))
"""


def test_each_command_loads_only_the_modules_it_runs():
    """One fresh interpreter runs the commands in turn and records the
    modules loaded so far after each: --schema loads none of the package's
    modules; cohomology and cone load the arithmetic (novikov, linalg and
    complexes) but none of cartan, quantum and finite2; finite2 verify adds
    finite2 only; no command, a morse one included, loads numpy or
    jsonschema."""
    root = FIXTURES.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    arithmetic = ["eqcartan.novikov", "eqcartan.linalg", "eqcartan.complexes"]
    cartan, quantum, finite2 = ("eqcartan.cartan", "eqcartan.quantum",
                                "eqcartan.finite2")
    steps = [
        (["--schema"], []),
        (["cohomology", "fixtures/monotone_case.json"], arithmetic),
        (["cone", "fixtures/cone_case.json"], arithmetic),
        (["finite2", "verify", "fixtures/z2_case.json"],
         arithmetic + [finite2]),
        (["validate", "fixtures/monotone_case.json"],
         arithmetic + [cartan, finite2]),
        (["cartan", "verify", "fixtures/monotone_case.json"],
         arithmetic + [cartan, finite2]),
        (["quantum", "check", "fixtures/quantum_cp1.json"],
         arithmetic + [cartan, quantum, finite2]),
        (["morse", "weights"], arithmetic + [cartan, quantum, finite2]),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE,
         json.dumps([argv for argv, _ in steps])],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    assert json.loads(proc.stdout) == [[0, loaded] for _, loaded in steps]


# -- command output sanity -----------------------------------------------------


def test_cohomology_output(capsys):
    code, out = run_cli(capsys, "cohomology",
                        str(FIXTURES / "monotone_case.json"))
    assert code == 0
    rep = json.loads(out)
    assert all(v["betti"] == 0 for v in rep["degrees"].values())


def test_u_decompose_output(capsys):
    code, out = run_cli(capsys, "u-decompose",
                        str(FIXTURES / "dvr_case.json"))
    assert code == 0
    rep = json.loads(out)
    per = rep["decomposition"]["per_degree"]
    assert per["0"]["torsion_orders"] == [1]
    assert rep["les_consistency"]["balanced"]


def test_cartan_verify_output(capsys):
    code, out = run_cli(capsys, "cartan", "verify",
                        str(FIXTURES / "monotone_case.json"))
    assert code == 0
    assert json.loads(out)["all_hold"]


def test_cartan_connection_exact_case(capsys):
    code, out = run_cli(capsys, "cartan", "connection", "--which", "q",
                        str(FIXTURES / "exact_case.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["operator_form"] == "u*d/dq"
    assert rep["matrix_part_is_zero"]


def test_finite2_assemble_output(capsys):
    code, out = run_cli(capsys, "finite2", "assemble",
                        str(FIXTURES / "z2_case.json"))
    assert code == 0
    assert json.loads(out)["all_hold"]


def test_cone_output(capsys):
    code, out = run_cli(capsys, "cone", str(FIXTURES / "cone_case.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["quasi_isomorphisms"]["plus"]["quasi_isomorphism"]
    assert rep["quasi_isomorphisms"]["minus"]["quasi_isomorphism"]


# -- environment knobs ---------------------------------------------------------


def _q_order_in_force(monkeypatch, *flags):
    """The q-order ``cli.main`` hands to ``cohomology``."""
    seen = []
    monkeypatch.setattr(cli, "cmd_cohomology",
                        lambda args: seen.append(args.q_order) or 0)
    assert cli.main(["cohomology", str(FIXTURES / "dvr_case.json"),
                     *flags]) == 0
    return seen[0]


def _unfixed_u_order():
    """monotone_case.json with no d_family order, so N is not fixed."""
    doc = load_document(str(FIXTURES / "monotone_case.json"))
    del doc["d_family"]["order"]
    return doc


def test_q_order_env_is_read(monkeypatch):
    from eqcartan.linalg import Q_ORDER
    monkeypatch.setenv("EQCARTAN_Q_ORDER", "17")
    assert _q_order_in_force(monkeypatch) == 17
    assert _q_order_in_force(monkeypatch, "--q-order", "5") == 5
    monkeypatch.delenv("EQCARTAN_Q_ORDER")
    assert _q_order_in_force(monkeypatch) == Q_ORDER == 64


def test_u_order_env_is_read(monkeypatch):
    from eqcartan.schema import differential_family_from
    doc = _unfixed_u_order()
    monkeypatch.setenv("EQCARTAN_U_ORDER", "7")
    assert differential_family_from(doc).order == 7
    assert differential_family_from(doc, 4).order == 4
    monkeypatch.delenv("EQCARTAN_U_ORDER")
    diff = differential_family_from(doc)
    assert diff.order == diff.K + 2


def test_empty_order_settings_mean_unset(monkeypatch):
    from eqcartan.schema import _order_setting, differential_family_from
    assert _order_setting(None, "X") is None
    assert _order_setting("", "X") is None
    assert _order_setting(" 17 ", "X") == 17
    monkeypatch.setenv("EQCARTAN_Q_ORDER", "")
    monkeypatch.setenv("EQCARTAN_U_ORDER", "")
    assert _q_order_in_force(monkeypatch) == 64
    diff = differential_family_from(_unfixed_u_order())
    assert diff.order == diff.K + 2
    monkeypatch.setenv("EQCARTAN_Q_ORDER", " 17 ")
    assert _q_order_in_force(monkeypatch) == 17


def test_library_calls_do_not_read_the_order_variables(monkeypatch):
    # past the input layer (schema, cli), a call that names no q-order
    # uses linalg.Q_ORDER, whatever is set
    from eqcartan import cartan, linalg
    from eqcartan.schema import cartan_from
    data = cartan_from(load_document(str(FIXTURES / "classes_case.json")))
    monkeypatch.setenv("EQCARTAN_Q_ORDER", "abc")
    monkeypatch.setenv("EQCARTAN_U_ORDER", "abc")
    cartan.induced_connection(data, "gamma_q")
    assert list(data._H) == [linalg.Q_ORDER]
    one = data.setup.one()
    assert linalg.row_reduce([[one]], data.setup).rank == 1


BAD_ORDERS = ["abc", "2.5", "0", "-5", "+3", "1e3"]


@pytest.mark.parametrize("value", BAD_ORDERS)
@pytest.mark.parametrize("var, argv", [
    ("EQCARTAN_Q_ORDER", ["cohomology", str(FIXTURES / "dvr_case.json")]),
    ("EQCARTAN_U_ORDER", ["cartan", "verify",
                          str(FIXTURES / "monotone_case.json")]),
])
def test_bad_order_variable_is_malformed_input(monkeypatch, capsys, var,
                                                argv, value):
    monkeypatch.setenv(var, value)
    code, out = run_cli(capsys, *argv)
    assert code == 2
    rep = json.loads(out)
    assert rep["kind"] == "malformed input"
    assert var in rep["error"]


@pytest.mark.parametrize("value", BAD_ORDERS)
def test_bad_u_order_variable_is_malformed_under_the_order_flag(
        monkeypatch, capsys, value):
    monkeypatch.setenv("EQCARTAN_U_ORDER", value)
    code, out = run_cli(capsys, "u-decompose",
                        str(FIXTURES / "dvr_case.json"), "--order", "3")
    assert code == 2
    assert "EQCARTAN_U_ORDER" in json.loads(out)["error"]


@pytest.mark.parametrize("value", BAD_ORDERS)
@pytest.mark.parametrize("argv", [
    ["cohomology", "exact_case.json", "--q-order", "5"],
    ["u-decompose", "dvr_case.json", "--q-order", "5"],
    ["cone", "cone_case.json", "--q-order", "4"],
    ["cartan", "connection", "--which", "q", "classes_case.json",
     "--q-order", "7"],
    ["cartan", "solve-iota", "exact_case.json", "--q-order", "3"],
])
def test_bad_q_order_variable_is_malformed_under_the_q_order_flag(
        monkeypatch, capsys, argv, value):
    monkeypatch.setenv("EQCARTAN_Q_ORDER", value)
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert "EQCARTAN_Q_ORDER" in json.loads(out)["error"]


# dvr_case.json has d_family.order 3; without its d_family, K = 0
@pytest.mark.parametrize("d_family, variable, flag, order", [
    (True, None, "5", 5),
    (True, "5", None, 3),
    (True, "4", "5", 5),
    (False, None, None, 2),
    (False, "4", None, 4),
    (False, "4", "5", 5),
])
def test_u_order_is_the_flag_then_the_document_then_the_variable(
        monkeypatch, capsys, tmp_path, d_family, variable, flag, order):
    doc = json.loads((FIXTURES / "dvr_case.json").read_text())
    if not d_family:
        del doc["d_family"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if variable is None:
        monkeypatch.delenv("EQCARTAN_U_ORDER", raising=False)
    else:
        monkeypatch.setenv("EQCARTAN_U_ORDER", variable)
    code, out = run_cli(capsys, "u-decompose", str(path),
                        *(["--order", flag] if flag else []))
    assert code == 0
    assert json.loads(out)["decomposition"]["analysis_order"] == order


@pytest.mark.parametrize("value", BAD_ORDERS)
@pytest.mark.parametrize("argv", [
    ["cohomology", str(FIXTURES / "dvr_case.json"), "--q-order"],
    ["u-decompose", str(FIXTURES / "dvr_case.json"), "--order"],
    ["quantum", "check", str(FIXTURES / "quantum_cp1.json"), "--order"],
])
def test_bad_order_flag_is_a_usage_error(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [value])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_cartan_verify_has_no_q_order_flag(capsys):
    # identity_report runs no elimination, so there is no q-order to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["cartan", "verify", "--q-order", "5",
                  str(FIXTURES / "monotone_case.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --q-order" in capsys.readouterr().err


def test_empty_q_order_flag_means_unset(capsys, monkeypatch):
    monkeypatch.delenv("EQCARTAN_Q_ORDER", raising=False)
    path = str(FIXTURES / "dvr_case.json")
    assert run_cli(capsys, "cohomology", path, "--q-order=") \
        == run_cli(capsys, "cohomology", path)


# -- one check per block invariant ---------------------------------------------


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", [
    ["validate"], ["u-decompose"], ["cartan", "connection", "--which", "q"]])
def test_a_d_family_whose_d0_is_not_the_complex_exits_2(capsys, command):
    # dvr_case.json with z (index 1) and z <- y in the complex only: the
    # d_family still says d_0 = 0
    code, out = run_cli(capsys, *command,
                        str(FIXTURES / "failing" / "d0_mismatch_case.json"))
    assert code == 2
    error = json.loads(out)["error"]
    assert "d_family component 0" in error and "'complex' block" in error


def test_validate_checks_a_lambda_family_against_the_complex(capsys,
                                                             tmp_path):
    # without d_family and iota_family, d_eq is the complex's d_0 = q^2 on
    # (y,x): lambda_0 = 2q, which the document declares zero
    doc = _fixture("monotone_case.json")
    del doc["d_family"], doc["iota_family"]
    doc["lambda_family"]["components"] = [[]]
    missing = {"invariant": "lambda = dq(d)", "component": 0,
               "entry": ["y", "x"], "declared": "0", "derived": "2*q"}
    code, out = run_cli(capsys, "validate", _write(tmp_path, doc))
    assert code == 1
    assert json.loads(out)["blocks"]["lambda_family"]["violations"] == [
        missing]


DEGREE_MINUS_ONE = {
    "schema_version": 1,
    "scalar_setup": {"lattice_generator": "1", "coefficients": "Q"},
    "complex": {
        "grading": {"kind": "Z"},
        "generators": [{"name": "x", "index": 1}, {"name": "y", "index": 0},
                       {"name": "z", "index": 0}],
        "differential": {"degree": -1, "entries": [
            {"target": "y", "source": "x", "value": "1"}]},
    },
}


@pytest.mark.parametrize("command, code", [
    (["u-decompose"], 2), (["cartan", "verify"], 2),
    (["cartan", "solve-iota"], 2),
    (["cartan", "connection", "--which", "q"], 2),
    (["validate"], 0), (["cohomology"], 0)])
def test_a_complex_of_degree_minus_one_is_no_d0(capsys, tmp_path, command,
                                                code):
    # a complex, but no d_0 of d_eq: only the d_eq commands refuse it
    got, out = run_cli(capsys, *command, _write(tmp_path, DEGREE_MINUS_ONE))
    assert got == code
    if code == 2:
        error = json.loads(out)["error"]
        assert "'complex' block" in error and "degree -1" in error


def _minus_not_a_complex(cone):
    # bad_cone_case.json: a minus side b(0), c(1) with c <- b and b <- c,
    # so d^2 is 1 at (b,b) and (c,c) and b <- c lowers the degree
    cone.update(_fixture("failing/bad_cone_case.json")["cone"])


def _plus_mod_2(cone):
    cone["plus"]["grading"] = {"kind": "Z/2"}


def _z_against_mod_2(cone):
    cone["minus"]["grading"] = {"kind": "Z/2m", "m": 1}
    cone["plus"]["grading"] = {"kind": "Z"}


def _mod_2_against_mod_4(cone):
    cone["minus"]["grading"] = {"kind": "Z/2"}
    cone["plus"]["grading"] = {"kind": "Z/2m", "m": 2}


def _minus_misplaced(cone):
    cone["minus"]["generators"].append({"name": "c", "index": 5})
    cone["minus"]["differential"]["entries"] = [
        {"target": "c", "source": "b", "value": "1"}]
    cone["map"] = []


def _sides_of_degree_minus_one(cone):
    # x(1) -> x2(0) on each side at degree -1, and the identity between
    # them: a chain map, but the cone is built for degree-1 differentials
    for side in ("minus", "plus"):
        cone[side]["generators"] = [{"name": "x", "index": 1},
                                    {"name": "x2", "index": 0}]
        cone[side]["differential"] = {"degree": -1, "entries": [
            {"target": "x2", "source": "x", "value": "1"}]}
    cone["map"] = [{"target": x, "source": x, "value": "1"}
                   for x in ("x", "x2")]


def _map_of_degree_minus_three(cone):
    # c sends a(3) to b(0): both sides have d = 0, so c is a chain map,
    # but the cone has no degree for its (M.b,R.a) entry
    cone["plus"]["generators"][0]["index"] = 3


@pytest.mark.parametrize("edit, records, message", [
    (_minus_not_a_complex,
     [("d squared zero", "minus", ["b", "b"]),
      ("d squared zero", "minus", ["c", "c"]),
      ("degree shift", "minus", ["b", "c"])],
     "d of C- does not square to zero at (b,b): 1"),
    (_plus_mod_2, [("matching gradings", None, None)],
     "mapping cone requires matching gradings"),
    (_z_against_mod_2, [("matching gradings", None, None)],
     "mapping cone requires matching gradings"),
    (_mod_2_against_mod_4, [("matching gradings", None, None)],
     "mapping cone requires matching gradings"),
    (_minus_misplaced, [("degree shift", "minus", ["c", "b"])],
     "d of C- breaks degree shift at (c,b)"),
    (_sides_of_degree_minus_one,
     [("degree 1", "minus", None), ("degree 1", "plus", None)],
     "d of C- has degree -1, not 1"),
    (_map_of_degree_minus_three, [("map degree", None, ["b", "a"])],
     "c does not have degree 0 at (b,a)"),
], ids=["minus-not-a-complex", "plus-mod-2", "z-against-mod-2",
        "mod-2-against-mod-4", "minus-misplaced", "degree-minus-one",
        "map-degree-minus-three"])
def test_validate_lists_what_cone_refuses(capsys, tmp_path, edit, records,
                                          message):
    doc = _fixture("cone_case.json")
    edit(doc["cone"])
    path = _write(tmp_path, doc)
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    assert [(v["invariant"], v.get("side"), v.get("entry"))
            for v in json.loads(out)["blocks"]["cone"]["violations"]] \
        == records
    code, out = run_cli(capsys, "cone", path)
    assert code == 2
    assert json.loads(out)["error"] == message


@pytest.mark.parametrize("minus, plus", [
    ({"kind": "Z/2"}, {"kind": "Z/2m", "m": 1}),
    ({"kind": "Z/2m", "m": 1}, {"kind": "Z/2"}),
], ids=["Z/2-Z/2m", "Z/2m-Z/2"])
def test_cone_gradings_of_one_modulus_match(capsys, tmp_path, minus, plus):
    # Z/2 and Z/2m with m = 1 are both gradings mod 2
    doc = _fixture("cone_case.json")
    doc["cone"]["minus"]["grading"] = minus
    doc["cone"]["plus"]["grading"] = plus
    path = _write(tmp_path, doc)
    code, out = run_cli(capsys, "validate", path)
    assert code == 0
    assert json.loads(out)["blocks"]["cone"]["violations"] == []
    code, out = run_cli(capsys, "cone", path)
    assert code == 0
    assert json.loads(out)["quasi_isomorphisms"] == {
        "minus": {"quasi_isomorphism": True},
        "plus": {"quasi_isomorphism": True}}


def test_validate_lists_entries_in_row_major_order(capsys, tmp_path):
    # two chains a -> b -> c and x -> y -> z with unit arrows: d^2 is 1 at
    # (c,a) and (z,x), whichever order the document lists d's entries in
    names = "abcxyz"
    entries = [{"target": t, "source": s, "value": "1"}
               for t, s in ("ba", "cb", "yx", "zy")]
    blocks = []
    for listed in (entries, entries[::-1]):
        doc = {"schema_version": 1,
               "scalar_setup": {"lattice_generator": "1",
                                "coefficients": "Q"},
               "complex": {"grading": {"kind": "Z"},
                           "generators": [{"name": g, "index": i % 3}
                                          for i, g in enumerate(names)],
                           "differential": {"degree": 1, "entries": listed}}}
        code, out = run_cli(capsys, "validate", _write(tmp_path, doc))
        assert code == 1
        blocks.append(json.loads(out)["blocks"])
    assert blocks[0] == blocks[1]
    assert [v["entry"] for v in blocks[0]["complex"]["violations"]] == [
        ["c", "a"], ["z", "x"]]


# -- command paths -------------------------------------------------------------


def test_morse_alpha1_on_a_coarse_grid(capsys):
    code, out = run_cli(capsys, "morse", "alpha1", "--grid", "8")
    assert code == 0
    assert json.loads(out)["abs_winding"] == 1


def test_morse_additivity_without_a_witness_is_undetermined(
        capsys, monkeypatch):
    # at delta = 0.5 the error 0.25 is no certificate, but no defect exceeds
    # its bound: undetermined, not false; a defect beyond it is a witness
    code, out = run_cli(capsys, "morse", "additivity", "--delta", "0.5")
    assert code == 3
    assert json.loads(out)["finest_error"] >= 1e-3
    from eqcartan import morse
    row = {"measured_defect": 0.1, "projection_bound": 0.01, "error": 0.11}
    monkeypatch.setattr(morse, "additivity_report", lambda deltas: {
        "rows": [row], "monotone_decreasing": True, "finest_error": 0.11})
    assert run_cli(capsys, "morse", "additivity", "--delta", "0.1")[0] == 1


def test_an_empty_delta_list_exits_2(capsys):
    code, out = run_cli(capsys, "morse", "additivity", "--delta", ",")
    assert code == 2
    assert json.loads(out)["error"] == "empty delta list"


def test_no_command_exits_2(capsys):
    assert cli.main([]) == 2
    assert "usage: eqcartan" in capsys.readouterr().out


def test_a_cone_between_different_betti_numbers(capsys, tmp_path):
    # the zero map from a(0), a2(0) to b(0): H(C+) has rank 2, H(C-) rank 1
    doc = _fixture("cone_case.json")
    doc["cone"]["plus"]["generators"].append({"name": "a2", "index": 0})
    doc["cone"]["map"] = []
    code, out = run_cli(capsys, "cone", _write(tmp_path, doc))
    assert code == 0
    assert json.loads(out)["quasi_isomorphisms"]["minus"] == {
        "quasi_isomorphism": False, "degree": 0,
        "reason": "cohomology ranks differ (2 vs 1)"}


def test_u_decompose_refuses_a_d1_that_is_not_of_degree_minus_one(
        capsys, tmp_path):
    # dvr_case.json with y at index 2: d_1 = 1 at (y,x) then maps degree 1
    # to degree 2, which no torsion or free summand of u-decompose places
    doc = _fixture("dvr_case.json")
    doc["complex"]["generators"][1]["index"] = 2
    code, out = run_cli(capsys, "u-decompose", _write(tmp_path, doc))
    assert code == 2
    assert json.loads(out)["error"] == (
        "d_1 entry (y,x) maps degree 1 to degree 2, not 0: u-decompose "
        "cannot place it")


def test_a_complex_without_grading_is_z_graded(capsys, tmp_path):
    doc = _fixture("dvr_case.json")
    want = run_cli(capsys, "cohomology", _write(tmp_path, doc))
    del doc["complex"]["grading"]
    assert run_cli(capsys, "cohomology", _write(tmp_path, doc)) == want
    doc["complex"]["grading"] = {"kind": "Z/2m"}
    code, out = run_cli(capsys, "cohomology", _write(tmp_path, doc))
    assert code == 2
    assert json.loads(out)["error"] == "grading kind Z/2m requires field m"


def test_duplicate_generator_names_exit_2(capsys, tmp_path):
    doc = _fixture("dvr_case.json")
    doc["complex"]["generators"].append({"name": "x", "index": 3})
    code, out = run_cli(capsys, "validate", _write(tmp_path, doc))
    assert code == 2
    assert json.loads(out)["error"] == "duplicate generator names"


@pytest.mark.parametrize("command, block", [
    (["cohomology"], "complex"), (["quantum", "check"], "quantum_ring"),
    (["finite2", "verify"], "z2_data"), (["cone"], "cone")])
def test_a_command_without_its_block_exits_2(capsys, tmp_path, command,
                                             block):
    doc = {"schema_version": 1,
           "scalar_setup": {"lattice_generator": "1", "coefficients": "Q"}}
    code, out = run_cli(capsys, *command, _write(tmp_path, doc))
    assert code == 2
    assert json.loads(out)["error"] == f"document has no {block!r} block"
