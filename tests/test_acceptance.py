"""End-to-end acceptance checks, one block per shipped guarantee."""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from eqcartan import cli
from eqcartan.cartan import (
    CartanData,
    EquivariantDifferential,
    gamma_u,
    identity_report,
    induced_connection,
    reduce_mod,
    solve_iota,
)
from eqcartan.complexes import (
    GeneratorInfo,
    GradingKind,
    les_consistency,
    GradedComplex,
    u_module_decomposition,
)
from eqcartan.morse import additivity_report, alpha1_winding, weight_matrix_facts
from eqcartan.novikov import ScalarSetup, USeries
from eqcartan.quantum import forbidden_summand_check, uq_identity_check
from eqcartan.finite2 import assemble_and_check, verify_relations

from conftest import random_equivariant_differential, via_block
from golden_commands import COMMANDS, ROOT, golden_name
from test_complexes import R_NONZERO, _check_against_oracle
from test_finite2 import random_z2_data
from test_quantum import rescaled_model

SETUP = ScalarSetup.make(1, "Q")
SETUP_F5 = ScalarSetup.make(1, "F5")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- 1. randomized Cartan identity suite (< 10 s) ------------------------------


def test_criterion_1_cartan_identity_suite():
    t0 = time.perf_counter()
    solved = 0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        setup = SETUP_F5 if seed % 4 == 3 else SETUP
        diff = random_equivariant_differential(rng, setup,
                                               max_gens=8, order=5)
        data, obstruction = solve_iota(diff)
        if obstruction is not None:
            data = CartanData(diff, (), "monotone")
        rep = identity_report(data)
        by_name = {r["identity"]: r for r in rep["identities"]}
        # the derivative of d_eq^2 = 0: lambda always anticommutes exactly
        assert by_name["d_eq squared zero"]["holds"], seed
        assert by_name["lambda_eq anticommutes with d_eq"]["holds"], seed
        if obstruction is None:
            solved += 1
            assert by_name["connection commutes with d_eq"]["holds"], seed
            assert by_name["gamma_q leibniz"]["holds"], seed
    assert solved >= 5  # the suite must actually exercise solved instances
    assert time.perf_counter() - t0 < 10.0


# -- 2. exact case: induced connection is u d/dq on the nose -------------------


def test_criterion_2_exact_case_golden():
    basis = (GeneratorInfo("x", 0), GeneratorInfo("y", 1))
    diff = EquivariantDifferential.build(
        SETUP, GradingKind("Z/2"), basis, [{(1, 0): SETUP.one()}], order=3)
    data, obstruction = solve_iota(diff)
    assert obstruction is None
    out = induced_connection(data, "gamma_q")
    assert out["operator_form"] == "u*d/dq"
    assert out["matrix_part_is_zero"]
    assert out["well_defined"]


# -- 3. reduction mod 2 with a negative control --------------------------------


def _integral_pair(exponent):
    setup = ScalarSetup.make(1, "Z")
    basis = (GeneratorInfo("x", 1), GeneratorInfo("y", 2 - 2 * exponent))
    diff = EquivariantDifferential.build(
        setup, GradingKind("Z/2"), basis,
        [{(1, 0): setup.monomial(1, exponent)}], order=3)
    from eqcartan.complexes import OperatorMatrix
    iota1 = OperatorMatrix(diff.basis, diff.basis,
                           {(0, 0): setup.monomial(exponent, 0)}, 0)
    zero_op = OperatorMatrix(diff.basis, diff.basis, {}, 2)
    return CartanData(diff, (zero_op, iota1), "monotone")


def test_criterion_3_mod_two_square_and_negative_control():
    good = reduce_mod(_integral_pair(2), 2)
    assert good["hypothesis_holds"]
    assert good["holds"]
    bad = reduce_mod(_integral_pair(1), 2)
    assert not bad["hypothesis_holds"]
    assert bad["hypothesis_violations"], "violations must be reported"
    assert not bad["holds"]


# -- 4. grading: Euler relation and the iota-free u-connection -----------------


def test_criterion_4_euler_relation_exact():
    basis = (GeneratorInfo("x", 1), GeneratorInfo("y", -2))
    diff = EquivariantDifferential.build(
        SETUP, GradingKind("Z/2"), basis,
        [{(1, 0): SETUP.monomial(1, 2)}], order=3)
    data, obstruction = solve_iota(diff)
    assert obstruction is None
    rep = identity_report(data)
    euler = next(r for r in rep["identities"]
                 if r["identity"] == "euler relation")
    assert euler["holds"] and not euler["failures"]


def test_criterion_4_gamma_u_without_iota_is_u_deg():
    basis = (GeneratorInfo("a", 4), GeneratorInfo("b", -1))
    diff = EquivariantDifferential.build(
        SETUP, GradingKind("Z"), basis, [{}], order=3)
    data = CartanData(diff, (), "monotone")
    for i, g in enumerate(basis):
        vec = [USeries.from_novikov(
            SETUP.one() if j == i else SETUP.zero(), 3)
            for j in range(len(basis))]
        out = via_block(lambda X: gamma_u(data, X), basis, vec,
                        USeries.zero(SETUP, 3))
        assert out[i].coeffs[1].terms == ((0, g.index),)
        assert all(not w for j, w in enumerate(out) if j != i)


# -- 5. the u,q-identity on the rank-2 fixture and randomized tables -----------


def test_criterion_5_uq_identity():
    from eqcartan.schema import load_document, quantum_from
    Q2 = quantum_from(load_document(str(FIXTURES / "quantum_cp1.json")))
    out = uq_identity_check(Q2)
    assert out["q_linear"], "linearity is certified before the identity"
    assert out["identity_exact"] and out["holds"]
    for seed in range(10):
        rng = random.Random(2000 + seed)
        Q = rescaled_model(rng, rng.randint(1, 3))
        assert Q.validate() == []
        out = uq_identity_check(Q)
        assert out["q_linear"]
        assert out["holds"], (seed, out)


# -- 6. the obstruction classification table -----------------------------------


def test_criterion_6_obstruction_table():
    rows = [
        ((3, 2, "Z", None), "forbidden"),
        ((0, 3, "Z", None), "not_excluded"),
        ((1, 5, "Fp", 5), "not_excluded"),   # p | d
        ((10, 2, "Fp", 5), "not_excluded"),  # p | lambda
        ((2, 3, "Fp", 5), "forbidden"),
    ]
    for (lam, d, ring, p), verdict in rows:
        out = forbidden_summand_check(lam, d, ring, p)
        assert out["verdict"] == verdict, (lam, d, ring, p)
        if verdict != "inapplicable":
            lead = Fraction(out["certificate"]["surviving_coefficient"])
            expect = 2 * d * lam * lam
            if ring == "Fp":
                expect %= p
            assert lead == expect


# -- 7. DVR decomposition against the brute-force oracle -----------------------


def test_criterion_7_dvr_against_oracle_sparse_supports():
    # supports of <= 2 cells across every shape up to 3x3, all values
    for m, n in itertools.product((1, 2, 3), repeat=2):
        cells = list(itertools.product(range(m), range(n)))
        for r in (1, 2):
            for support in itertools.combinations(cells, r):
                for vals in itertools.product(R_NONZERO, repeat=r):
                    D = [[(0, 0, 0)] * n for _ in range(m)]
                    for (t, s), v in zip(support, vals):
                        D[t][s] = v
                    _check_against_oracle(D, m, n)


def test_criterion_7_les_balances_on_randomized_fixtures():
    for seed in range(10):
        rng = random.Random(3000 + seed)
        diff = random_equivariant_differential(rng, SETUP,
                                               max_gens=6, order=4)
        rep = u_module_decomposition(diff.as_operator(), analysis_order=4,
                                     grading=diff.grading)
        C = GradedComplex(SETUP, diff.grading, diff.basis,
                          diff.components[0])
        assert les_consistency(C, rep)["balanced"], seed


# -- 8. finite analogue: relations imply both truncated certificates -----------


def test_criterion_8_finite_analogue():
    for seed in range(20):
        rng = random.Random(4000 + seed)
        Z = random_z2_data(rng)
        rel = verify_relations(Z)
        assert rel["all_hold"], seed
        out = assemble_and_check(Z)
        assert out["all_hold"], (seed, [c for c in out["certificates"]
                                        if not c["holds"]])


# -- 9. Morse numerics (< 5 s) -------------------------------------------------


def test_criterion_9_morse_numerics():
    t0 = time.perf_counter()
    winding = alpha1_winding(grid=64)
    assert winding["abs_winding"] == 1
    assert winding["residual"] < 0.01
    add = additivity_report(deltas=(1e-2, 1e-3, 1e-4))
    errors = [r["error"] for r in add["rows"]]
    assert add["monotone_decreasing"]
    assert errors[-1] < 1e-3
    facts = weight_matrix_facts()
    assert facts["composition_matrix"] == [[0, 1], [1, 1]]
    assert facts["kernel_vector"] == [1, -1]
    assert time.perf_counter() - t0 < 5.0


# -- 10. CLI byte-determinism on the bundled fixtures --------------------------


# the golden commands with a document, and those without one
DOC_COMMANDS = [argv for argv, _ in COMMANDS
                if argv[-1].startswith("fixtures/")]
GLOBAL_COMMANDS = [argv for argv, _ in COMMANDS
                   if not argv[-1].startswith("fixtures/")]


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", DOC_COMMANDS, ids=golden_name)
def test_criterion_10_fixture_commands_deterministic(capsys, argv):
    argv = argv[:-1] + [str(ROOT / argv[-1])]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2
    assert out1 == out2
    assert out1.endswith("\n")
    json.loads(out1)


@pytest.mark.parametrize("argv", GLOBAL_COMMANDS, ids=golden_name)
def test_criterion_10_global_commands_deterministic(capsys, argv):
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2
    assert out1 == out2
    json.loads(out1)
