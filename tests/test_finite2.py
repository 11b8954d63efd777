import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from eqcartan import finite2
from eqcartan.complexes import GeneratorInfo, OperatorMatrix
from eqcartan.finite2 import Z2CartanData, assemble_and_check, verify_relations
from eqcartan.novikov import InputError, NovikovElem, NovikovError, \
    ScalarSetup, dq, parse_novikov

SETUP = ScalarSetup.make(1, "F2")
SETUP_HALF = ScalarSetup.make(Fraction(1, 2), "F2")
Z2_CASE = Path(__file__).resolve().parent.parent / "fixtures" / "z2_case.json"


def _mul(A, B):
    n = len(A)
    z = A[0][0].setup.zero()
    out = [[z] * n for _ in range(n)]
    for t in range(n):
        for m in range(n):
            if A[t][m]:
                for s in range(n):
                    if B[m][s]:
                        out[t][s] = out[t][s] + A[t][m] * B[m][s]
    return out


def _add(*Ms):
    out = Ms[0]
    for M in Ms[1:]:
        out = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(out, M)]
    return out


def _anti(A, B):
    return _add(_mul(A, B), _mul(B, A))


def _entries(M):
    return {(t, s): e for t, row in enumerate(M) for s, e in enumerate(row)
            if e}


def random_z2_data(rng, max_gens=6, setup=SETUP):
    """Build the operator system from homotopies, so every relation holds.

    With sigma = id + [d, A] and iota = c0 id + [d, B] (brackets are
    anticommutators in characteristic 2) the whole tower is generated by
    Sigma = AdA + AAd, xi = A iota + iota A, Xi = AA iota + A iota A.
    The q-exponents of d are kept even, so lambda = dq(d) vanishes over F2
    and the Xi relation closes without a correction term.  The entries of
    A and B take exponents k g for the setup's lattice step g, so over a
    setup with g = 1/2 they reach half-integers.
    """
    npairs = rng.randint(1, max_gens // 2)
    n = 2 * npairs
    basis = tuple(GeneratorInfo(f"g{i}", i % 2) for i in range(n))
    z = setup.zero()
    ident = [[setup.one() if i == j else z for j in range(n)]
             for i in range(n)]
    d = [[z] * n for _ in range(n)]
    for i in range(npairs):
        d[2 * i + 1][2 * i] = setup.monomial(1, 2 * rng.randint(0, 2))

    def random_mat(density=0.5):
        step = setup.lattice.generator
        return [[setup.monomial(1, step * rng.randint(-1, 2))
                 if rng.random() < density else z
                 for _ in range(n)] for _ in range(n)]

    A, B = random_mat(), random_mat()
    c0 = rng.randint(0, 1)
    iota = _add([[e.scale(c0) for e in row] for row in ident],
                _anti(d, B))
    lam = [[dq(e) for e in row] for row in d]
    sigma = _add(ident, _anti(d, A))
    Sigma = _add(_mul(_mul(A, d), A), _mul(_mul(A, A), d))
    xi = _anti(A, iota)
    Xi = _add(_mul(_mul(A, A), iota), _mul(_mul(A, iota), A))
    return Z2CartanData.build(
        setup, basis, d=_entries(d), iota=_entries(iota), lam=_entries(lam),
        sigma=_entries(sigma), Sigma=_entries(Sigma), xi=_entries(xi),
        Xi=_entries(Xi))


def golden_with_nonzero_lambda():
    """One-pair system with d = q, so lambda = 1 and Xi must absorb it."""
    basis = (GeneratorInfo("x", 1), GeneratorInfo("y", 0))
    one = SETUP.one()
    return Z2CartanData.build(
        SETUP, basis,
        d={(1, 0): SETUP.monomial(1, 1)},
        iota={(0, 0): one, (1, 1): one},
        lam={(1, 0): one},
        sigma={(0, 0): one, (1, 1): one},
        Xi={(0, 0): SETUP.monomial(1, -1)})


def perturbed(rng, Z):
    """Z with one to three monomials added at random cells of random
    operators; d only gains integer exponents, so dq(d) stays over F2."""
    maps = {k: dict(op.entries) for k, op in Z.operators().items()}
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(sorted(maps))
        step = 1 if name == "d" else Z.setup.lattice.generator
        x = Z.setup.monomial(1, step * rng.randint(-3, 4))
        cell = (rng.randrange(Z.n), rng.randrange(Z.n))
        maps[name][cell] = maps[name][cell] + x if cell in maps[name] else x
    return Z2CartanData.build(Z.setup, Z.basis, **maps)


@pytest.mark.parametrize("setup", [SETUP, SETUP_HALF], ids=["g=1", "g=1/2"])
def test_packed_products_equal_compose(monkeypatch, setup):
    """Every relation matrix made on packed rows equals ``A.compose(B,
    *pairs)`` field for field, on systems that hold and perturbed systems
    that fail, with n up to 12; the draws run both loops of the lighter
    factor and the wide-row fallback (an Xi entry 20,000 steps out)."""
    ran = {"terms of A": 0, "terms of B": 0, "compose": 0, "failing": 0}

    def counted(name, fn):
        def call(*args):
            ran[name] += 1
            return fn(*args)
        return call

    compose, products = OperatorMatrix.compose, finite2._products
    monkeypatch.setattr(finite2, "_by_terms_of_a",
                        counted("terms of A", finite2._by_terms_of_a))
    monkeypatch.setattr(finite2, "_by_terms_of_b",
                        counted("terms of B", finite2._by_terms_of_b))
    monkeypatch.setattr(OperatorMatrix, "compose", counted("compose", compose))

    def checked(setup, ops):
        product = products(setup, ops)

        def both(*pairs):
            got = product(*pairs)
            assert got == compose(*pairs[0], *pairs[1:])
            return got
        return both

    monkeypatch.setattr(finite2, "_products", checked)
    rng = random.Random(49)
    for k in range(12):
        Z = random_z2_data(rng, max_gens=12, setup=setup)
        systems = [Z, perturbed(rng, Z)]
        if k == 0:
            far = setup.monomial(1, setup.lattice.generator * 20000)
            ops = {name: op.entries for name, op in Z.operators().items()}
            systems.append(Z2CartanData.build(
                setup, Z.basis, **dict(ops, Xi={**ops["Xi"], (0, 0): far})))
        for W in systems:
            ran["failing"] += not verify_relations(W)["all_hold"]
    assert all(ran.values()), ran


def test_requires_f2():
    basis = (GeneratorInfo("x", 0),)
    with pytest.raises(NovikovError):
        Z2CartanData.build(ScalarSetup.make(1, "Q"), basis)


def test_operator_basis_mismatch_is_an_input_error():
    Z = golden_with_nonzero_lambda()
    other = tuple(GeneratorInfo(g.name + "'", g.index) for g in Z.basis)
    ops = dict(Z.operators(), Xi=OperatorMatrix(other, other, {}))
    with pytest.raises(InputError, match="operator Xi basis mismatch"):
        Z2CartanData(SETUP, Z.basis, **ops)


def test_q_tailed_entries_are_refused():
    # a termless O(q^3) in d, with iota = sigma = id and every other operator
    # 0: the relations would be read as holding, yet "d iota = iota d",
    # "d sigma = sigma d" and "lambda = dq(d)" hold only below q^3 or q^2
    basis = (GeneratorInfo("x", 1), GeneratorInfo("y", 0))
    one = SETUP.one()
    ident = {(0, 0): one, (1, 1): one}
    with pytest.raises(InputError, match="operator d has an entry with a "
                                         "q-tail"):
        Z2CartanData.build(SETUP, basis, d={(1, 0): NovikovElem(SETUP, (), 3)},
                           iota=ident, sigma=ident)
    tailed = NovikovElem(SETUP, ((0, 1),), 4)
    with pytest.raises(InputError, match="operator Xi has an entry with a "
                                         "q-tail"):
        Z2CartanData.build(SETUP, basis, iota=ident, sigma=ident,
                           Xi={(0, 1): tailed})


def test_finite2_commands_exit_2_on_q_tailed_entries(monkeypatch, capsys):
    # no document spells a q-tail, so the tailed datum is built in place of
    # the bundled document's
    from eqcartan import cli, schema
    z2_from = schema.z2_from

    def tailed(doc):
        Z = z2_from(doc)
        maps = {k: dict(op.entries) for k, op in Z.operators().items()}
        maps["d"][(0, 0)] = NovikovElem(SETUP, (), 3)
        return Z2CartanData.build(SETUP, Z.basis, **maps)

    monkeypatch.setattr(schema, "z2_from", tailed)
    for command in ("verify", "assemble"):
        assert cli.main(["finite2", command, str(Z2_CASE)]) == 2
        assert "q-tail" in json.loads(capsys.readouterr().out)["error"]


def test_empty_basis_holds():
    # the schema asks for a generator, but the datum itself may have none
    Z = Z2CartanData.build(SETUP, ())
    assert verify_relations(Z)["all_hold"] and assemble_and_check(Z)["all_hold"]


def test_golden_fixture_relations_and_assembly():
    Z = golden_with_nonzero_lambda()
    rel = verify_relations(Z)
    assert rel["all_hold"], [r for r in rel["relations"] if not r["holds"]]
    out = assemble_and_check(Z)
    assert out["all_hold"], [c for c in out["certificates"] if not c["holds"]]
    assert out["h_truncation"] == 3


def test_both_entry_points_read_one_relation_table(monkeypatch):
    # verify then assemble, as `finite2 assemble` runs them, make the
    # relation table (the packed rows and their products) once; the frozen
    # datum cannot be changed under its table
    calls = []
    real = Z2CartanData._relations.func
    monkeypatch.setattr(Z2CartanData._relations, "func",
                        lambda Z: calls.append(Z) or real(Z))
    Z = random_z2_data(random.Random(3))
    rel, out = verify_relations(Z), assemble_and_check(Z)
    assert rel["all_hold"] and out["all_hold"]
    assert calls == [Z]
    with pytest.raises(dataclasses.FrozenInstanceError):
        Z.d = Z.iota


@pytest.mark.parametrize("seed", range(20))
def test_randomized_systems_verify_and_assemble(seed):
    rng = random.Random(seed)
    Z = random_z2_data(rng)
    rel = verify_relations(Z)
    assert rel["all_hold"], [r for r in rel["relations"] if not r["holds"]]
    out = assemble_and_check(Z)
    assert out["all_hold"], [c for c in out["certificates"] if not c["holds"]]


@pytest.mark.parametrize("seed", range(20))
def test_printed_components_parse_back_to_the_operators(seed):
    """Every printed entry of d_eq (d, id + sigma, Sigma) and Gamma_q
    (iota, xi, Xi) reads back as the operator's entry, and no stored entry
    is left out."""
    Z = random_z2_data(random.Random(seed))
    out = assemble_and_check(Z)
    names = [g.name for g in Z.basis]
    for key, ops in (("d_eq", [Z.d, Z.identity() + Z.sigma, Z.Sigma]),
                     ("gamma_q", [Z.iota, Z.xi, Z.Xi])):
        assert [c["h_order"] for c in out[key]] == [0, 1, 2]
        for comp, M in zip(out[key], ops):
            read = {}
            for cell, text in comp["entries"].items():
                t, s = cell.split(",")
                read[(names.index(t), names.index(s))] = parse_novikov(
                    text, Z.setup)
            assert read == M.entries


def test_broken_relation_is_reported_with_witness():
    Z = golden_with_nonzero_lambda()
    bad = Z2CartanData.build(
        SETUP, Z.basis,
        d=Z.d.entries, iota=Z.iota.entries,
        lam={},  # drop lambda: the derivative relation must fail
        sigma=Z.sigma.entries, Xi=Z.Xi.entries)
    rel = verify_relations(bad)
    failing = {r["relation"] for r in rel["relations"] if not r["holds"]}
    assert "lambda = dq(d)" in failing
    witness = next(r for r in rel["relations"]
                   if r["relation"] == "lambda = dq(d)")["failures"]
    assert witness and witness[0]["entry"] == ["y", "x"]


def test_assembly_certificates_cover_every_h_order():
    out = assemble_and_check(golden_with_nonzero_lambda())
    orders = [(c["identity"], c["h_order"]) for c in out["certificates"]]
    assert sorted(set(orders)) == sorted(orders)
    assert {k for _, k in orders} == {0, 1, 2}
