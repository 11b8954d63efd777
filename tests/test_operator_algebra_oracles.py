"""Quantum connections and finite2 checks against their own former formulas.

The quantum connections D_q, D_u and deg_q are computed as the Cartan
operators ``gamma_q``, ``gamma_u`` and ``degree_weighted`` of
``QuantumRing.cartan_data``; ``dense_reference`` keeps the formulas written
with the quantum product.  Both must give the same series field for field
(coefficients, q-tails and valid orders) on product tables that need not be
associative.  The finite2 checks run on ``OperatorMatrix``; their whole
reports, failure lists in order included, must equal those of the dense
matrix versions, on relation-satisfying systems, on the bundled z2
documents (the broken one included) and with one entry flipped.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import dense_reference as ref
from eqcartan.cartan import degree_weighted, gamma_q, gamma_u
from eqcartan import finite2
from eqcartan.complexes import GeneratorInfo, OperatorMatrix, sample_block
from eqcartan.finite2 import Z2CartanData, assemble_and_check, verify_relations
from eqcartan.novikov import NovikovElem, NovikovError, ScalarSetup, USeries
from eqcartan.quantum import QuantumRing, projective_space_model
from eqcartan.schema import load_document, z2_from
from test_finite2 import SETUP as SETUP_F2, golden_with_nonzero_lambda, \
    random_z2_data

from conftest import via_block

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SETUPS = {(ring, str(g)): ScalarSetup.make(g, ring)
          for ring in ("Q", "F2", "F5") for g in (1, Fraction(1, 2))}


def assert_same_vectors(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        assert g.valid == w.valid
        assert [c.trunc for c in g.coeffs] == [c.trunc for c in w.coeffs]


def random_elem(rng, setup, zero_share=0.3):
    if rng.random() < zero_share:
        return setup.zero()
    pairs = [(rng.randint(-2, 4), setup.ring.coerce(rng.choice([1, 2, 3, -1])))
             for _ in range(rng.randint(1, 3))]
    return NovikovElem.build(setup, pairs)


def random_ring(rng, setup):
    """A random based module with a random product table and omega; the
    table need not be associative, commutative or homogeneous."""
    n = rng.randint(1, 4)
    basis = tuple(GeneratorInfo(f"b{i}", rng.randint(-2, 6)) for i in range(n))
    table = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.7:
                table[(i, j)] = {k: random_elem(rng, setup)
                                 for k in rng.sample(range(n),
                                                     rng.randint(1, n))}
    omega = {k: random_elem(rng, setup, 0.2) for k in range(n)}
    return QuantumRing(setup, basis, table, rng.randrange(n), omega)


def random_vectors(rng, setup, n, order, count=4):
    """Columns of u-series with exact coefficients and full valid order."""
    out = []
    for c in range(count):
        vec = [USeries.zero(setup, order) if rng.random() < 0.3
               else USeries.build(setup, order,
                                  [random_elem(rng, setup)
                                   for _ in range(order)])
               for _ in range(n)]
        out.append((f"random_{c}", vec))
    return out


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of its error: d/dq
    of a half-integer exponent leaves F2, and both sides must say so."""
    try:
        return fn(*args)
    except NovikovError as exc:
        return type(exc), str(exc)


def sample_vectors(setup, basis, order):
    """The columns of ``sample_block``, labelled, as vectors."""
    X = sample_block(setup, basis, order, range(len(basis)))
    return list(zip((c.name for c in X.source),
                    X.columns(USeries.zero(setup, order))))


def assert_connections_match(Q, order, vectors):
    data = Q.cartan_data(order)
    zero = USeries.zero(Q.setup, order)
    for _, x in vectors:
        for new, old in ((gamma_q, ref.d_q_connection),
                         (gamma_u, ref.d_u_connection),
                         (degree_weighted, ref.deg_q_operator)):
            got = outcome(via_block, lambda X: new(data, X), Q.basis, x, zero)
            want = outcome(old, Q, x)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert_same_vectors(got, want)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("n", range(5))
def test_projective_connections_match_the_quantum_product(n, order):
    rng = random.Random(100 * n + order)
    setup = SETUPS[("Q", "1")]
    Q = projective_space_model(n, setup)
    vectors = (sample_vectors(setup, Q.basis, order)
               + random_vectors(rng, setup, Q.rank, order))
    assert_connections_match(Q, order, vectors)


@pytest.mark.parametrize("key", sorted(SETUPS), ids="-".join)
@pytest.mark.parametrize("seed", range(8))
def test_random_table_connections_match_the_quantum_product(seed, key):
    rng = random.Random(seed)
    setup = SETUPS[key]
    Q = random_ring(rng, setup)
    order = rng.randint(1, 4)
    vectors = (sample_vectors(setup, Q.basis, order)
               + random_vectors(rng, setup, Q.rank, order))
    assert_connections_match(Q, order, vectors)


def test_cartan_data_iota_is_q_times_omega_star():
    setup = SETUPS[("Q", "1")]
    Q = projective_space_model(2, setup)
    data = Q.cartan_data(2)
    (iota0,) = data.iota
    assert iota0.degree == 2
    assert data.regime == "monotone"
    assert not data.diff.components[0].entries
    # omega = 3 e1: e1*e0 = e1, e1*e1 = e2, e1*e2 = q^3 e0
    assert iota0.entries == {(1, 0): setup.monomial(3, 1),
                             (2, 1): setup.monomial(3, 1),
                             (0, 2): setup.monomial(3, 4)}


MULT_SETUPS = {**SETUPS, **{("Z", str(g)): ScalarSetup.make(g, "Z")
                            for g in (1, Fraction(1, 2))}}


def tailed(rng, e):
    """e, or at times e with a q-tail above its terms."""
    if not e or rng.random() < 0.6:
        return e
    return NovikovElem.build(e.setup, e.terms,
                             e.terms[-1][0] + rng.randint(1, 3))


@pytest.mark.parametrize("key", sorted(MULT_SETUPS), ids="-".join)
@pytest.mark.parametrize("seed", range(6))
def test_multiplication_is_the_bilinear_product(seed, key):
    # column j of L_x is x * e_j, coefficients and q-tails alike
    rng = random.Random(seed)
    setup = MULT_SETUPS[key]
    Q = random_ring(rng, setup)
    Q = QuantumRing(setup, Q.basis,
                    {ij: {k: tailed(rng, c) for k, c in col.items()}
                     for ij, col in Q.table.items()}, Q.unit, Q.omega)
    x = [tailed(rng, random_elem(rng, setup)) for _ in range(Q.rank)]
    L = Q.multiplication({i: c for i, c in enumerate(x) if c})
    zero = setup.zero()
    for j in range(Q.rank):
        e_j = [setup.one() if k == j else zero for k in range(Q.rank)]
        got = [L.entries.get((k, j), zero) for k in range(Q.rank)]
        assert [(g.terms, g.trunc) for g in got] == \
            [(w.terms, w.trunc) for w in ref.star(Q, x, e_j)]
    order = rng.randint(1, 3)
    for _, vec in random_vectors(rng, setup, Q.rank, order):
        assert_same_vectors(Q.star_useries(x, vec),
                            ref.star_useries(Q, x, vec))


# -- finite2 --------------------------------------------------------------------


def flip_one_entry(rng, Z):
    """The system with one entry of one operator changed by a monomial."""
    name = rng.choice(sorted(Z.operators()))
    entries = dict(Z.operators()[name].entries)
    key = (rng.randrange(Z.n), rng.randrange(Z.n))
    mono = Z.setup.monomial(1, rng.randint(-1, 2))
    entries[key] = entries[key] + mono if key in entries else mono
    maps = {k: op.entries for k, op in Z.operators().items()}
    maps[name] = entries
    return Z2CartanData.build(Z.setup, Z.basis, **maps)


def assert_same_reports(Z):
    rel, want_rel = verify_relations(Z), ref.z2_verify_relations(Z)
    assert [r["failures"] for r in rel["relations"]] \
        == [r["failures"] for r in want_rel["relations"]]
    assert rel == want_rel
    out, want_out = assemble_and_check(Z), ref.z2_assemble_and_check(Z)
    assert [c["failures"] for c in out["certificates"]] \
        == [c["failures"] for c in want_out["certificates"]]
    assert out == want_out
    return rel["all_hold"] and out["all_hold"]


@pytest.mark.parametrize("max_gens", [2, 6, 12])
@pytest.mark.parametrize("seed", range(6))
def test_finite2_reports_match_dense(seed, max_gens):
    rng = random.Random(seed)
    Z = random_z2_data(rng, max_gens)
    assert assert_same_reports(Z)
    flipped = [flip_one_entry(rng, Z) for _ in range(4)]
    holding = [assert_same_reports(F) for F in flipped]
    assert not all(holding)


def test_finite2_reports_match_dense_with_nonzero_lambda():
    rng = random.Random(7)
    Z = golden_with_nonzero_lambda()
    assert assert_same_reports(Z)
    for _ in range(10):
        assert_same_reports(flip_one_entry(rng, Z))


@pytest.mark.parametrize("fixture,holds", [
    ("z2_case.json", True), ("failing/broken_z2_case.json", False)],
    ids=["z2_case", "broken_z2_case"])
def test_finite2_reports_match_dense_on_fixtures(fixture, holds):
    # the bundled document and its broken twin, whose certificates fail
    Z = z2_from(load_document(str(FIXTURES / fixture)))
    assert assert_same_reports(Z) is holds
    rng = random.Random(11)
    for _ in range(10):
        assert_same_reports(flip_one_entry(rng, Z))


# The relations are made on bit-packed rows (``finite2._products``), with
# compose only past the row-width bound; the reports above and below are
# those of the dense reference, which multiplies entry by entry.


def compose_calls(monkeypatch):
    calls = []
    real = OperatorMatrix.compose
    monkeypatch.setattr(OperatorMatrix, "compose",
                        lambda A, *rest: calls.append(A) or real(A, *rest))
    return calls


@pytest.mark.parametrize("seed", range(12))
def test_finite2_relations_compose_nothing_on_packed_rows(seed, monkeypatch):
    # a refactor cannot fall back to compose unseen
    rng = random.Random(seed)
    systems = [random_z2_data(rng, 12)]
    systems += [flip_one_entry(rng, systems[0]) for _ in range(3)]
    calls = compose_calls(monkeypatch)
    for Z in systems:
        verify_relations(Z), assemble_and_check(Z)
    assert calls == []
    for Z in systems:
        assert_same_reports(Z)


def wide_system(K):
    """The one-pair system with d = q^K, lambda = q^(K-1) (K odd) and
    Xi = q^-1 at (x, x), which closes the Xi relation; its exponents span
    K + 1 steps."""
    basis = (GeneratorInfo("x", 1), GeneratorInfo("y", 0))
    one = SETUP_F2.one()
    return Z2CartanData.build(
        SETUP_F2, basis, d={(1, 0): SETUP_F2.monomial(1, K)},
        iota={(0, 0): one, (1, 1): one}, lam={(1, 0): SETUP_F2.monomial(1, K - 1)},
        sigma={(0, 0): one, (1, 1): one}, Xi={(0, 0): SETUP_F2.monomial(1, -1)})


def test_finite2_past_the_row_width_bound_takes_compose(monkeypatch):
    # rows of n (2 (K + 1) + 1) bits: the widest packed, then one wider
    K = finite2._PACKED_BITS // 4 - 2
    if K % 2 == 0:
        K -= 1
    rng = random.Random(5)
    for width, composes in ((K, 0), (K + 2, 7)):
        Z = wide_system(width)
        calls = compose_calls(monkeypatch)
        assert assert_same_reports(Z)
        assert len(calls) == composes
        for _ in range(4):
            assert_same_reports(flip_one_entry(rng, Z))


SETUP_F2_HALF = ScalarSetup.make(Fraction(1, 2), "F2")


@pytest.mark.parametrize("max_gens", [2, 6, 12])
@pytest.mark.parametrize("seed", range(6))
def test_finite2_reports_match_dense_on_half_integer_exponents(seed, max_gens):
    rng = random.Random(seed)
    Z = random_z2_data(rng, max_gens, setup=SETUP_F2_HALF)
    # an odd q-index is a half-integer exponent; the one-pair systems may
    # draw whole exponents only
    assert Z.n == 2 or any(i % 2 for op in Z.operators().values()
                           for v in op.entries.values() for i, _ in v.terms)
    assert assert_same_reports(Z)
    flipped = [flip_one_entry(rng, Z) for _ in range(4)]
    holding = [assert_same_reports(F) for F in flipped]
    assert not all(holding)


@pytest.mark.parametrize("seed", range(8))
def test_finite2_multi_term_witnesses_match_dense(seed):
    # several far-apart terms added to a few entries of one operator: the
    # decoded witness cells must list their terms in the dense order
    rng = random.Random(seed)
    Z = random_z2_data(rng, 12)
    name = rng.choice(sorted(Z.operators()))
    entries = dict(Z.operators()[name].entries)
    for _ in range(3):
        key = (rng.randrange(Z.n), rng.randrange(Z.n))
        poly = NovikovElem.build(SETUP_F2, [(rng.randint(-6, 9), 1)
                                            for _ in range(4)])
        entries[key] = entries[key] + poly if key in entries else poly
    maps = {k: op.entries for k, op in Z.operators().items()}
    maps[name] = entries
    F = Z2CartanData.build(SETUP_F2, Z.basis, **maps)
    assert not assert_same_reports(F)
    values = [f["value"] for r in verify_relations(F)["relations"]
              for f in r["failures"]]
    assert any(" + " in v for v in values)


@pytest.mark.parametrize("seed", range(8))
def test_finite2_packed_relation_matrices_equal_compose(seed, monkeypatch):
    # field for field, degrees included: the operators get degrees here,
    # and a product's degree is that of its first pair
    rng = random.Random(seed)
    Z = flip_one_entry(rng, random_z2_data(rng, 12))
    ops = {k: OperatorMatrix(op.source, op.target, op.entries,
                             rng.randint(-2, 2))
           for k, op in Z.operators().items()}
    Z = Z2CartanData(Z.setup, Z.basis, **ops)
    packed = Z2CartanData._relations.func(Z)
    monkeypatch.setattr(finite2, "_PACKED_BITS", 0)
    calls = compose_calls(monkeypatch)
    assert Z2CartanData._relations.func(Z) == packed
    assert len(calls) == 7
