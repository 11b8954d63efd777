import random
from fractions import Fraction

import pytest
import sympy

from eqcartan.cartan import _sample_block, gamma_q
from eqcartan.novikov import InputError, NovikovElem, ScalarSetup, USeries
from eqcartan.quantum import (
    QuantumRing,
    forbidden_summand_check,
    projective_space_model,
    uq_identity_check,
)

import dense_reference as ref
from conftest import via_block
from test_operator_algebra_oracles import SETUPS, random_ring, tailed

SETUP = ScalarSetup.make(1, "Q")


def rescaled_model(rng, n):
    """Basis rescaling of the rank n+1 model; preserves all the axioms."""
    Q = projective_space_model(n, SETUP)
    scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5))
              for _ in range(n + 1)]
    scales[Q.unit] = Fraction(1)  # keep the unit on the nose
    table = {}
    for (i, j), col in Q.table.items():
        table[(i, j)] = {
            k: v.scale(SETUP.ring.coerce(scales[i] * scales[j] / scales[k]))
            for k, v in col.items()
        }
    omega = {k: v.scale(SETUP.ring.coerce(1 / scales[k]))
             for k, v in Q.omega.items()}
    return QuantumRing(SETUP, Q.basis, table, Q.unit, omega)


# -- ring validation -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projective_model_passes_axioms(n):
    Q = projective_space_model(n, SETUP)
    assert Q.validate() == []


def test_validate_catches_broken_associativity():
    # kill e2*e2 in the rank-3 model: (e1 e1) e2 = 0 but e1 (e1 e2) != 0
    Q = projective_space_model(2, SETUP)
    table = dict(Q.table)
    table[(2, 2)] = {}
    broken = QuantumRing(SETUP, Q.basis, table, Q.unit, Q.omega)
    issues = broken.validate()
    assert issues
    assert any("assoc" in i.get("axiom", "") for i in issues)


def test_validate_catches_inhomogeneous_table():
    Q = projective_space_model(1, SETUP)
    table = dict(Q.table)
    table[(1, 1)] = {0: SETUP.monomial(1, 1)}  # q instead of q^2
    broken = QuantumRing(SETUP, Q.basis, table, Q.unit, Q.omega)
    assert any(i.get("axiom") == "homogeneity" for i in broken.validate()) \
        or broken.homogeneity_witnesses()


def test_omega_has_degree_two():
    Q = projective_space_model(2, SETUP)
    assert Q.omega[1].terms == ((0, 3),)  # (n+1) e_1
    assert not Q.homogeneity_witnesses()


# -- the u,q-identity ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_uq_identity_on_projective_models(n):
    out = uq_identity_check(projective_space_model(n, SETUP))
    assert out["q_linear"]
    assert out["identity_exact"]
    assert out["holds"], out


@pytest.mark.parametrize("seed", range(10))
def test_uq_identity_on_randomized_tables(seed):
    rng = random.Random(seed)
    Q = rescaled_model(rng, rng.randint(1, 3))
    assert Q.validate() == []
    out = uq_identity_check(Q)
    assert out["holds"], out


def test_uq_identity_flags_broken_omega():
    Q = projective_space_model(1, SETUP)
    broken = QuantumRing(SETUP, Q.basis, Q.table, Q.unit,
                         {1: SETUP.monomial(5, 1)})  # 5q e, degree 4
    out = uq_identity_check(broken)
    assert not out["holds"]


# uq_identity_check's sample block holds only the columns where q*omega has a
# tail; the reference runs the check on every sample vector


@pytest.mark.parametrize("order", range(1, 6))
@pytest.mark.parametrize("n", range(1, 9))
def test_uq_identity_matches_the_full_sample_block_on_projective_models(
        n, order):
    Q = projective_space_model(n, SETUP)
    assert uq_identity_check(Q, order) == ref.uq_identity_check(Q, order)


@pytest.mark.parametrize("seed", range(10))
def test_uq_identity_matches_the_full_sample_block_on_randomized_tables(seed):
    rng = random.Random(seed)
    Q = rescaled_model(rng, rng.randint(1, 3))
    broken = QuantumRing(SETUP, Q.basis, Q.table, Q.unit,
                         {1: SETUP.monomial(5, 1)})
    for R in (Q, broken):
        assert uq_identity_check(R) == ref.uq_identity_check(R)


@pytest.mark.parametrize("key", sorted(SETUPS), ids="-".join)
def test_uq_identity_matches_the_full_sample_block_on_tailed_tables(key):
    # random tables and omegas, some of their coefficients with a q-tail
    setup = SETUPS[key]
    kept = []
    for seed in range(12):
        rng = random.Random(seed)
        Q = random_ring(rng, setup)
        Q = QuantumRing(setup, Q.basis,
                        {ij: {k: tailed(rng, c) for k, c in col.items()}
                         for ij, col in Q.table.items()},
                        Q.unit, {k: tailed(rng, c) for k, c in Q.omega.items()})
        order = rng.randint(1, 4)
        assert uq_identity_check(Q, order) == ref.uq_identity_check(Q, order)
        kept.append(len(_sample_block(Q.cartan_data(order)).source))
    assert any(kept) and not all(kept)


def test_connections_on_the_unit():
    Q = projective_space_model(1, SETUP)
    one = [USeries.from_novikov(SETUP.one(), 3), USeries.zero(SETUP, 3)]
    dq_one = via_block(lambda X: gamma_q(Q.cartan_data(3), X), Q.basis, one,
                       USeries.zero(SETUP, 3))
    # u d/dq kills the unit; what is left is omega * 1 = 2 e
    assert not dq_one[0]
    assert dq_one[1].coeffs[0].terms == ((0, 2),)



def test_a_termless_tail_is_carried_not_dropped():
    # 1 * (O(q^3) + u) keeps the u^0 coefficient O(q^3), in star_useries
    # and in the oracle; a table entry or omega term O(q^3) is kept too
    Q = projective_space_model(1, SETUP)
    tail = NovikovElem(SETUP, (), 3)
    x = [SETUP.one(), SETUP.zero()]
    vec = [USeries.build(SETUP, 2, [tail, SETUP.one()]), USeries.zero(SETUP, 2)]
    for got in (Q.star_useries(x, vec), ref.star_useries(Q, x, vec)):
        assert got[0].coeffs[0].terms == () and got[0].coeffs[0].trunc == 3
        assert got[0].coeffs[1].terms == ((0, 1),)
    kept = QuantumRing(SETUP, Q.basis, {**Q.table, (1, 1): {0: tail}},
                       Q.unit, {0: tail})
    assert kept.table[(1, 1)] == {0: tail} and kept.omega == {0: tail}

# -- forbidden summand classification ------------------------------------------


def _sympy_defect(lam, d):
    u, v = sympy.symbols("u v")
    expr = 2 * d * u ** 2 * (u - lam) ** (d - 1)
    sub = sympy.expand(expr.subs(u, v + lam))
    return sympy.Poly(sub, v).all_coeffs()[::-1]


@pytest.mark.parametrize("lam,d", [(1, 1), (2, 3), (-3, 4), (5, 2)])
def test_certificate_matches_sympy_expansion(lam, d):
    out = forbidden_summand_check(lam, d, "Z")
    coeffs = _sympy_defect(lam, d)
    reduced = [str(c) for c in coeffs[:d]]
    assert out["certificate"]["reduced_defect_coefficients"] == reduced
    assert out["certificate"]["surviving_power"] == d - 1
    assert Fraction(out["certificate"]["surviving_coefficient"]) \
        == 2 * d * lam * lam


def test_integer_classification():
    assert forbidden_summand_check(2, 3, "Z")["verdict"] == "forbidden"
    assert forbidden_summand_check(0, 3, "Z")["verdict"] == "not_excluded"


def test_fp_classification():
    # p | d kills the leading factor d; p | lam kills lam^2
    assert forbidden_summand_check(1, 5, "Fp", 5)["verdict"] == "not_excluded"
    assert forbidden_summand_check(5, 2, "Fp", 5)["verdict"] == "not_excluded"
    assert forbidden_summand_check(2, 3, "Fp", 5)["verdict"] == "forbidden"


def test_p_equal_two_inapplicable():
    out = forbidden_summand_check(1, 1, "Fp", 2)
    assert out["verdict"] == "inapplicable"


def test_invalid_inputs_rejected():
    for lam, d, ring, p in [(1, 0, "Z", None), (1, 2, "Fp", 9),
                            (1, 2, "Fp", 4), ("abc", 3, "Fp", 5),
                            ("1/0", 3, "Z", None), (1, 2, "Q", None)]:
        with pytest.raises(InputError):
            forbidden_summand_check(lam, d, ring, p)


@pytest.mark.parametrize("order", [0, -3])
def test_cartan_data_rejects_a_non_positive_u_order(order):
    Q = projective_space_model(1, ScalarSetup.make(1, "Q"))
    with pytest.raises(InputError, match="u-order must be a positive"):
        Q.cartan_data(order)
