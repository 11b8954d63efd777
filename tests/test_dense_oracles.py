"""The sparse elimination and Cartan operators against their dense originals.

``dense_reference`` holds the dense implementations the sparse ones replaced.
Every value, certificate and error message must agree, including on
truncated entries, termless ``O(q^T)`` entries and q-orders small enough to
leave pivot choices undetermined.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as ref
from conftest import _conjugate_components, random_equivariant_differential
from eqcartan import linalg
from eqcartan.cartan import CartanData, EquivariantDifferential, identity_report, solve_iota
from eqcartan.complexes import GeneratorInfo, GradingKind, OperatorMatrix
from eqcartan.linalg import UndeterminedError
from eqcartan.novikov import NovikovElem, ScalarSetup

SETUP_Q = ScalarSetup.make(1, "Q")
SETUP_F5 = ScalarSetup.make(1, "F5")


def _coeff(rng, setup):
    if setup.ring.kind == "Fp":
        return rng.randint(1, setup.ring.modulus - 1)
    return rng.choice([1, 2, 3, -1, -2])


def random_entry(rng, setup, max_exp=3):
    """Zero, exact, truncated-with-terms or termless O(q^T)."""
    kind = rng.random()
    if kind < 0.45:
        return setup.zero()
    pairs = [(rng.randint(-max_exp, max_exp), _coeff(rng, setup))
             for _ in range(rng.randint(1, 3))]
    if kind < 0.8:
        return NovikovElem.build(setup, pairs)
    trunc = rng.randint(-1, max_exp + 2)
    if kind < 0.93:
        return NovikovElem.build(setup, pairs, trunc)
    return NovikovElem.build(setup, [], trunc)


def random_matrix(rng, setup, m, n):
    return [[random_entry(rng, setup) for _ in range(n)] for _ in range(m)]


def _densify(rows, n, zero):
    return [[row.get(c, zero) for c in range(n)] for row in rows]


def assert_same_reduction(matrix, setup, q_order):
    try:
        want = ref.row_reduce(matrix, setup, q_order)
    except UndeterminedError as exc:
        with pytest.raises(UndeterminedError) as info:
            linalg.row_reduce(matrix, setup, q_order)
        assert str(info.value) == str(exc)
        return None
    got = linalg.row_reduce(matrix, setup, q_order)
    M, U, pivots, verified = want
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    zero = setup.zero()
    assert got.pivots == pivots
    assert got.verified_trunc == verified
    assert _densify(got.reduced, n, zero) == M
    assert _densify(got.transform, m, zero) == U
    # sparse rows store exactly the entries that are not decidably zero
    for row in got.reduced + got.transform:
        assert all(not e.is_zero() for e in row.values())
    return got


SHAPES = [(1, 1), (3, 3), (4, 4), (5, 3), (3, 6), (6, 6), (4, 9)]


@pytest.mark.parametrize("setup", [SETUP_Q, SETUP_F5], ids=["Q", "F5"])
@pytest.mark.parametrize("q_order", [2, 4, 10])
@pytest.mark.parametrize("seed", range(12))
def test_row_reduce_matches_dense(seed, q_order, setup):
    rng = random.Random(seed)
    for m, n in SHAPES:
        assert_same_reduction(random_matrix(rng, setup, m, n), setup, q_order)


@pytest.mark.parametrize("setup", [SETUP_Q, SETUP_F5], ids=["Q", "F5"])
@pytest.mark.parametrize("seed", range(6))
def test_solve_and_kernel_match_dense(seed, setup):
    rng = random.Random(50 + seed)
    for m, n in SHAPES:
        M = random_matrix(rng, setup, m, n)
        rhs = [random_entry(rng, setup) for _ in range(m)]
        try:
            want_x = ref.solve(M, rhs, setup, 6)
        except UndeterminedError:
            continue
        assert linalg.solve(M, rhs, setup, 6) == want_x
        assert linalg.kernel_basis(M, setup, 6) == ref.kernel_basis(M, setup, 6)


def test_wide_connection_shape_matches_dense():
    # a wide, mostly empty shape: (nN) rows by (classes + nN) columns, as in
    # the [class representatives | boundaries] system of the former
    # induced_connection (dense_reference.induced_connection)
    rng = random.Random(7)
    for setup in (SETUP_Q, SETUP_F5):
        m = 12
        M = [[random_entry(rng, setup) if rng.random() < 0.3 else setup.zero()
              for _ in range(3 + m)] for _ in range(m)]
        assert_same_reduction(M, setup, 10)
        assert_same_reduction(M, setup, 3)


def test_undetermined_message_matches_dense():
    weak = NovikovElem.build(SETUP_Q, [], 2)
    M = [[SETUP_Q.monomial(1, 3), weak], [SETUP_Q.zero(), SETUP_Q.one()]]
    with pytest.raises(UndeterminedError):
        linalg.row_reduce([M[0]], SETUP_Q)
    assert_same_reduction([M[0]], SETUP_Q, None)
    assert_same_reduction(M, SETUP_Q, None)


@st.composite
def matrices(draw):
    setup = draw(st.sampled_from([SETUP_Q, SETUP_F5]))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    coeff = (st.integers(1, 4) if setup.ring.kind == "Fp"
             else st.integers(-3, 3).filter(bool))
    term = st.tuples(st.integers(-2, 3), coeff)
    entry = st.one_of(
        st.just(setup.zero()),
        st.lists(term, min_size=1, max_size=3).map(
            lambda p: NovikovElem.build(setup, p)),
        st.tuples(st.lists(term, max_size=3), st.integers(-1, 5)).map(
            lambda pt: NovikovElem.build(setup, pt[0], pt[1])),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return setup, rows, draw(st.sampled_from([2, 3, 8, None]))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_row_reduce_matches_dense_hypothesis(case):
    setup, rows, q_order = case
    assert_same_reduction(rows, setup, q_order)


# -- solve_iota and identity_report -------------------------------------------


def _iota_entries(dense_iotas):
    return [{(t, s): v for t, row in enumerate(M) for s, v in enumerate(row)
             if v} for M in dense_iotas]


def assert_same_cartan(diff, regime, q_order=None):
    try:
        want, want_obs = ref.solve_iota(diff, regime, q_order=q_order)
    except UndeterminedError as exc:
        with pytest.raises(UndeterminedError) as info:
            solve_iota(diff, regime, q_order=q_order)
        assert str(info.value) == str(exc)
        return
    data, obstruction = solve_iota(diff, regime, q_order=q_order)
    assert obstruction == want_obs
    if obstruction is not None:
        data = CartanData(diff, (), regime)
    else:
        assert [op.entries for op in data.iota] == _iota_entries(want)
    assert identity_report(data) == ref.identity_report(data)


def multi_term_differential(rng, setup, npairs, order):
    """Pairs x_i -> y_i with multi-term coefficients, conjugated by
    multi-term elementary factors, so solving inverts truncated series."""
    n = 2 * npairs
    basis = []
    for i in range(npairs):
        basis += [GeneratorInfo(f"x{i}", 1), GeneratorInfo(f"y{i}", 0)]
    z = setup.zero()
    d0 = [[z] * n for _ in range(n)]
    for i in range(npairs):
        d0[2 * i + 1][2 * i] = NovikovElem.build(
            setup, [(0, _coeff(rng, setup)), (1, _coeff(rng, setup)),
                    (3, _coeff(rng, setup))])
    comps = [d0]
    for _ in range(2):
        a, b = rng.sample(range(rng.randint(0, 1), n, 2), 2)
        f = NovikovElem.build(setup, [(0, _coeff(rng, setup)),
                                      (2, _coeff(rng, setup))])
        comps = _conjugate_components(comps, 1, f, a, b, setup, order)
        while len(comps) > 1 and all(not e for row in comps[-1] for e in row):
            comps.pop()
    entries = [{(t, s): M[t][s] for t in range(n) for s in range(n) if M[t][s]}
               for M in comps]
    return EquivariantDifferential.build(setup, GradingKind("Z/2"), basis,
                                         entries, order=order)


@pytest.mark.parametrize("regime", ["monotone", "cy"])
@pytest.mark.parametrize("seed", range(8))
def test_cartan_matches_dense_on_random_families(seed, regime):
    setup = SETUP_F5 if seed % 2 else SETUP_Q
    diff = random_equivariant_differential(random.Random(700 + seed), setup,
                                           max_gens=8, order=4 + seed % 2)
    assert_same_cartan(diff, regime)


@pytest.mark.parametrize("q_order", [3, 6, None])
@pytest.mark.parametrize("seed", range(4))
def test_cartan_matches_dense_with_truncated_inverses(seed, q_order):
    setup = SETUP_F5 if seed % 2 else SETUP_Q
    diff = multi_term_differential(random.Random(seed), setup, 2, 3)
    assert_same_cartan(diff, "monotone", q_order)


@pytest.mark.parametrize("seed", range(6))
def test_identity_report_matches_dense_on_wrong_iota(seed):
    # a random iota family with truncated and termless entries: the report
    # lists failures and the certified orders those entries leave
    rng = random.Random(900 + seed)
    setup = SETUP_F5 if seed % 2 else SETUP_Q
    diff = random_equivariant_differential(rng, setup, max_gens=6, order=4)
    n = diff.n
    iota = []
    for k in range(3):
        entries = {(t, s): random_entry(rng, setup)
                   for t in range(n) for s in range(n) if rng.random() < 0.3}
        iota.append(OperatorMatrix(diff.basis, diff.basis, entries, 2 - 2 * k))
    for regime in ("monotone", "cy"):
        data = CartanData(diff, tuple(iota), regime)
        assert identity_report(data) == ref.identity_report(data)
