"""The sparse elimination and Cartan operators against their dense originals.

``dense_reference`` holds the dense implementations the sparse ones replaced.
``ref.row_reduce`` is the valuation-pivot elimination that divides every
pivot row by a truncated inverse of its pivot; ``linalg.row_reduce`` is
fraction-free and divides only at output, so it is at least as precise and
the two agree by a relation, not field for field:

- ``scaled_transform`` times the matrix is ``scaled``, by multiplication;
- where the reference's certificate is exact (``verified_trunc`` None), the
  pivots are the same and every pivot-row entry of ``reduced``, of
  ``scaled_transform`` divided by its pivot (``conftest.divided_transform``)
  and of the solution equals the reference's on each term below the
  reference entry's trunc;
- where the reference certifies only to some order, the rank is no lower;
- rows of ``scaled_transform`` outside the pivot rows annihilate the
  matrix: exactly on exact input, and to the reported verified order
  otherwise;
- ``verified_trunc`` is None wherever the reference's is and on all exact
  input, and ``UndeterminedError`` is raised only where the reference
  raises it at the same q-order; where the reference raises and
  ``linalg.row_reduce`` returns, its result must still meet the
  annihilation property and the certificate on exact input.

``complexes.dvr_diagonalize`` is a row-only pass, ``ref.dvr_diagonalize``
the dense diagonalization that also clears each pivot row by column
operations; on multi-term and tailed u-series the two find the same sorted
pivot valuations wherever both return, the pass's ``verified_trunc`` is
never lower (None wherever the reference's is), and it raises
``UndeterminedError`` only where the reference raises it.

The Cartan operators must still agree field for field: values,
certificates and error messages, including on truncated entries, termless
``O(q^T)`` entries and q-orders small enough to leave pivot choices
undetermined.
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as ref
from conftest import (_coeff, assert_transform_multiplies, densify,
                      divided_transform, free_pair_differential,
                      multi_term_differential, random_equivariant_differential)
from eqcartan import cartan, linalg
from eqcartan.cartan import CartanData, EquivariantDifferential, identity_report, solve_iota
from eqcartan.complexes import (GeneratorInfo, GradingKind, OperatorMatrix,
                                dvr_diagonalize)
from eqcartan.linalg import UndeterminedError
from eqcartan.novikov import NovikovElem, ScalarSetup, USeries
from eqcartan.schema import cartan_from, load_document

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import gens  # noqa: E402  (the benchmark's input generators)

SETUP_Q = ScalarSetup.make(1, "Q")
SETUP_F5 = ScalarSetup.make(1, "F5")


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


def _agrees(got, want):
    """got is known at least as far as want and has want's terms below
    want's trunc."""
    t = math.inf if want.trunc is None else want.trunc
    return ((math.inf if got.trunc is None else got.trunc) >= t
            and [x for x in got.terms if x[0] < t]
            == [x for x in want.terms if x[0] < t])


def _row_times(row, matrix, zero):
    """The sparse row vector times the dense matrix."""
    out = []
    for s in range(len(matrix[0])):
        acc = zero
        for k, u in row.items():
            acc = acc + u * matrix[k][s]
        out.append(acc)
    return out


def _exact(matrix):
    return all(e.trunc is None for row in matrix for e in row)


def assert_related_reduction(matrix, setup, q_order):
    """The relation of the module docstring for one matrix; returns the new
    reduction and the reference's, each None where it raises
    UndeterminedError."""
    try:
        want = ref.row_reduce(matrix, setup, q_order)
    except UndeterminedError:
        want = None
    try:
        got = linalg.row_reduce(matrix, setup, q_order)
    except UndeterminedError:
        assert want is None
        return None, None
    zero = setup.zero()
    assert_transform_multiplies(got, matrix)
    transform = divided_transform(got)
    if want is not None:
        M, U, pivots, verified = want
        if verified is None:
            assert got.pivots == pivots
            assert got.verified_trunc is None
            for r, _ in pivots:
                for c, want_entry in enumerate(M[r]):
                    assert _agrees(got.reduced[r].get(c, zero), want_entry)
                for c, want_entry in enumerate(U[r]):
                    assert _agrees(transform[r].get(c, zero), want_entry)
        else:
            assert got.rank >= len(pivots)
    exact = _exact(matrix)
    if exact:
        assert got.verified_trunc is None
    pivot_rows = {r for r, _ in got.pivots}
    for r, row in enumerate(got.scaled_transform):
        if r in pivot_rows:
            continue
        for e in _row_times(row, matrix, zero):
            if exact:
                assert e.is_zero()
            else:
                assert got.verified_trunc is not None
                assert all(i >= got.verified_trunc for i, _ in e.terms)
    # sparse rows store exactly the entries that are not decidably zero
    for row in got.reduced + got.scaled_transform + transform:
        assert all(not e.is_zero() for e in row.values())
    return got, want


SHAPES = [(1, 1), (3, 3), (4, 4), (5, 3), (3, 6), (6, 6), (4, 9)]


@pytest.mark.parametrize("setup", [SETUP_Q, SETUP_F5], ids=["Q", "F5"])
@pytest.mark.parametrize("q_order", [2, 4, 10])
@pytest.mark.parametrize("seed", range(12))
def test_row_reduce_matches_dense(seed, q_order, setup):
    rng = random.Random(seed)
    for m, n in SHAPES:
        assert_related_reduction(random_matrix(rng, setup, m, n), setup,
                                 q_order)


def test_solve_carries_a_termless_transform_tail():
    # row 0 of the transform holds O(q^-8) at column 0, so the solution's
    # entry at row 0's pivot column is unknown from q^7 on, not an exact 0
    M = random_matrix(random.Random(16), SETUP_Q, 3, 4)
    rhs = [SETUP_Q.one(), SETUP_Q.zero(), SETUP_Q.zero()]
    red = linalg.row_reduce(M, SETUP_Q, 8)
    assert red.pivots[0] == (0, 1)
    tail = red.scaled_transform[0][0]
    assert not tail.terms and tail.trunc == -8
    x, bad = linalg.solve(red, rhs)
    assert bad is None
    x = densify(x, 4, SETUP_Q.zero())
    assert not x[1].terms and x[1].trunc == 7
    want_x, _ = ref.solve(M, rhs, SETUP_Q, 8)
    assert not want_x[1].terms and want_x[1].trunc == 7


@pytest.mark.parametrize("setup", [SETUP_Q, SETUP_F5], ids=["Q", "F5"])
@pytest.mark.parametrize("seed", range(6))
def test_solve_and_kernel_match_dense(seed, setup):
    rng = random.Random(50 + seed)
    for m, n in SHAPES:
        M = random_matrix(rng, setup, m, n)
        rhs = [random_entry(rng, setup) for _ in range(m)]
        got, want = assert_related_reduction(M, setup, 6)
        if got is None:
            continue
        zero = setup.zero()
        x, bad = linalg.solve(got, rhs)
        if x is not None:
            x = densify(x, n, zero)
        kernel = got._kernel(n)
        if want is not None and want[3] is None:
            want_x, want_bad = ref.solve(M, rhs, setup, 6, reduction=want)
            assert (x is None) == (want_x is None)
            if x is None:
                assert bad[0] == want_bad[0]
                assert _agrees(bad[1], want_bad[1])
            else:
                assert all(_agrees(a, b) for a, b in zip(x, want_x))
            want_kernel = ref.kernel_basis(M, setup, 6)
            assert len(kernel) == len(want_kernel)
            # each vector is the reference's times its entry at its free
            # column
            pivot_cols = {c for _, c in got.pivots}
            free = [c for c in range(n) if c not in pivot_cols]
            for fc, v, w in zip(free, kernel, want_kernel):
                assert all(_agrees(v.get(c, zero), v[fc] * w[c])
                           for c in range(n))
        elif want is not None:
            assert len(kernel) <= len(ref.kernel_basis(M, setup, 6))
        if _exact(M) and _exact([rhs]):
            # consistency is decided exactly: a solution leaves no visible
            # residual, and an inconsistency comes with an exact
            # left-annihilator of M that does not annihilate rhs
            if x is None:
                r, resid = bad
                assert resid.has_terms()
                row = got.scaled_transform[r]
                assert all(e.is_zero()
                           for e in _row_times(row, M, setup.zero()))
                assert not (_row_times(row, [[e] for e in rhs],
                                       setup.zero())[0] - resid).has_terms()
            else:
                back = [sum((a * xi for a, xi in zip(row, x)), setup.zero())
                        - b for row, b in zip(M, rhs)]
                assert not any(e.has_terms() for e in back)


def _reduction_or_error(rows, setup, q_order):
    try:
        red = linalg.row_reduce(rows, setup, q_order)
    except UndeterminedError as exc:
        return str(exc)
    assert_transform_multiplies(red, rows)
    return red.pivots, red.verified_trunc, red.reduced, red.scaled_transform


@pytest.mark.parametrize("seed", range(20))
def test_sparse_rows_reduce_as_dense_rows(seed):
    # dict rows (exact zeros stored or left out at random) and the same
    # rows as dense lists give the same Reduction or the same error text
    rng = random.Random(900 + seed)
    for _ in range(20):
        setup = rng.choice([SETUP_Q, SETUP_F5])
        M = random_matrix(rng, setup, rng.randint(1, 6), rng.randint(1, 6))
        q_order = rng.randint(1, 10)
        rows = [{c: e for c, e in enumerate(row)
                 if not e.is_zero() or rng.random() < 0.5} for row in M]
        assert (_reduction_or_error(rows, setup, q_order)
                == _reduction_or_error(M, setup, q_order))


def test_wide_connection_shape_matches_dense():
    # a wide, mostly empty shape: (nN) rows by (classes + nN) columns, as in
    # the [class representatives | boundaries] system of the former
    # induced_connection (dense_reference.induced_connection)
    rng = random.Random(7)
    for setup in (SETUP_Q, SETUP_F5):
        m = 12
        M = [[random_entry(rng, setup) if rng.random() < 0.3 else setup.zero()
              for _ in range(3 + m)] for _ in range(m)]
        assert_related_reduction(M, setup, 10)
        assert_related_reduction(M, setup, 3)


def test_undetermined_message_matches_dense():
    weak = NovikovElem.build(SETUP_Q, [], 2)
    M = [[SETUP_Q.monomial(1, 3), weak], [SETUP_Q.zero(), SETUP_Q.one()]]
    with pytest.raises(UndeterminedError) as want:
        ref.row_reduce([M[0]], SETUP_Q)
    with pytest.raises(UndeterminedError) as got:
        linalg.row_reduce([M[0]], SETUP_Q)
    assert str(got.value) == str(want.value)
    assert_related_reduction(M, SETUP_Q, None)


# (seed, q-order) of random_matrix draws on which the reference returns a
# certified rank although a candidate pivot of the exact elimination lies
# at or below a suspect tail: the reference's truncated inverses hide that
# candidate, and the exact elimination must stop at the q-order's horizon
# there instead of raising
HORIZON_CASES = [(765, 1), (1145, 1), (1236, 2), (1305, 1), (1365, 1),
                 (1775, 1), (2405, 1), (2946, 2)]


@pytest.mark.parametrize("seed, q_order", HORIZON_CASES)
def test_undetermined_only_where_the_reference_is(seed, q_order):
    rng = random.Random(seed)
    setup = SETUP_Q if seed % 2 == 0 else SETUP_F5
    stopped = 0
    for m, n in SHAPES:
        got, want = assert_related_reduction(random_matrix(rng, setup, m, n),
                                             setup, q_order)
        if want is not None and want[3] is not None:
            stopped += got.verified_trunc is not None
    assert stopped


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
    assert_related_reduction(rows, setup, q_order)


# -- dvr_diagonalize -----------------------------------------------------------


def random_useries(rng, setup, order):
    """Zero, or u^j times coefficients drawn by random_entry: multi-term,
    truncated with terms or termless O(q^T)."""
    if rng.random() < 0.4:
        return USeries.zero(setup, order)
    j = rng.randint(0, order - 1)
    return USeries.build(setup, order, [setup.zero()] * j + [
        random_entry(rng, setup) for _ in range(order - j)])


DVR_SHAPES = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)]


@pytest.mark.parametrize("setup", [SETUP_Q, SETUP_F5], ids=["Q", "F5"])
@pytest.mark.parametrize("q_order", [2, 4, 16])
@pytest.mark.parametrize("seed", range(16))
def test_dvr_diagonalize_matches_dense(seed, q_order, setup):
    rng = random.Random(seed)
    for m, n in DVR_SHAPES:
        order = rng.randint(2, 4)
        rows = [[random_useries(rng, setup, order) for _ in range(n)]
                for _ in range(m)]
        try:
            want = ref.dvr_diagonalize(rows, setup, order, q_order)
        except UndeterminedError:
            want = None
        try:
            pivots, verified = dvr_diagonalize(rows, setup, order, q_order)
        except UndeterminedError:
            assert want is None
            continue
        if want is None:
            continue
        want_pivots, want_verified = want
        assert (sorted(v for _, _, v in pivots)
                == sorted(v for _, _, v in want_pivots))
        if want_verified is None:
            assert verified is None
        else:
            assert verified is None or verified >= want_verified


def test_dvr_entry_without_visible_terms_reaches_its_row():
    # O(q^-1) u^2 in the pivot column (pivot u^2 below it) hides its
    # value: it must reach row 0 and swallow the q^0 of its u^3 entry, as
    # the reference's column operations make it, not drop out
    z, one = SETUP_Q.zero(), SETUP_Q.one()

    def series(*coeffs):
        return USeries.build(SETUP_Q, 4, list(coeffs))

    rows = [[series(z, z, NovikovElem.build(SETUP_Q, [], -1)),
             series(z, z, z, one)],
            [series(z, z, one), series(z, z, z, SETUP_Q.monomial(1, -3))]]
    assert ref.dvr_diagonalize(rows, SETUP_Q, 4, 8) == ([(1, 0, 2)], -4)
    assert dvr_diagonalize(rows, SETUP_Q, 4, 8) == ([(1, 0, 2)], -4)


def test_dvr_division_by_u_bounds_the_certificate_by_a_dropped_tail():
    # dividing O(q^5) + u by the pivot's u drops the O(q^5): a nonzero
    # q^5 coefficient would make the column's gcd a unit, so the torsion
    # pivot is certified only below q^5
    z, one = SETUP_Q.zero(), SETUP_Q.one()
    rows = [[USeries.build(SETUP_Q, 2, [z, one])],
            [USeries.build(SETUP_Q, 2, [NovikovElem.build(SETUP_Q, [], 5),
                                        one])]]
    for diagonalize in (dvr_diagonalize, ref.dvr_diagonalize):
        pivots, verified = diagonalize(rows, SETUP_Q, 2)
        assert pivots == [(0, 0, 1)]
        assert verified is not None and verified <= 5


def test_dvr_a_visibly_zero_entry_of_lost_u_order_is_undetermined():
    # an entry known only to u^0 has no pivot; below analysis order 3 its
    # u^1 and u^2 are unknown, so the block cannot be certified zero; at
    # analysis order 1 it is known far enough
    setup = ScalarSetup.make(1, "F2")
    rows = [[USeries(setup, 3, (setup.zero(),))]]
    for diagonalize in (dvr_diagonalize, ref.dvr_diagonalize):
        with pytest.raises(UndeterminedError, match="precision exhausted "
                           "before the remaining block could be certified "
                           r"zero \(entry 0,0 valid to u-order 1\)"):
            diagonalize(rows, setup, 3)
        assert diagonalize(rows, setup, 1) == ([], None)


def test_dvr_a_pivot_past_the_analysis_order_is_undetermined():
    z, one = SETUP_Q.zero(), SETUP_Q.one()
    rows = [[USeries.build(SETUP_Q, 3, [z, z, one])]]
    for diagonalize in (dvr_diagonalize, ref.dvr_diagonalize):
        with pytest.raises(UndeterminedError, match="pivot 0,0 has "
                           "u-valuation 2 >= the analysis order 2"):
            diagonalize(rows, SETUP_Q, 2)
        assert diagonalize(rows, SETUP_Q, 3) == ([(0, 0, 2)], None)


# -- solve_iota and identity_report -------------------------------------------


def _iota_entries(dense_iotas):
    return [{(t, s): v for t, row in enumerate(M) for s, v in enumerate(row)
             if not v.is_zero()} for M in dense_iotas]


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
    return obstruction is not None


def test_iota_keeps_an_entry_with_a_tail_and_no_terms():
    # at q-order 1 linalg.solve returns O(q^2) at (f0, y2) of iota_3: not
    # decidably zero, so iota keeps it, as the dense reference does
    diff, _ = gens.normal_form(random.Random(0), SETUP_Q, 2, 0, 2, 4)
    data, obstruction = solve_iota(diff, q_order=1)
    assert obstruction is None
    names = [g.name for g in diff.basis]
    entry = data.iota[3].entries[names.index("f0"), names.index("y2")]
    assert str(entry) == "O(q^2)"
    assert_same_cartan(diff, "monotone", 1)


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


@pytest.mark.parametrize("regime", ["monotone", "cy"])
def test_cartan_matches_dense_on_obstructed_draws(regime):
    # free_pair_differential: solve_iota is obstructed on some draws, and
    # identity_report then runs on the datum without iota
    obstructed = [assert_same_cartan(free_pair_differential(
        random.Random(1100 + seed), SETUP_F5 if seed % 2 else SETUP_Q),
        regime) for seed in range(8)]
    assert any(obstructed) and not all(obstructed)


def random_iota(rng, diff):
    """Three iota components whose entries are zero, exact, truncated with
    terms or termless O(q^T), at random."""
    n = diff.n
    return tuple(OperatorMatrix(diff.basis, diff.basis, {
        (t, s): random_entry(rng, diff.setup)
        for t in range(n) for s in range(n) if rng.random() < 0.3},
        2 - 2 * k) for k in range(3))


@pytest.mark.parametrize("seed", range(6))
def test_identity_report_matches_dense_on_wrong_iota(seed):
    # a random iota family with truncated and termless entries: the report
    # lists failures and the certified orders those entries leave
    rng = random.Random(900 + seed)
    setup = SETUP_F5 if seed % 2 else SETUP_Q
    diff = random_equivariant_differential(rng, setup, max_gens=6, order=4)
    iota = random_iota(rng, diff)
    for regime in ("monotone", "cy"):
        data = CartanData(diff, iota, regime)
        assert identity_report(data) == ref.identity_report(data)


def _column_counts(data):
    """(sample columns kept, sample columns left out) by the column rule."""
    kept = len(cartan._sample_block(data).source)
    return kept, 2 * data.diff.n - kept


@pytest.mark.parametrize("generator", [1, Fraction(1, 2), Fraction(1, 3)],
                         ids=["Z", "Z/2", "Z/3"])
@pytest.mark.parametrize("ring", ["Q", "F5", "Z/6", "Z"])
def test_identity_report_matches_dense_on_tailed_iota(ring, generator):
    # the sample block of identity_report holds only the columns where
    # iota_eq has a tail; every record must still be that of the full
    # sample vectors, over rings with zero divisors and off the lattice Z
    setup = ScalarSetup.make(generator, ring)
    counts = []
    for seed in range(4):
        rng = random.Random(950 + seed)
        diff = random_equivariant_differential(rng, setup, max_gens=6,
                                               order=4)
        iota = random_iota(rng, diff)
        for regime in ("monotone", "cy"):
            data = CartanData(diff, iota, regime)
            assert identity_report(data) == ref.identity_report(data)
            counts.append(_column_counts(data))
    # across the draws the column rule both keeps and leaves out columns
    assert any(kept for kept, _ in counts)
    assert any(left_out for _, left_out in counts)


# every document that `cartan verify` reads: those with a complex, less
# the two it refuses as malformed input (exit 2), one for its iota_family
# and one for a d_family whose d_0 is not the complex's differential
CARTAN_FIXTURES = sorted(
    str(p.relative_to(ROOT / "fixtures"))
    for p in (ROOT / "fixtures").rglob("*.json")
    if "complex" in json.loads(p.read_text())
    and p.name not in ("bad_iota_case.json", "d0_mismatch_case.json"))


@pytest.mark.parametrize("fixture", CARTAN_FIXTURES)
def test_identity_report_matches_dense_on_fixtures(fixture):
    data = cartan_from(load_document(str(ROOT / "fixtures" / fixture)))
    assert identity_report(data) == ref.identity_report(data)


@pytest.mark.parametrize("n, setup", [(8, gens.SETUP_Q), (12, gens.SETUP_F5),
                                      (16, gens.SETUP_Q)],
                         ids=["n8-Q", "n12-F5", "n16-Q"])
def test_identity_report_matches_dense_on_bench_instances(monkeypatch, n,
                                                          setup):
    # the acyclic monomial differentials of the cartan-sparse workload: no
    # iota column has a tail, so the report's sample block is empty and no
    # operator triple is applied to it
    diff = gens.acyclic_differential(
        gens.seeded(9101, "cartan-sparse", 0, 0, n, setup.ring.describe()),
        setup, n)
    data, obstruction = solve_iota(diff)
    assert obstruction is None
    assert _column_counts(data) == (0, 2 * n)
    applied, apply = [], cartan._apply
    with monkeypatch.context() as m:
        m.setattr(cartan, "_apply",
                  lambda op, X, *e: applied.append(X) or apply(op, X, *e))
        report = identity_report(data)
    assert applied and all(X.source for X in applied)
    assert report == ref.identity_report(data)


# -- identities 2-4: split-form brackets against op(d_eq) - d_eq op(1) -------


# each operator's name in the operator table, its vector form here and the
# u-power of its weight (None: its weights are zero)
SPLIT_FORMS = [("gamma_q", ref.gamma_q, None),
               ("deg", ref.degree_weighted, 0),
               ("gamma_u", ref.gamma_u, 1)]


def _unit_column_cancels(data):
    """Whether some op(1)[s, s] = u mu_s + M[s, s] of Gamma_u, M its matrix
    part -2 q^(1-w) iota_eq, loses its leading q-term at u^1: the u^1
    coefficient of M[s, s] starts with the constant -mu_s.  The unit form
    then multiplies d_ts by the sum, while the split form scales d_ts by
    -mu_s and multiplies it by M's entry apart, so a q-tail of d_ts may
    reach its bracket at the lower order."""
    ring = data.setup.ring
    for (t, s), v in data._op("gamma_u").matrix.entries.items():
        index = data.diff.basis[s].index
        if (t == s and ring.coerce(index) and v.valid > 1
                and v.coeffs[1].terms[:1] == ((0, ring.coerce(-index)),)):
            return True
    return False


def _known_as_far(got, want):
    """got has want's valid order and terms, up to q-tails no later than
    want's."""
    return got.valid == want.valid and all(
        (math.inf if g.trunc is None else g.trunc)
        <= (math.inf if w.trunc is None else w.trunc)
        and g == NovikovElem.build(w.setup, w.terms, g.trunc)
        for g, w in zip(got.coeffs, want.coeffs))


def assert_split_brackets(data):
    """[op, d_eq] from op's triple (derivation, weight, matrix part), and
    [op, d_eq] - d_eq at the weight's power of u as identities 3-4 read
    it, equal op(d_eq) - d_eq op(1) and that less d_eq entry for entry:
    coefficients, q-tails and valid u-orders; neither stores a decidably
    zero entry.  Only where Gamma_u's unit column cancels
    (``_unit_column_cancels``) may its triple carry a q-tail earlier, with
    the same terms below it."""
    d_eq = data.diff.as_operator()
    d = ref.d_eq_dense(data.diff)
    n, zero = data.diff.n, USeries.zero(data.setup, data.order)
    for which, op, power in SPLIT_FORMS:
        bracket = ref.unit_bracket(op, data)
        exact = op is not ref.gamma_u or not _unit_column_cancels(data)
        for e in (0,) if power is None else (0, 1):
            got = cartan._apply(data._op(which), d_eq, e).entries
            assert not any(v.is_zero() for v in got.values())
            for t in range(n):
                for s in range(n):
                    g = got.get((t, s), zero)
                    w = bracket[t][s] - d[t][s].times_u(power) if e \
                        else bracket[t][s]
                    assert ((g, g.valid) == (w, w.valid) if exact
                            else _known_as_far(g, w)), (which, e, t, s)


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("setup", [gens.SETUP_Q, gens.SETUP_F5],
                         ids=["Q", "F5"])
def test_split_brackets_on_bench_instances(setup, n):
    for k in range(3):
        diff = gens.acyclic_differential(gens.seeded(
            9101, "cartan-sparse", 0, k, n, setup.ring.describe()), setup, n)
        data, obstruction = solve_iota(diff)
        assert obstruction is None
        assert_split_brackets(data)


@pytest.mark.parametrize("regime", ["monotone", "cy"])
@pytest.mark.parametrize("generator", [1, Fraction(1, 2)], ids=["Z", "Z/2"])
@pytest.mark.parametrize("ring", ["Q", "F5"])
def test_split_brackets_on_random_families(ring, generator, regime):
    # the solved iota family, then a random one with tailed entries
    setup = ScalarSetup.make(generator, ring)
    for seed in range(6):
        rng = random.Random(1300 + seed)
        diff = random_equivariant_differential(rng, setup, max_gens=8,
                                               order=3 + seed % 3)
        data, obstruction = solve_iota(diff, regime)
        assert_split_brackets(data if obstruction is None
                              else CartanData(diff, (), regime))
        assert_split_brackets(CartanData(diff, random_iota(rng, diff), regime))


def tailed_data(rng, setup, regime):
    """Random tailed d_k and iota_k (``random_entry``) on up to five
    generators of random index, so that weights meet zero and each other
    in the ring; d_eq need not square to zero."""
    n = rng.randint(1, 5)
    basis = tuple(GeneratorInfo(f"g{i}", rng.randint(-3, 8))
                  for i in range(n))
    comps = [{(t, s): random_entry(rng, setup) for t in range(n)
              for s in range(n) if rng.random() < 0.5}
             for _ in range(rng.randint(1, 3))]
    diff = EquivariantDifferential.build(setup, GradingKind("Z"), basis,
                                         comps, order=rng.randint(3, 4))
    return CartanData(diff, random_iota(rng, diff), regime)


@pytest.mark.parametrize("ring", ["Z/6", "F2", "Q"])
def test_split_brackets_on_tailed_data(ring):
    setup = ScalarSetup.make(1, ring)
    for seed in range(40):
        for regime in ("monotone", "cy"):
            assert_split_brackets(
                tailed_data(random.Random(1400 + seed), setup, regime))


def test_split_brackets_on_the_z6_data_scaled_before_the_product():
    # the iota entry 3 + q^2 + O(q^4) and the vector q + O(q^3) over Z/6 of
    # test_gamma_u_scales_iota_before_the_product, here as entries of d_eq
    setup = ScalarSetup.make(1, "Z/6")
    basis = (GeneratorInfo("a", 0), GeneratorInfo("b", 1))
    x = NovikovElem.build(setup, [(1, 1)], 3)
    iota = OperatorMatrix(basis, basis, {
        (0, 0): NovikovElem.build(setup, [(0, 3), (2, 1)], 4),
        (1, 0): NovikovElem.build(setup, [(0, 3), (2, 1)], 4)})
    for comps in ([{(1, 0): x}], [{(0, 0): x, (1, 0): x}, {(0, 1): x}]):
        diff = EquivariantDifferential.build(setup, GradingKind("Z"), basis,
                                             comps, order=3)
        for regime in ("monotone", "cy"):
            assert_split_brackets(CartanData(diff, (iota,), regime))


@pytest.mark.parametrize("fixture", CARTAN_FIXTURES)
def test_split_brackets_on_fixtures(fixture):
    assert_split_brackets(
        cartan_from(load_document(str(ROOT / "fixtures" / fixture))))
