import random
from fractions import Fraction

import pytest
import sympy

from conftest import assert_transform_multiplies, densify
from eqcartan.linalg import (
    Reduction,
    UndeterminedError,
    row_reduce,
    solve,
)
from eqcartan.novikov import InputError, NovikovElem, ScalarSetup

SETUP = ScalarSetup.make(1, "Q")
_q = sympy.Symbol("q")


def random_matrix(rng, m, n, density=0.6, max_exp=3):
    out = []
    for _ in range(m):
        row = []
        for _ in range(n):
            if rng.random() < density:
                pairs = [(rng.randint(-max_exp, max_exp),
                          Fraction(rng.randint(-3, 3)))
                         for _ in range(rng.randint(1, 2))]
                row.append(NovikovElem.build(
                    SETUP, [(e, c) for e, c in pairs if c]))
            else:
                row.append(SETUP.zero())
        out.append(row)
    return out


def mat_apply(M, vec):
    z = SETUP.zero()
    out = []
    for row in M:
        acc = z
        for a, v in zip(row, vec):
            if a.has_terms() and v.has_terms():
                acc = acc + a * v
        out.append(acc)
    return out


def to_sympy(M):
    rows = []
    for row in M:
        rows.append([
            sum(sympy.Rational(c) * _q ** SETUP.lattice.exponent_of(i)
                for i, c in e.terms)
            for e in row
        ])
    return sympy.Matrix(rows) if rows else sympy.Matrix(0, 0, [])


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    M = random_matrix(rng, m, n)
    assert row_reduce(M, SETUP).rank == to_sympy(M).rank()


@pytest.mark.parametrize("seed", range(8))
def test_reduction_certificate(seed):
    rng = random.Random(100 + seed)
    M = random_matrix(rng, 4, 4)
    red = row_reduce(M, SETUP)
    # scaled = scaled_transform @ original, rechecked entry by entry
    assert_transform_multiplies(red, M)


@pytest.mark.parametrize("seed", range(10))
def test_kernel_vectors_annihilate(seed):
    rng = random.Random(200 + seed)
    m, n = rng.randint(1, 5), rng.randint(2, 5)
    M = random_matrix(rng, m, n)
    red = row_reduce(M, SETUP)
    ker = red._kernel(n)
    assert len(ker) == n - red.rank
    for v in ker:
        img = mat_apply(M, densify(v, n, SETUP.zero()))
        assert all(not e.has_terms() for e in img)


def test_clearing_by_a_pivot_an_input_tail_swallowed_is_undetermined():
    # the pivot (0, 0) kept only its tail O(q^2), as an elimination leaves
    # it when an input tail swallows its visible terms: the kernel and the
    # clearing of a vector both divide by it, and both say undetermined
    one, tail = SETUP.one(), NovikovElem.build(SETUP, [], 2)
    red = Reduction(SETUP, [(0, 0)], 2, [{0: tail, 1: one}], [{0: one}], 8)
    swallowed = ("an input tail swallowed a pivot: it is only known to "
                 "vanish below exponent index 2")
    with pytest.raises(UndeterminedError, match=swallowed):
        red._kernel(2)
    with pytest.raises(UndeterminedError, match=swallowed):
        red._clear({0: one})


@pytest.mark.parametrize("seed", range(10))
def test_solve_consistent_system(seed):
    rng = random.Random(300 + seed)
    m, n = rng.randint(2, 5), rng.randint(1, 4)
    M = random_matrix(rng, m, n)
    x0 = [SETUP.monomial(rng.randint(-2, 2), rng.randint(0, 2))
          for _ in range(n)]
    b = mat_apply(M, x0)
    x, residual = solve(row_reduce(M, SETUP), b)
    assert residual is None
    back = mat_apply(M, densify(x, n, SETUP.zero()))
    assert all(not (u - v).has_terms() for u, v in zip(back, b))


def test_solve_reports_inconsistency():
    M = [[SETUP.one()], [SETUP.one()]]
    b = [SETUP.one(), SETUP.monomial(1, 1)]
    x, residual = solve(row_reduce(M, SETUP), b)
    assert x is None
    assert residual is not None


def test_solve_rejects_a_long_right_hand_side():
    with pytest.raises(InputError):
        solve(row_reduce([[SETUP.one()]], SETUP), [SETUP.one()] * 2)


def test_solve_rejects_a_short_right_hand_side():
    with pytest.raises(InputError):
        solve(row_reduce([{0: SETUP.one()}, {0: SETUP.one()}], SETUP),
              [SETUP.one()])


def test_valuation_pivoting_prefers_low_valuation():
    # [[q, 1], [1, q]]: the unit entries must be chosen as pivots
    q1 = SETUP.monomial(1, 1)
    M = [[q1, SETUP.one()], [SETUP.one(), q1]]
    red = row_reduce(M, SETUP)
    assert red.rank == 2
    assert all(M[r][c].valuation_index() == 0 for r, c in red.pivots)


def test_truncated_zero_suspect_raises():
    # a column whose only entry is zero *to truncation 2* cannot be
    # certified against a competing pivot of valuation 3
    weak = NovikovElem.build(SETUP, []).truncate(2)
    strong = SETUP.monomial(1, 3)
    M = [[strong, weak]]
    with pytest.raises(UndeterminedError):
        row_reduce(M, SETUP)


def test_a_suspect_sorts_before_an_equal_order_candidate():
    # O(q^2) next to q^2: at equal order the termless entry may hide a
    # pivot of the same valuation, so the choice is refused
    weak = NovikovElem.build(SETUP, []).truncate(2)
    with pytest.raises(UndeterminedError) as info:
        row_reduce([[weak, SETUP.monomial(1, 2)]], SETUP)
    assert str(info.value) == (
        "pivot comparison undecidable at declared q-order: entry (0,0) is "
        "only known to vanish below exponent index 2, candidate pivot "
        "valuation index is 2")


def test_a_suspect_past_the_candidate_does_not_block_it():
    # O(q^3) next to q^2: the candidate lies below the suspect's bound, and
    # the suspect certifies the rest to index 3 - 2 = 1 in the pivot row's
    # units
    weak = NovikovElem.build(SETUP, []).truncate(3)
    red = row_reduce([[weak, SETUP.monomial(1, 2)]], SETUP)
    assert red.pivots == [(0, 1)] and red.verified_trunc == 1


def test_exact_zero_column_is_fine():
    M = [[SETUP.monomial(1, 3), SETUP.zero()]]
    red = row_reduce(M, SETUP)
    assert red.rank == 1


def test_certified_rank_reports_verification_bound():
    weak = NovikovElem.build(SETUP, [(0, 1)]).truncate(4)
    M = [[weak]]
    red = row_reduce(M, SETUP)
    assert red.rank == 1 and red.verified_trunc == 4


def test_solve_decides_consistency_exactly_past_the_q_order():
    # [[1+q],[1+q]] x = [1, 1+q^5] is inconsistent: the q^5 lies past
    # q_order = 3, but no inverse is expanded before the decision
    p = NovikovElem.build(SETUP, [(0, 1), (1, 1)])
    M = [[p], [p]]
    b = [SETUP.one(), NovikovElem.build(SETUP, [(0, 1), (5, 1)])]
    red = row_reduce(M, SETUP, q_order=3)
    x, residual = solve(red, b)
    assert x is None
    r, value = residual
    assert value.trunc is None and value.has_terms()
    assert red.verified_trunc is None
    assert_transform_multiplies(red, M)
    assert all(e.is_zero() for e in mat_apply(
        [[red.scaled_transform[r].get(k, SETUP.zero()) for k in range(2)]],
        [row[0] for row in M]))


# -- an independent oracle on rank-deficient exact matrices -------------------


def _laurent(rng, max_terms=4):
    pairs = [(rng.randint(-2, 3), Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
             for _ in range(rng.randint(1, max_terms))]
    return NovikovElem.build(SETUP, pairs)


def _product(A, B):
    z = SETUP.zero()
    return [[sum((a * B[k][j] for k, a in enumerate(row)), z)
             for j in range(len(B[0]))] for row in A]


def _poly(e, shift):
    return sympy.expand(to_sympy([[e.q_shift(shift)]])[0, 0])


def _as_fraction_field(M):
    """M times a power of q (a unit: the rank is unchanged) over Q(q)."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    shift = -min([0] + [e.terms[0][0] for row in M for e in row if e.terms])
    shifted = sympy.Matrix(len(M), len(M[0]),
                           lambda i, j: _poly(M[i][j], shift))
    return DomainMatrix.from_Matrix(shifted).convert_to(QQ.frac_field(_q))


def _sympy_quotient(a, b):
    """a / b as a NovikovElem when b divides a over Q[q, 1/q], else None:
    polynomial division of a times q^sa by b times q^-val(b)."""
    vb, sa = b.terms[0][0], -min(0, a.terms[0][0])
    quo, rem = sympy.div(sympy.Poly(_poly(a, sa), _q),
                         sympy.Poly(_poly(b, -vb), _q))
    if not rem.is_zero:
        return None
    return NovikovElem.build(SETUP, [(m[0] - sa - vb,
                                      Fraction(int(c.p), int(c.q)))
                                     for m, c in quo.terms()])


@pytest.mark.parametrize("seed", range(16))
def test_rank_deficient_products_against_sympy(seed):
    rng = random.Random(400 + seed)
    m, n = rng.randint(2, 6), rng.randint(2, 6)
    inner = rng.randint(1, min(m, n) - 1)
    A = [[_laurent(rng) for _ in range(inner)] for _ in range(m)]
    B = [[_laurent(rng) for _ in range(n)] for _ in range(inner)]
    M = _product(A, B)
    red = row_reduce(M, SETUP)
    assert red.rank == _as_fraction_field(M).rank()
    assert red.rank <= inner
    assert red.verified_trunc is None
    # the undivided rows stay the size of minors, as in Bareiss'
    # elimination: a k x k minor spans at most k times the widest entry
    def span(e):
        return e.terms[-1][0] - e.terms[0][0] if e.terms else 0
    width = max(span(e) for row in M for e in row)
    assert all(span(e) <= red.rank * width
               for row in red.scaled + red.scaled_transform
               for e in row.values())
    # the kernel: exactly annihilated where exact, else to its tails only
    kernel = red._kernel(n)
    assert len(kernel) == n - red.rank
    for v in kernel:
        v = densify(v, n, SETUP.zero())
        img = mat_apply(M, v)
        if all(e.trunc is None for e in v):
            assert all(e.is_zero() for e in img)
        else:
            assert all(not e.has_terms() for e in img)
    # the left kernel: free transform rows are exact and annihilate M
    assert_transform_multiplies(red, M)
    pivot_rows = {r for r, _ in red.pivots}
    for r, row in enumerate(red.scaled_transform):
        if r not in pivot_rows:
            u = [row.get(k, SETUP.zero()) for k in range(m)]
            assert all(e.trunc is None for e in u)
            cols = [[M[k][c] for k in range(m)] for c in range(n)]
            assert all(e.is_zero() for e in mat_apply(cols, u))
    # an entry its pivot divides comes out as the exact quotient
    for r, c in red.pivots:
        p = red.scaled[r][c]
        for col, e in red.scaled[r].items():
            want = _sympy_quotient(e, p)
            got = red.reduced[r][col]
            if want is not None:
                assert got == want and got.trunc is None
            else:
                assert got.trunc is not None
