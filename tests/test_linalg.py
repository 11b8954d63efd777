import random
from fractions import Fraction

import pytest
import sympy

from eqcartan.linalg import (
    UndeterminedError,
    kernel_basis,
    matrix_rank_certified,
    rank,
    row_reduce,
    solve,
)
from eqcartan.novikov import NovikovElem, ScalarSetup

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
    assert rank(M, SETUP) == to_sympy(M).rank()


@pytest.mark.parametrize("seed", range(8))
def test_reduction_certificate(seed):
    rng = random.Random(100 + seed)
    M = random_matrix(rng, 4, 4)
    red = row_reduce(M, SETUP)
    # reduced = transform @ original, rechecked entry by entry
    z = SETUP.zero()
    for t in range(4):
        for s in range(4):
            acc = z
            for k, u in red.transform[t].items():
                acc = acc + u * M[k][s]
            diff = acc - red.reduced[t].get(s, z)
            assert not diff.has_terms()


@pytest.mark.parametrize("seed", range(10))
def test_kernel_vectors_annihilate(seed):
    rng = random.Random(200 + seed)
    m, n = rng.randint(1, 5), rng.randint(2, 5)
    M = random_matrix(rng, m, n)
    ker = kernel_basis(M, SETUP)
    assert len(ker) == n - rank(M, SETUP)
    for v in ker:
        img = mat_apply(M, v)
        assert all(not e.has_terms() for e in img)


@pytest.mark.parametrize("seed", range(10))
def test_solve_consistent_system(seed):
    rng = random.Random(300 + seed)
    m, n = rng.randint(2, 5), rng.randint(1, 4)
    M = random_matrix(rng, m, n)
    x0 = [SETUP.monomial(rng.randint(-2, 2), rng.randint(0, 2))
          for _ in range(n)]
    b = mat_apply(M, x0)
    x, residual = solve(M, b, SETUP)
    assert residual is None
    back = mat_apply(M, x)
    assert all(not (u - v).has_terms() for u, v in zip(back, b))


def test_solve_reports_inconsistency():
    M = [[SETUP.one()], [SETUP.one()]]
    b = [SETUP.one(), SETUP.monomial(1, 1)]
    x, residual = solve(M, b, SETUP)
    assert x is None
    assert residual is not None


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


def test_exact_zero_column_is_fine():
    M = [[SETUP.monomial(1, 3), SETUP.zero()]]
    red = row_reduce(M, SETUP)
    assert red.rank == 1


def test_certified_rank_reports_verification_bound():
    weak = NovikovElem.build(SETUP, [(0, 1)]).truncate(4)
    M = [[weak]]
    r, verified = matrix_rank_certified(M, SETUP)
    assert r == 1
