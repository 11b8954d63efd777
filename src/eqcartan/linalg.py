"""Gaussian elimination over a Novikov field with valuation pivoting.

Inputs are dense lists of rows of NovikovElem.  Elimination works on sparse
rows: each row is a dict {column: NovikovElem} that stores every entry that
is not decidably zero, i.e. every entry with visible terms and every
termless entry that still carries an unknown q-tail (``trunc is not None``).
Only exact zeros are left out, so no truncation bound is ever lost.  A
column -> rows index limits each elimination step to the rows that have an
entry in the pivot column.

Pivots are chosen with minimal q-valuation (ties broken by row, then column
position), which keeps truncated inverses as benign as possible: any entry
whose visible terms are exhausted but whose truncation bound lies at or below
the candidate pivot's valuation makes the pivot choice undecidable, and we
refuse to guess.

Entries that end up with no visible terms but a finite truncation bound are
treated as zero *to that order*; the minimal such bound is reported in the
reduction certificate so callers can say "rank r, verified to q-order T"
instead of overclaiming exactness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from .novikov import InputError, NovikovElem, ScalarSetup, invert_truncated

__all__ = ["UndeterminedError", "Reduction", "row_reduce", "rank", "kernel_basis",
           "solve", "matrix_rank_certified", "DEFAULT_Q_ORDER"]

SparseRow = Dict[int, NovikovElem]


def _order_setting(value: Optional[str], name: str) -> Optional[int]:
    """A truncation order from a command-line flag or the environment.

    A positive integer (surrounding blanks allowed) is that order; None or
    the empty string means unset (None); anything else, a sign included,
    raises InputError.
    """
    if value is None or value == "":
        return None
    text = value.strip()
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return int(text)


def DEFAULT_Q_ORDER() -> int:
    q_order = _order_setting(os.environ.get("EQCARTAN_Q_ORDER"),
                            "EQCARTAN_Q_ORDER")
    return 64 if q_order is None else q_order


class UndeterminedError(Exception):
    """Raised when truncation is exhausted before a decision can be made."""


def _min_trunc(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _stored(e: NovikovElem) -> bool:
    """Not decidably zero: visible terms or an unknown tail."""
    return bool(e.terms) or e.trunc is not None


@dataclass
class Reduction:
    """Result of row reduction: reduced = transform @ original.

    ``reduced`` and ``transform`` are sparse rows ({column: entry}, exact
    zeros omitted).  ``pivots`` is a list of (row, col) pairs; pivot
    entries in ``reduced`` are exactly 1 and are the only visible entries in
    their columns.
    ``verified_trunc`` is None when every zero-decision was exact, else the
    minimal truncation index at which a discarded entry was only known to
    vanish.
    """

    setup: ScalarSetup
    reduced: List[SparseRow]
    transform: List[SparseRow]
    pivots: list
    verified_trunc: Optional[int]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _axpy(row: SparseRow, f: NovikovElem, prow: SparseRow, zero: NovikovElem,
          col_rows=None, r: int = -1) -> None:
    """row -= f * prow in place, keeping exact zeros out of the row and, if
    given, row r's entries in the column -> rows index ``col_rows``."""
    for c, b in prow.items():
        new = row.get(c, zero) - (f * b)
        if _stored(new):
            if col_rows is not None and c not in row:
                col_rows[c].add(r)
            row[c] = new
        elif c in row:
            del row[c]
            if col_rows is not None:
                col_rows[c].discard(r)


def row_reduce(matrix: List[List[NovikovElem]], setup: ScalarSetup,
               q_order: Optional[int] = None) -> Reduction:
    if q_order is None:
        q_order = DEFAULT_Q_ORDER()
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    M = [{c: e for c, e in enumerate(row) if _stored(e)} for row in matrix]
    one, zero = setup.one(), setup.zero()
    U = [{r: one} for r in range(m)]
    col_rows = [set() for _ in range(n)]
    for r, row in enumerate(M):
        for c in row:
            col_rows[c].add(r)
    free_rows = set(range(m))
    pivot_cols = set()
    pivots = []
    verified: Optional[int] = None

    while True:
        best = None  # (valuation_index, row, col)
        suspects = []  # (trunc, row, col) for termless truncated entries
        for r in free_rows:
            for c, e in M[r].items():
                if c in pivot_cols:
                    continue
                if e.terms:
                    key = (e.terms[0][0], r, c)
                    if best is None or key < best:
                        best = key
                else:
                    suspects.append((e.trunc, r, c))
        if best is None:
            if suspects:
                verified = _min_trunc(verified, min(t for t, _, _ in suspects))
            break
        val, pr, pc = best
        bad = [(t, r, c) for t, r, c in suspects if t <= val]
        if bad:
            t, r, c = min(bad)
            raise UndeterminedError(
                f"pivot comparison undecidable at declared q-order: entry "
                f"({r},{c}) is only known to vanish below exponent index {t}, "
                f"candidate pivot valuation index is {val}"
            )
        inv = invert_truncated(M[pr][pc], q_order)
        M[pr] = {c: e * inv for c, e in M[pr].items()}
        U[pr] = {c: e * inv for c, e in U[pr].items()}
        for r in list(col_rows[pc]):
            if r == pr:
                continue
            f = M[r][pc]
            if not f.terms:
                continue
            _axpy(M[r], f, M[pr], zero, col_rows, r)
            _axpy(U[r], f, U[pr], zero)
        pivots.append((pr, pc))
        free_rows.discard(pr)
        pivot_cols.add(pc)

    for row in M:
        for e in row.values():
            verified = _min_trunc(verified, e.trunc)
    return Reduction(setup, M, U, pivots, verified)


def rank(matrix, setup, q_order=None) -> int:
    return row_reduce(matrix, setup, q_order).rank


def matrix_rank_certified(matrix, setup, q_order=None):
    red = row_reduce(matrix, setup, q_order)
    return red.rank, red.verified_trunc


def kernel_basis(matrix, setup, q_order=None, reduction: Optional[Reduction] = None):
    """Basis of the right kernel, one vector per free column."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if n == 0:
        return []
    red = reduction or row_reduce(matrix, setup, q_order)
    pivot_of_col = {c: r for r, c in red.pivots}
    free = [c for c in range(n) if c not in pivot_of_col]
    zero, one = setup.zero(), setup.one()
    out = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for c, r in pivot_of_col.items():
            v[c] = -red.reduced[r].get(fc, zero)
        out.append(v)
    return out


def solve(matrix, rhs, setup, q_order=None, reduction: Optional[Reduction] = None):
    """One solution of matrix @ x = rhs, or (None, residual_row) if inconsistent.

    Returns (x, None) on success.  Raises UndeterminedError if consistency
    cannot be decided at the truncation in force.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    red = reduction or row_reduce(matrix, setup, q_order)
    zero = setup.zero()

    def b(r):  # row r of transform @ rhs
        acc = zero
        for c, u in red.transform[r].items():
            if u.terms:
                acc = acc + (u * rhs[c])
        return acc

    pivot_rows = {r for r, _ in red.pivots}
    for r in range(m):
        if r in pivot_rows:
            continue
        br = b(r)
        if br.has_terms():
            return None, (r, br)
    x = [zero] * n
    for r, c in red.pivots:
        x[c] = b(r)
    return x, None
