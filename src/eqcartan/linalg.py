"""Fraction-free Gaussian elimination over a Novikov field.

Inputs are sparse rows: each row is a dict {column: NovikovElem} (a dense
list row is read by position).  Elimination keeps every entry that is not
decidably zero, i.e. every entry with visible terms and every termless
entry that still carries an unknown q-tail (``trunc is not None``).  Only
exact zeros are left out, so no truncation bound is ever lost.  A column ->
rows index limits each elimination step to the rows that have an entry in
the pivot column, and only those rows are re-keyed for the next pivot
choice: one heap holds each free row's least key, an entry with terms at its
valuation or a termless suspect at its truncation bound, so the choice costs
no rescan of the free rows.

No step inverts a pivot.  With p the visible part of the pivot entry (an
exact Laurent polynomial) and f a row's entry in the pivot column, the row
becomes r - (f/p)*pivot row when p divides f exactly, else p*r - f*pivot
row: both are invertible row operations over the Novikov field.  On exact
input every entry stays an exact Laurent polynomial, so every rank and
zero-decision is exact.  Over Q an integral coefficient is an int, so on
integer input the kernel runs on ints: a Fraction enters only where a
coefficient other than +-1 is inverted.  Row r is then the row of an
elimination that divides by its pivots, times an exact polynomial
``mult[r]``; pivots are chosen with minimal q-valuation relative to that
multiplier (ties broken by row, then column position), which is the choice
that elimination would make.  The multipliers stay small as in Bareiss'
elimination: a row scaled by the pivot is divided by the gcd of its
multiplier and the pivot row's wherever that divides it exactly.  When
every row carries the same multiplier, this is Bareiss' division by the
previous pivot, which Sylvester's identity makes exact, so entries stay the
size of minors; a row whose multiplier shares no factor with the pivot
row's is left alone.

Any entry whose visible terms are exhausted but whose truncation bound lies
at or below the candidate pivot's relative valuation makes the pivot
choice undecidable, and we refuse to guess, unless the candidate lies at or
past the horizon of the q-order in force: val(p) + q_order for each
multi-term pivot so far and the truncation bound of each tailed one, the
relative valuation below which an elimination that divides by truncated
inverses at that q-order still sees every entry.  Past it the remaining
block is known to vanish only below the suspect's bound, and elimination
stops there, certified to that order.

Pivot rows are divided by their pivot entry once, at output: exactly where
the pivot divides an entry, otherwise through one truncated inverse of the
pivot (``invert_truncated`` at the q-order in force), whose tail the entry
then carries.  Free rows are only shifted by q^-val(mult[r]) and stay
exact.  The transform is kept undivided; ``solve`` applies it to the
right-hand side and divides each solution entry once, returning the
solution as a sparse {column: value}.

Entries that end up with no visible terms but a finite truncation bound are
treated as zero *to that order*; the minimal such bound, in the units of the
output rows, is reported in the reduction certificate so callers can say
"rank r, verified to q-order T" instead of overclaiming exactness.  Only
tailed input produces such entries.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from .novikov import (InputError, NovikovElem, ScalarSetup, _min_trunc,
                      invert_truncated)

__all__ = ["UndeterminedError", "Reduction", "row_reduce", "solve",
           "Q_ORDER"]

SparseRow = Dict[int, NovikovElem]
Row = Union[SparseRow, List[NovikovElem]]


# the q-order of a call that names none
Q_ORDER = 64


class UndeterminedError(Exception):
    """Raised when truncation is exhausted before a decision can be made."""


@dataclass
class Reduction:
    """Result of row reduction: scaled = scaled_transform @ original.

    ``reduced``, ``scaled`` and ``scaled_transform`` are sparse rows like
    the input ({column: entry}, exact zeros omitted); a column of
    ``scaled_transform`` is a row of the input.  ``pivots`` lists the (row,
    col) pairs in the order chosen, each the least (relative valuation,
    row, column) left in the free rows when it was taken; pivot entries in
    ``reduced`` are 1 (exactly 1 on exact input) and are the only visible
    entries in their columns, unless an input tail swallowed the pivot's
    visible terms (its row is then not divided).
    ``verified_trunc`` is None when every zero-decision was exact, else the
    minimal truncation index at which a discarded entry was only known to
    vanish.  ``scaled`` and ``scaled_transform`` hold the rows before the
    division at output: for a pivot (r, c), ``reduced[r]`` is ``scaled[r]``
    divided by the pivot entry ``scaled[r][c]`` (``_divide``); the other
    rows are the same.  On exact input every row of ``scaled`` and
    ``scaled_transform`` is exact.  Each pivot is inverted (to ``q_order``)
    at most once, and only where an entry needs it.
    """

    setup: ScalarSetup
    pivots: list
    verified_trunc: Optional[int]
    scaled: List[SparseRow]
    scaled_transform: List[SparseRow]
    q_order: int

    def __post_init__(self):
        self._divisors = {r: self.scaled[r][c] for r, c in self.pivots
                          if self.scaled[r][c].terms}
        self._inverses = {}
        self.reduced = list(self.scaled)
        for r in self._divisors:
            self.reduced[r] = {c: self._divide(r, e)
                               for c, e in self.scaled[r].items()}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _divide(self, r: int, e: NovikovElem) -> NovikovElem:
        """e divided by the pivot entry p of row r: the exact quotient
        where p divides e, else e times the inverse of p (exact when p is
        an exact monomial, else truncated)."""
        p = self._divisors.get(r)
        if p is None:
            return e
        if len(p.terms) > 1:
            quotient = _quotient(e, p)
            if quotient is not None:
                return quotient
        if r not in self._inverses:
            self._inverses[r] = invert_truncated(p, self.q_order)
        return e * self._inverses[r]

    def _kernel(self, n: int) -> List[SparseRow]:
        """A basis of the right kernel of an input with n columns, one
        sparse vector per free column fc: 1 at fc and minus the divided
        pivot rows' entries at fc, times an exact polynomial of valuation 0
        that clears the pivots it would divide by.  On exact input every
        entry is an exact Laurent polynomial."""
        pivot_of_col = {c: r for r, c in self.pivots}
        out = []
        for fc in range(n):
            if fc in pivot_of_col:
                continue
            v = {fc: self.setup.one()}
            for c, r in pivot_of_col.items():
                e = self.scaled[r].get(fc)
                if e is not None:
                    v, g = _cleared(v, e * v[fc], self.scaled[r][c])
                    v[c] = -g
            out.append(v)
        return out

    def _clear(self, w: SparseRow) -> SparseRow:
        """The sparse vector w with every pivot column cleared by the
        undivided pivot rows, so no truncated inverse enters; w may be
        multiplied by an exact polynomial of valuation 0 on the way."""
        for r, c in self.pivots:
            f = w.get(c)
            if f is not None and f.has_terms():
                row = self.scaled[r]
                w, g = _cleared(w, f, row[c])
                _axpy(w, g, row)
        return w

    def _reduce(self, w: SparseRow) -> SparseRow:
        """The sparse vector w less its part along the divided pivot rows,
        in place: no pivot column of the result has visible terms."""
        for r, c in self.pivots:
            f = w.get(c)
            if f is not None and f.has_terms():
                _axpy(w, f, self.reduced[r])
        return w


def _quotient(a: NovikovElem, b: NovikovElem) -> Optional[NovikovElem]:
    """a / b when both are exact and b divides a as Laurent polynomials,
    else None.  Long division from the lowest term: a quotient term past
    deg(a) - deg(b) means b does not divide a."""
    if a.trunc is not None or b.trunc is not None:
        return None
    setup, ring = a.setup, a.setup.ring
    (e, c), rest = b.terms[0], b.terms[1:]
    c_inv = ring.inv(c)
    if not rest:
        return NovikovElem(setup, tuple((n - e, ring.mul(x, c_inv))
                                        for n, x in a.terms))
    if not a.terms:
        return a
    top = a.terms[-1][0] - b.terms[-1][0]
    rem = dict(a.terms)
    out = []
    while rem:
        k = min(rem)
        if k - e > top:
            return None
        x = ring.mul(rem.pop(k), c_inv)
        out.append((k - e, x))
        for n, y in rest:
            i = k - e + n
            v = ring.add(rem.get(i, 0), ring.neg(ring.mul(x, y)))
            if v == 0:
                rem.pop(i, None)
            else:
                rem[i] = v
    return NovikovElem(setup, tuple(out))


def _cleared(w: SparseRow, f: NovikovElem, p: NovikovElem):
    """(w', g) for clearing an entry f of w against a row with exact pivot
    p: g = f/p and w' = w where p divides f, else w' is w times
    p*q^-val(p), an exact polynomial of valuation 0, and g = f*q^-val(p);
    either way g*p is f times the factor applied to w.  A pivot with no
    visible terms (an input tail swallowed them) raises UndeterminedError."""
    g = _quotient(f, p)
    if g is not None:
        return w, g
    if not p.terms:
        raise UndeterminedError(
            "an input tail swallowed a pivot: it is only known to vanish "
            f"below exponent index {p.trunc}, and no entry clears by it")
    s = -p.terms[0][0]
    p0 = p.q_shift(s)
    return {i: p0 * x for i, x in w.items()}, f.q_shift(s)


def _axpy(row: dict, f, prow: dict, col_rows=None, r: int = -1) -> None:
    """row -= f * prow in place, for sparse rows of NovikovElem or USeries
    entries: keeps decidably zero entries out of the row and, if given,
    row r's entries in the column -> rows index ``col_rows``."""
    for c, b in prow.items():
        a = row.get(c)
        new = -(f * b) if a is None else a - (f * b)
        if not new.is_zero():
            if col_rows is not None and c not in row:
                col_rows[c].add(r)
            row[c] = new
        elif c in row:
            del row[c]
            if col_rows is not None:
                col_rows[c].discard(r)


def _divided_exactly(rows: List[SparseRow], h: NovikovElem):
    """The rows with every entry divided by h, or None unless h divides
    every entry exactly."""
    out = []
    for row in rows:
        new = {}
        for c, e in row.items():
            x = _quotient(e, h)
            if x is None:
                return None
            new[c] = x
        out.append(new)
    return out


def _gcd(a: NovikovElem, b: NovikovElem) -> NovikovElem:
    """A gcd of two nonzero exact Laurent polynomials, up to a unit: the
    primitive pseudo-remainder sequence of their coefficient lists, which
    inverts no coefficient, dropping the powers of q (units) that the
    remainders pick up and, over Q, the content of each remainder, so that
    on integer input every coefficient stays an int."""
    ring = a.setup.ring

    def dense(x):
        e = x.terms[0][0]
        out = [0] * (x.terms[-1][0] - e + 1)
        for n, c in x.terms:
            out[n - e] = c
        return out

    u, v = dense(a), dense(b)
    while v:
        while len(u) >= len(v):
            f, off = u[-1], len(u) - len(v)
            u = [ring.mul(v[-1], c) for c in u]
            for i, c in enumerate(v):
                u[off + i] = ring.add(u[off + i], ring.neg(ring.mul(f, c)))
            u.pop()
            while u and u[-1] == 0:
                u.pop()
        while u and u[0] == 0:
            u.pop(0)
        if u and ring.kind == "Q":
            # gcd of the numerators over lcm of the denominators
            num = math.gcd(*(c.numerator for c in u))
            den = math.lcm(*(c.denominator for c in u))
            u = [c * den // num for c in u]
        u, v = v, u
    return NovikovElem(a.setup, tuple((i, c) for i, c in enumerate(u)
                                      if c != 0))


def _sparse(rows: Sequence[Row]) -> List[dict]:
    """The rows as {column: entry} dicts without their decidably zero
    entries, for NovikovElem or USeries entries; a dense list row is read
    by position."""
    return [{c: e for c, e in (row.items() if isinstance(row, dict)
                               else enumerate(row)) if not e.is_zero()}
            for row in rows]


def row_reduce(rows: Sequence[Row], setup: ScalarSetup,
               q_order: Optional[int] = None) -> Reduction:
    if q_order is None:
        q_order = Q_ORDER
    M = _sparse(rows)
    m = len(M)
    one = setup.one()
    U = [{r: one} for r in range(m)]
    col_rows = defaultdict(set)
    for r, row in enumerate(M):
        for c in row:
            col_rows[c].add(r)
    # row r of M (and of U) is mult[r] times row r of the Gauss-Jordan
    # elimination that never scales a row, with its pivot rows divided by
    # their pivots
    mult = [one] * m
    # the relative valuation below which an elimination that divides by
    # truncated inverses at this q-order still sees every entry
    horizon = math.inf
    pivot_cols = set()
    pivots = []
    # per free row, relative to its multiplier and outside the pivot
    # columns, the least (order, kind, row, col): kind 1 is an entry with
    # terms at its valuation index, kind 0 a termless suspect at its trunc,
    # so at equal order the suspect sorts first; a heap entry that is no
    # longer its row's is stale and skipped
    keys, heap = {}, []

    def row_keys(r):
        s = mult[r].terms[0][0]
        return [(e.terms[0][0] - s, 1, r, c) if e.terms else
                (e.trunc - s, 0, r, c)
                for c, e in M[r].items() if c not in pivot_cols]

    def rekey(r):
        keys[r] = min(row_keys(r), default=None)
        if keys[r] is not None:
            heapq.heappush(heap, keys[r])

    for r in range(m):
        rekey(r)
    while True:
        while heap and keys.get(heap[0][2]) != heap[0]:
            heapq.heappop(heap)
        if not heap:
            break
        val, kind, pr, pc = heap[0]
        if not kind:
            # a suspect sorts first, so it lies at or below the least entry
            # with terms, if any: this step ends the elimination
            best = min((k[0] for r in keys for k in row_keys(r) if k[1]),
                       default=math.inf)
            if best >= horizon:
                # the remaining block vanishes below the suspect's order
                # and the candidate is past what this q-order resolves (or
                # there is none): certify to that order
                break
            raise UndeterminedError(
                f"pivot comparison undecidable at declared q-order: entry "
                f"({pr},{pc}) is only known to vanish below exponent index "
                f"{val}, candidate pivot valuation index is {best}"
            )
        # the visible part of the pivot: multiplying by an exact polynomial
        # is an invertible row operation that loses no precision
        p = M[pr][pc]
        if p.trunc is not None:
            horizon = min(horizon, p.trunc - mult[pr].terms[0][0])
            p = NovikovElem(setup, p.terms)
        if len(p.terms) > 1:
            horizon = min(horizon, val + q_order)
        touched = [r for r in col_rows[pc] if r != pr]
        for r in touched:
            f = M[r][pc]
            if not f.terms:
                continue
            # r -= (f/p) * pr when p divides f, else r <- p * r - f * pr;
            # a nonzero exact polynomial times an entry that is not
            # decidably zero is not decidably zero: scaling keeps the
            # sparsity pattern
            g = _quotient(f, p)
            if g is not None:
                _axpy(M[r], g, M[pr], col_rows, r)
                _axpy(U[r], g, U[pr])
                continue
            M[r] = {c: p * e for c, e in M[r].items()}
            U[r] = {c: p * e for c, e in U[r].items()}
            _axpy(M[r], f, M[pr], col_rows, r)
            _axpy(U[r], f, U[pr])
            # the row is now p * mult[r] times the unscaled row; when every
            # row carries the same multiplier, Bareiss' division by it (the
            # previous pivot) is exact by Sylvester's identity; in general,
            # divide by the gcd of the two multipliers where it divides the
            # row exactly
            h = (_gcd(mult[pr], mult[r])
                 if len(mult[pr].terms) > 1 and len(mult[r].terms) > 1
                 else None)
            divided = (_divided_exactly([M[r], U[r]], h)
                       if h is not None and len(h.terms) > 1 else None)
            if divided is None:
                mult[r] = p * mult[r]
            else:
                M[r], U[r] = divided
                mult[r] = _quotient(p * mult[r], h)
        mult[pr] = p
        pivots.append((pr, pc))
        pivot_cols.add(pc)
        del keys[pr]
        # only the rows with an entry in the pivot column changed: scaled,
        # updated, or left with a termless entry that is no longer a suspect
        for r in touched:
            if r in keys:
                rekey(r)

    # the certificate, in the units of the output rows: pivot row r is
    # divided by its pivot entry and any other row by q^val(mult[r])
    pivot_col = {r: c for r, c in pivots if M[r][c].terms}
    verified: Optional[int] = None
    for r, row in enumerate(M):
        s = (M[r][pivot_col[r]] if r in pivot_col else mult[r]).terms[0][0]
        for e in row.values():
            if e.trunc is not None:
                verified = _min_trunc(verified, e.trunc - s)
        if r not in pivot_col and s:
            M[r] = {c: e.q_shift(-s) for c, e in row.items()}
            U[r] = {c: e.q_shift(-s) for c, e in U[r].items()}
    return Reduction(setup, pivots, verified, M, U, q_order)


def solve(red: Reduction, rhs: List[NovikovElem]):
    """One solution of A @ x = rhs for the matrix A that ``red`` reduced,
    or (None, residual_row) if inconsistent.

    ``rhs`` holds one entry per row of A.  Returns (x, None) on success,
    with x sparse ({column: value}): the pivot columns' entries, every
    other column 0.  The system is inconsistent when a row of
    ``scaled_transform`` outside the pivot rows sends rhs to a value with
    visible terms; residual_row is (that row, the value).  Those rows are
    exact polynomials on exact input, so consistency is then decided
    exactly, whatever the q-order; only the solution's entries may be
    truncated series, divided by their pivots at the reduction's q-order.
    Raises InputError if rhs does not hold one entry per row.
    """
    if len(rhs) != (m := len(red.scaled)):
        raise InputError(
            f"right-hand side has {len(rhs)} entries for {m} rows")
    zero = red.setup.zero()
    nonzero = {c: v for c, v in enumerate(rhs) if not v.is_zero()}

    def b(r):  # row r of scaled_transform @ rhs; no stored entry is zero
        pairs = [(u, nonzero[c]) for c, u in red.scaled_transform[r].items()
                 if c in nonzero]
        return NovikovElem.sum_of_products(pairs) if pairs else zero

    pivot_rows = {r for r, _ in red.pivots}
    for r in range(m):
        if r in pivot_rows:
            continue
        br = b(r)
        if br.has_terms():
            return None, (r, br)
    return {c: red._divide(r, b(r)) for r, c in red.pivots}, None
