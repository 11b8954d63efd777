"""Dense reference implementations kept as test oracles.

These are the dense-matrix versions of ``linalg.row_reduce``/``solve``, of
the kernel (``Reduction._kernel``) and of ``cartan.solve_iota``/
``identity_report`` that the sparse implementations replaced (``solve_iota``
with the contracting homotopy of ``contract``, from its own dense
elimination of d_0, where ``cartan._contract`` has one); this
``identity_report`` checks the Euler relation and the Leibniz rules on
every sample vector, where ``cartan.identity_report`` leaves out the
columns on which they cancel exactly.  They store every entry of every
matrix, zeros included, and visit all of them, so they are slow but
simple.  The tests in ``test_dense_oracles.py`` assert that the sparse
code returns the same values, certificates and error messages.

``invert_truncated`` is the geometric-series inverse that the coefficient
recurrence in ``novikov.invert_truncated`` replaced; the dense elimination
here pivots with it, and ``test_novikov.py`` compares the two inverses.

``dvr_diagonalize`` is the dense Smith-style diagonalization over
Lambda[[u]] that ``complexes.dvr_diagonalize``'s row-only sparse pass
replaced: it clears each pivot's row by column operations too;
``test_dense_oracles.py`` asserts that the two find the same pivot
valuations and that the sparse pass certifies no less.

``elem_add`` ... ``useries_q_shift`` are the general NovikovElem and USeries
formulas without the short-circuits for decidably zero operands;
``test_zero_fast_paths.py`` asserts that the operators return the same
values, tails and valid orders.

``star`` is the bilinear extension of a quantum product table to dense
vectors, the formula ``QuantumRing.multiplication`` replaced;
``test_quantum.py`` asserts that the two agree field for field.
``d_q_connection``, ``d_u_connection`` and ``deg_q_operator`` are the
quantum connections written with that product (``star_useries``), and ``z2_verify_relations``/``z2_assemble_and_check`` the finite2 checks on
dense matrices; ``test_operator_algebra_oracles.py`` asserts that the Cartan
operators of ``QuantumRing.cartan_data`` and the ``OperatorMatrix`` versions
of the finite2 checks return the same values and reports.
``uq_identity_check`` runs those three connections on every sample vector;
``test_quantum.py`` asserts that ``quantum.uq_identity_check``, whose
sample block holds only the columns where q*omega has a tail, gives the
same report.

``unit_bracket`` is the bracket [op, d_eq] of the vector operators
``gamma_q``, ``degree_weighted`` and ``gamma_u`` here, in the form
op(d_eq) - d_eq op(1); ``test_dense_oracles.py`` asserts that the
split-form brackets of ``cartan.identity_report`` equal it field for field.

``flatten`` builds the flattened complex of ``cartan.flatten_equivariant``
from the components with its own index formula; ``test_cartan.py``
asserts that the two agree.  ``induced_connection`` reads the classes off
it, applies the ``gamma_q``/``gamma_u`` above to each class vector,
solves the image against the dense matrix [representatives | every
boundary] and probes well-definedness with one added boundary;
``quasi_iso_verdict`` pushes the representatives with a dense product and
ranks them together with the target's boundaries.  Neither calls the
Cartan operators or the operator products they are compared with.
``test_cohomology_projection.py`` asserts that the versions reading the
cohomology projection give the same classes, matrices and verdicts.

``project`` is the projection p of a ``CohomologyReport`` on one dense
vector, with ``reduce_dense`` the dense form of ``Reduction._reduce``: the
per-vector form that ``CohomologyReport.project`` on a block of columns
replaced.  ``test_cohomology_projection.py`` asserts that the block
projection returns, column by column, the same coefficients, tails and
residues.

``format_novikov`` and ``format_useries`` are the printers as they were
before the exponent text moved into a per-lattice table: each term
recomputes its exponent, its q-power text and its sign, and the unknown
tail, ``O(q^T)`` or ``O(u^v)``, is appended last.
``test_novikov.py`` asserts that the printers return the same bytes.

Products skip only decidably zero operands (``is_zero()``), as
``OperatorMatrix.compose`` does, so a termless ``O(q^T)`` entry carries its
tail into a product.
"""

from __future__ import annotations

import math
from fractions import Fraction

from conftest import densify
from eqcartan.linalg import Q_ORDER, UndeterminedError
from eqcartan.novikov import (CoefficientError, InversionError, NovikovElem, USeries, dq,
                              useries_du, useries_invert_unit, useries_udq)


INF = math.inf


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def invert_truncated(a: NovikovElem, q_order: int) -> NovikovElem:
    """Truncated inverse over a Novikov field.

    Returns b with a*b = 1 up to terms of exponent index >= q_order counted
    from the constant (the result's trunc is -lead + q_order, i.e. q_order
    lattice steps of correct data past the leading term of b).  Monomials
    invert exactly.
    """
    if not a.setup.ring.is_field:
        raise CoefficientError("inverse requires field coefficients")
    if not a.terms:
        raise InversionError("division by zero")
    setup = a.setup
    ring = setup.ring
    e, c = a.leading()
    lead_inv = NovikovElem(setup, ((-e, ring.inv(c)),))
    if len(a.terms) == 1:
        # exact monomial inverse, but respect any unknown tail of the input
        if a.trunc is None:
            return lead_inv
        return lead_inv.truncate(a.trunc - 2 * e)
    bound = q_order
    if a.trunc is not None:
        bound = min(bound, a.trunc - e)
    # a = c q^e (1 - s) with s of positive valuation gap; geometric series.
    s = (setup.one() - (lead_inv * a)).truncate(bound)
    acc = setup.one().truncate(bound)
    term = s
    while term.has_terms():
        acc = acc + term
        term = (term * s).truncate(bound)
    out = lead_inv * acc
    return out.truncate(-e + bound)


# -- the general scalar formulas ----------------------------------------------


def elem_add(a, b):
    return NovikovElem.build(a.setup, a.terms + b.terms,
                             _min_trunc(a.trunc, b.trunc))


def elem_mul(a, b):
    ring = a.setup.ring
    ta = INF if a.trunc is None else a.trunc
    tb = INF if b.trunc is None else b.trunc
    va = a.terms[0][0] if a.terms else ta
    vb = b.terms[0][0] if b.terms else tb
    t = min(va + tb, vb + ta)
    pairs = [(na + nb, ring.mul(ca, cb))
             for na, ca in a.terms for nb, cb in b.terms]
    return NovikovElem.build(a.setup, pairs, None if t == INF else int(t))


def useries_add(a, b):
    return USeries.build(a.setup, a.order,
                         [elem_add(x, y) for x, y in zip(a.coeffs, b.coeffs)],
                         min(a.valid, b.valid))


def useries_neg(a):
    return USeries.build(a.setup, a.order, [-c for c in a.coeffs], a.valid)


def useries_sub(a, b):
    return useries_add(a, useries_neg(b))


def useries_mul(a, b):
    N = a.order

    def lead(x):  # the first coefficient not decidably zero, else valid
        for k in range(x.valid):
            if not x.coeffs[k].is_zero():
                return k
        return x.valid

    v = min(N, lead(a) + b.valid, lead(b) + a.valid)
    out = [a.setup.zero()] * N
    for i, x in enumerate(a.coeffs[: a.valid]):
        for j, y in enumerate(b.coeffs[: b.valid]):
            if i + j < N and not x.is_zero():
                out[i + j] = elem_add(out[i + j], elem_mul(x, y))
    return USeries.build(a.setup, N, out, v)


def useries_scale(a, c):
    return USeries.build(a.setup, a.order, [elem_mul(x, c) for x in a.coeffs],
                         a.valid)


def useries_q_shift(a, steps):
    return USeries.build(a.setup, a.order,
                         [c.q_shift(steps) for c in a.coeffs], a.valid)


# -- elimination --------------------------------------------------------------


def row_reduce(matrix, setup, q_order=None):
    """(reduced, transform, pivots, verified_trunc) with dense rows."""
    if q_order is None:
        q_order = Q_ORDER
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    M = [list(row) for row in matrix]
    one, zero = setup.one(), setup.zero()
    U = [[one if i == j else zero for j in range(m)] for i in range(m)]
    free_rows = set(range(m))
    free_cols = set(range(n))
    pivots = []
    verified = None

    while True:
        best = None
        suspects = []
        for r in sorted(free_rows):
            for c in sorted(free_cols):
                e = M[r][c]
                if e.has_terms():
                    key = (e.valuation_index(), r, c)
                    if best is None or key < best:
                        best = key
                elif e.trunc is not None:
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
        M[pr] = [e * inv for e in M[pr]]
        U[pr] = [e * inv for e in U[pr]]
        for r in range(m):
            if r == pr:
                continue
            f = M[r][pc]
            if not f.has_terms():
                continue
            M[r] = [a - (f * b) for a, b in zip(M[r], M[pr])]
            U[r] = [a - (f * b) for a, b in zip(U[r], U[pr])]
        pivots.append((pr, pc))
        free_rows.discard(pr)
        free_cols.discard(pc)

    for row in M:
        for e in row:
            verified = _min_trunc(verified, e.trunc)
    return M, U, pivots, verified


def kernel_basis(matrix, setup, q_order=None):
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if n == 0:
        return []
    M, _, pivots, _ = row_reduce(matrix, setup, q_order)
    pivot_of_col = {c: r for r, c in pivots}
    zero, one = setup.zero(), setup.one()
    out = []
    for fc in [c for c in range(n) if c not in pivot_of_col]:
        v = [zero] * n
        v[fc] = one
        for c, r in pivot_of_col.items():
            v[c] = -M[r][fc]
        out.append(v)
    return out


def solve(matrix, rhs, setup, q_order=None, reduction=None):
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    _, U, pivots, _ = reduction or row_reduce(matrix, setup, q_order)
    b = []
    for r in range(m):
        acc = setup.zero()
        for c in range(m):
            u = U[r][c]
            if not u.is_zero():
                acc = acc + (u * rhs[c])
        b.append(acc)
    pivot_rows = {r for r, _ in pivots}
    for r in range(m):
        if r not in pivot_rows and b[r].has_terms():
            return None, (r, b[r])
    x = [setup.zero()] * n
    for r, c in pivots:
        x[c] = b[r]
    return x, None


def dvr_diagonalize(rows, setup, analysis_order, q_order=None):
    """(pivots, verified_trunc) as ``complexes.dvr_diagonalize``, on a dense
    matrix: after each pivot's row operations, column operations clear the
    pivot row, and every step scans the whole remaining block."""
    if q_order is None:
        q_order = Q_ORDER
    if not setup.ring.is_field:
        raise CoefficientError("DVR decomposition requires field coefficients")
    m = len(rows)
    n = len(rows[0]) if m else 0
    M = [list(r) for r in rows]
    free_rows = set(range(m))
    free_cols = set(range(n))
    pivots = []
    verified = None

    def shift_down(e, v):
        # the dropped coefficients' q-tails bound the certificate
        nonlocal verified
        for c in e.coeffs[:min(v, e.valid)]:
            verified = _min_trunc(verified, c.trunc)
        return e.shift_down(v)

    def entry_key(e):
        v = e.u_valuation()
        if v is None:
            return None
        c = e.coeffs[v]
        return (v, c.valuation_index())

    while True:
        best = None
        for r in sorted(free_rows):
            for c in sorted(free_cols):
                key = entry_key(M[r][c])
                if key is None:
                    continue
                cand = (key[0], key[1], r, c)
                if best is None or cand < best:
                    best = cand
        if best is None:
            # remaining entries are visibly zero; check precision
            for r in free_rows:
                for c in free_cols:
                    e = M[r][c]
                    if e.valid < min(analysis_order, e.order):
                        raise UndeterminedError(
                            "precision exhausted before the remaining block "
                            f"could be certified zero (entry {r},{c} valid "
                            f"to u-order {e.valid})"
                        )
                    t = e.q_certificate()
                    if t is not None:
                        verified = t if verified is None else min(verified, t)
            break
        v, _, pr, pc = best
        if v >= analysis_order:
            raise UndeterminedError(f"pivot {pr},{pc} has u-valuation {v} "
                                    f">= the analysis order {analysis_order}")
        pivot = M[pr][pc]
        punit = shift_down(pivot, v)
        pinv = useries_invert_unit(punit, q_order)
        # clear the pivot column with row operations
        for r in list(free_rows):
            if r == pr:
                continue
            e = M[r][pc]
            if not e:
                continue
            f = shift_down(e, v) * pinv
            M[r] = [a - (f * b) for a, b in zip(M[r], M[pr])]
        # clear the pivot row with column operations
        for c in list(free_cols):
            if c == pc:
                continue
            e = M[pr][c]
            if not e:
                continue
            g = shift_down(e, v) * pinv
            for r in range(m):
                M[r][c] = M[r][c] - (g * M[r][pc])
        pivots.append((pr, pc, v))
        free_rows.discard(pr)
        free_cols.discard(pc)
    return pivots, verified


# -- dense Novikov and USeries matrices ---------------------------------------


def dense(op, n, zero):
    return [[op.entries.get((t, s), zero) for s in range(n)] for t in range(n)]


def _assemble(dense_components, setup, order):
    if not dense_components:
        return []
    n = len(dense_components[0])
    out = [[None] * n for _ in range(n)]
    for t in range(n):
        for s in range(n):
            coeffs = [setup.zero()] * order
            for k, comp in enumerate(dense_components):
                if k < order:
                    coeffs[k] = coeffs[k] + comp[t][s]
            out[t][s] = USeries.build(setup, order, coeffs)
    return out


def _dmul(A, B, setup, order):
    n = len(A)
    z = USeries.zero(setup, order)
    out = [[z] * n for _ in range(n)]
    for t in range(n):
        for m in range(n):
            a = A[t][m]
            if a.is_zero():
                continue
            for s in range(n):
                if not B[m][s].is_zero():
                    out[t][s] = out[t][s] + (a * B[m][s])
    return out


def _dsub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _dadd(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _commutator(A, B, setup, order):
    return _dsub(_dmul(A, B, setup, order), _dmul(B, A, setup, order))


def _dmap(A, fn):
    return [[fn(e) for e in row] for row in A]


def _smul(A, B, setup):
    """The dense product A B of Novikov matrices."""
    z = setup.zero()
    out = [[z] * len(B[0]) for _ in A]
    for t, row in enumerate(A):
        for m, a in enumerate(row):
            if not a.is_zero():
                for s, b in enumerate(B[m]):
                    if not b.is_zero():
                        out[t][s] = out[t][s] + a * b
    return out


def _scalar_commutator(A, B, setup):
    return _dsub(_smul(A, B, setup), _smul(B, A, setup))


def _dense_components(diff):
    z = diff.setup.zero()
    return [dense(op, diff.n, z) for op in diff.components]


def lambda_dense(diff, regime):
    step = diff.setup.lattice.steps_per_unit
    if regime == "monotone":
        return [_dmap(m, lambda e: dq(e).q_shift(step))
                for m in _dense_components(diff)]
    return [_dmap(m, dq) for m in _dense_components(diff)]


def d_eq_dense(diff):
    return _assemble(_dense_components(diff), diff.setup, diff.order)


def iota_useries(data):
    z = data.setup.zero()
    n = data.diff.n
    comps = [dense(op, n, z) for op in data.iota] or [[[z] * n for _ in range(n)]]
    return _assemble(comps, data.setup, data.order)


def iota_mono_useries(data):
    M = iota_useries(data)
    if data.regime == "monotone":
        return M
    step = data.setup.lattice.steps_per_unit
    return [[useries_q_shift(e, step) for e in row] for row in M]


def _apply_dense(M, vec, zero):
    """The dense matrix-vector product M vec, over either scalar type."""
    out = []
    for row in M:
        acc = zero
        for a, v in zip(row, vec):
            if not (a.is_zero() or v.is_zero()):
                acc = acc + (a * v)
        out.append(acc)
    return out


# -- solve_iota ---------------------------------------------------------------


def contract(diff, q_order=None):
    """A contracting homotopy h of d_0 as dense rows, or None: under the
    guards of ``cartan._contract`` but d_eq^2 = 0 (a field; every d_k
    exact, of degree 1 - 2k; at least n/2 entries in d_0; rank n/2; h
    exact), from the dense elimination above.  h = G - G G d_0, with row c
    of G the divided transform row of the pivot (r, c)."""
    setup, n, grading, basis = diff.setup, diff.n, diff.grading, diff.basis
    d = _dense_components(diff)
    if not setup.ring.is_field or 2 * sum(
            not e.is_zero() for row in d[0] for e in row) < n or any(
            not e.is_zero() and (e.trunc is not None or grading.displayed(
                basis[t].index) != grading.displayed(
                    basis[s].index + 1 - 2 * k))
            for k, M in enumerate(d) for t, row in enumerate(M)
            for s, e in enumerate(row)):
        return None
    _, U, pivots, _ = row_reduce(d[0], setup, q_order)
    if 2 * len(pivots) != n:
        return None
    G = [[setup.zero()] * n for _ in range(n)]
    for r, c in pivots:
        G[c] = U[r]
    if any(e.trunc is not None for row in G for e in row):
        return None
    return _dsub(G, _smul(G, _smul(G, d[0], setup), setup))


def solve_iota(diff, regime="monotone", q_order=None):
    """(list of dense iota components, obstruction): iota_k = h R_k for the
    homotopy h of ``contract`` where it exists and every order checks (all
    do where d_eq^2 = 0), else each order solved against the dense
    n^2 x n^2 system."""
    setup = diff.setup
    n = diff.n
    N = diff.order
    lam = lambda_dense(diff, regime)
    d = _dense_components(diff)
    z = setup.zero()
    zero_mat = [[z] * n for _ in range(n)]
    d0 = d[0]

    def residual(iotas, k):
        rhs = [row[:] for row in (lam[k - 1] if 1 <= k <= diff.K + 1
                                  else zero_mat)]
        for j in range(k):
            i = k - j
            if i <= diff.K:
                rhs = _dsub(rhs, _scalar_commutator(d[i], iotas[j], setup))
        return rhs

    h = contract(diff, q_order)
    if h is not None:
        iotas = []
        for k in range(N):
            rhs = residual(iotas, k)
            iotas.append(_smul(h, rhs, setup))
            if any(not e.is_zero() for row in _dsub(_scalar_commutator(
                    d0, iotas[k], setup), rhs) for e in row):
                break
        else:
            return iotas, None

    com = [[z] * (n * n) for _ in range(n * n)]
    for a in range(n):
        for b in range(n):
            row = com[a * n + b]
            for c in range(n):
                row[c * n + b] = row[c * n + b] + d0[a][c]
            for e in range(n):
                row[a * n + e] = row[a * n + e] - d0[e][b]
    red = row_reduce(com, setup, q_order)
    iotas = []
    for k in range(N):
        rhs = residual(iotas, k)
        vec = [rhs[t][s] for t in range(n) for s in range(n)]
        x, bad = solve(com, vec, setup, q_order, reduction=red)
        if x is None:
            r, resid = bad
            return None, {"order": k, "row": r, "residual": str(resid),
                          "reason": "no iota solves the order-k equation"}
        iotas.append([[x[t * n + s] for s in range(n)] for t in range(n)])
    return iotas, None


# -- gamma operators and identity_report --------------------------------------


def gamma_q(data, vec):
    setup = data.setup
    out = [useries_udq(v).times_u() for v in vec]
    M = iota_useries(data)
    if M:
        part = _apply_dense(M, vec, USeries.zero(setup, data.order))
        if data.regime == "monotone":
            step = setup.lattice.steps_per_unit
            part = [useries_q_shift(p, -step) for p in part]
        out = [a + b for a, b in zip(out, part)]
    return out


def gamma_u(data, vec):
    setup = data.setup
    two = setup.monomial(2, 0)
    mu = data.diff.mu_diag()
    out = []
    for i, v in enumerate(vec):
        term = useries_du(v).times_u(2).scale(two)
        term = term + v.scale(setup.monomial(mu[i], 0)).times_u()
        out.append(term)
    M = iota_mono_useries(data)
    if M:
        # the matrix part 2*iota_mono is scaled before the product: where 2
        # is a zero divisor (F2, Z/6) the scaled entry has the higher
        # valuation, so its product with a tailed vector keeps more of q
        part = _apply_dense(_dmap(M, lambda e: e.scale(two)), vec,
                            USeries.zero(setup, data.order))
        out = [a - p for a, p in zip(out, part)]
    return out


def degree_weighted(data, vec):
    setup = data.setup
    lat = setup.lattice
    out = []
    for i, v in enumerate(vec):
        base = data.diff.basis[i].index
        coeffs = []
        for k, c in enumerate(v.coeffs):
            pairs = [(idx, setup.ring.mul_rational(
                co, Fraction(base + 2 * k) + 2 * lat.exponent_of(idx)))
                for idx, co in c.terms]
            coeffs.append(NovikovElem.build(setup, pairs, c.trunc))
        out.append(USeries.build(setup, v.order, coeffs, v.valid))
    return out


def unit_bracket(op, data):
    """[op, d_eq] as op(d_eq) - d_eq op(1), with op one of the vector
    operators above: op on every column of d_eq, less d_eq after op on
    every unit column.  The derivation part of op obeys the Leibniz rule,
    so the two terms differ by [op, d_eq].  This is the form that
    ``cartan.identity_report`` used for identities 2-4 before it bracketed
    each operator's split form (``cartan._apply`` with ``bracket``)."""
    setup, N, n = data.setup, data.order, data.diff.n
    d = d_eq_dense(data.diff)
    z, one = USeries.zero(setup, N), USeries.from_novikov(setup.one(), N)
    op_d = [op(data, [row[s] for row in d]) for s in range(n)]
    op_1 = [op(data, [one if t == s else z for t in range(n)])
            for s in range(n)]
    d_op_1 = _dmul(d, [[col[t] for col in op_1] for t in range(n)], setup, N)
    return [[op_d[s][t] - d_op_1[t][s] for s in range(n)] for t in range(n)]


def _scan_zero(M, basis, identity_name):
    failures = []
    min_valid = None
    qcert = None
    for t, row in enumerate(M):
        for s, e in enumerate(row):
            min_valid = e.valid if min_valid is None else min(min_valid, e.valid)
            c = e.q_certificate()
            if c is not None:
                qcert = c if qcert is None else min(qcert, c)
            if not e.is_zero_to():
                failures.append({"identity": identity_name,
                                 "entry": [basis[t].name, basis[s].name],
                                 "value": str(e)})
    return failures, min_valid, qcert


def _sample_vectors(data):
    setup = data.setup
    N = data.order
    n = data.diff.n
    z = USeries.zero(setup, N)
    out = []
    qmono = setup.monomial(1, 1)
    for i in range(n):
        e = [z] * n
        e[i] = USeries.from_novikov(setup.one(), N)
        out.append((f"e_{i}", e))
        dressed = [z] * n
        dressed[i] = USeries.from_novikov(qmono, N, 1)
        out.append((f"q*u*e_{i}", dressed))
    return out


def identity_report(data):
    diff = data.diff
    setup = data.setup
    N = diff.order
    n = diff.n
    basis = diff.basis
    d_eq = d_eq_dense(diff)
    results = []

    def record(name, M):
        failures, valid, qcert = _scan_zero(M, basis, name)
        results.append({"identity": name, "holds": not failures,
                        "verified_u_order": valid if valid is not None else N,
                        "verified_q_order_index": qcert,
                        "failures": failures})

    record("d_eq squared zero", _dmul(d_eq, d_eq, setup, N))
    lam_plain = _assemble(lambda_dense(diff, "cy"), setup, N)
    record("lambda_eq anticommutes with d_eq",
           _dadd(_dmul(d_eq, lam_plain, setup, N),
                 _dmul(lam_plain, d_eq, setup, N)))
    zero_comp = [[setup.zero()] * n for _ in range(n)]
    lam_u = _assemble([zero_comp] + lambda_dense(diff, data.regime), setup, N)
    record("connection commutes with d_eq",
           _dsub(_commutator(d_eq, iota_useries(data), setup, N), lam_u))

    mu = diff.mu_diag()

    def scale_int(e, w):
        return e.scale(setup.monomial(w, 0)) if w else USeries.zero(setup, e.order)

    mu_d = [[scale_int(d_eq[t][s], mu[t] - mu[s]) for s in range(n)]
            for t in range(n)]
    comps = _dense_components(diff)
    weighted = _assemble([_dmap(m, lambda e, k=k: e.scale(1 - 2 * k))
                          for k, m in enumerate(comps)], setup, N)
    twice_lam = _assemble([_dmap(m, lambda e: e.scale(2))
                           for m in lambda_dense(diff, "monotone")], setup, N)
    record("index operator homogeneity",
           _dsub(mu_d, _dsub(weighted, twice_lam)))

    du_part = _assemble([zero_comp] + [_dmap(m, lambda e, k=k: e.scale(2 * k))
                                       for k, m in enumerate(comps)], setup, N)
    zero_u = USeries.zero(setup, N)
    mono = iota_mono_useries(data) or [[zero_u] * n for _ in range(n)]
    mat_part = [[USeries.from_novikov(setup.monomial(mu[t], 0), N, 1)
                 if t == s else zero_u for s in range(n)] for t in range(n)]
    two = setup.monomial(2, 0)
    mat_part = _dsub(mat_part, _dmap(mono, lambda e: e.scale(two)))
    u_d = _dmap(d_eq, lambda e: e.times_u())
    record("gamma_u commutator",
           _dadd(du_part, _dsub(_commutator(mat_part, d_eq, setup, N), u_d)))

    samples = _sample_vectors(data)

    def record_rows(name, sides):
        fails, valid, qc = [], N, None
        for label, v in samples:
            lhs, rhs = sides(v)
            for i, (a, b) in enumerate(zip(lhs, rhs)):
                e = a - b
                valid = min(valid, e.valid)
                c = e.q_certificate()
                if c is not None:
                    qc = c if qc is None else min(qc, c)
                if not e.is_zero_to():
                    fails.append({"identity": name, "sample": label,
                                  "row": basis[i].name, "value": str(e)})
        results.append({"identity": name, "holds": not fails,
                        "verified_u_order": valid,
                        "verified_q_order_index": qc, "failures": fails})

    step = setup.lattice.steps_per_unit
    record_rows("euler relation", lambda v: (
        [a + useries_q_shift(g.scale(two), step)
         for a, g in zip(gamma_u(data, v), gamma_q(data, v))],
        [w.times_u() for w in degree_weighted(data, v)]))
    f = USeries.build(setup, N, [setup.monomial(1, 1), setup.one()])
    df2 = USeries.from_novikov(two, N, 2)
    record_rows("leibniz", lambda v: (
        gamma_u(data, [w * f for w in v]),
        [g * f + w * df2 for g, w in zip(gamma_u(data, v), v)]))
    uf = USeries.from_novikov(setup.one(), N, 1)
    record_rows("gamma_q leibniz", lambda v: (
        gamma_q(data, [w * f for w in v]),
        [g * f + w * uf for g, w in zip(gamma_q(data, v), v)]))
    return {"regime": data.regime, "order": N, "identities": results,
            "all_hold": all(r["holds"] for r in results)}


# -- quantum connections through the quantum product -------------------------


def star(Q, x, y):
    """Bilinear extension of the basis product table to dense vectors."""
    out = [Q.setup.zero()] * Q.rank
    for i, a in enumerate(x):
        if a.is_zero():
            continue
        for j, b in enumerate(y):
            if b.is_zero():
                continue
            ab = a * b
            for k, c in Q.product_of_basis(i, j).items():
                out[k] = out[k] + (ab * c)
    return out


def omega_vector(Q):
    return [Q.omega.get(i, Q.setup.zero()) for i in range(Q.rank)]


def star_useries(Q, a, vec):
    """a * vec, coefficientwise in u."""
    if not vec:
        return []
    order = vec[0].order
    setup = Q.setup
    cols = [[v.coeffs[k] for v in vec] for k in range(order)]
    valid = min(v.valid for v in vec)
    out_cols = [star(Q, a, col) for col in cols]
    return [
        USeries.build(setup, order, [out_cols[k][i] for k in range(order)],
                      valid)
        for i in range(Q.rank)
    ]


def d_q_connection(Q, x):
    """D_q x = u dx/dq + omega * x."""
    out = [useries_udq(v).times_u() for v in x]
    part = star_useries(Q, omega_vector(Q), x)
    return [a + b for a, b in zip(out, part)]


def d_u_connection(Q, x):
    """D_u x = 2 u^2 dx/du - 2 (q*omega) * x + u mu(x)."""
    setup = Q.setup
    two = setup.monomial(2, 0)
    step = setup.lattice.steps_per_unit
    c1 = [c.q_shift(step) for c in omega_vector(Q)]
    out = []
    for i, v in enumerate(x):
        term = useries_du(v).times_u(2).scale(two)
        term = term + v.scale(setup.monomial(Q.basis[i].index, 0)).times_u()
        out.append(term)
    part = star_useries(Q, c1, x)
    return [a - p.scale(two) for a, p in zip(out, part)]


def deg_q_operator(Q, x):
    """(mu + 2u d/du + 2q d/dq) x: each monomial q^E u^b e_k is multiplied
    by its total degree deg(e_k) + 2E + 2b."""
    setup = Q.setup
    lat = setup.lattice
    out = []
    for i, v in enumerate(x):
        base = Q.basis[i].index
        coeffs = []
        for b, c in enumerate(v.coeffs):
            pairs = []
            for idx, co in c.terms:
                w = Fraction(base + 2 * b) + 2 * lat.exponent_of(idx)
                pairs.append((idx, setup.ring.mul_rational(co, w)))
            coeffs.append(NovikovElem.build(setup, pairs, c.trunc))
        out.append(USeries.build(setup, v.order, coeffs, v.valid))
    return out


def uq_identity_check(Q, order=3):
    """``quantum.uq_identity_check`` on every sample vector e_i, q*u*e_i
    (the full sample block), with D_q, D_u and deg_q written through the
    quantum product."""
    setup = Q.setup
    step = setup.lattice.steps_per_unit
    two = setup.monomial(2, 0)

    def bracket(x):
        """u deg_q x - 2q D_q x."""
        return [w.times_u() - useries_q_shift(g.scale(two), step)
                for w, g in zip(deg_q_operator(Q, x), d_q_connection(Q, x))]

    def at_q1(x):
        return [[c.specialize_q1() for c in v.coeffs[:v.valid]] for v in x]

    homog = Q.homogeneity_witnesses()
    linear, identity, exact = [], [], True
    for label, x in _sample_vectors(Q.cartan_data(order)):
        B = bracket(x)
        qB = bracket([useries_q_shift(v, step) for v in x])
        linear += [{"check": "bracket q-linearity", "sample": label,
                    "component": g.name, "difference": str(e)}
                   for g, a, b in zip(Q.basis, qB, B)
                   if (e := a - useries_q_shift(b, step))]
        G = d_u_connection(Q, x)
        exact = exact and not any(g - b for g, b in zip(G, B))
        if at_q1(G) != at_q1(B):
            identity.append({
                "check": "specialized identity", "sample": label,
                "lhs_q1": [[str(c) for c in row] for row in at_q1(G)],
                "rhs_q1": [[str(c) for c in row] for row in at_q1(B)]})
    return {"order": order, "homogeneity_witnesses": homog,
            "q_linear": not (homog or linear),
            "q_linearity_witnesses": linear,
            "identity_holds_specialized": not identity,
            "identity_exact": exact, "identity_witnesses": identity,
            "holds": not (homog or linear or identity)}


# -- finite2 on dense matrices ------------------------------------------------


def z2_dense(Z, op):
    z = Z.setup.zero()
    n = Z.n
    return [[op.entries.get((t, s), z) for s in range(n)]
            for t in range(n)]


def z2_identity_dense(Z):
    one, z = Z.setup.one(), Z.setup.zero()
    n = Z.n
    return [[one if i == j else z for j in range(n)] for i in range(n)]


def _z2_mul(A, B, setup):
    n = len(A)
    z = setup.zero()
    out = [[z] * n for _ in range(n)]
    for t in range(n):
        for m in range(n):
            if not A[t][m].is_zero():
                for s in range(n):
                    if not B[m][s].is_zero():
                        out[t][s] = out[t][s] + A[t][m] * B[m][s]
    return out


def _z2_add(*Ms):
    out = Ms[0]
    for M in Ms[1:]:
        out = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(out, M)]
    return out


def _z2_anti(A, B, setup):
    return _z2_add(_z2_mul(A, B, setup), _z2_mul(B, A, setup))


def _z2_failures(M, basis, relation):
    out = []
    for t, row in enumerate(M):
        for s, e in enumerate(row):
            if e.has_terms():
                out.append({"relation": relation,
                            "entry": [basis[t].name, basis[s].name],
                            "value": str(e)})
    return out


def z2_verify_relations(Z):
    setup = Z.setup
    basis = Z.basis
    d = z2_dense(Z, Z.d)
    iota = z2_dense(Z, Z.iota)
    lam = z2_dense(Z, Z.lam)
    sig = z2_dense(Z, Z.sigma)
    Sig = z2_dense(Z, Z.Sigma)
    xi = z2_dense(Z, Z.xi)
    Xi = z2_dense(Z, Z.Xi)
    ident = z2_identity_dense(Z)
    checks = [
        ("d^2 = 0", _z2_mul(d, d, setup)),
        ("d iota = iota d", _z2_anti(d, iota, setup)),
        ("d lambda = lambda d", _z2_anti(d, lam, setup)),
        ("lambda = dq(d)", _z2_add(lam, [[dq(e) for e in row] for row in d])),
        ("d sigma = sigma d", _z2_anti(d, sig, setup)),
        ("d Sigma + Sigma d = sigma^2 + id",
         _z2_add(_z2_anti(d, Sig, setup), _z2_mul(sig, sig, setup), ident)),
        ("d xi + xi d = sigma iota + iota sigma",
         _z2_add(_z2_anti(d, xi, setup), _z2_anti(sig, iota, setup))),
        ("d Xi + Xi d = sigma xi + xi sigma + Sigma iota + iota Sigma"
         " + lambda",
         _z2_add(_z2_anti(d, Xi, setup), _z2_anti(sig, xi, setup),
                 _z2_anti(Sig, iota, setup), lam)),
    ]
    relations = []
    for name, M in checks:
        fails = _z2_failures(M, basis, name)
        relations.append({"relation": name, "holds": not fails,
                          "failures": fails})
    return {"relations": relations,
            "all_hold": all(r["holds"] for r in relations)}


def z2_assemble_and_check(Z):
    h_order = 3
    setup = Z.setup
    basis = Z.basis
    d = z2_dense(Z, Z.d)
    iota = z2_dense(Z, Z.iota)
    sig = z2_dense(Z, Z.sigma)
    Sig = z2_dense(Z, Z.Sigma)
    xi = z2_dense(Z, Z.xi)
    Xi = z2_dense(Z, Z.Xi)
    ident = z2_identity_dense(Z)
    id_sig = _z2_add(ident, sig)

    d_eq = [d, id_sig, Sig]               # h^0, h^1, h^2 matrix parts
    gamma = [iota, xi, Xi]                # matrix parts; h^2 also carries d/dq
    lam_from_d = [[dq(e) for e in row] for row in d]

    certificates = []
    for k in range(h_order):
        acc = None
        for i in range(k + 1):
            term = _z2_mul(d_eq[i], d_eq[k - i], setup)
            acc = term if acc is None else _z2_add(acc, term)
        fails = _z2_failures(acc, basis, f"d_eq^2, order h^{k}")
        certificates.append({
            "identity": "d_eq^2 = 0",
            "h_order": k,
            "holds": not fails,
            "failures": fails,
        })
    for k in range(h_order):
        acc = None
        for i in range(k + 1):
            term = _z2_anti(d_eq[i], gamma[k - i], setup)
            acc = term if acc is None else _z2_add(acc, term)
        if k == 2:
            acc = _z2_add(acc, lam_from_d)
        fails = _z2_failures(acc, basis,
                             f"d_eq Gamma_q + Gamma_q d_eq, order h^{k}")
        certificates.append({
            "identity": "d_eq Gamma_q + Gamma_q d_eq = 0",
            "h_order": k,
            "holds": not fails,
            "failures": fails,
        })

    def fmt(mats, derivative_at=None):
        out = []
        for k, M in enumerate(mats):
            entries = {
                f"{basis[t].name},{basis[s].name}": str(e)
                for t, row in enumerate(M)
                for s, e in enumerate(row) if e.has_terms()
            }
            comp = {"h_order": k, "entries": entries}
            if derivative_at == k:
                comp["plus_operator"] = "d/dq"
            out.append(comp)
        return out

    return {
        "h_truncation": h_order,
        "d_eq": fmt(d_eq),
        "gamma_q": fmt(gamma, derivative_at=2),
        "certificates": certificates,
        "all_hold": all(c["holds"] for c in certificates),
    }


# -- induced connection and cone verdicts by elimination ---------------------


def flatten(diff):
    """The complex of ``cartan.flatten_equivariant``, from the components
    alone: generator u^j x_i at j n + i, and d_k[t, s] at ((j + k) n + t,
    j n + s) for every j + k < N."""
    from eqcartan.complexes import GeneratorInfo, GradedComplex, OperatorMatrix

    N, n = diff.order, diff.n
    basis = [None] * (N * n)
    for j in range(N):
        for i, g in enumerate(diff.basis):
            basis[j * n + i] = GeneratorInfo(
                g.name if j == 0 else f"u^{j}.{g.name}", g.index + 2 * j)
    entries = {}
    for k, comp in enumerate(diff.components):
        for (t, s), v in comp.entries.items():
            for j in range(N - k):
                entries[((j + k) * n + t, j * n + s)] = v
    return GradedComplex(diff.setup, diff.grading, basis,
                         OperatorMatrix(basis, basis, entries, 1))


def _unflatten(diff, vec):
    N, n = diff.order, diff.n
    return [USeries.build(diff.setup, N, [vec[j * n + i] for j in range(N)])
            for i in range(n)]


def _flatten_vec(diff, useries_vec):
    return [useries_vec[i].coeffs[j]
            for j in range(diff.order) for i in range(diff.n)]


def induced_connection(data, which="gamma_q", q_order=None):
    """The connection matrix by solving against the dense matrix
    [class representatives | every boundary d(e_i)], with well-definedness
    probed by adding one boundary (d applied to the all-ones vector) to each
    representative and checking that the coefficients do not move."""
    from eqcartan import linalg
    from eqcartan.complexes import cohomology_over_novikov_field

    op = gamma_q if which == "gamma_q" else gamma_u
    diff = data.diff
    setup = data.setup
    C = flatten(diff)
    H = cohomology_over_novikov_field(C, q_order)
    big_n = len(C.basis)
    zero = setup.zero()
    classes = []
    for k in sorted(H["degrees"]):
        gens = C.generators_in_degree(k)
        for rep in H["degrees"][k]["representatives"]:
            full = [zero] * big_n
            for pos, g in enumerate(gens):
                full[g] = rep[pos]
            classes.append({"degree": k, "vector": full})
    out = {"classes": [{"degree": cl["degree"],
                        "representative": [str(v)
                                           for v in cl["vector"]]}
                       for cl in classes],
           "matrix": [], "well_defined": True}
    if not classes:
        return out
    d_rows = dense(C.d, big_n, zero)
    cols = [cl["vector"] for cl in classes]
    bcols = [[d_rows[r][c] for r in range(big_n)] for c in range(big_n)]
    M = [[colv[r] for colv in cols + bcols] for r in range(big_n)]
    red = linalg.row_reduce(M, setup, q_order)

    def express(vec):
        x, bad = linalg.solve(red, vec)
        return None if x is None else densify(x, len(classes), zero)

    perturb = _apply_dense(d_rows, [setup.one()] * big_n, zero)
    for cl in classes:
        coeffs = express(_flatten_vec(diff, op(data, _unflatten(
            diff, cl["vector"]))))
        if coeffs is None:
            out["well_defined"] = False
            out["matrix"].append(None)
            continue
        pert_rep = [a + b for a, b in zip(cl["vector"], perturb)]
        coeffs2 = express(_flatten_vec(diff, op(data, _unflatten(
            diff, pert_rep))))
        if coeffs2 is None or any((a - b).has_terms()
                                  for a, b in zip(coeffs, coeffs2)):
            out["well_defined"] = False
        out["matrix"].append([str(c) for c in coeffs])
    return out


def quasi_iso_verdict(proj, source, target, q_order=None):
    """The cone verdict by ranks: the pushed representatives must span the
    target's cohomology modulo its boundaries in every degree."""
    from eqcartan import linalg
    from eqcartan.complexes import cohomology_over_novikov_field

    setup = source.setup
    hs = cohomology_over_novikov_field(source, q_order)
    ht = cohomology_over_novikov_field(target, q_order)
    zero = setup.zero()
    P = [[proj.entries.get((t, s), zero) for s in range(len(source.basis))]
         for t in range(len(target.basis))]
    for k in sorted(set(hs["degrees"]) | set(ht["degrees"])):
        dim_s = hs["degrees"].get(k, {}).get("betti", 0)
        dim_t = ht["degrees"].get(k, {}).get("betti", 0)
        if dim_s != dim_t:
            return {"quasi_isomorphism": False, "degree": k,
                    "reason": f"cohomology ranks differ ({dim_s} vs {dim_t})"}
        if dim_s == 0:
            continue
        s_gens = source.generators_in_degree(k)
        t_gens = target.generators_in_degree(k)
        pushed = []
        for rep in hs["degrees"][k]["representatives"]:
            full = [zero] * len(source.basis)
            for i, g in enumerate(s_gens):
                full[g] = rep[i]
            img = _apply_dense(P, full, zero)
            pushed.append([img[g] for g in t_gens])
        boundary_vecs = []
        for j in target.degrees_present():
            if target.grading.displayed(j + target.d.degree) != k:
                continue
            for s in target.generators_in_degree(j):
                vec = [target.d.entries.get((t, s), zero) for t in t_gens]
                if any(v.has_terms() for v in vec):
                    boundary_vecs.append(vec)
        rank_b = (linalg.row_reduce(boundary_vecs, setup, q_order).rank
                  if boundary_vecs else 0)
        if linalg.row_reduce(boundary_vecs + pushed, setup, q_order).rank \
                - rank_b != dim_t:
            return {"quasi_isomorphism": False, "degree": k,
                    "reason": "induced map not surjective modulo boundaries"}
    return {"quasi_isomorphism": True}


# -- the cohomology projection on one dense vector ---------------------------


def reduce_dense(red, w):
    """The dense vector w less its part along the divided pivot rows of a
    ``linalg.Reduction``, in place."""
    for r, c in red.pivots:
        f = w[c]
        if f.has_terms():
            for col, b in red.reduced[r].items():
                w[col] = w[col] - (f * b)
    return w


def project(H, vec):
    """p of a ``CohomologyReport`` on one chain (one scalar per basis
    generator): the coefficients of the classes, by degree and then by
    representative, read at the representatives' columns after reducing by
    the image rows; and the residue, None iff nothing visible is left after
    taking away the image and the classes (vec is a cocycle), else the
    first basis position where terms remain, with that value."""
    coeffs, residue = [], None
    for gens, images, reps in H.blocks:
        w = [vec[g] for g in gens]
        if all(e.is_zero() for e in w):
            coeffs.extend([w[0]] * len(reps))
            continue
        reduce_dense(images, w)
        a = [w[col] for col, _ in reps]
        for aj, (_, rep) in zip(a, reps):
            if aj.has_terms():
                for i, r in rep.items():
                    w[i] = w[i] - (aj * r)
        coeffs.extend(a)
        bad = next((i for i, e in enumerate(w) if e.has_terms()), None)
        if residue is None and bad is not None:
            residue = (gens[bad], w[bad])
    return coeffs, residue


def _format_qpow(exp):
    if exp == 1:
        return "q"
    if exp.denominator == 1 and exp >= 0:
        return f"q^{exp.numerator}"
    return f"q^({exp})"


def format_novikov(x):
    if not x.terms and x.trunc is None:
        return "0"
    out = ""
    for n, c in x.terms:
        exp = x.setup.lattice.exponent_of(n)
        cs = str(c)
        negative = cs.startswith("-")
        mag = cs[1:] if negative else cs
        if exp == 0:
            body = mag
        elif mag == "1":
            body = _format_qpow(exp)
        else:
            body = f"{mag}*{_format_qpow(exp)}"
        if not out:
            out = ("-" if negative else "") + body
        else:
            out += (" - " if negative else " + ") + body
    if x.trunc is not None:
        exp = x.setup.lattice.exponent_of(x.trunc)
        tail = "O(1)" if exp == 0 else f"O({_format_qpow(exp)})"
        out = f"{out} + {tail}" if out else tail
    return out


def format_useries(a):
    parts = []
    for k, c in enumerate(a.coeffs):
        if not c.terms and c.trunc is None:
            continue
        body = format_novikov(c)
        if k == 0:
            parts.append(body)
        else:
            upow = "u" if k == 1 else f"u^{k}"
            parts.append(f"({body})*{upow}")
    if a.valid < a.order:
        parts.append({0: "O(1)", 1: "O(u)"}.get(a.valid, f"O(u^{a.valid})"))
    return " + ".join(parts) if parts else "0"
