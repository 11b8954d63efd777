"""Cartan-style differential calculus for equivariant complexes.

An equivariant differential is a finite family d_0, ..., d_K of matrices
over the Novikov ring, assembled as d_eq = sum_k u^k d_k and analysed in
Lambda[u]/u^N.  The two regimes' normalizations of iota differ by one
power of q, w = ``REGIMES[regime]``: w = 1 in the monotone regime
(|q| = 2) and w = 0 in the Calabi-Yau one ("cy").  The iota family solves
[d_eq, iota_eq] = u * lambda_eq with lambda = q^w * (entrywise d/dq of d),
and iota_k has degree 2w - 2k.  Each Cartan operator is one triple
(derivation, diagonal weight, matrix part), mu the index of each generator:

    Gamma_q = (u d/dq,       0,    q^-w iota_eq)          (degree 0)
    deg     = (2q d/dq + 2u d/du, mu,   none)             (total degree)
    Gamma_u = (2u^2 d/du,    u mu, -2 q^(1-w) iota_eq)    (degree 2)

so the pair (iota, monotone) and (q^-1 iota, cy) give the same operators.
A ``CartanData`` builds each triple once, when first used, with the sign
and scalar of its matrix part on every entry; ``gamma_q``, ``gamma_u`` and
``degree_weighted`` apply it to a block (an ``OperatorMatrix`` whose
columns are u-series vectors): the derivation and the weight entrywise,
plus the matrix part as one product with the block.
By the Leibniz rule the bracket [op, d_eq] is the derivation on each entry
d_ts, plus (w_t - w_s) d_ts, plus [M, d_eq]; ``identity_report`` checks
[Gamma_q, d_eq] = 0, [deg, d_eq] = d_eq and [Gamma_u, d_eq] = u d_eq in
that form, so both operators descend to equivariant cohomology, and
Gamma_u + 2q Gamma_q = u * deg is exact.

``solve_iota`` constructs the iota family order by order from d alone by
solving [d_0, iota_k] = (known lower-order data).  On an exact acyclic d_0
it applies a contracting homotopy of d_0 and never reports an obstruction;
elsewhere an inconsistency at some order, relative to the lower orders it
kept, is returned as an explicit obstruction certificate rather than an
exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .novikov import (CoefficientError, CoefficientRing, InputError,
                      InternalError, NovikovElem, NovikovError, ScalarSetup,
                      USeries, _min_trunc, dq, useries_udq)
from .complexes import (GeneratorInfo, GradedComplex, GradingKind,
                        OperatorMatrix, _misplaced, sample_block)
from . import linalg
from .complexes import cohomology_over_novikov_field

__all__ = [
    "EquivariantDifferential",
    "CartanData",
    "lambda_components",
    "solve_iota",
    "gamma_q",
    "gamma_u",
    "identity_report",
    "reduce_mod",
    "flatten_equivariant",
    "induced_connection",
]

# the power w of q in each regime's normalization of iota (module docstring)
REGIMES = {"monotone": 1, "cy": 0}


def _iota_degree(regime: str, k: int) -> int:
    """The degree of iota_k: 2w - 2k."""
    return 2 * REGIMES[regime] - 2 * k


@dataclass
class EquivariantDifferential:
    """d_eq = sum_k u^k d_k on a common basis, analysed mod u^order.

    ``components[k]`` is d_k as a plain Novikov matrix (degree 1 - 2k when
    the grading is meaningful).  ``order`` None means K + 2, so that the
    first potentially-obstructed iota order is visible; an explicit order
    must be a positive integer.
    """

    setup: ScalarSetup
    grading: GradingKind
    basis: Tuple[GeneratorInfo, ...]
    components: Tuple[OperatorMatrix, ...]
    order: Optional[int] = None
    _contraction: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)  # _contract

    def __post_init__(self):
        self.basis = tuple(self.basis)
        self.components = tuple(self.components)
        if self.order is None:
            self.order = len(self.components) + 1
        elif self.order < 1:
            raise InputError(
                f"the u-order must be a positive integer, got {self.order}")
        if self.order < len(self.components):
            raise InputError(
                "truncation order must cover every differential component"
            )
        for k, op in enumerate(self.components):
            if op.source != self.basis or op.target != self.basis:
                raise InputError(f"component d_{k} basis mismatch")

    @staticmethod
    def build(setup, grading, basis, component_entries,
              order: Optional[int] = None):
        basis = tuple(basis)
        comps = [
            OperatorMatrix(basis, basis, dict(e), 1 - 2 * k)
            for k, e in enumerate(component_entries)
        ]
        return EquivariantDifferential(setup, grading, basis, tuple(comps), order)

    @property
    def K(self) -> int:
        return len(self.components) - 1

    @property
    def n(self) -> int:
        return len(self.basis)

    def as_operator(self) -> OperatorMatrix:
        """d_eq = sum_k u^k d_k mod u^order as one USeries operator."""
        return _useries_operator(self, self.basis, self.basis,
                                 _cells(self.components), 1)

    def mu_diag(self) -> List[int]:
        return [g.index for g in self.basis]


@dataclass
class CartanData:
    """An equivariant differential plus an iota family and a regime."""

    diff: EquivariantDifferential
    iota: Tuple[OperatorMatrix, ...] = ()
    regime: str = "monotone"
    _H: dict = field(default_factory=dict, init=False, repr=False,
                     compare=False)  # q-order -> H, for induced_connection
    _ops: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)  # the operator table, for _op

    def __post_init__(self):
        self.iota = tuple(self.iota)
        if self.regime not in REGIMES:
            raise NovikovError(f"unknown regime {self.regime!r}")

    @property
    def setup(self):
        return self.diff.setup

    @property
    def order(self):
        return self.diff.order

    @cached_property
    def iota_eq(self) -> OperatorMatrix:
        """iota_eq = sum_k u^k iota_k mod u^order as one USeries operator."""
        basis = self.diff.basis
        return _useries_operator(self.diff, basis, basis, _cells(self.iota),
                                 _iota_degree(self.regime, 0))

    def _op(self, name: str) -> "_Split":
        """The triple of "gamma_q", "deg" or "gamma_u" from this datum's
        operator table, built by ``_split`` when first used."""
        if name not in self._ops:
            self._ops[name] = _split(self, name)
        return self._ops[name]


# -- USeries operators --------------------------------------------------------


def _useries_operator(diff, source, target, cells,
                      degree: int) -> OperatorMatrix:
    """sum_k u^k X_k mod u^diff.order from the cells (k, (t, s), v) that
    put v at entry (t, s) of X_k; cells with k >= diff.order are dropped."""
    setup, N, z = diff.setup, diff.order, diff.setup.zero()
    coeffs: Dict[Tuple[int, int], list] = {}
    for k, key, v in cells:
        if k < N:
            coeffs.setdefault(key, [z] * N)[k] = v
    return OperatorMatrix(source, target, {
        key: USeries.build(setup, N, cs) for key, cs in coeffs.items()},
        degree)


def _cells(components):
    """The cells (k, (t, s), v) of the stored entries of components[k]."""
    return ((k, key, v) for k, op in enumerate(components)
            for key, v in op.entries.items())


def _commutator(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    return A.compose(B) - B.compose(A)


def _scan(name, cells, order):
    """Failure records and certified orders over (location, USeries) cells.

    The cells are an operator's stored entries, none decidably zero (an
    OperatorMatrix does not store those).  Every cell counts towards the
    verified orders, including those without visible terms: a cancelled
    entry still bounds them through its lost u-order or the q-tails of its
    coefficients.
    """
    failures = []
    valid, qcert = order, None
    for where, e in cells:
        valid = min(valid, e.valid)
        qcert = _min_trunc(qcert, e.q_certificate())
        if not e.is_zero_to():
            failures.append({"identity": name, **where, "value": str(e)})
    return failures, valid, qcert


def _entries(op: OperatorMatrix):
    """The stored cells of an operator in row-major order, for _scan."""
    return (({"entry": [op.target[t].name, op.source[s].name]},
             op.entries[(t, s)]) for t, s in sorted(op.entries))


def _columns(block: OperatorMatrix):
    """The stored cells of a block column by column, for _scan."""
    return (({"sample": block.source[s].name, "row": block.target[t].name},
             block.entries[(t, s)])
            for s, t in sorted((s, t) for t, s in block.entries))


# -- lambda and iota ----------------------------------------------------------


def lambda_components(diff: EquivariantDifferential,
                      regime: str = "monotone") -> List[OperatorMatrix]:
    """q^w times the entrywise q-derivative of each d_k; the monotone
    regime's factor q keeps the result in the original exponent lattice."""
    steps = REGIMES[regime] * diff.setup.lattice.steps_per_unit
    return [op.entrywise(lambda e: dq(e).q_shift(steps))
            for op in diff.components]


def _contract(diff: EquivariantDifferential
              ) -> Tuple[bool, Optional[OperatorMatrix]]:
    """(acyclic, h) from one row reduction of d_0, once per differential.

    acyclic: a field, exact d_k of degree 1 - 2k, d_0 of rank n/2 and
    d_eq^2 = 0 mod u^order, so d_0 is acyclic.  h: d_0 h + h d_0 = 1 and
    h^2 = 0 when every pivot is a monomial, else None.  On exact input
    neither depends on a q-order.

    For a pivot (r, c), scaled_transform row r over its (monomial) pivot
    sends column c of d_0 to 1 and the other pivot columns to 0: these rows
    G invert d_0 on B = im d_0, G d_0 projects onto the pivot columns' span
    S along B, and h = G (1 - G d_0), exact, is (d_0|S)^-1 on B, 0 on S.
    """
    if diff._contraction is not None:
        return diff._contraction
    basis, d0 = diff.basis, diff.components[0]
    acyclic, h = False, None
    if diff.setup.ring.is_field and 2 * len(d0.entries) >= diff.n and not any(
            _misplaced(comp, diff.grading, 1 - 2 * k)
            or any(v.trunc is not None for v in comp.entries.values())
            for k, comp in enumerate(diff.components)):
        rows = [{} for _ in basis]
        for (t, s), v in d0.entries.items():
            rows[t][s] = v
        red = linalg.row_reduce(rows, diff.setup)
        acyclic = 2 * red.rank == diff.n and not (
            d_eq := diff.as_operator()).compose(d_eq).entries
        if acyclic and all(len(red.scaled[r][c].terms) == 1
                           for r, c in red.pivots):
            G = OperatorMatrix._made(basis, basis, {
                (c, j): red._divide(r, e) for r, c in red.pivots
                for j, e in red.scaled_transform[r].items()}, -1)
            h = G - G.compose(G.compose(d0))
    diff._contraction = acyclic, h
    return acyclic, h


def _residual(diff, lam, iotas, k) -> OperatorMatrix:
    """R_k = lambda_{k-1} - sum_{0 < i <= K} [d_i, iota_{k-i}]."""
    rhs = (lam[k - 1] if 1 <= k <= diff.K + 1
           else OperatorMatrix(diff.basis, diff.basis, {}))
    for j in range(k):
        i = k - j
        if i <= diff.K:
            rhs = rhs - _commutator(diff.components[i], iotas[j])
    return rhs


def solve_iota(diff: EquivariantDifferential, regime: str = "monotone",
               q_order: Optional[int] = None):
    """Solve [d_eq, iota_eq] = u * lambda_eq order by order: [d_0, iota_k]
    = R_k (``_residual``).

    Returns (CartanData, obstruction) where obstruction is None on success
    and otherwise {"order": k, "residual": ...} naming the first u-order at
    which the linear system is inconsistent.  Requires field coefficients.
    With the homotopy h of an exactly acyclic d_0 (``_contract``), iota_k =
    h R_k, one solution up to ad(d_0)-exact terms: d_eq^2 = 0 makes R_k
    ad(d_0)-closed, so [d_0, iota_k] = R_k holds, and a failed check is an
    ``InternalError``.  Everywhere else each order is solved against one
    elimination of ad(d_0) on n^2 unknowns.  An obstruction is then
    relative to the lower-order solutions kept: one per order, never
    revisited, so another choice of them may still solve k.
    """
    setup = diff.setup
    if not setup.ring.is_field:
        raise CoefficientError("solve_iota requires field coefficients")
    n = diff.n
    N = diff.order
    basis = diff.basis
    lam = lambda_components(diff, regime)
    d0 = diff.components[0]
    z = setup.zero()

    _, h = _contract(diff)
    if h is None:
        # vectorized commutator with d_0, as sparse rows: row (a,b),
        # unknown entry (c,e)
        com = [{} for _ in range(n * n)]
        for (a, c), v in d0.entries.items():
            for b in range(n):
                row = com[a * n + b]
                row[c * n + b] = row.get(c * n + b, z) + v
        for (e, b), v in d0.entries.items():
            for a in range(n):
                row = com[a * n + b]
                row[a * n + e] = row.get(a * n + e, z) - v
        red = linalg.row_reduce(com, setup, q_order)

    iotas: List[OperatorMatrix] = []
    for k in range(N):
        rhs = _residual(diff, lam, iotas, k)
        if h is not None:
            iotas.append(OperatorMatrix._made(
                basis, basis, h.compose(rhs).entries, _iota_degree(regime, k)))
            if (_commutator(d0, iotas[k]) - rhs).entries:
                raise InternalError(
                    f"the homotopy of d_0 does not solve order {k}")
            continue
        vec = [rhs.entries.get((t, s), z) for t in range(n) for s in range(n)]
        x, bad = linalg.solve(red, vec)
        if x is None:
            r, resid = bad
            return None, {"order": k, "row": r, "residual": str(resid),
                          "reason": "no iota solves the order-k equation"}
        iotas.append(OperatorMatrix(
            basis, basis, {(i // n, i % n): v for i, v in x.items() if v},
            _iota_degree(regime, k)))
    return CartanData(diff, tuple(iotas), regime), None


# -- the connection operators -------------------------------------------------


class _Split(NamedTuple):
    """A Cartan operator as (derivation, diagonal weight, matrix part):
    ``local(v, w)`` is the derivation of v plus w v in one pass, and the
    matrix part, of the operator's degree, carries the operator's sign and
    scalar on every entry, so it is only ever added."""

    local: Callable[[USeries, Optional[int]], USeries]
    weights: Tuple[Optional[int], ...]
    matrix: Optional[OperatorMatrix]


def _split(data: CartanData, op: str) -> _Split:
    """The triple of "gamma_q", "deg" or "gamma_u" (module docstring), for
    ``CartanData._op``; a row's weight is None where it is zero in the ring.
    deg takes a q^E u^k to (w + 2E + 2k) a q^E u^k, keeping each q-tail.
    Gamma_u takes c_k u^k to (2k + w) c_k u^(k+1), keeping c_k's q-tail
    where w is given (even a zero difference of weights) or, for k >= 1,
    where 2 is not zero; its matrix part is scaled by -2 before any product,
    which keeps more of a tailed product where 2 is a zero divisor (Z/6)."""
    setup, mu, iota = data.setup, data.diff.mu_diag(), data.iota_eq
    ring, lat, power = setup.ring, setup.lattice, REGIMES[data.regime]
    if op == "gamma_q":
        steps = -power * lat.steps_per_unit
        return _Split(lambda v, w: useries_udq(v).times_u(), (None,) * len(mu),
                      iota.entrywise(lambda e: e.q_shift(steps), 0))
    index = tuple(m if ring.coerce(m) != 0 else None for m in mu)
    if op == "deg":
        return _Split(lambda v, w: v._of(tuple(
            c if c.is_zero() else NovikovElem(setup, tuple(
                (n, p) for n, a in c.terms if (p := ring.mul_rational(
                    a, (w or 0) + 2 * k + 2 * lat.exponent_of(n)))), c.trunc)
            for k, c in enumerate(v.coeffs))), index, None)
    zero, two = setup.zero(), ring.coerce(2) != 0
    steps, minus_two = (1 - power) * lat.steps_per_unit, setup.monomial(-2, 0)
    return _Split(lambda v, w: v._of(((zero,) + tuple(
        zero if c.is_zero() or (w is None and not (k and two))
        else c.scale(2 * k + (w or 0))
        for k, c in enumerate(v.coeffs)))[:v.order]),
        index, iota.entrywise(lambda e: e.q_shift(steps).scale(minus_two), 2))


def _apply(op: _Split, X: OperatorMatrix,
           bracket: Optional[int] = None) -> OperatorMatrix:
    """op on a block of u-series columns: derivation and weight entrywise,
    plus the matrix part as one product.  Given ``bracket`` = e, [op, X] -
    e u^p X instead, p the weight's power of u: by the Leibniz rule X_ts's
    derivation with weight w_t - w_s - e, plus [M, X] for the matrix M."""
    local, w, M, e = op.local, op.weights, op.matrix, bracket
    free = OperatorMatrix._made(X.source, X.target, {
        (t, s): y for (t, s), v in X.entries.items() if not (y := local(v, (
            w[t] if e is None or e == 0 and w[t] is None and w[s] is None
            else (w[t] or 0) - (w[s] or 0) - e))).is_zero()},
        X.degree + (0 if M is None else M.degree))
    return free if M is None else free + (
        M.compose(X) if e is None else _commutator(M, X))


def gamma_q(data: CartanData, X: OperatorMatrix) -> OperatorMatrix:
    """Gamma_q = u d/dq + q^-w iota_eq, on a block of u-series columns."""
    return _apply(data._op("gamma_q"), X)


def gamma_u(data: CartanData, X: OperatorMatrix) -> OperatorMatrix:
    """Gamma_u = 2 u^2 d/du + u*mu - 2*iota_mono, on a block of columns."""
    return _apply(data._op("gamma_u"), X)


def degree_weighted(data: CartanData, X: OperatorMatrix) -> OperatorMatrix:
    """Termwise multiplication by the total degree i(x) + 2E + 2k."""
    return _apply(data._op("deg"), X)


def _euler_bracket(data: CartanData, X: OperatorMatrix,
                   gq: OperatorMatrix) -> OperatorMatrix:
    """u deg(X) - 2q gq, gq = Gamma_q X: Gamma_u X by the Euler relation."""
    two, step = data.setup.monomial(2, 0), data.setup.lattice.steps_per_unit
    return (degree_weighted(data, X).entrywise(lambda w: w.times_u())
            - gq.entrywise(lambda g: g.scale(two).q_shift(step)))


# -- identity self-tests ------------------------------------------------------


def _sample_block(data: CartanData) -> OperatorMatrix:
    """The sample columns (``sample_block``) of the generators i where
    column i of iota_eq holds an entry with a q-tail or with valid < order:
    on the others the Euler relation and the Leibniz rules cancel exactly
    (derivation parts termwise, matrix parts as equal exact products), to
    decidably zero cells that an OperatorMatrix does not store."""
    N = data.order
    return sample_block(data.setup, data.diff.basis, N, sorted({
        s for (_, s), v in data.iota_eq.entries.items()
        if v.q_certificate() is not None or v.valid < N}))


def identity_report(data: CartanData) -> dict:
    """Verify the matrix and operator identities of the Cartan package.

    Identities 2-4 are [Gamma_q, d_eq] = 0, [deg, d_eq] = d_eq and
    [Gamma_u, d_eq] = u d_eq, each the bracket of the triple in the datum's
    operator table (``CartanData._op``) that ``gamma_q``, ``degree_weighted``
    and ``gamma_u`` apply, with no operator applied to unit columns
    (``_apply``); 5-7 are checked on the sample columns where iota_eq has a
    tail (``_sample_block``: the others' cells are decidably zero).  Each
    identity entry carries a verdict plus the u-order and q-order indices
    to which the vanishing was certified.
    """
    setup, N, d_eq = data.setup, data.order, data.diff.as_operator()
    results = []

    def record(name, cells):
        failures, valid, qcert = _scan(name, cells, N)
        results.append({"identity": name, "holds": not failures,
                        "verified_u_order": valid,
                        "verified_q_order_index": qcert,
                        "failures": failures})

    # 1. d_eq^2 = 0
    record("d_eq squared zero", _entries(d_eq.compose(d_eq)))

    # 1b. d_eq anticommutes with lambda_eq := entrywise d/dq of d_eq
    #     (the q-derivative of d_eq^2 = 0)
    lam = d_eq.entrywise(useries_udq)
    record("lambda_eq anticommutes with d_eq",
           _entries(d_eq.compose(lam, (lam, d_eq))))

    # 2. [Gamma_q, d_eq] = 0, printed as [d_eq, iota_eq] - u * lambda_eq in
    #    the regime's normalization: Gamma_q carries q^-w iota_eq, so the
    #    bracket is scaled by -q^w
    sign = setup.monomial(-1, REGIMES[data.regime])
    gq_op, gu_op = data._op("gamma_q"), data._op("gamma_u")
    record("connection commutes with d_eq", _entries(
        _apply(gq_op, d_eq, 0).entrywise(lambda e: e.scale(sign))))

    # 3-4. [deg, d_eq] = d_eq and [Gamma_u, d_eq] = u * d_eq: d_eq has
    #      degree 1, at the weight's power of u
    record("index operator homogeneity",
           _entries(_apply(data._op("deg"), d_eq, 1)))
    record("gamma_u commutator", _entries(_apply(gu_op, d_eq, 1)))

    # 5-7. operator identities on the sample block, column by column; a
    #      block without columns has no cell, and no operator is applied
    X = _sample_block(data)
    blocks = dict.fromkeys(("euler relation", "leibniz", "gamma_q leibniz"), X)
    if X.source:
        gu, gq = _apply(gu_op, X), _apply(gq_op, X)
        # 5. Euler relation: Gamma_u + 2q Gamma_q = u deg
        blocks["euler relation"] = gu - _euler_bracket(data, X, gq)
        # 6. Leibniz rule for Gamma_u with f = q + u:
        #    Gamma_u(f x) = f Gamma_u(x) + 2 u^2 (df/du) x,  2 u^2 df/du = 2u^2
        f = USeries.build(setup, N, [setup.monomial(1, 1), setup.one()])
        fX = X.entrywise(lambda w: w * f)
        df2 = USeries.from_novikov(setup.monomial(2, 0), N, 2)
        blocks["leibniz"] = _apply(gu_op, fX) - (
            gu.entrywise(lambda g: g * f) + X.entrywise(lambda w: w * df2))
        # 7. Leibniz rule for Gamma_q with the same scalar f = q + u:
        #    Gamma_q(f x) = u * (df/dq) x + f Gamma_q(x),  u df/dq = u
        uf = USeries.from_novikov(setup.one(), N, 1)
        blocks["gamma_q leibniz"] = _apply(gq_op, fX) - (
            gq.entrywise(lambda g: g * f) + X.entrywise(lambda w: w * uf))
    for name, block in blocks.items():
        record(name, _columns(block))

    return {"regime": data.regime, "order": N,
            "identities": results,
            "all_hold": all(r["holds"] for r in results)}


# -- reduction mod m ----------------------------------------------------------


def reduce_mod(data: CartanData, m: int) -> dict:
    """Reduction statement: if every q-exponent of d lies in m*Z and the
    iota family vanishes mod m, then Gamma_q reduces to u d/dq mod m (and
    Gamma_u to 2u^2 d/du + u mu mod 2m when 2*iota_mono vanishes mod 2m).

    Hypothesis violations are reported separately from conclusion failures.
    """
    if m < 2:
        raise NovikovError("modulus must be >= 2")
    diff = data.diff
    setup = data.setup
    hyp = []
    for k in range(len(diff.components)):
        for (t, s), v in diff.components[k].entries.items():
            for e in v.exponents():
                if (Fraction(e) / m).denominator != 1:
                    hyp.append({
                        "hypothesis": "d exponents in mZ",
                        "component": k,
                        "entry": [diff.basis[t].name, diff.basis[s].name],
                        "exponent": str(e),
                    })
    integral = setup.ring.kind == "Z"
    if not integral:
        hyp.append({"hypothesis": "iota = 0 mod m",
                    "inapplicable": f"coefficients are {setup.ring.describe()},"
                                    " divisibility is not meaningful"})
    else:
        for k, op in enumerate(data.iota):
            for (t, s), v in op.entries.items():
                for _, c in v.terms:
                    if c % m != 0:
                        hyp.append({
                            "hypothesis": "iota = 0 mod m",
                            "component": k,
                            "entry": [diff.basis[t].name, diff.basis[s].name],
                            "coefficient": str(c),
                        })

    # conclusions: lambda = q^w dq(d) and Gamma_q's part q^-w iota vanish
    # with coefficients in Z/m, Gamma_u's part 2 q^(1-w) iota in Z/2m.  A
    # power of q changes no coefficient, so each reads dq(d) or iota as
    # given; each maps every coefficient, in row-major order, before it
    # decides, so neither its answer nor its error depends on entry order
    def vanishes(ops, modulus, factor):
        ring, target = setup.ring, CoefficientRing("Zmod", modulus)
        images = []
        for op in ops:
            for key in sorted(op.entries):
                for _, c in op.entries[key].terms:
                    try:
                        images.append(target.coerce(ring.mul(c, factor)))
                    except CoefficientError:
                        raise CoefficientError(
                            f"coefficient {c} has no image"
                            f" in Z/{modulus}") from None
        return not any(images)

    lam_zero = vanishes(lambda_components(diff, "cy"), m, 1)
    iota_zero = vanishes(data.iota, m, 1)
    mono_zero = vanishes(data.iota, 2 * m, 2)
    return {"modulus": m, "hypothesis_violations": hyp,
            "hypothesis_holds": not hyp,
            "conclusion": {"lambda_vanishes_mod_m": lam_zero,
                           "gamma_q_is_u_dq_mod_m": iota_zero,
                           "gamma_u_is_free_part_mod_2m": mono_zero},
            "holds": (not hyp) and lam_zero and iota_zero and mono_zero}


# -- induced connection on cohomology -----------------------------------------


def flatten_equivariant(diff: EquivariantDifferential) -> GradedComplex:
    """The complex over the plain Novikov ring with basis u^j x_i, j < order,
    at j*n + i.  Its d is d_eq on the columns u^j x_i: column x_s is d_eq x_s
    read through ``_flatten``, and u^j moves it j*n rows down, mod u^order."""
    N, n = diff.order, diff.n
    basis = tuple(GeneratorInfo(g.name if j == 0 else f"u^{j}.{g.name}",
                                g.index + 2 * j)
                  for j in range(N) for g in diff.basis)
    d_x = _flatten(diff, diff.as_operator(), basis)
    return GradedComplex(diff.setup, diff.grading, basis, OperatorMatrix._made(
        basis, basis, {(r + j * n, j * n + s): v
                       for (r, s), v in d_x.entries.items()
                       for j in range(N - r // n)}, 1))


def _flatten(diff, X: OperatorMatrix, basis) -> OperatorMatrix:
    """A block of u-series columns on diff's basis as a block over the
    flattened ``basis``: coefficient j of row i is row u^j x_i, at j*n + i."""
    n = diff.n
    return OperatorMatrix(X.source, basis, {
        (j * n + i, s): c for (i, s), v in X.entries.items()
        for j, c in enumerate(v.coeffs)}, X.degree)


def _unflatten(diff, X: OperatorMatrix) -> OperatorMatrix:
    """The inverse of ``_flatten``: u-series columns on diff's basis."""
    n = diff.n
    return _useries_operator(diff, X.source, diff.basis, (
        (g // n, (g % n, s), v) for (g, s), v in X.entries.items()), X.degree)


def _u_chains(diff, H, X: OperatorMatrix) -> List[List[int]]:
    """The classes as u-chains [c, u c, u^2 c, ...], read from one matrix
    U = p(u X): X moved n rows down (``_flatten`` puts u^j x_i at j n + i),
    cut at u^N, and projected.  Class c is followed by c' where column c of
    U has one entry with visible terms and it is an exact 1 at c'; it ends
    its chain where the column has none.  Any other column, a residue, or
    two classes moving to one class makes each class a chain alone."""
    n, size, one = diff.n, len(X.target), diff.setup.one()
    U, residues = H.project(OperatorMatrix._made(X.source, X.target, {
        (g + n, c): v for (g, c), v in X.entries.items() if g + n < size},
        X.degree))
    moves = {(t, c): v for (t, c), v in U.entries.items() if v.has_terms()}
    succ = {c: t for t, c in moves}
    if residues or any(v != one for v in moves.values()) or not (
            len(moves) == len(succ) == len(set(succ.values()))):
        return [[c] for c in range(len(X.source))]
    chains = [[c] for c in range(len(X.source)) if c not in succ.values()]
    for chain in chains:
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
    return chains


def _along_chains(data, op, C, H, X: OperatorMatrix, chains):
    """(p Gamma X, p's residues by chain), Gamma and p applied to the chains'
    first classes only.  Gamma_q(u^j y) = u^j Gamma_q(y) and Gamma_u(u^j y)
    = u^j Gamma_u(y) + 2j u^(j+1) y, so column j of a chain is p Gamma of
    its first class with each class moved j steps along its chain (dropped
    past its end), plus 2j in the ring at the chain's class j + 1."""
    diff, first = data.diff, {chain[0]: i for i, chain in enumerate(chains)}
    Y = OperatorMatrix._made(tuple(X.source[c] for c in first), X.target, {
        (g, first[c]): v for (g, c), v in X.entries.items() if c in first}, 0)
    coeffs, residues = H.project(_flatten(diff, op(data, _unflatten(diff, Y)),
                                          C.basis))
    at = {c: (chain, j) for chain in chains for j, c in enumerate(chain)}
    out = {}
    for (t, i), a in coeffs.entries.items():
        along, jt = at[t]
        for j, c in enumerate(chains[i][:len(along) - jt]):
            out[(along[jt + j], c)] = a
    for chain in chains if op is gamma_u else ():
        for j, (c, up) in enumerate(zip(chain[1:], chain[2:]), 1):
            out[(up, c)] = out.get((up, c), data.setup.zero()) + (
                data.setup.monomial(2 * j, 0))
    return OperatorMatrix(X.source, H.classes, out), residues


def _texts(setup, block: OperatorMatrix) -> List[List[str]]:
    """The columns of a block as text, formatting only stored entries."""
    zero = str(setup.zero())
    cols = [[zero] * len(block.target) for _ in block.source]
    for (t, s), v in block.entries.items():
        cols[s][t] = str(v)
    return cols


def induced_connection(data: CartanData, which: str = "gamma_q",
                       q_order: Optional[int] = None) -> dict:
    """Matrix of the connection operator on equivariant cohomology classes.

    Cohomology of the u-truncated complex is computed over the Novikov
    field with its projection p onto the classes, once per datum and
    q-order, with the class block, its text and its u-chains
    (``_u_chains``), which Gamma_q and Gamma_u share as they share the
    datum's operator table (``CartanData._op``); a degree no differential
    enters or leaves keeps its generators as representatives.  Row c of the
    matrix is p(Gamma rep_c), read by the shift rule from each chain's first
    class (``_along_chains``); where one of those images leaves a residue,
    every class goes through Gamma and p, and an image that is not a
    cocycle is reported as not expressible.
    Well-definedness on cohomology is certified exactly: Gamma descends to
    classes iff every Gamma(rep_c) is a cocycle and Gamma maps boundaries
    to boundaries.  These are a Lambda[u]-submodule and Gamma(u^j y) is
    u^j Gamma(y), plus 2j u^(j+1) y for Gamma_u, so it suffices that p
    sends Gamma(d x_i) to zero with no residue for the basis generators x_i.

    On an acyclic d_0 (``_contract``) the u-adic filtration is finite with
    acyclic graded pieces (C, d_0), so H_eq = 0: the report has no classes
    and nothing is flattened.
    """
    if which not in ("gamma_q", "gamma_u"):
        raise NovikovError(f"unknown operator {which!r}")
    op = gamma_q if which == "gamma_q" else gamma_u
    diff = data.diff
    # the matrix part op applies: empty where -2 = 0 or iota is past u^N
    zero = data._op(which).matrix.is_visibly_zero()
    if which == "gamma_q":
        form = "u*d/dq" if zero else "u*d/dq + iota part"
    else:
        form = ("2*u^2*d/du + u*mu" if zero
                else "2*u^2*d/du + u*mu - 2*iota part")
    out = {"operator": which, "operator_form": form,
           "matrix_part_is_zero": zero, "classes": [],
           "matrix": [], "well_defined": True, "issues": []}
    if _contract(diff)[0]:
        return out
    key = linalg.Q_ORDER if q_order is None else q_order
    if key not in data._H:
        C = flatten_equivariant(diff)
        H = cohomology_over_novikov_field(C, key)
        X = H.class_block(C.basis)
        data._H[key] = (C, H, X, _texts(data.setup, X), _u_chains(diff, H, X))
    C, H, X, texts, chains = data._H[key]
    out["classes"] = [{"degree": c.index, "representative": list(col)}
                      for c, col in zip(X.source, texts)]
    if not X.source:
        return out
    issues = out["issues"]
    coeffs, residues = _along_chains(data, op, C, H, X, chains)
    if residues and len(chains) < len(X.source):
        coeffs, residues = _along_chains(data, op, C, H, X, [
            [c] for c in range(len(X.source))])
    out["matrix"] = [None if ci in residues else col
                     for ci, col in enumerate(_texts(data.setup, coeffs))]
    for ci, (g, value) in sorted(residues.items()):
        issues.append({"class": ci, "problem": "image not expressible",
                       "residual_generator": C.basis[g].name,
                       "residual": str(value)})
    # the boundaries d(x_s) are the columns of d_eq; x_s is C's generator s
    coeffs, residues = H.project(
        _flatten(diff, op(data, diff.as_operator()), C.basis))
    for s in sorted(residues.keys() | {
            s for (_, s), c in coeffs.entries.items() if c.has_terms()}):
        issues.append({"boundary_of": C.basis[s].name,
                       "problem": "image of a boundary is not a boundary"})
    out["well_defined"] = not issues
    return out
