"""Quantum connections on user-supplied quantum-cohomology data.

A QuantumRing is a finite based free module over the Novikov ring with a
sparse multiplication table (the small quantum product), a designated unit,
and a distinguished degree-2 class ``omega`` (the first Chern class in the
monotone normalization).  The module does not compute any enumerative
invariants: the table is input data.  The product is read in one place,
``QuantumRing.multiplication(x)``: the ``OperatorMatrix`` L_x of quantum
multiplication by x, with entry (k, j) = sum_i x_i table[(i, j)][k].
``validate`` checks the ring axioms the rest of the module relies on as
identities between these operators (unit, commutativity, associativity),
plus q-degree-2 homogeneity of the table and of omega.

Operators on blocks of elements of H (x) Lambda[u]/u^N (an
``OperatorMatrix`` whose columns are the elements, as u-series):

    D_q x    =  u dx/dq + omega * x
    D_u x    =  2 u^2 dx/du - 2 (q*omega) * x + u mu(x)
    deg_q x  =  (mu + 2u d/du + 2q d/dq) x   (termwise degree weighting)

These are the Cartan connections of a datum with d = 0: D_q, D_u and deg_q
are ``gamma_q``, ``gamma_u`` and ``degree_weighted`` of
``QuantumRing.cartan_data``, whose iota_0 = L_{q*omega} is quantum
multiplication by q*omega (monotone regime).

``uq_identity_check`` certifies the bracket identity
D_u = (u deg_q - 2q D_q)|_{q=1}: the differentiation terms cancel
symbolically, so the mathematical content is (a) that the bracket is
Lambda-linear (checked with witnesses) and (b) the homogeneity of the
table and of omega; both sides are still expanded independently on the
sample columns where q*omega has a tail, and compared before and after q -> 1.

``forbidden_summand_check`` implements the direct-summand obstruction: a
(u - lam)^d torsion summand with lam invertible is incompatible with a
connection in the 2u^2 d/du direction, because the defect term
2d u^2 (u - lam)^(d-1) projects to 2d lam^2 * (u - lam)^(d-1), a unit
multiple of the summand's socle generator whenever 2, d, lam are all
invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .novikov import (
    CoefficientError,
    CoefficientRing,
    InputError,
    NovikovElem,
    ScalarSetup,
    USeries,
)
from .complexes import GeneratorInfo, GradingKind, OperatorMatrix
from .cartan import (CartanData, EquivariantDifferential, _columns,
                     _euler_bracket, _iota_degree, _sample_block, gamma_q,
                     gamma_u)

__all__ = [
    "QuantumRing",
    "uq_identity_check",
    "forbidden_summand_check",
    "projective_space_model",
]


@dataclass
class QuantumRing:
    """Based Novikov module with a sparse product table and distinguished
    degree-2 class."""

    setup: ScalarSetup
    basis: Tuple[GeneratorInfo, ...]
    table: Dict[Tuple[int, int], Dict[int, NovikovElem]]
    unit: int = 0
    omega: Dict[int, NovikovElem] = None

    def __post_init__(self):
        self.basis = tuple(self.basis)
        self.table = {
            k: {i: c for i, c in v.items() if not c.is_zero()}
            for k, v in self.table.items()
        }
        self.omega = {i: c for i, c in (self.omega or {}).items()
                      if not c.is_zero()}

    @property
    def rank(self) -> int:
        return len(self.basis)

    def product_of_basis(self, i: int, j: int) -> Dict[int, NovikovElem]:
        return self.table.get((i, j), {})

    def multiplication(self, x: Dict[int, NovikovElem],
                       degree: int = 0) -> OperatorMatrix:
        """L_x, quantum multiplication by x = sum_i x_i e_i: the operator
        with entry (k, j) = sum_i x_i table[(i, j)][k]."""
        cells: Dict[Tuple[int, int], list] = {}
        for i, w in x.items():
            for j in range(self.rank):
                for k, c in self.product_of_basis(i, j).items():
                    cells.setdefault((k, j), []).append((w, c))
        return OperatorMatrix(self.basis, self.basis, {
            key: NovikovElem.sum_of_products(pairs)
            for key, pairs in cells.items()}, degree)

    def star_useries(self, a: List[NovikovElem],
                     vec: List[USeries]) -> List[USeries]:
        """a * vec, coefficientwise in u: L_a on each u-coefficient."""
        if not vec:
            return []
        order = vec[0].order
        valid = min(v.valid for v in vec)
        L = self.multiplication({i: c for i, c in enumerate(a)
                                 if not c.is_zero()})
        out = [[self.setup.zero()] * order for _ in range(self.rank)]
        for (k, j), c in L.entries.items():
            for m, b in enumerate(vec[j].coeffs):
                if not b.is_zero():
                    out[k][m] = out[k][m] + c * b
        return [USeries.build(self.setup, order, cs, valid) for cs in out]

    def cartan_data(self, order: int) -> CartanData:
        """The quantum connections as a Cartan datum mod u^order: d = 0 and,
        in the monotone regime, iota_0 = L_{q omega} at degree 2."""
        step = self.setup.lattice.steps_per_unit
        q_omega = {i: w.q_shift(step) for i, w in self.omega.items()}
        iota = self.multiplication(q_omega, _iota_degree("monotone", 0))
        diff = EquivariantDifferential.build(self.setup, GradingKind("Z"),
                                             self.basis, [{}], order)
        return CartanData(diff, (iota,), "monotone")

    # -- axioms ---------------------------------------------------------------

    def validate(self) -> List[dict]:
        """Ring-axiom violations, read off the operators L_i = L_{e_i}:
        unit (L_unit e_i = e_i), commutativity (L_i e_j = L_j e_i),
        associativity (L_{e_i e_j} = L_i L_j, column by column) and
        q-degree-2 homogeneity of the table and of omega."""
        out = []
        setup = self.setup
        zero, one = setup.zero(), setup.one()
        n = self.rank
        names = [g.name for g in self.basis]
        L = [self.multiplication({i: one}) for i in range(n)]
        cols = [op.columns(zero) for op in L]  # cols[i][j] = L_i e_j
        for i in range(n):
            got = cols[self.unit][i]
            if any((g - (one if k == i else zero)).has_terms()
                   for k, g in enumerate(got)):
                out.append({"axiom": "unit", "element": names[i],
                            "value": [str(g) for g in got]})
        for i in range(n):
            for j in range(i + 1, n):
                if any((x - y).has_terms()
                       for x, y in zip(cols[i][j], cols[j][i])):
                    out.append({"axiom": "commutativity",
                                "pair": [names[i], names[j]]})
        for i in range(n):
            for j in range(n):
                ij = {k: c for k, c in enumerate(cols[i][j]) if c}
                defect = self.multiplication(ij) - L[i].compose(L[j])
                bad = {s for (_, s), v in defect.entries.items()
                       if v.has_terms()}
                out.extend({"axiom": "associativity",
                            "triple": [names[i], names[j], names[k]]}
                           for k in sorted(bad))
        out.extend(self.homogeneity_witnesses())
        return out

    def homogeneity_witnesses(self) -> List[dict]:
        """Each table term must satisfy deg_k + 2E = deg_i + deg_j; each
        omega term must have total degree 2."""
        names = [g.name for g in self.basis]
        columns = [({"axiom": "homogeneity", "product": [names[i], names[j]]},
                    self.basis[i].index + self.basis[j].index, col)
                   for (i, j), col in self.table.items()]
        columns.append(({"axiom": "omega homogeneity"}, 2, self.omega))
        return [{**head, "term": names[k], "exponent": str(e),
                 "expected_degree": want, "observed": str(got)}
                for head, want, col in columns for k, c in col.items()
                for e in c.exponents()
                if (got := self.basis[k].index + 2 * e) != want]


def _specialized_columns(X: OperatorMatrix, zero: USeries):
    """q -> 1 on every coefficient of a block: per column, per basis
    element, the list (per u-order) of coefficient-ring values."""
    return [[[c.specialize_q1() for c in v.coeffs] for v in col]
            for col in X.columns(zero)]


def uq_identity_check(Q: QuantumRing, order: int = 3) -> dict:
    """Certify D_u = (u deg_q - 2q D_q)|_{q=1}.

    Steps: (1) homogeneity of the table and omega (the identity's grading
    content), with witnesses; (2) Lambda-linearity of the bracket
    B = u deg_q - 2q D_q, checked as B(q x) = q B(x); (3) independent
    expansion of D_u and of B, compared exactly and after the q -> 1
    specialization.  With d = 0, D_u and B expand to the same formula and B
    is q-linear for every table and omega, so steps 2 and 3 run only on the
    sample columns where L_{q omega} has a tail (``cartan._sample_block``):
    on an exact table only homogeneity witnesses can appear.
    """
    setup = Q.setup
    step = setup.lattice.steps_per_unit
    homog = Q.homogeneity_witnesses()
    data = Q.cartan_data(order)
    X = _sample_block(data)
    B = _euler_bracket(data, X, gamma_q(data, X))
    qX = X.entrywise(lambda v: v.q_shift(step))
    defect = (_euler_bracket(data, qX, gamma_q(data, qX))
              - B.entrywise(lambda v: v.q_shift(step)))
    linear_witnesses = [{
        "check": "bracket q-linearity", "sample": where["sample"],
        "component": where["row"], "difference": str(v),
    } for where, v in _columns(defect) if v]
    G = gamma_u(data, X)
    exact = (G - B).is_visibly_zero()
    zero = USeries.zero(setup, order)
    identity_witnesses = [{
        "check": "specialized identity", "sample": c.name,
        "lhs_q1": [[str(x) for x in row] for row in sl],
        "rhs_q1": [[str(x) for x in row] for row in sr],
    } for c, sl, sr in zip(X.source, _specialized_columns(G, zero),
                           _specialized_columns(B, zero)) if sl != sr]
    return {
        "order": order,
        "homogeneity_witnesses": homog,
        "q_linear": not (homog or linear_witnesses),
        "q_linearity_witnesses": linear_witnesses,
        "identity_holds_specialized": not identity_witnesses,
        "identity_exact": exact,
        "identity_witnesses": identity_witnesses,
        "holds": not (homog or linear_witnesses or identity_witnesses),
    }


# -- forbidden summand obstruction --------------------------------------------


def forbidden_summand_check(lam, d: int, ring: str = "Z",
                            p: Optional[int] = None) -> dict:
    """Can R[u]/(u - lam)^d appear as a direct summand compatible with a
    2u^2 d/du connection?

    Differentiating (u - lam)^d x = 0 along the connection leaves the defect
    2d u^2 (u - lam)^(d-1) x; substituting u = v + lam and reducing mod v^d,
    only 2d lam^2 v^(d-1) survives.  The summand is forbidden exactly when
    the surviving coefficient 2 d lam^2 is invertible-up-to-unit in R:
    over Z, iff lam != 0; over F_p with p odd, iff p | d and p | lam both
    fail.  p = 2 kills the factor 2 and the criterion is inapplicable.
    """
    if d < 1:
        raise InputError("torsion exponent d must be >= 1")
    if ring not in ("Z", "Fp"):
        shown = f"Z/{p}" if ring == "Zmod" else ring  # as the user wrote it
        raise InputError(f"unsupported ring {shown!r}")
    try:
        lam = Fraction(lam)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"lambda {lam!r} is not a rational number") from exc
    if ring == "Fp":
        field = CoefficientRing("Fp", p)  # raises unless p is prime
        if p == 2:
            return {"verdict": "inapplicable", "ring": "F2",
                    "reason": "the obstruction coefficient carries a factor "
                              "of 2, which vanishes in characteristic 2"}
        if lam.denominator % p == 0:
            raise CoefficientError(
                f"lambda = {lam} has no image in F{p}: its denominator is "
                f"divisible by {p}")
        lam = field.from_rational(lam)
        coeff = (2 * d * lam * lam) % p
        forbidden = (d % p != 0) and (lam % p != 0)
        ring_desc = f"F{p}"
    else:
        coeff = 2 * d * lam * lam
        forbidden = lam != 0
        ring_desc = "Z"
    # defect expansion 2d u^2 (u-lam)^(d-1) with u = v + lam, coefficients
    # of v^0 .. v^(d-1) after reduction mod v^d:
    #   2d (v + lam)^2 v^(d-1)  ->  2d lam^2 v^(d-1)
    expansion = ["0"] * (d - 1) + [str(coeff)]
    full = []  # unreduced 2d (v+lam)^2 v^(d-1) = 2d v^(d+1) + 4d lam v^d + 2d lam^2 v^(d-1)
    for j, c in ((d - 1, 2 * d * lam * lam), (d, 4 * d * lam), (d + 1, 2 * d)):
        cc = field.from_rational(c) if ring == "Fp" else c
        full.append({"v_power": j, "coefficient": str(cc)})
    return {
        "verdict": "forbidden" if forbidden else "not_excluded",
        "ring": ring_desc,
        "lambda": str(lam),
        "d": d,
        "certificate": {
            "surviving_coefficient": str(coeff),
            "surviving_power": d - 1,
            "reduced_defect_coefficients": expansion,
            "defect_before_reduction": full,
            "statement": "2d*u^2*(u-lambda)^(d-1) = "
                         "2d*lambda^2*(u-lambda)^(d-1) modulo "
                         "(u-lambda)^d and higher socle terms",
        },
    }


# -- a standard homogeneous model ---------------------------------------------


def projective_space_model(n: int, setup: ScalarSetup) -> QuantumRing:
    """Rank n+1 ring with e_i * e_j = e_{i+j} for i+j <= n and
    q^(n+1) * e_{i+j-n-1} beyond; omega = (n+1) e_1.  A standard
    associative, commutative table, homogeneous for |q| = 2 (the basic
    sphere class carries energy n+1)."""
    basis = tuple(GeneratorInfo(f"e{i}", 2 * i) for i in range(n + 1))
    table = {}
    one = setup.one()
    qm = setup.monomial(1, n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            if i + j <= n:
                table[(i, j)] = {i + j: one}
            else:
                table[(i, j)] = {i + j - n - 1: qm}
    omega = {1: setup.monomial(n + 1, 0)} if n >= 1 else {}
    return QuantumRing(setup, basis, table, unit=0, omega=omega)
