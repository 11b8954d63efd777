import itertools
import random

import pytest
import sympy

from eqcartan import complexes
from eqcartan.complexes import (
    GeneratorInfo,
    GradedComplex,
    GradingKind,
    OperatorMatrix,
    cohomology_over_novikov_field,
    dvr_diagonalize,
    les_consistency,
    mapping_cone,
    u_module_decomposition,
    validate_complex,
)
from eqcartan.cartan import EquivariantDifferential
from eqcartan.linalg import UndeterminedError
from eqcartan.novikov import (CoefficientError, InputError, InternalError,
                              NovikovElem, NovikovError, ScalarSetup, USeries)

from conftest import random_equivariant_differential, via_block

SETUP = ScalarSetup.make(1, "Q")
SETUP_F2 = ScalarSetup.make(1, "F2")
_q = sympy.Symbol("q")


# -- grading bookkeeping -------------------------------------------------------


def test_grading_kinds():
    z = GradingKind("Z")
    assert z.displayed(-3) == -3 and z.displayed(2 + 1) == 3
    m2 = GradingKind("Z/2")
    assert m2.displayed(-3) == 1 and m2.displayed(1 + 1) == 0
    m6 = GradingKind("Z/2m", 3)
    assert m6.displayed(7) == 1 and m6.displayed(5 + 1) == 0


# -- validation ----------------------------------------------------------------


def two_step_complex(c=None):
    basis = (GeneratorInfo("a", 0), GeneratorInfo("b", 1))
    entries = {(1, 0): c if c is not None else SETUP.one()}
    return GradedComplex.build(SETUP, GradingKind("Z"), basis, entries)


def test_validate_accepts_two_step():
    assert validate_complex(two_step_complex()) == []


def test_validate_flags_nonsquaring_differential():
    basis = (GeneratorInfo("a", 0), GeneratorInfo("b", 1),
             GeneratorInfo("c", 2))
    entries = {(1, 0): SETUP.one(), (2, 1): SETUP.one()}
    C = GradedComplex.build(SETUP, GradingKind("Z"), basis, entries)
    bad = validate_complex(C)
    assert any(v["invariant"] == "d squared zero" for v in bad)


def test_a_differential_off_the_basis_is_refused():
    basis = (GeneratorInfo("a", 0), GeneratorInfo("b", 1))
    other = (GeneratorInfo("a", 0),)
    with pytest.raises(InputError, match="differential d basis mismatch"):
        GradedComplex(SETUP, GradingKind("Z"), basis,
                      OperatorMatrix(other, other, {}, 1))


def test_validate_flags_degree_shift():
    basis = (GeneratorInfo("a", 0), GeneratorInfo("b", 2))
    C = GradedComplex.build(SETUP, GradingKind("Z"), basis,
                            {(1, 0): SETUP.one()})
    bad = validate_complex(C)
    assert any(v["invariant"] == "degree shift" for v in bad)


def test_validate_q_degree_two_homogeneity():
    # d(x) = q^2 y with |x| = 1, |y| = -2: 1 = -2 - 1 + 2*2 checks out
    basis = (GeneratorInfo("x", 1), GeneratorInfo("y", -2))
    C = GradedComplex.build(SETUP, GradingKind("Z/2"), basis,
                            {(1, 0): SETUP.monomial(1, 2)},
                            q_degree_two=True)
    assert validate_complex(C) == []
    bad_C = GradedComplex.build(SETUP, GradingKind("Z/2"), basis,
                                {(1, 0): SETUP.monomial(1, 1)},
                                q_degree_two=True)
    assert any(v["invariant"] == "q-degree-2 homogeneity"
               for v in validate_complex(bad_C))


# -- cohomology over the Novikov field ----------------------------------------


def test_acyclic_two_step():
    rep = cohomology_over_novikov_field(two_step_complex())
    assert all(v["betti"] == 0 for v in rep["degrees"].values())


def test_zero_differential_full_betti():
    basis = (GeneratorInfo("a", 0), GeneratorInfo("b", 0),
             GeneratorInfo("c", 1))
    C = GradedComplex.build(SETUP, GradingKind("Z"), basis, {})
    rep = cohomology_over_novikov_field(C)
    assert rep["degrees"][0]["betti"] == 2
    assert rep["degrees"][1]["betti"] == 1


def test_cohomology_requires_field():
    setup_z = ScalarSetup.make(1, "Z")
    basis = (GeneratorInfo("a", 0),)
    C = GradedComplex.build(setup_z, GradingKind("Z"), basis, {})
    with pytest.raises(NovikovError):
        cohomology_over_novikov_field(C)


def _random_parity_complex(rng, ne, no, density=0.7):
    """Mod-2 graded complex: d nonzero only from even to odd generators."""
    basis = tuple(
        [GeneratorInfo(f"e{i}", 0) for i in range(ne)]
        + [GeneratorInfo(f"o{i}", 1) for i in range(no)]
    )
    entries = {}
    A = sympy.zeros(no, ne)
    for t in range(no):
        for s in range(ne):
            if rng.random() < density:
                c = rng.randint(-3, 3)
                e = rng.randint(0, 3)
                if c:
                    entries[(ne + t, s)] = SETUP.monomial(c, e)
                    A[t, s] = c * _q ** e
    C = GradedComplex.build(SETUP, GradingKind("Z/2"), basis, entries)
    return C, A


@pytest.mark.parametrize("seed", range(12))
def test_betti_matches_sympy_rank(seed):
    rng = random.Random(seed)
    ne, no = rng.randint(1, 4), rng.randint(1, 4)
    C, A = _random_parity_complex(rng, ne, no)
    assert validate_complex(C) == []
    r = A.rank()
    rep = cohomology_over_novikov_field(C)
    assert rep["degrees"][0]["betti"] == ne - r
    assert rep["degrees"][1]["betti"] == no - r


@pytest.mark.parametrize("seed", range(6))
def test_representatives_are_cocycles(seed):
    rng = random.Random(50 + seed)
    C, _ = _random_parity_complex(rng, rng.randint(1, 4), rng.randint(1, 4))
    rep = cohomology_over_novikov_field(C)
    zero = SETUP.zero()
    for k, entry in rep["degrees"].items():
        gens = C.generators_in_degree(k)
        for r in entry["representatives"]:
            full = [zero] * len(C.basis)
            for pos, g in enumerate(gens):
                full[g] = r[pos]
            img = via_block(C.d.compose, C.basis, full, zero)
            assert all(not v.has_terms() for v in img)


# -- DVR decomposition: exhaustive comparison with an F2 brute-force oracle ----
#
# Entries live in R = F2[u]/u^3, encoded as bit triples (c0, c1, c2).  The
# oracle computes the cokernel M of the matrix as a module over R by plain
# F2 linear algebra on the 3m-dimensional realization, reading off the
# multiplicities of R, R/u and R/u^2 from dim M, dim uM, dim u^2 M.
#
# _oracle_invariants holds each image vector as an int bitmask whose bit
# (2 - j) * m + t is the coordinate u^j e_t, so the coordinates of u-power
# below p are the top p*m bits.  dim u^p M = dim(u^p R^m + im D) - rank D,
# and u^p R^m is spanned by the coordinates of u-power p and above, so
# dim(u^p R^m + im D) = (3 - p) m + the rank of im D projected onto the
# top p*m bits.  In an echelon basis with distinct leading bits that rank
# is the number of leading bits among the top p*m, so one elimination of
# im D serves all three powers.  _list_oracle_invariants, which ranks the
# stacked F2 matrix [u^p R^m | D] per power on list rows, is its reference
# on the full 2x2 sweep.


def _oracle_invariants(D, m, n):
    """(free_rank, count of R/u summands, count of R/u^2 summands)."""
    leading = {}  # leading bit -> the echelon vector that has it
    for s in range(n):
        for i in range(3):  # the image of u^i e_s
            v = 0
            for t in range(m):
                for j, c in enumerate(D[t][s][:3 - i]):
                    v |= c << (2 - i - j) * m + t
            while v and (top := v.bit_length() - 1) in leading:
                v ^= leading[top]
            if v:
                leading[top] = v
    r = len(leading)
    c0, c1, c2 = ((3 - p) * m + sum(top >= (3 - p) * m for top in leading)
                  - r for p in (0, 1, 2))
    f = c2
    b = c1 - 2 * f
    a = c0 - 3 * f - 2 * b
    return f, a, b


def _f2_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _linearize(D, m, n):
    """F2 matrix of D: R^n -> R^m on the basis (g, 1), (g, u), (g, u^2)."""
    big = [[0] * (3 * n) for _ in range(3 * m)]
    for t in range(m):
        for s in range(n):
            c = D[t][s]
            for i in range(3):       # u-power of the input
                for j in range(3 - i):
                    if c[j]:
                        big[3 * t + i + j][3 * s + i] = 1
    return big


def _list_oracle_invariants(D, m, n):
    """_oracle_invariants on list rows, one stacked rank per power."""
    big = _linearize(D, m, n)
    r = _f2_rank([row[:] for row in big]) if m and n else 0
    dims = []
    for power in (0, 1, 2):
        # columns of u^power on R^m, alongside the image of D
        cols = []
        for g in range(m):
            for i in range(3 - power):
                v = [0] * (3 * m)
                v[3 * g + i + power] = 1
                cols.append(v)
        stacked = [[cols[c][rr] for c in range(len(cols))]
                   + [big[rr][c] for c in range(3 * n)]
                   for rr in range(3 * m)]
        dims.append(_f2_rank(stacked) - r)
    c0, c1, c2 = dims
    f = c2
    b = c1 - 2 * f
    a = c0 - 3 * f - 2 * b
    return f, a, b


def _useries_matrix(D, m, n):
    rows = []
    for t in range(m):
        row = []
        for s in range(n):
            coeffs = [SETUP_F2.monomial(c, 0) if c else SETUP_F2.zero()
                      for c in D[t][s]]
            row.append(USeries.build(SETUP_F2, 3, coeffs))
        rows.append(row)
    return rows


def _check_against_oracle(D, m, n):
    f_o, a_o, b_o = _oracle_invariants(D, m, n)
    pivots, _ = dvr_diagonalize(_useries_matrix(D, m, n), SETUP_F2, 3)
    vals = [v for _, _, v in pivots]
    assert m - len(pivots) == f_o, (D, pivots, (f_o, a_o, b_o))
    assert vals.count(1) == a_o, (D, pivots, (f_o, a_o, b_o))
    assert vals.count(2) == b_o, (D, pivots, (f_o, a_o, b_o))


R_ELEMENTS = [(c0, c1, c2) for c0 in (0, 1) for c1 in (0, 1)
              for c2 in (0, 1)]
R_NONZERO = [e for e in R_ELEMENTS if any(e)]


def test_dvr_exhaustive_2x2():
    for vals in itertools.product(R_ELEMENTS, repeat=4):
        D = [[vals[0], vals[1]], [vals[2], vals[3]]]
        _check_against_oracle(D, 2, 2)


def test_bitmask_oracle_matches_the_list_oracle():
    for m, n in ((2, 2), (1, 3), (3, 1)):
        for vals in itertools.product(R_ELEMENTS, repeat=m * n):
            D = [[vals[t * n + s] for s in range(n)] for t in range(m)]
            assert (_oracle_invariants(D, m, n)
                    == _list_oracle_invariants(D, m, n)), D


def test_dvr_exhaustive_1xk():
    for m, n in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1)):
        for vals in itertools.product(R_ELEMENTS, repeat=m * n):
            D = [[vals[t * n + s] for s in range(n)] for t in range(m)]
            _check_against_oracle(D, m, n)


def test_dvr_exhaustive_3x3_sparse():
    cells = list(itertools.product(range(3), repeat=2))
    zero = (0, 0, 0)
    for support in itertools.combinations(cells, 3):
        for vals in itertools.product(R_NONZERO, repeat=3):
            D = [[zero] * 3 for _ in range(3)]
            for (t, s), v in zip(support, vals):
                D[t][s] = v
            _check_against_oracle(D, 3, 3)


# -- u-module decomposition of differentials ----------------------------------


def _embed_as_differential(B, m, n):
    """d = [[0, B], [0, 0]] on m + n generators, so d^2 = 0 exactly."""
    basis = tuple(
        [GeneratorInfo(f"t{i}", 0) for i in range(m)]
        + [GeneratorInfo(f"s{i}", 1) for i in range(n)]
    )
    rows = _useries_matrix(B, m, n)
    zero = USeries.zero(SETUP_F2, 3)
    entries = {}
    for t in range(m):
        for s in range(n):
            if rows[t][s]:
                entries[(t, m + s)] = rows[t][s]
    return OperatorMatrix(basis, basis, entries, 1)


@pytest.mark.parametrize("seed", range(15))
def test_u_module_decomposition_matches_oracle(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    D = [[rng.choice(R_ELEMENTS) for _ in range(n)] for _ in range(m)]
    f_o, a_o, b_o = _oracle_invariants(D, m, n)
    rep = u_module_decomposition(_embed_as_differential(D, m, n),
                                 analysis_order=3,
                                 grading=GradingKind("Z/2"))
    total_free = sum(e["free_rank"] for e in rep.per_degree.values())
    torsion = sorted(
        v for e in rep.per_degree.values() for v in e["torsion_orders"])
    # each pivot of B consumes one target row and one source column
    assert total_free == (m + n) - 2 * (m - f_o)
    assert torsion == sorted([1] * a_o + [2] * b_o)


def test_torsion_degree_convention():
    # d_eq = u on a single pair contributes Lambda[u]/u torsion at the
    # target's displayed degree
    basis = (GeneratorInfo("y", 0), GeneratorInfo("x", 1))
    u_entry = USeries.build(SETUP, 3, [SETUP.zero(), SETUP.one()])
    d = OperatorMatrix(basis, basis, {(0, 1): u_entry}, 1)
    rep = u_module_decomposition(d, analysis_order=3,
                                 grading=GradingKind("Z"))
    assert rep.per_degree[0]["torsion_orders"] == [1]


def test_a_pivot_past_the_analysis_order_is_undetermined():
    # d = u^2 is known to u-order 3; at analysis order 2 its pivot u^2
    # cannot be told from zero, and dvr_diagonalize says so
    basis = (GeneratorInfo("y", 0), GeneratorInfo("x", 1))
    u2 = USeries.build(SETUP, 3, [SETUP.zero(), SETUP.zero(), SETUP.one()])
    d = OperatorMatrix(basis, basis, {(0, 1): u2}, 1)
    with pytest.raises(UndeterminedError, match="pivot 0,1 has u-valuation "
                       "2 >= the analysis order 2"):
        u_module_decomposition(d, analysis_order=2, grading=GradingKind("Z"))
    rep = u_module_decomposition(d, analysis_order=3, grading=GradingKind("Z"))
    assert rep.per_degree[0]["torsion_orders"] == [2]


@pytest.mark.parametrize("ring", ["Q", "Z"])
@pytest.mark.parametrize("order", [1, 4])
def test_a_zero_d_eq_is_free_in_every_displayed_degree(ring, order):
    """A zero d_eq goes through the DVR pass with no entry to eliminate,
    which needs no field: over Z too, every generator is free."""
    basis = tuple(GeneratorInfo(n, k) for n, k in (
        ("a", 0), ("b", 3), ("c", 1), ("d", 2), ("e", 5)))
    d_eq = EquivariantDifferential.build(
        ScalarSetup.make(1, ring), GradingKind("Z/2"), basis, [{}],
        order=3).as_operator()
    rep = u_module_decomposition(d_eq, analysis_order=order,
                                 grading=GradingKind("Z/2"))
    assert rep.order == order
    assert rep.verified_q_order_index is None
    assert rep.per_degree == {
        0: {"free_rank": 2, "torsion_orders": [], "undetermined": 0},
        1: {"free_rank": 3, "torsion_orders": [], "undetermined": 0}}


@pytest.mark.parametrize("rows, want, inverses", [
    ([{0: "1"}, {1: "u"}], ([(0, 0, 0), (1, 1, 1)], None), 0),  # no row
    # the pivot row has no entry left: the row below only drops its entry
    ([{0: "1"}, {0: "u"}], ([(0, 0, 0)], None), 0),
    ([{0: "1", 1: "1"}, {0: "u"}], ([(0, 0, 0), (1, 1, 1)], None), 1),
    # an entry without visible terms beside a pivot alone in its row: no
    # product; beside a visible entry: its tail reaches the certificate
    ([{0: "1"}, {0: "t"}], ([(0, 0, 0)], None), 0),
    ([{0: "1", 1: "1"}, {0: "t"}], ([(0, 0, 0)], 2), 1),
], ids=["diagonal", "column", "row-kept", "termless", "termless-row-kept"])
def test_dvr_inverts_a_pivot_unit_only_to_clear_a_row(monkeypatch, rows,
                                                      want, inverses):
    calls = []
    real = complexes.useries_invert_unit
    monkeypatch.setattr(complexes, "useries_invert_unit",
                        lambda w, q_order: calls.append(w) or real(w, q_order))
    entry = {"1": USeries.build(SETUP, 3, [SETUP.one()]),
             "u": USeries.build(SETUP, 3, [SETUP.zero(), SETUP.one()]),
             "t": USeries.build(SETUP, 3, [NovikovElem(SETUP, (), 2)])}
    assert dvr_diagonalize(
        [{c: entry[e] for c, e in row.items()} for row in rows], SETUP, 3
    ) == want
    assert len(calls) == inverses


def test_dvr_skipping_an_update_keeps_the_dropped_tail():
    # the pivot u (row 0) is alone in its row; row 1's entry O(q^2) + u^2
    # needs no update, but dividing it by u drops the tail O(q^2) at u^0,
    # which still bounds the certificate
    z, one = SETUP.zero(), SETUP.one()
    rows = [{0: USeries.build(SETUP, 3, [z, one])},
            {0: USeries.build(SETUP, 3, [NovikovElem(SETUP, (), 2), z, one])}]
    assert dvr_diagonalize(rows, SETUP, 3) == ([(0, 0, 1)], 2)


def test_dvr_diagonalize_asks_for_a_field_only_for_an_entry():
    setup = ScalarSetup.make(1, "Z")
    zero = USeries.zero(setup, 3)
    assert dvr_diagonalize([], setup, 3) == ([], None)
    assert dvr_diagonalize([{}, [zero, zero], {1: zero}], setup, 3) == (
        [], None)
    for entry in (USeries.from_novikov(setup.monomial(2, 1), 3),
                  USeries.build(setup, 3, [NovikovElem(setup, (), 2)])):
        with pytest.raises(CoefficientError, match="field coefficients"):
            dvr_diagonalize([{}, [zero, entry]], setup, 3)


# -- long exact sequence bookkeeping ------------------------------------------


def test_les_balances_on_u_torsion_pair():
    basis = (GeneratorInfo("y", 0), GeneratorInfo("x", 1))
    u_entry = USeries.build(SETUP, 3, [SETUP.zero(), SETUP.one()])
    d = OperatorMatrix(basis, basis, {(0, 1): u_entry}, 1)
    rep = u_module_decomposition(d, analysis_order=3,
                                 grading=GradingKind("Z"))
    C = GradedComplex.build(SETUP, GradingKind("Z"), basis, {})
    out = les_consistency(C, rep)
    assert out["balanced"], out


def test_les_without_the_equivariant_summands_is_unbalanced():
    # one generator with d = 0 has H^0 = Lambda, which an empty report
    # does not account for
    C = GradedComplex.build(SETUP, GradingKind("Z"),
                            (GeneratorInfo("x", 0),), {})
    out = les_consistency(C, complexes.DecompositionReport(order=2))
    assert not out["balanced"]
    assert out["first_mismatch_degree"] == 0


@pytest.mark.parametrize("seed", range(10))
def test_les_balances_on_randomized_differentials(seed):
    rng = random.Random(400 + seed)
    diff = random_equivariant_differential(rng, SETUP, max_gens=6, order=4)
    rep = u_module_decomposition(diff.as_operator(), analysis_order=4,
                                 grading=diff.grading)
    C = GradedComplex(SETUP, diff.grading, diff.basis, diff.components[0])
    out = les_consistency(C, rep)
    assert out["balanced"], out


# -- mapping cone --------------------------------------------------------------


def _free_complex(names_degrees):
    basis = tuple(GeneratorInfo(n, k) for n, k in names_degrees)
    return GradedComplex.build(SETUP, GradingKind("Z"), basis, {})


def test_cone_squares_to_zero_and_projects():
    minus = _free_complex([("b", 0)])
    plus = _free_complex([("a", 0)])
    cmap = OperatorMatrix(plus.basis, minus.basis, {(0, 0): SETUP.one()}, 0)
    out = mapping_cone(cmap, minus, plus)
    assert validate_complex(out["cone"]) == [] or all(
        v["invariant"] != "d squared zero"
        for v in validate_complex(out["cone"]))
    assert out["quasi_isomorphisms"]["plus"]["quasi_isomorphism"]
    assert out["quasi_isomorphisms"]["minus"]["quasi_isomorphism"]


def test_cone_of_zero_map_keeps_plus_projection():
    minus = _free_complex([("b", 0)])
    plus = _free_complex([("a", 0)])
    cmap = OperatorMatrix(plus.basis, minus.basis, {}, 0)
    out = mapping_cone(cmap, minus, plus)
    assert out["quasi_isomorphisms"]["plus"]["quasi_isomorphism"]
    assert not out["quasi_isomorphisms"]["minus"]["quasi_isomorphism"]


def test_cone_rejects_non_chain_map():
    minus = two_step_complex()
    plus = _free_complex([("a", 0), ("c", 1)])
    # the target of c has a nonzero differential, the source does not
    cmap = OperatorMatrix(plus.basis, minus.basis,
                          {(0, 0): SETUP.one()}, 0)
    with pytest.raises(InputError):
        mapping_cone(cmap, minus, plus)


def test_chain_map_defects_are_listed_in_row_major_order():
    # c = 1 at (a,a) and (a,c), from the d = 0 complex a(0), c(1) to
    # a -> b: d- c is 1 at (b,a) and at (b,c), and (a,c) maps degree 1 to
    # 0, whichever order c lists them
    minus = two_step_complex()
    plus = _free_complex([("a", 0), ("c", 1)])
    records = []
    for keys in ([(0, 0), (0, 1)], [(0, 1), (0, 0)]):
        cmap = OperatorMatrix(plus.basis, minus.basis,
                              {k: SETUP.one() for k in keys}, 0)
        records.append(complexes._cone_defects(cmap, minus, plus))
    assert records[0] == records[1]
    assert [(v["invariant"], v["entry"]) for v in records[0]] == [
        ("chain map", ["b", "a"]), ("chain map", ["b", "c"]),
        ("map degree", ["a", "c"])]


def test_cone_of_the_identity_on_a_complex_with_a_differential():
    # the cone carries d of C+ on its third block, so it squares to zero
    # and both projections are quasi-isomorphisms
    C = two_step_complex()
    ident = OperatorMatrix(C.basis, C.basis,
                           {(0, 0): SETUP.one(), (1, 1): SETUP.one()}, 0)
    out = mapping_cone(ident, C, C)
    assert not [v for v in validate_complex(out["cone"])
                if v["invariant"] == "d squared zero"]
    assert out["quasi_isomorphisms"]["plus"]["quasi_isomorphism"]
    assert out["quasi_isomorphisms"]["minus"]["quasi_isomorphism"]


def test_a_self_map_cone_computes_each_cohomology_once(monkeypatch):
    # the cone's and C's for a map from C to itself, also when the two
    # sides are equal complexes built apart; a third for distinct sides
    calls = []
    real = complexes.cohomology_over_novikov_field
    monkeypatch.setattr(complexes, "cohomology_over_novikov_field",
                        lambda C, q_order=None: calls.append(C)
                        or real(C, q_order))
    C = two_step_complex()
    ident = OperatorMatrix(C.basis, C.basis,
                           {(0, 0): SETUP.one(), (1, 1): SETUP.one()}, 0)
    want = {"minus": {"quasi_isomorphism": True},
            "plus": {"quasi_isomorphism": True}}
    for plus, count in ((C, 2), (two_step_complex(), 2)):
        calls.clear()
        assert mapping_cone(ident, C, plus)["quasi_isomorphisms"] == want
        assert len(calls) == count and calls[1] is C
    calls.clear()
    minus = _free_complex([("b", 0)])
    plus = _free_complex([("a", 0)])
    zero_map = OperatorMatrix(plus.basis, minus.basis, {}, 0)
    mapping_cone(zero_map, minus, plus)
    assert len(calls) == 3


def _not_square():
    basis = (GeneratorInfo("a", 0), GeneratorInfo("b", 1),
             GeneratorInfo("c", 2))
    return GradedComplex.build(SETUP, GradingKind("Z"), basis,
                               {(1, 0): SETUP.one(), (2, 1): SETUP.one()})


def test_cone_rejects_a_side_that_is_not_a_complex():
    C = _not_square()
    zero_map = OperatorMatrix(C.basis, C.basis, {}, 0)
    with pytest.raises(InputError, match="does not square to zero"):
        mapping_cone(zero_map, C, C)


def test_cohomology_of_a_non_complex_is_an_input_error():
    with pytest.raises(InputError, match=r"at \(c,a\)"):
        cohomology_over_novikov_field(_not_square())


def test_representative_count_mismatch_is_an_internal_error(monkeypatch):
    real = complexes._representatives
    monkeypatch.setattr(complexes, "_representatives",
                        lambda *args: (real(*args)[0][1:], None))
    C = _free_complex([("a", 0)])
    with pytest.raises(InternalError) as info:
        cohomology_over_novikov_field(C)
    assert not isinstance(info.value, NovikovError)
