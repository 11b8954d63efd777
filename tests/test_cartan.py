import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from eqcartan import cartan, cli, linalg
from eqcartan.cartan import (
    CartanData,
    _scan,
    EquivariantDifferential,
    degree_weighted,
    flatten_equivariant,
    gamma_q,
    gamma_u,
    identity_report,
    induced_connection,
    lambda_components,
    reduce_mod,
    solve_iota,
)
from eqcartan.complexes import (GeneratorInfo, GradingKind, OperatorMatrix,
                                cohomology_over_novikov_field, sample_block,
                                validate_complex)
from eqcartan.linalg import UndeterminedError
from eqcartan.novikov import (CoefficientError, InputError, InternalError,
                              NovikovElem, ScalarSetup, USeries,
                              parse_novikov)
from eqcartan.quantum import projective_space_model, uq_identity_check
from eqcartan.schema import differential_family_from, load_document

import dense_reference as ref
from conftest import (multi_term_differential, normal_form_differential,
                      random_equivariant_differential, via_block)

SETUP = ScalarSetup.make(1, "Q")
SETUP_Z = ScalarSetup.make(1, "Z")
SETUP_F5 = ScalarSetup.make(1, "F5")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

IDENTITY_NAMES = [
    "d_eq squared zero",
    "lambda_eq anticommutes with d_eq",
    "connection commutes with d_eq",
    "index operator homogeneity",
    "gamma_u commutator",
    "euler relation",
    "leibniz",
    "gamma_q leibniz",
]


def monotone_pair(setup=SETUP, order=3, extra_free=False):
    """d(x) = q^2 y with homogeneous indices |x| = 1, |y| = -2."""
    basis = [GeneratorInfo("x", 1), GeneratorInfo("y", -2)]
    if extra_free:
        basis.append(GeneratorInfo("z", 0))
    return EquivariantDifferential.build(
        setup, GradingKind("Z/2"), tuple(basis),
        [{(1, 0): setup.monomial(1, 2)}], order=order)


def exact_diff(setup=SETUP, order=3):
    """q-independent differential: d(x) = y (indices chosen homogeneous)."""
    basis = (GeneratorInfo("x", 0), GeneratorInfo("y", 1))
    return EquivariantDifferential.build(
        setup, GradingKind("Z/2"), basis,
        [{(1, 0): setup.one()}], order=order)


# -- lambda as an entrywise q-derivative --------------------------------------


def test_lambda_components_cy_is_plain_derivative():
    diff = monotone_pair()
    lam = lambda_components(diff, "cy")
    assert lam[0].entries[(1, 0)].terms == ((1, 2),)  # d/dq q^2 = 2q


def test_lambda_components_monotone_stays_on_lattice():
    diff = monotone_pair()
    lam = lambda_components(diff, "monotone")
    assert lam[0].entries[(1, 0)].terms == ((2, 2),)  # q * d/dq q^2 = 2q^2


# -- solve_iota ---------------------------------------------------------------


def test_solve_iota_monotone_pair():
    data, obstruction = solve_iota(monotone_pair())
    assert obstruction is None
    assert data.iota[1].entries[(0, 0)].terms == ((0, 2),)


def test_solve_iota_exact_case_gives_zero_iota():
    for regime in ("monotone", "cy"):
        data, obstruction = solve_iota(exact_diff(), regime)
        assert obstruction is None
        assert all(not op.entries for op in data.iota)


def test_solve_iota_reports_obstruction():
    # rank 1 with d_0 = 0 and d_1 = q: every commutator vanishes but the
    # right-hand side does not, so order 2 is obstructed
    basis = (GeneratorInfo("x", 0),)
    diff = EquivariantDifferential.build(
        SETUP, GradingKind("Z/2"), basis,
        [{}, {(0, 0): SETUP.monomial(1, 1)}], order=3)
    data, obstruction = solve_iota(diff)
    assert data is None
    assert obstruction["order"] == 2


def test_component_basis_mismatch_is_an_input_error():
    diff = monotone_pair()
    other = tuple(GeneratorInfo(g.name + "'", g.index) for g in diff.basis)
    with pytest.raises(InputError, match="component d_1 basis mismatch"):
        EquivariantDifferential(SETUP, diff.grading, diff.basis,
                                (diff.components[0],
                                 OperatorMatrix(other, other, {}, -1)))


def test_order_below_the_components_is_an_input_error():
    diff = monotone_pair()
    with pytest.raises(InputError, match="truncation order must cover"):
        EquivariantDifferential(SETUP, diff.grading, diff.basis,
                                diff.components * 3, order=2)


@pytest.mark.parametrize("order", [0, -3])
def test_non_positive_order_is_an_input_error(order):
    diff = monotone_pair()
    with pytest.raises(InputError, match="u-order must be a positive"):
        EquivariantDifferential(SETUP, diff.grading, diff.basis,
                                diff.components, order=order)
    with pytest.raises(InputError, match="u-order must be a positive"):
        EquivariantDifferential.build(SETUP, diff.grading, diff.basis,
                                      [dict(diff.components[0].entries)],
                                      order=order)


def test_order_none_is_k_plus_two():
    diff = monotone_pair()
    for comps in (diff.components, diff.components * 3):
        assert EquivariantDifferential(SETUP, diff.grading, diff.basis,
                                       comps).order == len(comps) + 1
        assert EquivariantDifferential(SETUP, diff.grading, diff.basis,
                                       comps, None).order == len(comps) + 1


def test_products_carry_a_termless_q_tail():
    # d = E_yx and iota_0 = O(q^2) E_xx: [d_eq, iota_eq] is known only to
    # vanish below q^2, which the identity must report
    diff = exact_diff()
    tail = OperatorMatrix(diff.basis, diff.basis,
                          {(0, 0): NovikovElem(SETUP, (), 2)}, 2)
    report = identity_report(CartanData(diff, (tail,), "monotone"))
    row = next(r for r in report["identities"]
               if r["identity"] == "connection commutes with d_eq")
    assert row["holds"]
    assert row["verified_q_order_index"] == 2
    assert via_block(tail.compose, diff.basis, [SETUP.one(), SETUP.zero()],
                     SETUP.zero())[0] == NovikovElem(SETUP, (), 2)


def test_solve_iota_needs_field():
    with pytest.raises(CoefficientError):
        solve_iota(monotone_pair(SETUP_Z))


# -- the identity suite -------------------------------------------------------


@pytest.mark.parametrize("diff_fn,regime", [
    (monotone_pair, "monotone"),
    (exact_diff, "monotone"),
    (exact_diff, "cy"),
])
def test_identity_report_on_homogeneous_fixtures(diff_fn, regime):
    data, obstruction = solve_iota(diff_fn(), regime)
    assert obstruction is None
    rep = identity_report(data)
    assert [r["identity"] for r in rep["identities"]] == IDENTITY_NAMES
    assert rep["all_hold"], [r for r in rep["identities"] if not r["holds"]]


def test_identity_report_catches_wrong_iota():
    diff = monotone_pair()
    wrong = OperatorMatrix(diff.basis, diff.basis,
                           {(0, 0): SETUP.monomial(7, 0)}, 0)
    data = CartanData(diff, (OperatorMatrix(diff.basis, diff.basis, {}, 2),
                             wrong), "monotone")
    rep = identity_report(data)
    bad = {r["identity"] for r in rep["identities"] if not r["holds"]}
    assert "connection commutes with d_eq" in bad


def _empty_matrix_part(data, split):
    """The triple with its matrix part emptied."""
    basis = data.diff.basis
    return split._replace(
        matrix=OperatorMatrix(basis, basis, {}, split.matrix.degree))


def _euler_without_2e(data, split):
    """deg's triple with the 2E term dropped from its Euler derivation:
    the term a q^E u^k times w + 2k."""
    return split._replace(local=lambda v, w: USeries.build(
        data.setup, v.order,
        [c.scale((w or 0) + 2 * k) for k, c in enumerate(v.coeffs)], v.valid))


@pytest.mark.parametrize("name,patch", [
    ("connection commutes with d_eq", (gamma_q, "gamma_q", _empty_matrix_part)),
    ("gamma_u commutator", (gamma_u, "gamma_u", _empty_matrix_part)),
    ("index operator homogeneity", (degree_weighted, "deg", _euler_without_2e)),
])
def test_identities_2_to_4_read_the_connection_operators(monkeypatch, name,
                                                         patch):
    # identities 2-4 bracket the triple (derivation, weight, matrix part)
    # that the operators apply, so dropping a part of it changes the
    # operator on a block and fails its identity; a datum builds each triple
    # once, so the changed one is read by a fresh datum
    op, which, change = patch
    data, obstruction = solve_iota(monotone_pair())
    assert obstruction is None
    assert identity_report(data)["all_hold"]
    X = sample_block(data.setup, data.diff.basis, data.order,
                     range(data.diff.n))
    before = op(data, X).entries
    split = cartan._split
    monkeypatch.setattr(cartan, "_split", lambda d, o: (
        change(d, split(d, o)) if o == which else split(d, o)))
    changed = CartanData(data.diff, data.iota, data.regime)
    assert op(changed, X).entries != before
    report = identity_report(changed)
    assert not {r["identity"]: r for r in report["identities"]}[name]["holds"]


def test_each_datum_builds_each_triple_at_most_once(monkeypatch):
    # every reader of the Cartan operators takes them from the datum's
    # table: the report, the three operators on a block, both induced
    # connections, and uq_identity_check on its own datum
    built, seen = Counter(), []
    split = cartan._split

    def spy(data, op):
        built[id(data), op] += 1
        seen.append(data)  # keeps every id in use by one datum
        return split(data, op)

    monkeypatch.setattr(cartan, "_split", spy)
    data, obstruction = solve_iota(monotone_pair(extra_free=True))
    assert obstruction is None
    identity_report(data)
    X = sample_block(data.setup, data.diff.basis, data.order,
                     range(data.diff.n))
    for op in (gamma_q, degree_weighted, gamma_u):
        assert op(data, X).entries
    for which in ("gamma_q", "gamma_u"):
        assert induced_connection(data, which)["matrix"]
    assert uq_identity_check(projective_space_model(2, SETUP))["holds"]
    assert len({key for key, _ in built}) == 2
    assert sorted(built.values()) == [1] * 6


def test_gamma_u_scales_iota_before_the_product():
    # over Z/6, 2*iota = 2*(3 + q^2 + O(q^4)) = 2q^2 + O(q^4), whose
    # product with x = q + O(q^3) is 2q^3 + O(q^5); taking 2*(iota x) instead
    # would keep only O(q^3)
    setup = ScalarSetup.make(1, "Z/6")
    basis = (GeneratorInfo("a", 0),)
    diff = EquivariantDifferential.build(setup, GradingKind("Z"), basis, [{}],
                                         order=1)
    iota = OperatorMatrix(basis, basis, {
        (0, 0): NovikovElem.build(setup, [(0, 3), (2, 1)], 4)})
    x = USeries.from_novikov(NovikovElem.build(setup, [(1, 1)], 3), 1)
    X = OperatorMatrix((GeneratorInfo("x"),), basis, {(0, 0): x})
    got = gamma_u(CartanData(diff, (iota,), "monotone"), X).entries[(0, 0)]
    assert got.coeffs[0] == NovikovElem.build(setup, [(3, -2)], 5)


@pytest.mark.parametrize("seed", range(5))
def test_randomized_differentials_satisfy_structural_identities(seed):
    rng = random.Random(seed)
    diff = random_equivariant_differential(rng, SETUP, max_gens=6, order=4)
    data, obstruction = solve_iota(diff)
    if obstruction is not None:
        data = CartanData(diff, (), "monotone")
    rep = identity_report(data)
    by_name = {r["identity"]: r for r in rep["identities"]}
    assert by_name["d_eq squared zero"]["holds"]
    assert by_name["lambda_eq anticommutes with d_eq"]["holds"]
    if obstruction is None:
        assert by_name["connection commutes with d_eq"]["holds"]
        assert by_name["gamma_q leibniz"]["holds"]


# -- the two connections on one vector ----------------------------------------


def test_gamma_u_is_u_times_index_without_iota():
    basis = (GeneratorInfo("a", 3), GeneratorInfo("b", -2))
    diff = EquivariantDifferential.build(
        SETUP, GradingKind("Z"), basis, [{}], order=3)
    data = CartanData(diff, (), "monotone")
    n = len(basis)
    for i, g in enumerate(basis):
        vec = [USeries.from_novikov(SETUP.one() if j == i else SETUP.zero(),
                                    3) for j in range(n)]
        out = via_block(lambda X: gamma_u(data, X), basis, vec,
                        USeries.zero(SETUP, 3))
        for j, w in enumerate(out):
            if j == i:
                assert w.coeffs[1].terms == ((0, g.index),)
            else:
                assert not w


def test_gamma_q_on_constant_vector_is_zero_without_iota():
    data = CartanData(exact_diff(), (), "monotone")
    vec = [USeries.from_novikov(SETUP.one(), 3),
           USeries.zero(SETUP, 3)]
    assert all(not w for w in via_block(lambda X: gamma_q(data, X),
                                        data.diff.basis, vec,
                                        USeries.zero(SETUP, 3)))


def test_degree_weighted_uses_q_and_u_degrees():
    data = CartanData(monotone_pair(), (), "monotone")
    # q^2 u x has degree |x| + 2*2 + 2*1 = 7
    vec = [USeries.from_novikov(SETUP.monomial(1, 2), 3, 1),
           USeries.zero(SETUP, 3)]
    out = via_block(lambda X: degree_weighted(data, X), data.diff.basis, vec,
                    USeries.zero(SETUP, 3))
    assert out[0].coeffs[1].terms == ((2, 7),)


# -- reduction mod m ----------------------------------------------------------


def _integral_monotone_data():
    diff = monotone_pair(SETUP_Z)
    iota1 = OperatorMatrix(diff.basis, diff.basis,
                           {(0, 0): SETUP_Z.monomial(2, 0)}, 0)
    zero_op = OperatorMatrix(diff.basis, diff.basis, {}, 2)
    return CartanData(diff, (zero_op, iota1), "monotone")


def test_reduce_mod_two_commuting_square():
    out = reduce_mod(_integral_monotone_data(), 2)
    assert out["hypothesis_holds"], out["hypothesis_violations"]
    assert out["conclusion"]["lambda_vanishes_mod_m"]
    assert out["conclusion"]["gamma_q_is_u_dq_mod_m"]
    assert out["conclusion"]["gamma_u_is_free_part_mod_2m"]
    assert out["holds"]


def test_reduce_mod_negative_control_reports_hypothesis():
    basis = (GeneratorInfo("x", 1), GeneratorInfo("y", 0))
    diff = EquivariantDifferential.build(
        SETUP_Z, GradingKind("Z/2"), basis,
        [{(1, 0): SETUP_Z.monomial(1, 1)}], order=3)
    data = CartanData(diff, (), "monotone")
    out = reduce_mod(data, 2)
    assert not out["hypothesis_holds"]
    assert any(v["hypothesis"] == "d exponents in mZ"
               for v in out["hypothesis_violations"])
    assert not out["holds"]


def test_reduce_mod_rational_iota_hypothesis_inapplicable():
    data, _ = solve_iota(monotone_pair())
    out = reduce_mod(data, 2)
    assert any("inapplicable" in v for v in out["hypothesis_violations"])


def test_reduce_mod_does_not_depend_on_entry_order():
    # over Q the iota coefficient 1/2 has no image in Z/2, whichever entry
    # of iota is stored first
    diff = monotone_pair()
    entries = [((0, 0), SETUP.one()),
               ((1, 1), SETUP.monomial(Fraction(1, 2), 0))]
    errors = set()
    for stored in (entries, entries[::-1]):
        iota = OperatorMatrix(diff.basis, diff.basis, dict(stored), 2)
        with pytest.raises(CoefficientError) as exc:
            reduce_mod(CartanData(diff, (iota,), "monotone"), 2)
        errors.add(str(exc.value))
    assert errors == {"coefficient 1/2 has no image in Z/2"}


# -- induced connection on cohomology -----------------------------------------


def test_flatten_equivariant_shape():
    C = flatten_equivariant(monotone_pair(order=3))
    assert len(C.basis) == 6
    assert C.basis[2].name == "u^1.x"
    assert C.basis[2].index == 3
    # d_1-free family: u^j block structure repeats d_0
    assert len(C.d.entries) == 3


def _tailed(diff):
    """diff with a q-tail two lattice steps above each entry's lead."""
    return EquivariantDifferential(
        diff.setup, diff.grading, diff.basis,
        [op.entrywise(lambda e: e.truncate(e.terms[0][0] + 2))
         for op in diff.components], diff.order)


FLATTEN_FAMILIES = {
    "random": lambda rng, setup, order: random_equivariant_differential(
        rng, setup, max_gens=6, order=order),
    "multi_term": lambda rng, setup, order: multi_term_differential(
        rng, setup, 2, order),
    "tailed": lambda rng, setup, order: _tailed(multi_term_differential(
        rng, setup, 2, order)),
}


@pytest.mark.parametrize("order", range(1, 6))
@pytest.mark.parametrize("family", sorted(FLATTEN_FAMILIES))
@pytest.mark.parametrize("setup", [SETUP, SETUP_F5], ids=["Q", "F5"])
def test_flatten_equivariant_matches_the_index_formula(setup, family, order):
    # ref.flatten puts d_k[t, s] at ((j + k) n + t, j n + s) directly
    diff = FLATTEN_FAMILIES[family](random.Random(order), setup, order)
    C, want = flatten_equivariant(diff), ref.flatten(diff)
    assert C.basis == want.basis
    assert C.d == want.d
    # _unflatten undoes _flatten, on d_eq and on the flattened units
    d_eq = diff.as_operator()
    assert cartan._unflatten(diff, cartan._flatten(diff, d_eq, C.basis)) == d_eq
    units = OperatorMatrix(C.basis, C.basis, {
        (c, c): setup.one() for c in range(len(C.basis))})
    assert cartan._flatten(diff, cartan._unflatten(diff, units),
                           C.basis) == units


def test_induced_connection_exact_case_is_u_dq():
    data, _ = solve_iota(exact_diff())
    out = induced_connection(data, "gamma_q")
    assert out["operator_form"] == "u*d/dq"
    assert out["matrix_part_is_zero"]
    assert out["well_defined"]


@pytest.mark.parametrize("which", ["gamma_q", "gamma_u"])
def test_induced_connection_header_reads_the_applied_matrix_part(which):
    """The header describes the matrix part of the operator applied, not
    the iota family: over F2 Gamma_u's -2 q^(1-w) iota_eq is empty though
    iota_0 = 1, and an iota_k with k >= the u-order is dropped from both."""
    basis = [GeneratorInfo("x", 0)]
    forms = {"gamma_q": ("u*d/dq", "u*d/dq + iota part"),
             "gamma_u": ("2*u^2*d/du + u*mu",
                         "2*u^2*d/du + u*mu - 2*iota part")}
    for setup, k, zero in ((ScalarSetup.make(1, "F2"), 0, which == "gamma_u"),
                           (SETUP, 2, True), (SETUP, 1, False)):
        diff = EquivariantDifferential.build(setup, GradingKind("Z"), basis,
                                             [{}], order=2)
        iota = [OperatorMatrix(basis, basis, {}, 0)] * k + [OperatorMatrix(
            basis, basis, {(0, 0): setup.one()}, 0)]
        out = induced_connection(CartanData(diff, iota), which)
        assert out["matrix_part_is_zero"] is zero
        assert out["operator_form"] == forms[which][not zero]


def test_induced_connection_on_surviving_classes():
    data, obstruction = solve_iota(monotone_pair(extra_free=True))
    assert obstruction is None
    out = induced_connection(data, "gamma_q")
    assert out["well_defined"], out["issues"]
    assert len(out["classes"]) == 3  # z, u z, u^2 z
    for col in out["matrix"]:
        assert all(c == "0" for c in col)


def test_induced_connection_gamma_u_well_defined():
    data, _ = solve_iota(monotone_pair(extra_free=True))
    out = induced_connection(data, "gamma_u")
    assert out["well_defined"], out["issues"]


def test_scan_skips_exact_zeros_but_counts_truncated_zero_cells():
    setup = ScalarSetup.make(1, "Q")
    N = 3
    exact = USeries.zero(setup, N)
    q_tail = USeries.build(setup, N, [setup.zero(), NovikovElem(setup, (), 2)])
    lost = USeries.build(setup, N, [], valid=1)
    assert _scan("x", [({"row": "a"}, exact)], N) == ([], N, None)
    # a cell known only as O(q^2) u certifies the zero to q-order index 2
    assert _scan("x", [({"row": "a"}, exact), ({"row": "b"}, q_tail)],
                 N) == ([], N, 2)
    assert _scan("x", [({"row": "b"}, q_tail), ({"row": "c"}, lost),
                       ({"row": "a"}, exact)], N) == ([], 1, 2)


# -- the two regimes differ by one power of q ---------------------------------
#
# A family iota in the monotone regime and q^-1 iota in the cy regime give the
# same Gamma_q and Gamma_u, so every answer but the printed normalization of
# identity 2 agrees.

TWIN_SETUPS = [ScalarSetup.make(g, r)
               for r in ("Q", "F5") for g in (1, Fraction(1, 2))]


def _useries_text(text, setup, order):
    """A u-series as ``format_useries`` prints it: c0 + (c1)*u + (c2)*u^2."""
    coeffs = [setup.zero()] * order
    for part in re.split(r" \+ (?=\()", text):
        m = re.fullmatch(r"\((.*)\)\*u(?:\^(\d+))?", part)
        k = int(m.group(2) or 1) if m else 0
        coeffs[k] = parse_novikov(m.group(1) if m else part, setup)
    return USeries.build(setup, order, coeffs)


def _random_iota(rng, diff, regime):
    setup, n, step = diff.setup, diff.n, diff.setup.lattice.steps_per_unit
    ops = []
    for k in range(rng.randint(1, diff.order)):
        entries = {}
        for _ in range(rng.randint(0, 3)):
            e = Fraction(rng.randint(-2, 6), step)
            entries[rng.randrange(n), rng.randrange(n)] = setup.monomial(
                rng.randint(1, 4), e)
        ops.append(OperatorMatrix(diff.basis, diff.basis,
                                  {key: v for key, v in entries.items() if v},
                                  cartan._iota_degree(regime, k)))
    return tuple(ops)


def _cy_twin(data):
    """The same connections in the cy regime: every iota entry times q^-1."""
    step = data.setup.lattice.steps_per_unit
    return CartanData(data.diff, tuple(
        op.entrywise(lambda e: e.q_shift(-step), cartan._iota_degree("cy", k))
        for k, op in enumerate(data.iota)), "cy")


def _outcome(fn, *args):
    """fn's value, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except CoefficientError as exc:
        return type(exc), str(exc)


def _assert_twins_agree(mono, cy):
    step = mono.setup.lattice.steps_per_unit
    for which in ("gamma_q", "gamma_u"):
        assert induced_connection(mono, which) == induced_connection(cy, which)
    for m in (2, 3):
        assert _outcome(reduce_mod, mono, m) == _outcome(reduce_mod, cy, m)
    rep_m, rep_c = identity_report(mono), identity_report(cy)
    assert (rep_m.pop("regime"), rep_c.pop("regime")) == ("monotone", "cy")
    name = "connection commutes with d_eq"
    for row_m, row_c in zip(rep_m["identities"], rep_c["identities"]):
        if row_m["identity"] == name:
            for f_m, f_c in zip(row_m["failures"], row_c["failures"]):
                value = _useries_text(f_c.pop("value"), cy.setup, cy.order)
                assert f_m.pop("value") == str(value.q_shift(step))
    assert rep_m == rep_c


@pytest.mark.parametrize("setup", TWIN_SETUPS, ids=lambda s: str(s.describe()))
def test_the_two_regimes_differ_by_one_power_of_q(setup):
    rng = random.Random(17)
    step = setup.lattice.steps_per_unit
    # d_0 = 0 and d_1 = c q^e on one generator: obstructed at order 2
    obstructed = [EquivariantDifferential.build(
        setup, GradingKind("Z/2"), (GeneratorInfo("x", 0),),
        [{}, {(0, 0): setup.monomial(c, Fraction(e, step))}], order=3)
        for c, e in ((1, 2), (3, 1))]
    for diff in obstructed + [
            random_equivariant_differential(rng, setup, max_gens=4, order=3,
                                            max_k=2) for _ in range(10)]:
        mono, bad_m = solve_iota(diff, "monotone")
        cy, bad_c = solve_iota(diff, "cy")
        if bad_m is not None:
            assert bad_m["order"] == 2 and cy is None and mono is None
            assert ((bad_m["order"], bad_m["row"])
                    == (bad_c["order"], bad_c["row"]))
            assert bad_m["residual"] == str(
                parse_novikov(bad_c["residual"], setup).q_shift(step))
            continue
        assert [op.entries for op in mono.iota] == [
            op.entrywise(lambda e: e.q_shift(step)).entries for op in cy.iota]
        _assert_twins_agree(mono, cy)
        wrong = CartanData(diff, _random_iota(rng, diff, "monotone"))
        _assert_twins_agree(wrong, _cy_twin(wrong))


# -- the contracting homotopy of an acyclic d_0 -------------------------------


def _fixture_diff(name):
    return differential_family_from(load_document(str(FIXTURES / name)))


def _random_acyclic(setup, seed):
    """random_equivariant_differential: a monomial pairing d_0, conjugated
    only at positive u-powers, so d_0 is acyclic with monomial pivots."""
    return random_equivariant_differential(random.Random(1900 + seed), setup,
                                           max_gens=8, order=4)


ACYCLIC = {
    **{f"random-{ring}-{seed}": (lambda setup=setup, seed=seed:
                                 _random_acyclic(setup, seed))
       for ring, setup in (("Q", SETUP), ("F5", SETUP_F5))
       for seed in range(12)},
    "monotone_case": lambda: _fixture_diff("monotone_case.json"),
    "exact_case": lambda: _fixture_diff("exact_case.json"),
}


@pytest.mark.parametrize("draw", sorted(ACYCLIC))
def test_contraction_is_a_homotopy_of_d0(draw):
    # checked by multiplication: d_0 h + h d_0 = 1 and h^2 = 0
    diff = ACYCLIC[draw]()
    acyclic, h = cartan._contract(diff)
    assert acyclic and h is not None
    d0, basis = diff.components[0], diff.basis
    one = OperatorMatrix(basis, basis,
                         {(i, i): diff.setup.one() for i in range(diff.n)})
    assert not (d0.compose(h) + h.compose(d0) - one).entries
    assert not h.compose(h).entries
    assert all(v.trunc is None for v in h.entries.values())


@pytest.mark.parametrize("m", [2, 3])
def test_one_placement_rule_under_z2m(m):
    # d_0 = x0 -> y0, x1 -> y1 of rank n/2 and d_1 = x0 -> y1, which
    # anticommutes with d_0, so d_eq^2 = 0 and _contract's guard fails only
    # on placement; validate and cohomology see the flattened complex, with
    # u^j x_i at 4 j + i
    rng, grading, one = random.Random(m), GradingKind("Z/2m", m), SETUP.one()
    comps = [{(1, 0): one, (3, 2): one}, {(3, 0): one}]
    seen = set()
    for _ in range(40):
        x0 = rng.randint(-9, 3)
        idx = [x0, x0 + 1, x0 - 2, x0 - 1]  # every entry placed
        idx = [i + 2 * m * rng.randint(-1, 1)
               + (rng.randint(1, 2 * m - 1) if rng.random() < 0.4 else 0)
               for i in idx]
        basis = tuple(GeneratorInfo(g, i)
                      for g, i in zip(("x0", "y0", "x1", "y1"), idx))
        diff = EquivariantDifferential.build(SETUP, grading, basis, comps,
                                             order=2)
        want = {(4 * (j + k) + t, 4 * j + s)
                for k, comp in enumerate(comps) for t, s in comp
                if (idx[t] - idx[s] - (1 - 2 * k)) % (2 * m)
                for j in range(diff.order - k)}
        C = flatten_equivariant(diff)
        assert {tuple(v["entry"]) for v in validate_complex(C)
                if v["invariant"] == "degree shift"} == {
            (C.basis[t].name, C.basis[s].name) for t, s in want}
        if want:
            t, s = min(want)
            with pytest.raises(InputError, match=re.escape(
                    f"d entry ({C.basis[t].name},{C.basis[s].name})")):
                cohomology_over_novikov_field(C)
        else:
            cohomology_over_novikov_field(C)
        assert cartan._contract(diff)[0] == (not want)
        seen.add(bool(want))
    assert seen == {True, False}


def _reduced_sizes(monkeypatch):
    """The row counts of every ``linalg.row_reduce`` from now on."""
    sizes, real = [], linalg.row_reduce

    def spy(rows, *args, **kwargs):
        sizes.append(len(rows))
        return real(rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "row_reduce", spy)
    return sizes


@pytest.mark.parametrize("draw", sorted(ACYCLIC))
def test_solve_iota_on_an_acyclic_d0_reduces_no_more_than_n_rows(
        monkeypatch, draw):
    diff = ACYCLIC[draw]()
    sizes = _reduced_sizes(monkeypatch)
    data, obstruction = solve_iota(diff)
    assert obstruction is None
    assert sizes == [diff.n]
    # the connection and its certificate read this iota as any other
    report = identity_report(data)
    assert {r["identity"]: r["holds"] for r in report["identities"]}[
        "connection commutes with d_eq"]
    induced_connection(data, "gamma_q")
    assert sizes == [diff.n]


@pytest.mark.parametrize("draw", ["random-Q-0", "random-F5-1", "exact_case"])
def test_one_elimination_of_d0_serves_every_q_order(monkeypatch, draw):
    # _contract decides on exact input, so no q-order reaches it
    diff = ACYCLIC[draw]()
    sizes = _reduced_sizes(monkeypatch)
    data, _ = solve_iota(diff, q_order=8)
    induced_connection(data, "gamma_q", q_order=64)
    assert solve_iota(diff, q_order=12)[0].iota == data.iota
    induced_connection(data, "gamma_u", q_order=12)
    assert sizes == [diff.n]


def test_a_wrong_homotopy_is_an_internal_error(monkeypatch, capsys):
    # with d_eq^2 = 0 every h R_k solves its order, so a miss is a defect
    real = cartan._contract
    monkeypatch.setattr(cartan, "_contract", lambda diff: (True, real(
        diff)[1].entrywise(lambda e: e + e)))
    with pytest.raises(InternalError, match="does not solve order 1"):
        solve_iota(_fixture_diff("monotone_case.json"))
    assert cli.main(["cartan", "solve-iota",
                     str(FIXTURES / "monotone_case.json")]) == 4
    assert '"kind": "internal error"' in capsys.readouterr().out


def _tailed_d0():
    """d_0(x) = (1 + O(q^3)) y: acyclic, but not exactly."""
    basis = (GeneratorInfo("x", 1), GeneratorInfo("y", 0))
    return EquivariantDifferential.build(
        SETUP, GradingKind("Z/2"), basis,
        [{(1, 0): NovikovElem.build(SETUP, [(0, 1)], 3)}], order=3)


def _square():
    """d_0 = x0 -> y0, x1 -> y1 is acyclic, but d_1 = y1 -> x0 makes
    [d_0, d_1] = x1 -> x0 plus y1 -> y0, so d_eq^2 != 0."""
    basis = (GeneratorInfo("x0", 1), GeneratorInfo("y0", 0),
             GeneratorInfo("x1", 1), GeneratorInfo("y1", 0))
    one = SETUP.one()
    return EquivariantDifferential.build(
        SETUP, GradingKind("Z/2"), basis,
        [{(1, 0): one, (3, 2): one}, {(0, 3): one}], order=3)


FALLBACKS = {
    "classes_case": lambda: _fixture_diff("classes_case.json"),
    **{f"multi_term-{seed}": (lambda seed=seed: multi_term_differential(
        random.Random(seed), SETUP_F5 if seed % 2 else SETUP, 2, 3))
       for seed in range(4)},
    "normal_form": lambda: normal_form_differential(
        random.Random(5), SETUP, n_free=0, n_torsion=0, n_acyclic=2, order=3),
    "tailed_d0": _tailed_d0,
    "square": _square,
}


def _iota_or_error(diff):
    """solve_iota's iota entries and obstruction, or the error it raises."""
    try:
        data, obstruction = solve_iota(diff)
    except UndeterminedError as exc:
        return str(exc)
    return ([op.entries for op in data.iota] if data else None), obstruction


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_solve_iota_falls_back_where_no_exact_contraction_exists(
        monkeypatch, case):
    # today's elimination of ad(d_0) on n^2 unknowns: _contract left out
    with monkeypatch.context() as m:
        m.setattr(cartan, "_contract", lambda diff: (False, None))
        want = _iota_or_error(FALLBACKS[case]())
    diff = FALLBACKS[case]()
    sizes = _reduced_sizes(monkeypatch)
    assert _iota_or_error(diff) == want
    assert diff.n ** 2 in sizes
    # a multi-term pivot leaves d_0 acyclic, so induced_connection still
    # flattens nothing, but builds no h; d_eq^2 != 0 is not acyclic
    assert cartan._contract(diff) == (
        case.startswith(("multi_term", "normal_form")), None)
