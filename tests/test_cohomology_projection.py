"""The cohomology projection p and the verdicts read through it.

``cohomology_over_novikov_field`` returns, with its report, the projection
p onto the classes (``CohomologyReport.project``), a map of blocks.
``induced_connection`` reads the connection matrix with p on the block of
class images and certifies well-definedness by projecting the block of the
Gamma(d e_i); the cone verdict is the rank of the induced square matrix.
``dense_reference`` keeps the former versions, which solve against
[representatives | every boundary] and rank pushed representatives together
with the boundaries; both must give the same classes, matrices and
verdicts.  It also keeps p on one dense vector, which the block projection
must match column by column, field for field.
"""

import copy
import json
import random
import re
import sys
from pathlib import Path

import pytest

import dense_reference as ref
from eqcartan import cartan, cli, complexes
from eqcartan.cartan import (CartanData, EquivariantDifferential, _unflatten,
                             flatten_equivariant, induced_connection,
                             solve_iota)
from eqcartan.complexes import (GeneratorInfo, GradedComplex, GradingKind,
                                OperatorMatrix, cohomology_over_novikov_field,
                                mapping_cone)
from eqcartan.linalg import UndeterminedError
from eqcartan.novikov import (CoefficientError, InputError, NovikovElem,
                              ScalarSetup, parse_novikov)
from eqcartan.quantum import projective_space_model

from conftest import normal_form_differential, random_equivariant_differential
from test_cartan import monotone_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gens  # noqa: E402  (the benchmark's input generators)

SETUP_Q = ScalarSetup.make(1, "Q")
SETUP_F5 = ScalarSetup.make(1, "F5")
OPERATORS = ("gamma_q", "gamma_u")


def assert_same_connection(data, which, q_order=None):
    got = induced_connection(data, which, q_order)
    want = ref.induced_connection(data, which, q_order)
    assert got["classes"] == want["classes"]
    assert got["matrix"] == want["matrix"]
    assert got["well_defined"] == want["well_defined"]
    return got


@pytest.fixture
def applied(monkeypatch):
    """The class columns of each block of classes that a Cartan operator is
    applied to, one list per application."""
    calls = []
    apply = cartan._apply

    def spy(op, X, bracket=None):
        if X.source and X.source[0].name.startswith("class "):
            calls.append([g.name for g in X.source])
        return apply(op, X, bracket)

    monkeypatch.setattr(cartan, "_apply", spy)
    return calls


def _chain_starts(report, n):
    """The classes of a report whose representative is not that of another
    class moved n rows down (u times it, cut at u^N), read from the text."""
    reps = [tuple(c["representative"]) for c in report["classes"]]
    moved = {("0",) * n + r[:-n] for r in reps}
    return [f"class {c}" for c, r in enumerate(reps) if r not in moved]


# -- induced connection against the elimination oracle ------------------------


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("order", range(1, 6))
def test_cpn_connection_matches_the_oracle(applied, n, order):
    # the classes u^j e_i are n + 1 u-chains: Gamma sees their first
    # classes e_i only, and the shift rule fills the other rows
    data = projective_space_model(n, SETUP_Q).cartan_data(order)
    for which in OPERATORS:
        applied.clear()
        got = assert_same_connection(data, which)
        assert got["well_defined"]
        assert len(got["classes"]) == (n + 1) * order
        starts = _chain_starts(got, n + 1)
        assert len(starts) == n + 1 and applied == [starts]


NORMAL_FORM_SHAPES = {  # (free, torsion, acyclic, u-order)
    "free-acyclic": (2, 0, 2, 4), "torsion-1": (1, 1, 2, 3),
    "torsion-2": (2, 1, 1, 3), "torsion-3": (1, 2, 2, 4)}


@pytest.mark.parametrize("shape", NORMAL_FORM_SHAPES.values(),
                         ids=NORMAL_FORM_SHAPES.keys())
def test_bench_normal_form_connection_applies_gamma_to_chain_starts(
        applied, shape):
    """On ``gens.normal_form`` draws the report matches the oracle, and Gamma
    sees either the chains' first classes only, then every class if one of
    their images is no cocycle, or every class where the block is not
    u-stable.  A block whose representatives, moved one u-step, are each
    zero or a representative is u-stable, so it must take the first
    classes; on each shape they must also serve a draw with a chain that
    ends on a nonzero boundary."""
    on_boundary = 0
    for seed in range(10):
        diff, _ = gens.normal_form(random.Random(2600 + seed), SETUP_Q,
                                   *shape)
        data, obstruction = solve_iota(diff)
        data = CartanData(diff, ()) if obstruction is not None else data
        for which in OPERATORS:
            applied.clear()
            got = assert_same_connection(data, which)
            starts = _chain_starts(got, diff.n)
            every = [f"class {c}" for c in range(len(got["classes"]))]
            assert applied in ([starts], [starts, every], [every])
            reps = {tuple(c["representative"]) for c in got["classes"]}
            moved = {("0",) * diff.n + r[:-diff.n] for r in reps}
            if moved <= reps | {("0",) * len(every)}:
                assert applied[0] == starts
            elif applied == [starts]:
                on_boundary += 1
    assert on_boundary


def _tailed_pivot():
    """d x = (1 + q) y and d z = y in degrees 0 and 1: the class z -
    x/(1 + q) carries a truncated inverse, and so do p's coefficients."""
    basis = (GeneratorInfo("x", 0), GeneratorInfo("z", 0),
             GeneratorInfo("y", 1))
    diff = EquivariantDifferential.build(
        SETUP_Q, GradingKind("Z"), basis,
        [{(2, 0): NovikovElem.build(SETUP_Q, [(0, 1), (1, 1)]),
          (2, 1): SETUP_Q.one()}], order=3)
    data, obstruction = solve_iota(diff, q_order=4)
    assert obstruction is None
    return data


def test_truncated_coefficients_follow_the_chains(applied):
    data = _tailed_pivot()
    diff = data.diff
    C = flatten_equivariant(diff)
    H = cohomology_over_novikov_field(C, 4)
    X = H.class_block(C.basis)
    coeffs, _ = H.project(cartan._flatten(
        diff, cartan.gamma_q(data, _unflatten(diff, X)), C.basis))
    assert any(v.trunc is not None for v in coeffs.entries.values())
    applied.clear()
    got = assert_same_connection(data, "gamma_q", 4)
    assert got["well_defined"]
    assert applied == [["class 0"]] == [_chain_starts(got, diff.n)]


def test_a_boundary_on_a_representative_keeps_its_chain(
        monkeypatch, applied):
    """The class z of the solved pair is a chain z, u z, u^2 z; with the
    boundary d x added to the representative of u z, p(u z) is still that
    class (U = p(u reps) reads classes, not columns), so the chain stands:
    Gamma sees class 0 only, the matrix is the oracle's, and only that
    representative moves."""
    data = _solved_pair()
    want = {which: ref.induced_connection(_solved_pair(), which)
            for which in OPERATORS}
    names = [g.name for g in flatten_equivariant(data.diff).basis]
    x, uz = names.index("x"), names.index("u^1.z")
    cohomology = cartan.cohomology_over_novikov_field

    def with_boundary(C, q_order=None):
        H = cohomology(C, q_order)
        X = H.class_block(C.basis)
        at = next(c for c in range(len(X.source))
                  if _column(X, c) == {uz: SETUP_Q.one()})
        moved = X + OperatorMatrix(X.source, X.target, {
            (t, at): v for (t, s), v in C.d.entries.items() if s == x})
        H.class_block = lambda basis: moved
        return H

    monkeypatch.setattr(cartan, "cohomology_over_novikov_field",
                        with_boundary)
    for which in OPERATORS:
        applied.clear()
        got = induced_connection(data, which)
        assert applied == [["class 0"]]
        assert (got["matrix"], got["well_defined"]) == (
            want[which]["matrix"], want[which]["well_defined"])
        moved = [c for c, (a, b) in enumerate(zip(got["classes"],
                                                  want[which]["classes"]))
                 if a != b]
        assert len(moved) == 1


def test_two_classes_moving_to_one_take_the_full_block(monkeypatch, applied):
    """d_0 z1 = d_0 z2 = -y, d_1 z1 = w and d_2 x = y at N = 3, with the
    classes of degree 4 taken as x + u^2 z1 and x + u^2 z2: both move to
    the class u x, so they cannot both start a chain through it.  Gamma
    sees every class, and the matrix is the oracle's."""
    one = SETUP_Q.one()
    basis = tuple(GeneratorInfo(g, k) for g, k in (
        ("x", 4), ("z1", 0), ("z2", 0), ("y", 1), ("w", -1)))
    diff = EquivariantDifferential.build(SETUP_Q, GradingKind("Z"), basis, [
        {(3, 1): -one, (3, 2): -one}, {(4, 1): one}, {(3, 0): one}], order=3)
    data, obstruction = solve_iota(diff)
    assert obstruction is None
    representatives = complexes._representatives

    def merging(red, n, images):
        # degree 4 holds x, u^2 z1 and u^2 z2, at positions 0, 1 and 2
        reps, verified = representatives(red, n, images)
        return ([(1, {0: one, 1: one}), (2, {0: one, 2: one})] if n == 3
                else reps), verified

    monkeypatch.setattr(complexes, "_representatives", merging)
    for which in OPERATORS:
        applied.clear()
        got = assert_same_connection(data, which)
        every = [f"class {c}" for c in range(len(got["classes"]))]
        assert applied == [every] and len(every) == 5
        # x, u^2 z1 and u^2 z2 are rows 0, 11 and 12 of the flattened basis
        assert [[i for i, v in enumerate(c["representative"]) if v != "0"]
                for c in got["classes"] if c["degree"] == 4] == [[0, 11],
                                                                 [0, 12]]


@pytest.mark.parametrize("setup", [SETUP_Q, SETUP_F5], ids=["Q", "F5"])
@pytest.mark.parametrize("torsion", [False, True],
                         ids=["free-acyclic", "torsion"])
@pytest.mark.parametrize("seed", range(6))
def test_normal_form_connection_matches_the_oracle(setup, torsion, seed):
    data = _normal_form(setup, torsion, seed)
    # torsion may obstruct iota; the connection is then u d/dq alone and
    # need not descend to classes, but both paths must still agree
    assert data.iota or torsion
    for which in OPERATORS:
        got = assert_same_connection(data, which)
        assert got["classes"]
    # Gamma_u needs q-homogeneous data, which these families are not
    if data.iota:
        assert induced_connection(data, "gamma_q")["well_defined"]


def _normal_form(setup, torsion, seed):
    """A random connection family with its solved iota, or with none where
    torsion obstructs it."""
    rng = random.Random(900 + seed)
    diff = normal_form_differential(
        rng, setup, n_free=rng.randint(1, 3),
        n_torsion=rng.randint(1, 2) if torsion else 0,
        n_acyclic=rng.randint(1, 3), order=rng.randint(2, 4))
    data, obstruction = solve_iota(diff)
    return CartanData(diff, ()) if obstruction is not None else data


def _planted(entry):
    """The monotone pair plus z with its solved iota family and one extra
    iota_0 entry: (0, 2) sends the class z to x, which is no cocycle;
    (2, 1) sends the boundary y to the class z."""
    data, obstruction = solve_iota(monotone_pair(extra_free=True))
    assert obstruction is None
    iota0 = data.iota[0]
    planted = OperatorMatrix(iota0.source, iota0.target,
                             {**iota0.entries, entry: SETUP_Q.monomial(1, 1)},
                             iota0.degree)
    return CartanData(data.diff, (planted,) + data.iota[1:], data.regime)


@pytest.mark.parametrize("entry", [(0, 2), (2, 1)])
@pytest.mark.parametrize("which", OPERATORS)
def test_planted_iota_entry_is_not_well_defined_on_both_paths(entry, which):
    data = _planted(entry)
    got = induced_connection(data, which)
    assert not got["well_defined"]
    assert not ref.induced_connection(data, which)["well_defined"]
    problems = {i["problem"] for i in got["issues"]}
    assert problems == ({"image not expressible"} if entry == (0, 2)
                        else {"image of a boundary is not a boundary"})


@pytest.mark.parametrize("entry", [("x", "z"), ("z", "y")])
@pytest.mark.parametrize("which", ["q", "u"])
def test_planted_iota_entry_exits_1(tmp_path, capsys, entry, which):
    gens = [("x", 1), ("y", -2), ("z", 0)]
    d = [{"target": "y", "source": "x", "value": "q^2"}]
    doc = {
        "schema_version": 1,
        "scalar_setup": {"lattice_generator": "1", "coefficients": "Q"},
        "complex": {"grading": {"kind": "Z/2"}, "q_degree_two": True,
                    "generators": [{"name": g, "index": i} for g, i in gens],
                    "differential": {"degree": 1, "entries": d}},
        "d_family": {"order": 3, "components": [d]},
        "iota_family": {"regime": "monotone", "components": [
            [{"target": entry[0], "source": entry[1], "value": "q"}],
            [{"target": "x", "source": "x", "value": "2"}]]},
    }
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["cartan", "connection", "--which", which,
                     str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["well_defined"] is False


def _failing_boundaries(data, which, block):
    """The columns s of a block of boundaries whose Gamma-image p does not
    send to zero with no residue."""
    diff = data.diff
    C = flatten_equivariant(diff)
    op = cartan.gamma_q if which == "gamma_q" else cartan.gamma_u
    images = OperatorMatrix(block.source, C.basis, {
        (j * diff.n + i, s): c
        for (i, s), v in op(data, block).entries.items()
        for j, c in enumerate(v.coeffs)})
    coeffs, residues = cohomology_over_novikov_field(C).project(images)
    return residues.keys() | {s for (_, s), c in coeffs.entries.items()
                              if c.has_terms()}


DATA = {
    **{f"planted{entry}": lambda entry=entry: _planted(entry)
       for entry in [(0, 2), (2, 1)]},
    **{f"normal_form-{setup.ring.describe()}-{torsion}-{seed}":
       lambda setup=setup, torsion=torsion, seed=seed:
       _normal_form(setup, torsion, seed)
       for setup in (SETUP_Q, SETUP_F5) for torsion in (False, True)
       for seed in range(6)}}


@pytest.mark.parametrize("make", DATA.values(), ids=DATA.keys())
@pytest.mark.parametrize("which", OPERATORS)
def test_boundaries_are_checked_on_their_generators(make, which):
    # Gamma(u^j y) = u^j Gamma(y) (+ 2j u^(j+1) y for Gamma_u) and the
    # boundaries form a Lambda[u]-submodule, so the boundary u^j d x_s of
    # the full block fails exactly where d x_s fails
    data = make()
    diff = data.diff
    full = _failing_boundaries(
        data, which, _unflatten(diff, flatten_equivariant(diff).d))
    on_generators = _failing_boundaries(data, which, diff.as_operator())
    assert on_generators == {s % diff.n for s in full}
    got = induced_connection(data, which)
    assert [i["boundary_of"] for i in got["issues"] if "boundary_of" in i] \
        == [diff.basis[s].name for s in sorted(on_generators)]
    expressible = all(col is not None for col in got["matrix"])
    assert got["well_defined"] == (expressible and not full)


# -- one cohomology per datum and q-order -------------------------------------


def _cp2():
    return projective_space_model(2, SETUP_Q).cartan_data(3)


def _solved_pair():
    data, obstruction = solve_iota(monotone_pair(extra_free=True))
    assert obstruction is None
    return data


@pytest.fixture
def flattenings(monkeypatch):
    """The q-order of every cohomology that induced_connection computes."""
    calls = []

    def counted(C, q_order=None):
        calls.append(q_order)
        return cohomology_over_novikov_field(C, q_order)

    monkeypatch.setattr(cartan, "cohomology_over_novikov_field", counted)
    return calls


@pytest.mark.parametrize("make", [_cp2, _solved_pair],
                         ids=["cp2", "solved-pair"])
def test_one_cohomology_per_datum_and_q_order(flattenings, make):
    calls = flattenings
    data = make()
    want = {which: ref.induced_connection(make(), which)
            for which in OPERATORS}
    for which in OPERATORS:
        got = induced_connection(data, which)
        assert (got["classes"], got["matrix"]) == (
            want[which]["classes"], want[which]["matrix"])
    assert len(calls) == 1
    # an explicit q-order equal to the one in force reads the same entry
    induced_connection(data, "gamma_q", q_order=calls[0])
    assert len(calls) == 1
    induced_connection(data, "gamma_q", q_order=8)
    induced_connection(data, "gamma_u", q_order=8)
    assert calls[1:] == [8]
    induced_connection(data, "gamma_u", q_order=12)
    assert calls[2:] == [12]
    induced_connection(make(), "gamma_q", q_order=12)
    assert calls[3:] == [12]


def test_a_report_owns_its_lists():
    data = _cp2()
    first = induced_connection(data, "gamma_q")
    kept = copy.deepcopy(first)
    first["classes"][0]["representative"][0] = "mutated"
    first["classes"][1]["degree"] = -1
    first["classes"].pop()
    first["matrix"][0][0] = "mutated"
    first["matrix"].pop()
    assert induced_connection(data, "gamma_q") == kept
    assert induced_connection(data, "gamma_u")["classes"] == kept["classes"]


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("order", range(2, 5))
def test_euler_relation_on_cpn_classes(n, order):
    # Gamma_u + 2q Gamma_q = u deg on H, read from one datum: deg sends the
    # class u^j e_i to its degree times u^(j+1) e_i, which is 0 at j+1 = order
    data = projective_space_model(n, SETUP_Q).cartan_data(order)
    gq = induced_connection(data, "gamma_q")
    gu = induced_connection(data, "gamma_u")
    assert gq["classes"] == gu["classes"]
    # each class is one flattened generator u^j e_i, at j * (n + 1) + i
    at = [c["representative"].index("1") for c in gq["classes"]]
    assert sorted(at) == list(range((n + 1) * order))
    two_q = SETUP_Q.monomial(2, 1)
    for c, cls in enumerate(gq["classes"]):
        for t in range(len(at)):
            want = (SETUP_Q.monomial(cls["degree"], 0)
                    if at[t] == at[c] + n + 1 else SETUP_Q.zero())
            got = (parse_novikov(gu["matrix"][c][t], SETUP_Q)
                   + two_q * parse_novikov(gq["matrix"][c][t], SETUP_Q))
            assert (got - want).is_zero(), (c, t)


# -- no classes on an acyclic d_0 ----------------------------------------------


def _acyclic_draw(setup, family, seed):
    """An exact d_eq whose d_0 is acyclic, with its solved iota family."""
    rng = random.Random(1700 + seed)
    if family == "random":
        diff = random_equivariant_differential(rng, setup, max_gens=6,
                                               order=rng.randint(2, 4))
    else:
        diff = normal_form_differential(
            rng, setup, n_free=0, n_torsion=0, n_acyclic=rng.randint(1, 3),
            order=rng.randint(2, 4))
    data, obstruction = solve_iota(diff)
    assert obstruction is None
    return data


@pytest.mark.parametrize("setup", [SETUP_Q, SETUP_F5], ids=["Q", "F5"])
@pytest.mark.parametrize("family", ["random", "normal_form"])
@pytest.mark.parametrize("seed", range(24))
def test_acyclic_d0_has_no_classes_and_is_not_flattened(
        flattenings, setup, family, seed):
    data = _acyclic_draw(setup, family, seed)
    for which in OPERATORS:
        got = assert_same_connection(data, which)
        assert (got["classes"], got["matrix"], got["issues"]) == ([], [], [])
        assert got["well_defined"]
        induced_connection(data, which, q_order=8)
    for which in OPERATORS:
        induced_connection(data, which, q_order=12)
    assert flattenings == []
    # the u-adic filtration with acyclic graded pieces (C, d_0): H_eq = 0
    H = cohomology_over_novikov_field(flatten_equivariant(data.diff))
    assert H["degrees"] and all(
        entry["betti"] == 0 for entry in H["degrees"].values())


def _integer_family(*components):
    """d_0, d_1, ... with integer entries on x0, y0, x1, y1 over Q, of
    indices 1, 0, 1, 0 mod 2."""
    basis = (GeneratorInfo("x0", 1), GeneratorInfo("y0", 0),
             GeneratorInfo("x1", 1), GeneratorInfo("y1", 0))
    diff = EquivariantDifferential.build(
        SETUP_Q, GradingKind("Z/2"), basis,
        [{k: SETUP_Q.monomial(c, 0) for k, c in d.items()}
         for d in components], order=3)
    return CartanData(diff, ())


PAIRS = {(1, 0): 1, (3, 2): 1}  # x0 -> y0, x1 -> y1: an acyclic d_0


def _tailed_d0():
    """d_0(x) = (1 + O(q^3)) y: acyclic, but not exactly."""
    basis = (GeneratorInfo("x", 1), GeneratorInfo("y", 0))
    diff = EquivariantDifferential.build(
        SETUP_Q, GradingKind("Z/2"), basis,
        [{(1, 0): NovikovElem.build(SETUP_Q, [(0, 1)], 3)}], order=3)
    return CartanData(diff, ())


# each fails one guard of the acyclic certificate and passes the others
FALLBACKS = {
    "q-tail": _tailed_d0,
    # x0 -> y0 and x1 -> y0: n/2 entries, rank 1
    "rank": lambda: _integer_family({(1, 0): 1, (1, 2): 1}),
    "torsion": lambda: _normal_form(SETUP_Q, True, 0),
}
RAISING = {
    # d_1 = y1 -> x0: [d_0, d_1] = x1 -> x0 plus y1 -> y0, so d_eq^2 != 0
    "square": lambda: _integer_family(PAIRS, {(0, 3): 1}),
    # d_1 = x1 -> x0, y1 -> -y0 has even degree and anticommutes with d_0:
    # cohomology has no block for its entries
    "wrong-parity": lambda: _integer_family(PAIRS, {(0, 2): 1, (1, 3): -1}),
    "not-a-field": lambda: CartanData(
        monotone_pair(ScalarSetup.make(1, "Z")), ()),
}


@pytest.mark.parametrize("make", FALLBACKS.values(), ids=FALLBACKS.keys())
def test_a_failed_guard_flattens_once(flattenings, make):
    data = make()
    for which in OPERATORS:
        assert_same_connection(data, which)
    assert len(flattenings) == 1


@pytest.mark.parametrize("make", RAISING.values(), ids=RAISING.keys())
def test_a_failed_guard_raises_as_the_flattened_path(flattenings, make):
    with pytest.raises((InputError, CoefficientError)) as want:
        ref.induced_connection(make(), "gamma_q")
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        induced_connection(make(), "gamma_q")
    assert len(flattenings) == 1


# -- properties of p ----------------------------------------------------------


def _random_flat_complex(seed):
    rng = random.Random(700 + seed)
    setup = rng.choice([SETUP_Q, SETUP_F5])
    if seed % 2:
        diff = random_equivariant_differential(rng, setup, max_gens=6,
                                               order=rng.randint(2, 4))
    else:
        diff = normal_form_differential(
            rng, setup, n_free=rng.randint(1, 3),
            n_torsion=rng.randint(0, 2), n_acyclic=rng.randint(0, 2),
            order=rng.randint(2, 3))
    return flatten_equivariant(diff)


def _columns(basis, names, columns):
    """A block over ``basis`` with one column per {position: value} dict."""
    return OperatorMatrix([GeneratorInfo(n) for n in names], basis,
                          {(i, s): v for s, col in enumerate(columns)
                           for i, v in col.items()})


def _column(block, s):
    return {i: v for (i, t), v in block.entries.items() if t == s}


@pytest.mark.parametrize("seed", range(12))
def test_projection_identities_on_random_complexes(seed):
    C = _random_flat_complex(seed)
    H = cohomology_over_novikov_field(C)
    one = C.setup.one()
    X = H.class_block(C.basis)
    m = len(X.source)
    # p(rep_j) = e_j
    coeffs, residues = H.project(X)
    assert residues == {}
    for j in range(m):
        col = _column(coeffs, j)
        assert {i for i, c in col.items() if c.has_terms()} == {j}
        assert col[j].terms == one.terms
    # p(d e_i) = 0 with no residue: the columns of d are the boundaries
    coeffs, residues = H.project(C.d)
    assert residues == {}
    assert not any(c.has_terms() for c in coeffs.entries.values())
    # e_i with d e_i != 0 is no cocycle and leaves a residue
    sources = sorted({s for _, s in C.d.entries})
    _, residues = H.project(_columns(C.basis, sources,
                                     [{s: one} for s in sources]))
    assert sorted(residues) == list(range(len(sources)))
    assert all(value.has_terms() for _, value in residues.values())
    # a class plus a boundary keeps the class's coefficients
    if m and sources:
        ones = _columns(C.basis, ["1"], [dict.fromkeys(range(len(C.basis)),
                                                       one)])
        rep = _columns(C.basis, ["1"], [_column(X, m - 1)])
        coeffs, residues = H.project(rep + C.d.compose(ones))
        assert residues == {}
        assert coeffs.entries == H.project(rep)[0].entries


def _graded_chain(seed, tailed=False):
    """A Z-graded complex over degrees 0..3: free generators and pairs
    x -> c q^e y one degree up, conjugated within each degree by elementary
    factors, so that several degrees hold classes, boundaries and
    non-cocycles and a column can leave a residue in more than one.  When
    ``tailed``, every entry of d carries a q-tail a few steps above its
    terms, which the representatives may then carry too."""
    rng = random.Random(500 + seed)
    setup = rng.choice([SETUP_Q, SETUP_F5])
    basis, entries = [], {}
    for k in range(4):
        basis += [GeneratorInfo(f"f{k}.{i}", k)
                  for i in range(rng.randint(0, 2))]
    for k in range(3):
        for i in range(rng.randint(1, 2)):
            basis += [GeneratorInfo(f"x{k}.{i}", k),
                      GeneratorInfo(f"y{k}.{i}", k + 1)]
            entries[(len(basis) - 1, len(basis) - 2)] = setup.monomial(
                rng.choice([1, 2, -1]), rng.randint(0, 2))
    n, one = len(basis), setup.one()
    d = OperatorMatrix(basis, basis, entries, 1)
    for _ in range(6):
        a, b = rng.sample(range(n), 2)
        if basis[a].index == basis[b].index:
            f = setup.monomial(rng.choice([1, -1]), rng.randint(0, 1))
            P, P_inv = (OperatorMatrix(basis, basis, {
                **{(i, i): one for i in range(n)}, (a, b): g}) for g in (f, -f))
            d = P.compose(d).compose(P_inv)
    if tailed:
        d = d.entrywise(lambda v: NovikovElem.build(
            setup, v.terms, v.terms[-1][0] + rng.randint(2, 4)))
    return GradedComplex(setup, GradingKind("Z"), tuple(basis), d)


def _tailed_pair(seed):
    """Degree 0 holds x0, x1 and z, degree 1 holds y, with d z = y and
    d x_i = t_i y for tailed t_i: q^a + O(q^T), with a mostly 0 so that x_i
    can take the pivot from z, or a termless O(q^T).  The representatives
    may then carry a termless tail at another representative's column, so a
    class taken away before the next coefficient is read changes that
    coefficient: every coefficient must be read first."""
    rng = random.Random(1300 + seed)
    setup = rng.choice([SETUP_Q, SETUP_F5])
    basis = (GeneratorInfo("x0", 0), GeneratorInfo("x1", 0),
             GeneratorInfo("z", 0), GeneratorInfo("y", 1))
    entries = {(3, 2): setup.one()}
    for i in range(2):
        a = rng.choice([0, 0, 0, 1, 2])
        entries[(3, i)] = (
            NovikovElem.build(setup, [(a, 1)], a + rng.randint(1, 3))
            if rng.random() < 0.5 else NovikovElem(setup, (), a + 2))
    return GradedComplex(setup, GradingKind("Z"), basis,
                         OperatorMatrix(basis, basis, entries, 1))


def _with_tails(rng, setup, n):
    """A column with a random entry at about half of n positions: an exact
    monomial, a termless O(q^T) or two terms below a tail."""
    col = {}
    for i in range(n):
        e, c = rng.randint(-1, 3), setup.ring.coerce(rng.choice([1, -1, 2]))
        kind = rng.randrange(6)
        if kind == 0:
            col[i] = NovikovElem.build(setup, [(e, c)])
        elif kind == 1:
            col[i] = NovikovElem(setup, (), e + 2)
        elif kind == 2:
            col[i] = NovikovElem.build(setup, [(e, c), (e + 1, 1)], e + 3)
    return col


def _empty_blocks(seed):
    """A complex with an empty block of each kind: degree 0 maps onto a
    line of degree 1, whose target degree 2 holds no generator, so its
    block of d has no rows; c in degree 4 is a degree that no map enters or
    leaves, though its target degree 5 holds e, which maps nowhere."""
    rng = random.Random(1700 + seed)
    setup = rng.choice([SETUP_Q, SETUP_F5])
    basis = tuple(GeneratorInfo(n, k) for n, k in (
        ("x0", 0), ("y0", 1), ("x1", 0), ("c", 4), ("y1", 1), ("e", 5)))

    def monomial():
        return setup.monomial(rng.choice([1, 2, -1]), rng.randint(-1, 2))

    column, g = {1: monomial(), 4: monomial()}, monomial()
    entries = {(t, 0): v for t, v in column.items()}
    entries.update({(t, 2): g * v for t, v in column.items()})
    return GradedComplex(setup, GradingKind("Z"), basis,
                         OperatorMatrix(basis, basis, entries, 1))


@pytest.mark.parametrize("seed", range(4))
def test_empty_blocks_match_the_dense_ranks(seed):
    """Every block of d is eliminated, an empty one too: the ranks, Betti
    numbers and representatives agree with the dense elimination, and a
    degree with no map in or out keeps its generators as classes."""
    C = _empty_blocks(seed)
    H = cohomology_over_novikov_field(C)
    zero, one = C.setup.zero(), C.setup.one()

    def rank(k):  # of the block of d from degree k, by the dense reference
        rows = [[C.d.entries.get((t, s), zero)
                 for s in C.generators_in_degree(k)]
                for t in C.generators_in_degree(k + 1)]
        return len(ref.row_reduce(rows, C.setup)[2])

    for k, entry in H["degrees"].items():
        assert (entry["rank_out"], entry["rank_in"]) == (rank(k), rank(k - 1))
    assert {k: e["betti"] for k, e in H["degrees"].items()} == {
        0: 1, 1: 1, 4: 1, 5: 1}
    for k in (4, 5):
        assert [[v.terms for v in rep] for rep in
                H["degrees"][k]["representatives"]] == [[one.terms]]
    X = H.class_block(C.basis)
    assert C.d.compose(X).is_visibly_zero()
    coeffs, residues = H.project(X)
    assert residues == {}
    assert {k: v.terms for k, v in coeffs.entries.items()} == {
        (j, j): one.terms for j in range(4)}


ORACLE_CASES = ([(f"flat-{s}", lambda s=s: _random_flat_complex(s))
                 for s in range(12)]
                + [(f"graded-{s}", lambda s=s: _graded_chain(s))
                   for s in range(6)]
                + [(f"tailed-{s}", lambda s=s: _graded_chain(s, True))
                   for s in range(16, 28)]
                + [(f"tailed-pair-{s}", lambda s=s: _tailed_pair(s))
                   for s in range(16)]
                + [(f"empty-blocks-{s}", lambda s=s: _empty_blocks(s))
                   for s in range(4)])


@pytest.mark.parametrize("make", [m for _, m in ORACLE_CASES],
                         ids=[i for i, _ in ORACLE_CASES])
def test_block_projection_matches_the_dense_oracle(make):
    """Column by column, the block projection gives the coefficients (terms
    and tails) and the residue (position and value) of p on that column as
    one dense vector, on a block that mixes classes, boundaries,
    non-cocycles, zero columns, tailed columns and classes with a tail."""
    C = make()
    H = cohomology_over_novikov_field(C)
    setup, n, zero = C.setup, len(C.basis), C.setup.zero()
    rng = random.Random(len(C.basis))
    X = H.class_block(C.basis)
    classes = [_column(X, j) for j in range(len(X.source))]
    columns = classes + [_column(C.d, s) for s in range(n)]
    columns += [{s: setup.one()} for s in range(n)] + [{}]
    columns += [_with_tails(rng, setup, n) for _ in range(6)]
    for col in classes[:4]:
        tail = _with_tails(rng, setup, n)
        columns.append({i: col.get(i, zero) + tail.get(i, zero)
                        for i in sorted(col.keys() | tail.keys())})
    # each class with its 1 replaced by O(q^2): a termless coefficient, which
    # is not taken away, so the rest of the class is the residue
    for gens, _, reps in H.blocks:
        columns += [{gens[i]: NovikovElem(setup, (), 2) if i == c else v
                     for i, v in rep.items()} for c, rep in reps]
    block = _columns(C.basis, map(str, range(len(columns))), columns)
    coeffs, residues = H.project(block)
    assert coeffs.target == tuple(X.source)

    def fields(x):
        return (x.terms, x.trunc)

    for s in range(len(columns)):
        dense = [block.entries.get((i, s), zero) for i in range(n)]
        want, want_residue = ref.project(H, dense)
        got = [coeffs.entries.get((c, s), zero) for c in range(len(want))]
        assert list(map(fields, got)) == list(map(fields, want))
        if want_residue is None:
            assert s not in residues
        else:
            position, value = residues[s]
            assert position == want_residue[0]
            assert fields(value) == fields(want_residue[1])


# -- cone verdicts ------------------------------------------------------------


def _verdicts_match(cmap, minus, plus):
    out = mapping_cone(cmap, minus, plus)
    for side, target in (("minus", minus), ("plus", plus)):
        want = ref.quasi_iso_verdict(out[f"projection_{side}"], out["cone"],
                                     target)
        assert out["quasi_isomorphisms"][side] == want
    return out["quasi_isomorphisms"]


@pytest.mark.parametrize("seed", range(8))
def test_cone_verdicts_match_the_rank_oracle(seed):
    C = _random_flat_complex(seed)
    one = C.setup.one()
    n = len(C.basis)
    H = cohomology_over_novikov_field(C)
    has_classes = any(e["betti"] for e in H["degrees"].values())
    ident = OperatorMatrix(C.basis, C.basis, {(i, i): one for i in range(n)})
    verdicts = _verdicts_match(ident, C, C)
    assert verdicts["minus"]["quasi_isomorphism"]
    zero_map = OperatorMatrix(C.basis, C.basis, {})
    verdicts = _verdicts_match(zero_map, C, C)
    assert verdicts["plus"]["quasi_isomorphism"]
    # a zero chain map induces no isomorphism unless there is no cohomology
    assert verdicts["minus"]["quasi_isomorphism"] is not has_classes


def test_cone_of_a_zero_map_between_surviving_classes_is_not_quasi_iso():
    basis = (GeneratorInfo("a", 0), GeneratorInfo("b", 1),
             GeneratorInfo("c", 2))
    C = GradedComplex.build(SETUP_Q, GradingKind("Z"), basis,
                            {(1, 0): SETUP_Q.monomial(1, 2)})
    verdicts = _verdicts_match(OperatorMatrix(basis, basis, {}), C, C)
    assert verdicts["minus"] == {
        "quasi_isomorphism": False, "degree": 2,
        "reason": "induced map not surjective modulo boundaries"}


def test_cone_verdict_passes_a_degree_without_classes():
    """Degrees 1 and 2 hold no class between the classes of a and b: the
    verdict on c (identity but on b) goes through them to degree 3."""
    basis = tuple(GeneratorInfo(n, k) for n, k in (
        ("a", 0), ("x", 1), ("y", 2), ("b", 3)))
    C = GradedComplex.build(SETUP_Q, GradingKind("Z"), basis,
                            {(2, 1): SETUP_Q.monomial(1, 2)})
    c = OperatorMatrix(basis, basis,
                       {(i, i): SETUP_Q.one() for i in range(3)}, 0)
    assert [e["betti"] for e in cohomology_over_novikov_field(C)[
        "degrees"].values()] == [1, 0, 0, 1]
    verdicts = _verdicts_match(c, C, C)
    assert verdicts["minus"] == {
        "quasi_isomorphism": False, "degree": 3,
        "reason": "induced map not surjective modulo boundaries"}
    assert verdicts["plus"] == {"quasi_isomorphism": True}


@pytest.mark.parametrize("tail", [2, 3])
def test_a_rank_short_by_a_termless_tail_is_undetermined(tail):
    """c = O(q^T) on a class a: the induced coefficient is the termless
    tail, so the rank that falls short is known only below q^T and the cone
    is undetermined; c = 1 + O(q^T) keeps a full rank, which is certified.
    With a second class b, one row or column of tails raises the rank to 1
    of 2 at most, so "not surjective" stays certain; tails on both diagonal
    entries could close the gap."""
    basis = (GeneratorInfo("a", 0),)
    C = GradedComplex.build(SETUP_Q, GradingKind("Z"), basis, {})
    with pytest.raises(UndeterminedError, match=f"index {tail}"):
        mapping_cone(OperatorMatrix(basis, basis, {
            (0, 0): NovikovElem(SETUP_Q, (), tail)}), C, C)
    verdicts = mapping_cone(OperatorMatrix(basis, basis, {
        (0, 0): NovikovElem.build(SETUP_Q, [(0, 1)], tail)}), C, C)[
        "quasi_isomorphisms"]
    assert verdicts == {"minus": {"quasi_isomorphism": True},
                        "plus": {"quasi_isomorphism": True}}
    basis = (GeneratorInfo("a", 0), GeneratorInfo("b", 0))
    C = GradedComplex.build(SETUP_Q, GradingKind("Z"), basis, {})
    tails = NovikovElem(SETUP_Q, (), tail)
    for tailed in ([(0, 0)], [(0, 0), (0, 1)], [(0, 0), (1, 0)]):
        assert mapping_cone(OperatorMatrix(basis, basis, dict.fromkeys(
            tailed, tails)), C, C)["quasi_isomorphisms"]["minus"] == {
            "quasi_isomorphism": False, "degree": 0,
            "reason": "induced map not surjective modulo boundaries"}
    with pytest.raises(UndeterminedError, match="rank 0 of 2"):
        mapping_cone(OperatorMatrix(basis, basis, {
            (0, 0): tails, (1, 1): tails}), C, C)
