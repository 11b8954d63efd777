"""The cohomology projection p and the verdicts read through it.

``cohomology_over_novikov_field`` returns, with its report, the projection
p onto the classes (``CohomologyReport.project``).  ``induced_connection``
reads each row of the connection matrix with p and certifies
well-definedness by projecting Gamma(d e_i); the cone verdict is the rank
of the induced square matrix.  ``dense_reference`` keeps the former
versions, which solve against [representatives | every boundary] and rank
pushed representatives together with the boundaries; both must give the
same classes, matrices and verdicts.
"""

import json
import random

import pytest

import dense_reference as ref
from eqcartan import cli
from eqcartan.cartan import (CartanData, flatten_equivariant,
                             induced_connection, solve_iota)
from eqcartan.complexes import (GeneratorInfo, GradedComplex, GradingKind,
                                OperatorMatrix, cohomology_over_novikov_field,
                                mapping_cone)
from eqcartan.novikov import ScalarSetup
from eqcartan.quantum import projective_space_model

from conftest import (normal_form_differential,
                      random_equivariant_differential, via_block)
from test_cartan import monotone_pair

SETUP_Q = ScalarSetup.make(1, "Q")
SETUP_F5 = ScalarSetup.make(1, "F5")
OPERATORS = ("gamma_q", "gamma_u")


def assert_same_connection(data, which):
    got = induced_connection(data, which)
    want = ref.induced_connection(data, which)
    assert got["classes"] == want["classes"]
    assert got["matrix"] == want["matrix"]
    assert got["well_defined"] == want["well_defined"]
    return got


# -- induced connection against the elimination oracle ------------------------


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("order", range(2, 6))
def test_cpn_connection_matches_the_oracle(n, order):
    data = projective_space_model(n, SETUP_Q).cartan_data(order)
    for which in OPERATORS:
        got = assert_same_connection(data, which)
        assert got["well_defined"]
        assert len(got["classes"]) == (n + 1) * order


@pytest.mark.parametrize("setup", [SETUP_Q, SETUP_F5], ids=["Q", "F5"])
@pytest.mark.parametrize("torsion", [False, True],
                         ids=["free-acyclic", "torsion"])
@pytest.mark.parametrize("seed", range(6))
def test_normal_form_connection_matches_the_oracle(setup, torsion, seed):
    rng = random.Random(900 + seed)
    diff = normal_form_differential(
        rng, setup, n_free=rng.randint(1, 3),
        n_torsion=rng.randint(1, 2) if torsion else 0,
        n_acyclic=rng.randint(1, 3), order=rng.randint(2, 4))
    data, obstruction = solve_iota(diff)
    # torsion may obstruct iota; the connection is then u d/dq alone and
    # need not descend to classes, but both paths must still agree
    assert obstruction is None or torsion
    if obstruction is not None:
        data = CartanData(diff, ())
    for which in OPERATORS:
        got = assert_same_connection(data, which)
        assert got["classes"]
    # Gamma_u needs q-homogeneous data, which these families are not
    if obstruction is None:
        assert induced_connection(data, "gamma_q")["well_defined"]


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


def _classes(C, H):
    zero = C.setup.zero()
    out = []
    for k in sorted(H["degrees"]):
        gens = C.generators_in_degree(k)
        for rep in H["degrees"][k]["representatives"]:
            full = [zero] * len(C.basis)
            for pos, g in enumerate(gens):
                full[g] = rep[pos]
            out.append(full)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_projection_identities_on_random_complexes(seed):
    C = _random_flat_complex(seed)
    H = cohomology_over_novikov_field(C)
    reps = _classes(C, H)
    zero = C.setup.zero()
    # p(rep_j) = e_j
    for j, rep in enumerate(reps):
        coeffs, residue = H.project(rep)
        assert residue is None
        assert [c.has_terms() for c in coeffs] == [i == j for i in
                                                   range(len(reps))]
        assert coeffs[j].terms == C.setup.one().terms
    # p(d e_i) = 0; e_i with d e_i != 0 is no cocycle and leaves a residue
    sources = sorted({s for _, s in C.d.entries})
    for s in sources:
        e = [zero] * len(C.basis)
        e[s] = C.setup.one()
        coeffs, residue = H.project(via_block(C.d.compose, C.basis, e, zero))
        assert residue is None
        assert not any(c.has_terms() for c in coeffs)
        coeffs, residue = H.project(e)
        assert residue is not None and residue[1].has_terms()
    # a class plus a boundary keeps the class's coefficients
    if reps and sources:
        ones = [C.setup.one()] * len(C.basis)
        shifted = [a + b for a, b in
                   zip(reps[-1], via_block(C.d.compose, C.basis, ones, zero))]
        coeffs, residue = H.project(shifted)
        assert residue is None
        assert coeffs == H.project(reps[-1])[0]


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
