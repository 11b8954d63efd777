"""The L0 scalar types are slotted, frozen and share one exact zero per setup.

``NovikovElem`` and ``USeries`` are slotted frozen dataclasses: every field
assignment raises ``FrozenInstanceError``, and ``repr``, ``==`` and ``hash``
are the dataclass's over the same fields as before (``USeries.valid`` and
``_zero`` are slots outside them).  ``ScalarSetup.zero()`` and ``one()``
return one shared element each, and ``dq``, ``q_shift``, ``degree_weighted``
and the padding of ``times_u`` and ``USeries.build`` return the shared zero
instead of building a new one; a spy on ``NovikovElem`` construction pins
how many fresh exact zeros ``identity_report`` still builds.
"""

import dataclasses
import pickle
import sys
from collections import Counter
from pathlib import Path

import pytest

from eqcartan.cartan import degree_weighted, identity_report, solve_iota
from eqcartan.complexes import OperatorMatrix
from eqcartan.novikov import NovikovElem, ScalarSetup, USeries, dq

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import gens  # noqa: E402  (the benchmark's input generators)

SETUPS = [ScalarSetup.make(g, ring)
          for ring in ("Q", "Z", "F2", "Z/6") for g in ("1", "1/2")]
F2 = ScalarSetup.make(1, "F2")


def _tailed(setup):
    return NovikovElem.build(setup, [(1, 1), (0, 1)], 3)


@pytest.mark.parametrize("value", [
    _tailed(F2), F2.zero(), F2.one(),
    USeries.build(F2, 3, [_tailed(F2)], valid=2), USeries.zero(F2, 2)],
    ids=["elem", "zero", "one", "series", "zero-series"])
def test_every_field_is_frozen(value):
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
    assert not hasattr(value, "__dict__")


def test_the_series_flags_are_set_once_outside_equality():
    s = USeries.build(F2, 3, [_tailed(F2)], valid=2)
    assert (s.valid, s._zero) == (2, False)
    z = USeries.zero(F2, 3)
    assert (z.valid, z._zero) == (3, True)
    names = {f.name: f for f in dataclasses.fields(USeries)}
    for name in ("valid", "_zero"):
        assert not (names[name].init or names[name].compare
                    or names[name].repr)
    assert USeries(F2, 3, (F2.zero(),) * 3) == z
    assert hash(USeries(F2, 3, (F2.zero(),) * 3)) == hash(z)


def test_a_series_is_checked_against_its_order():
    with pytest.raises(ValueError, match="more coefficients"):
        USeries(F2, 1, (F2.one(), F2.one()))


@pytest.mark.parametrize("setup", SETUPS, ids=lambda s: str(s.describe()))
def test_one_shared_zero_and_one_per_setup(setup):
    z = setup.zero()
    assert z is setup.zero() and setup.one() is setup.one()
    assert z == NovikovElem(setup, ()) and z.is_zero()
    assert setup.one() == NovikovElem(setup, ((0, 1),))
    assert setup.one() == setup.parse("1") == setup.monomial(1, 0)
    assert setup.monomial(0, 5) is z
    # not fields: two equal setups compare and hash alike
    twin = ScalarSetup(setup.lattice, setup.ring)
    assert twin == setup and hash(twin) == hash(setup)
    assert twin.zero() == z and twin.zero() is not z


@pytest.mark.parametrize("setup", SETUPS, ids=lambda s: str(s.describe()))
def test_exact_zero_results_are_the_shared_zero(setup):
    z = setup.zero()
    assert dq(z) is z
    assert dq(setup.one()) is z
    assert z.q_shift(3) is z
    series = USeries.from_novikov(setup.one(), 4)
    shifted = series.times_u(2)
    assert shifted.coeffs[0] is z and shifted.coeffs[1] is z
    assert USeries.build(setup, 3, [setup.one()]).coeffs[1:] == (z, z)
    assert all(c is z for c in USeries.build(setup, 3, []).coeffs)
    # a tail is kept: O(q^2) shifted or differentiated is no exact zero
    tail = NovikovElem(setup, (), 2)
    assert tail.q_shift(3) == NovikovElem(setup, (), 5)
    assert dq(tail).trunc == 2 - setup.lattice.steps_per_unit


def test_degree_weighted_keeps_the_shared_zero():
    diff = gens.acyclic_differential(
        gens.seeded(9101, "cartan-sparse", 0, 0, 8, "Q"), gens.SETUP_Q, 8)
    data, obstruction = solve_iota(diff)
    assert obstruction is None
    z = gens.SETUP_Q.zero()
    column = USeries.build(gens.SETUP_Q, diff.order, [z, gens.SETUP_Q.one()])
    X = OperatorMatrix(diff.basis, diff.basis[:1], {(0, 0): column}, 0)
    (w,) = degree_weighted(data, X).entries.values()
    assert w.coeffs[0] is z


def test_pickle_keeps_every_slot():
    s = USeries.build(F2, 3, [_tailed(F2)], valid=2)
    back = pickle.loads(pickle.dumps(s))
    assert back == s and (back.valid, back._zero) == (2, False)
    assert pickle.loads(pickle.dumps(_tailed(F2))) == _tailed(F2)


def test_repr_is_the_dataclass_text():
    setup_text = ("ScalarSetup(lattice=ExponentLattice(generator=Fraction(1, "
                  "1)), ring=CoefficientRing(kind='Fp', modulus=2))")
    elem = (f"NovikovElem(setup={setup_text}, terms=((0, 1), (1, 1)), "
            "trunc=3)")
    zero = f"NovikovElem(setup={setup_text}, terms=(), trunc=None)"
    assert repr(_tailed(F2)) == elem
    assert repr(USeries.build(F2, 3, [_tailed(F2)], valid=2)) == (
        f"USeries(setup={setup_text}, order=3, coeffs=({elem}, {zero}))")


def test_identity_report_builds_few_fresh_exact_zeros(monkeypatch):
    # one acyclic n = 12 draw over Q of the cartan-sparse workload; building
    # a new zero for every padding, dq and q_shift of a zero coefficient and
    # every degree weight of one made 360 here, a shared zero leaves the 13
    # exact cancellations: 10 in USeries sums and 3 coefficients of
    # identity 4 that Gamma_u's triple weights by 2k + w = 0 (identities
    # 2-4 bracket the triples, so no operator runs on unit columns); Gamma_u's
    # matrix part carries its sign, so its bracket is added and no
    # coefficient is negated to subtract it; the draw's sample block has no
    # column, so identities 5-7 build none of their three scalar monomials
    def solved():
        diff = gens.acyclic_differential(
            gens.seeded(9101, "cartan-sparse", 0, 0, 12, "Q"), gens.SETUP_Q,
            12)
        data, obstruction = solve_iota(diff)
        assert obstruction is None
        return data

    data, built = solved(), Counter()
    real = NovikovElem.__init__

    def spy(self, setup, terms, trunc=None):
        built["all"] += 1
        built["exact zeros"] += not terms and trunc is None
        real(self, setup, terms, trunc)

    with monkeypatch.context() as m:
        m.setattr(NovikovElem, "__init__", spy)
        report = identity_report(data)
    assert report == identity_report(solved())
    assert built["exact zeros"] == 13
    assert built["all"] == 87
