"""Arithmetic with a decidably zero operand returns what the formula returns.

``NovikovElem`` ``+``/``*`` and ``USeries`` ``+``/``-``/negation/``*``/
``scale``/``q_shift`` skip the general formula when an operand is decidably
zero (no terms, no q-tail and, for a series, no lost u-order).  For every
mix of operand kinds over Q, F2 and F5 the result must equal the general
formula of ``dense_reference`` field for field: terms, ``trunc`` of every
coefficient and ``valid``.  The kinds include the termless but truncated
``O(q^T)`` and series with lost u-order, which carry tails and must never
take a short-circuit.  ``cartan.degree_weighted`` returns a decidably zero
entry as it is and must equal the general formula in the same way.  The
block operators ``gamma_q``, ``gamma_u`` and ``degree_weighted`` skip the
entries a block does not store, and each column of their image must equal
the per-vector formula of ``dense_reference`` on that column.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as ref
from eqcartan.cartan import (CartanData, EquivariantDifferential,
                             degree_weighted, gamma_q, gamma_u)
from eqcartan.complexes import GeneratorInfo, GradingKind, OperatorMatrix
from eqcartan.novikov import NovikovElem, ScalarSetup, USeries

from conftest import via_block

SETUPS = {ring: ScalarSetup.make(1, ring) for ring in ("Q", "F2", "F5")}
ORDER = 3

ELEM_KINDS = ("zero", "tail", "ordinary")
SERIES_KINDS = ("zero", "tail", "lost", "ordinary")

truncs = st.integers(min_value=-3, max_value=6)


@st.composite
def elems(draw, setup, kind):
    """A NovikovElem of the given kind: exact zero, O(q^T), or with terms
    (exact or truncated above them)."""
    if kind == "zero":
        return setup.zero()
    if kind == "tail":
        return NovikovElem(setup, (), draw(truncs))
    pairs = draw(st.lists(
        st.tuples(st.integers(min_value=-3, max_value=3),
                  st.integers(min_value=1, max_value=4)),
        min_size=1, max_size=3))
    terms = NovikovElem.build(
        setup, [(e, setup.ring.coerce(c)) for e, c in pairs]).terms
    if not terms:  # every coefficient vanished in the ring
        terms = setup.one().terms
    top = terms[-1][0]
    trunc = draw(st.one_of(st.none(),
                           st.integers(min_value=top + 1, max_value=top + 4)))
    return NovikovElem(setup, terms, trunc)


@st.composite
def series(draw, setup, kind):
    """A USeries mod u^ORDER of the given kind: exact zero, no visible
    terms but a q-tail, lost u-order (valid < ORDER), or ordinary."""
    if kind == "zero":
        return USeries.zero(setup, ORDER)
    if kind == "tail":
        coeffs = draw(st.lists(st.sampled_from(("zero", "tail")),
                               min_size=ORDER, max_size=ORDER))
        coeffs[draw(st.integers(min_value=0, max_value=ORDER - 1))] = "tail"
        return USeries.build(setup, ORDER,
                             [draw(elems(setup, k)) for k in coeffs])
    coeffs = [draw(elems(setup, draw(st.sampled_from(ELEM_KINDS))))
              for _ in range(ORDER)]
    if kind == "lost":
        return USeries.build(setup, ORDER, coeffs,
                             draw(st.integers(min_value=0,
                                              max_value=ORDER - 1)))
    return USeries.build(setup, ORDER, coeffs)


def assert_same_elem(got, want):
    assert got == want
    assert got.trunc == want.trunc


def assert_same_series(got, want):
    assert got == want
    assert got.valid == want.valid
    assert [c.trunc for c in got.coeffs] == [c.trunc for c in want.coeffs]


def test_the_kinds_are_what_they_say():
    setup = SETUPS["Q"]
    assert setup.zero().is_zero()
    assert not NovikovElem(setup, (), 2).is_zero()
    assert USeries.zero(setup, ORDER).is_zero()
    assert not USeries.build(setup, ORDER, [], valid=ORDER - 1).is_zero()
    assert not USeries.build(setup, ORDER, [NovikovElem(setup, (), 2)]).is_zero()


@pytest.mark.parametrize("ring", sorted(SETUPS))
@pytest.mark.parametrize("kinds", list(itertools.product(ELEM_KINDS, repeat=2)),
                         ids="-".join)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_novikov_arithmetic_matches_the_formula(ring, kinds, data):
    setup = SETUPS[ring]
    a = data.draw(elems(setup, kinds[0]))
    b = data.draw(elems(setup, kinds[1]))
    assert_same_elem(a + b, ref.elem_add(a, b))
    assert_same_elem(a * b, ref.elem_mul(a, b))


@pytest.mark.parametrize("ring", sorted(SETUPS))
@pytest.mark.parametrize("kinds",
                         list(itertools.product(SERIES_KINDS, repeat=2)),
                         ids="-".join)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_useries_arithmetic_matches_the_formula(ring, kinds, data):
    setup = SETUPS[ring]
    a = data.draw(series(setup, kinds[0]))
    b = data.draw(series(setup, kinds[1]))
    c = data.draw(elems(setup, data.draw(st.sampled_from(ELEM_KINDS))))
    steps = data.draw(st.integers(min_value=-2, max_value=2))
    assert_same_series(a + b, ref.useries_add(a, b))
    assert_same_series(a - b, ref.useries_sub(a, b))
    assert_same_series(-a, ref.useries_neg(a))
    assert_same_series(a * b, ref.useries_mul(a, b))
    assert_same_series(a.scale(c), ref.useries_scale(a, c))
    assert_same_series(a.q_shift(steps), ref.useries_q_shift(a, steps))
    assert bool(a) == any(x.terms for x in a.coeffs[: a.valid])


@pytest.mark.parametrize("ring", sorted(SETUPS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_useries_product_commutes_over_tailed_scalars(ring, data):
    # a left coefficient O(q^T) carries its tail into the product exactly
    # as a right one does
    setup = SETUPS[ring]
    a, b = (data.draw(series(setup, data.draw(st.sampled_from(SERIES_KINDS))))
            for _ in range(2))
    assert_same_series(a * b, b * a)


@pytest.mark.parametrize("ring", sorted(SETUPS))
@pytest.mark.parametrize("kind", SERIES_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_degree_weighted_matches_the_formula(ring, kind, data):
    setup = SETUPS[ring]
    kinds = [kind, data.draw(st.sampled_from(SERIES_KINDS))]
    basis = [GeneratorInfo(f"g{i}", data.draw(st.integers(-3, 3)))
             for i in range(len(kinds))]
    diff = EquivariantDifferential.build(setup, GradingKind("Z"), basis, [{}],
                                         order=ORDER)
    vec = [data.draw(series(setup, k)) for k in kinds]
    got = via_block(lambda X: degree_weighted(CartanData(diff), X), basis, vec,
                    USeries.zero(setup, ORDER))
    want = ref.degree_weighted(CartanData(diff), vec)
    for g, w in zip(got, want):
        assert_same_series(g, w)


@pytest.mark.parametrize("ring", sorted(SETUPS))
@pytest.mark.parametrize("regime", ["monotone", "cy"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_block_operators_match_the_per_vector_formulas(ring, regime, data):
    # one block with a zero, a tailed, a lost-u-order and an ordinary
    # column, under an iota family whose entries may be O(q^T) alone
    setup = SETUPS[ring]
    n = data.draw(st.integers(min_value=1, max_value=3))
    basis = [GeneratorInfo(f"g{i}", data.draw(st.integers(-3, 3)))
             for i in range(n)]
    diff = EquivariantDifferential.build(setup, GradingKind("Z"), basis, [{}],
                                         order=ORDER)
    iota = [OperatorMatrix(basis, basis, {
        (t, s): data.draw(elems(setup, data.draw(st.sampled_from(ELEM_KINDS))))
        for t in range(n) for s in range(n)}) for _ in range(2)]
    cd = CartanData(diff, iota, regime)
    columns = [[data.draw(series(setup, kind if i == 0 else data.draw(
        st.sampled_from(("zero", kind))))) for i in range(n)]
        for kind in SERIES_KINDS]
    X = OperatorMatrix([GeneratorInfo(k) for k in SERIES_KINDS], basis,
                       {(t, s): v for s, col in enumerate(columns)
                        for t, v in enumerate(col)})
    zero = USeries.zero(setup, ORDER)
    for new, old in ((gamma_q, ref.gamma_q), (gamma_u, ref.gamma_u),
                     (degree_weighted, ref.degree_weighted)):
        for got, col in zip(new(cd, X).columns(zero), columns):
            for g, w in zip(got, old(cd, col)):
                assert_same_series(g, w)
