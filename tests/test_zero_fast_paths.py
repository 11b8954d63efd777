"""The direct arithmetic paths return what the general formula returns.

``NovikovElem`` ``+``/``*`` skip the general formula when an operand is
decidably zero (no terms and no q-tail).  Of the ``USeries`` operations
only negation and ``q_shift`` of a decidably zero series (one that also
lost no u-order) and a product by the exact unit 1 skip it; ``+``, ``-``,
``*`` and ``scale`` leave a zero operand to the ``NovikovElem`` arithmetic
and ``sum_of_products``.  ``+`` and ``*`` of single-term operands build
their one- or two-term result directly, and the ``USeries`` operations
build their coefficient tuple directly.  For every mix of operand kinds over Q, F2, F5 and Z/6 (a ring
with zero divisors) the result must equal the general formula of
``dense_reference`` field for field: terms, ``trunc`` of every coefficient
and ``valid``.  The kinds include exact single-term monomials, the termless
but truncated ``O(q^T)`` and series with lost u-order, which carry tails and
must never take a short-circuit.  ``cartan.degree_weighted`` returns a decidably zero
entry as it is and must equal the general formula in the same way.  The
block operators ``gamma_q``, ``gamma_u`` and ``degree_weighted`` skip the
entries a block does not store, and each column of their image must equal
the per-vector formula of ``dense_reference`` on that column.

Sums of products are one pass of ``sum_of_products`` (``OperatorMatrix.
compose`` per entry, ``USeries.__mul__`` as its one-pair case, ``linalg.
solve`` per row): each must equal the sequential sum of the general
formulas, product by product, field for field, on the lattices Z and 1/2 Z;
an entry that cancels to an exact zero must not be stored.  A ``compose``
of several pairs must equal the sequential ``compose`` of each pair joined
by ``+``, and the dense sum of all the products.

Every operation's result stores exactly its known coefficients:
``len(coeffs) == valid <= order``, so no reader meets a placeholder zero.
"""

import functools
import inspect
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as ref
from eqcartan import linalg
from eqcartan.cartan import (CartanData, EquivariantDifferential,
                             degree_weighted, gamma_q, gamma_u,
                             identity_report, solve_iota)
from eqcartan.complexes import (GeneratorInfo, GradingKind, OperatorMatrix,
                                sample_block)
from eqcartan.novikov import (NovikovElem, NovikovError, ScalarSetup, USeries,
                              useries_du, useries_invert_unit, useries_udq)

from conftest import random_equivariant_differential, via_block

SETUPS = {ring: ScalarSetup.make(1, ring) for ring in ("Q", "F2", "F5", "Z/6")}
ORDER = 3

ELEM_KINDS = ("zero", "tail", "monomial", "ordinary")
SERIES_KINDS = ("zero", "tail", "lost", "ordinary")

# Strategies are built once: at module level, or per argument tuple by
# ``functools.cache`` on a composite, so no draw builds and validates a new
# strategy object.  Only those bounded by a drawn value are built per draw.
truncs = st.integers(min_value=-3, max_value=6)
small = st.integers(min_value=-3, max_value=3)
sizes = st.integers(min_value=1, max_value=3)
tail_gaps = st.integers(min_value=1, max_value=4)
maybe_tail_gaps = st.one_of(st.none(), tail_gaps)
short_u_orders = st.integers(min_value=0, max_value=ORDER - 1)
shifts = st.integers(min_value=-2, max_value=2)
choices = functools.cache(st.sampled_from)
elem_kinds = choices(ELEM_KINDS)
series_kinds = choices(SERIES_KINDS)
term_lists = st.lists(st.tuples(small, st.integers(min_value=1, max_value=4)),
                      min_size=1, max_size=3)
zero_or_tail = st.lists(choices(("zero", "tail")), min_size=ORDER,
                        max_size=ORDER)


@functools.cache
@st.composite
def elems(draw, setup, kind):
    """A NovikovElem of the given kind: exact zero, O(q^T), an exact
    single-term monomial, or with terms (exact or truncated above them)."""
    if kind == "zero":
        return setup.zero()
    if kind == "tail":
        return NovikovElem(setup, (), draw(truncs))
    if kind == "monomial":
        return draw(monomials(setup))
    pairs = draw(term_lists)
    terms = NovikovElem.build(
        setup, [(e, setup.ring.coerce(c)) for e, c in pairs]).terms
    if not terms:  # every coefficient vanished in the ring
        terms = setup.one().terms
    gap = draw(maybe_tail_gaps)
    return NovikovElem(setup, terms, None if gap is None
                       else terms[-1][0] + gap)


@functools.cache
def monomials(setup, exponent=small):
    """c q^e with c a nonzero residue of the ring (a zero divisor in Z/6)."""
    m = setup.ring.modulus
    return st.builds(setup.monomial,
                     st.integers(min_value=1, max_value=(m or 5) - 1),
                     exponent)


@functools.cache
@st.composite
def series(draw, setup, kind):
    """A USeries mod u^ORDER of the given kind: exact zero, no visible
    terms but a q-tail, lost u-order (valid < ORDER), or ordinary."""
    if kind == "zero":
        return USeries.zero(setup, ORDER)
    if kind == "tail":
        coeffs = draw(zero_or_tail)
        coeffs[draw(short_u_orders)] = "tail"
        return USeries.build(setup, ORDER,
                             [draw(elems(setup, k)) for k in coeffs])
    coeffs = [draw(elems(setup, draw(elem_kinds))) for _ in range(ORDER)]
    if kind == "lost":
        return USeries.build(setup, ORDER, coeffs, draw(short_u_orders))
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
    if not a.terms:  # negation returns a termless element itself
        assert -a is a


@pytest.mark.parametrize("ring", sorted(SETUPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_monomial_at_or_above_the_other_operands_trunc(ring, data):
    # the sum drops the monomial's term, which lies in the other operand's
    # unknown tail; the product shifts that tail and keeps the term
    setup = SETUPS[ring]
    b = data.draw(elems(setup, data.draw(choices(("tail", "ordinary")))))
    if b.trunc is None:
        b = NovikovElem(setup, b.terms, b.terms[-1][0] + 1)
    a = data.draw(monomials(setup, st.integers(min_value=b.trunc,
                                                max_value=b.trunc + 3)))
    for x, y in ((a, b), (b, a)):
        assert_same_elem(x + y, ref.elem_add(x, y))
        assert_same_elem(x * y, ref.elem_mul(x, y))
    assert (a + b).terms == b.terms


def test_zero_divisors_give_a_decidably_zero_product():
    setup = SETUPS["Z/6"]
    two_q, three_q = setup.monomial(2, 1), setup.monomial(3, 1)
    assert (two_q * three_q).is_zero()
    assert (three_q + three_q).is_zero()
    assert_same_elem(two_q * three_q, ref.elem_mul(two_q, three_q))
    a, b = (USeries.from_novikov(x, ORDER) for x in (two_q, three_q))
    assert (a * b).is_zero()
    assert_same_series(a * b, ref.useries_mul(a, b))
    assert a.scale(three_q).is_zero()
    assert_same_series(a.scale(three_q), ref.useries_scale(a, three_q))


def test_operator_results_store_no_decidably_zero_entry():
    # compose, +, - and entrywise drop an entry that cancels, or that
    # vanishes through a zero divisor of Z/6, where they make it
    setup = SETUPS["Z/6"]
    basis = [GeneratorInfo("a"), GeneratorInfo("b")]

    def s(c, e):
        return USeries.from_novikov(setup.monomial(c, e), ORDER)

    A = OperatorMatrix(basis, basis, {(0, 0): s(2, 1), (0, 1): s(1, 0),
                                      (1, 1): s(3, 0)})
    B = OperatorMatrix(basis, basis, {(0, 0): s(3, 1), (1, 1): s(2, 0)})
    three = setup.monomial(3, 0)
    results = {"A - A": (A - A, set()),
                "A + (-A)": (A + A.entrywise(lambda v: -v), set()),
                "A B": (A.compose(B), {(0, 1)}),
                "3 A": (A.entrywise(lambda v: v.scale(three)),
                        {(0, 1), (1, 1)}),
                "A + 3 A": (A + A.entrywise(lambda v: v.scale(three)),
                            {(0, 0), (0, 1)})}
    for name, (op, keys) in results.items():
        assert set(op.entries) == keys, name
        assert not any(v.is_zero() for v in op.entries.values()), name


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
    c = data.draw(elems(setup, data.draw(elem_kinds)))
    steps = data.draw(shifts)
    assert_same_series(a + b, ref.useries_add(a, b))
    assert_same_series(a - b, ref.useries_sub(a, b))
    assert_same_series(-a, ref.useries_neg(a))
    assert_same_series(a * b, ref.useries_mul(a, b))
    one = USeries.from_novikov(setup.one(), ORDER)
    assert_same_series(a * one, ref.useries_mul(a, one))
    assert_same_series(a.scale(c), ref.useries_scale(a, c))
    assert_same_series(a.q_shift(steps), ref.useries_q_shift(a, steps))
    assert bool(a) == any(x.terms for x in a.coeffs)


def assert_known_only(s):
    """A series stores exactly its known coefficients."""
    assert len(s.coeffs) == s.valid <= s.order


build_valids = st.integers(min_value=-1, max_value=ORDER + 1)


@pytest.mark.parametrize("ring", sorted(SETUPS))
@pytest.mark.parametrize("kinds",
                         list(itertools.product(SERIES_KINDS, repeat=2)),
                         ids="-".join)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_result_stores_only_known_coefficients(ring, kinds, data):
    setup = SETUPS[ring]
    a = data.draw(series(setup, kinds[0]))
    b = data.draw(series(setup, kinds[1]))
    c = data.draw(elems(setup, data.draw(elem_kinds)))
    k = data.draw(short_u_orders)
    lead = a.u_valuation()
    results = [a + b, a - b, -a, a * b, b * a, a.scale(c),
               a.q_shift(data.draw(shifts)), a.times_u(k),
               a.times_u(k).shift_down(k),
               a.shift_down(a.valid if lead is None else lead),
               useries_du(a), useries_udq(a),
               USeries.build(setup, ORDER, a.coeffs, data.draw(build_valids))]
    if setup.ring.is_field:
        unit = USeries.from_novikov(setup.one(), ORDER) + a.times_u()
        results.append(useries_invert_unit(unit, 4))
    for s in [a, b] + results:
        assert_known_only(s)


@pytest.mark.parametrize("ring", sorted(SETUPS))
def test_a_product_with_no_known_coefficient(ring):
    # d/du of an order-1 series knows no coefficient: as either operand of
    # a product it gives a product that knows none either
    setup = SETUPS[ring]
    lost = useries_du(USeries.from_novikov(setup.one(), 1))
    assert lost.coeffs == () and lost.valid == 0
    q = USeries.from_novikov(setup.monomial(1, 1), 1)
    for x, y in ((q, lost), (lost, q), (lost, lost)):
        assert_known_only(x * y)
        assert_same_series(x * y, ref.useries_mul(x, y))
        assert (x * y).valid == 0


@pytest.mark.parametrize("ring", sorted(SETUPS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_useries_product_commutes_over_tailed_scalars(ring, data):
    # a left coefficient O(q^T) carries its tail into the product exactly
    # as a right one does
    setup = SETUPS[ring]
    a, b = (data.draw(series(setup, data.draw(series_kinds)))
            for _ in range(2))
    assert_same_series(a * b, b * a)


@pytest.mark.parametrize("ring", sorted(SETUPS))
@pytest.mark.parametrize("kind", SERIES_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_degree_weighted_matches_the_formula(ring, kind, data):
    setup = SETUPS[ring]
    kinds = [kind, data.draw(series_kinds)]
    basis = [GeneratorInfo(f"g{i}", data.draw(small))
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
    n = data.draw(sizes)
    basis = [GeneratorInfo(f"g{i}", data.draw(small)) for i in range(n)]
    diff = EquivariantDifferential.build(setup, GradingKind("Z"), basis, [{}],
                                         order=ORDER)
    iota = [OperatorMatrix(basis, basis, {
        (t, s): data.draw(elems(setup, data.draw(elem_kinds)))
        for t in range(n) for s in range(n)}) for _ in range(2)]
    cd = CartanData(diff, iota, regime)
    columns = [[data.draw(series(setup, kind if i == 0 else data.draw(
        choices(("zero", kind))))) for i in range(n)] for kind in SERIES_KINDS]
    X = OperatorMatrix([GeneratorInfo(k) for k in SERIES_KINDS], basis,
                       {(t, s): v for s, col in enumerate(columns)
                        for t, v in enumerate(col)})
    zero = USeries.zero(setup, ORDER)
    for new, old in ((gamma_q, ref.gamma_q), (gamma_u, ref.gamma_u),
                     (degree_weighted, ref.degree_weighted)):
        for got, col in zip(new(cd, X).columns(zero), columns):
            for g, w in zip(got, old(cd, col)):
                assert_same_series(g, w)


# -- work-count guard -----------------------------------------------------------


def test_monomial_products_build_nothing(monkeypatch, setup_q):
    # identity_report, and the three block operators on the full sample
    # block, for acyclic differentials with monomial entries: a product of
    # two exact monomials makes its one term directly and never reaches
    # NovikovElem.build; a regression would cost time, not an answer.  The
    # report's own sample block holds only the columns where iota has a
    # tail, and these iota families have none.  The split operators scale
    # by their weights without a product, so five draws keep the count of
    # monomial products above 100
    solved = [solve_iota(random_equivariant_differential(
        random.Random(seed), setup_q)) for seed in (0, 3, 7, 9, 11)]
    assert all(obstruction is None for _, obstruction in solved)
    counts = {"monomial products": 0, "builds inside them": 0}
    inside = []
    real_mul, real_build = NovikovElem.__mul__, NovikovElem.build

    def mul(a, b):
        exact = all(len(x.terms) == 1 and x.trunc is None for x in (a, b))
        counts["monomial products"] += exact
        inside.append(exact)
        try:
            return real_mul(a, b)
        finally:
            inside.pop()

    def build(*args, **kwargs):
        counts["builds inside them"] += any(inside)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(NovikovElem, "__mul__", mul)
    monkeypatch.setattr(NovikovElem, "build", staticmethod(build))
    for data, _ in solved:
        assert identity_report(data)["identities"]
        X = sample_block(setup_q, data.diff.basis, data.order,
                         range(data.diff.n))
        for op in (gamma_q, gamma_u, degree_weighted):
            assert op(data, X).entries
    assert counts["monomial products"] > 100
    assert counts["builds inside them"] == 0


def test_the_zero_flag_takes_no_lock():
    # functools.cached_property takes an RLock on each first access in
    # Python 3.10 and 3.11, once for every new series; the flag is a slot
    # set once in __init__
    assert not isinstance(inspect.getattr_static(USeries, "_zero", None),
                          functools.cached_property)
    assert USeries.zero(SETUPS["Q"], ORDER)._zero is True


# -- the sum-of-products kernel -------------------------------------------------

KERNEL_SETUPS = {f"{ring}-{g}": ScalarSetup.make(g, ring)
                 for ring in ("Q", "F2", "F5", "Z/6") for g in ("1", "1/2")}
KERNEL_KINDS = ("zero", "tail", "monomial", "exact", "tailed")


@functools.cache
@st.composite
def kernel_elems(draw, setup, kinds=KERNEL_KINDS):
    """An exact zero, O(q^T), an exact monomial, or one to three terms,
    exact or with a tail above them."""
    kind = draw(choices(kinds))
    if kind not in ("exact", "tailed"):
        return draw(elems(setup, kind))
    terms = draw(elems(setup, "ordinary")).terms
    return NovikovElem(setup, terms, None if kind == "exact" else
                       terms[-1][0] + draw(tail_gaps))


@functools.cache
@st.composite
def kernel_series(draw, setup):
    """A series of one of SERIES_KINDS, or with coefficients of every
    kind of ``kernel_elems``."""
    kind = draw(choices(SERIES_KINDS + ("mixed",)))
    if kind != "mixed":
        return draw(series(setup, kind))
    return USeries.build(setup, ORDER, [draw(kernel_elems(setup))
                                        for _ in range(ORDER)])


@functools.cache
@st.composite
def cancelling_operators(draw, scalars):
    """Square dense A, B; when drawn so, column 1 of A repeats column 0
    and row 1 of B negates row 0, so that their products cancel."""
    n = draw(st.integers(min_value=2, max_value=3))
    A = [[draw(scalars) for _ in range(n)] for _ in range(n)]
    B = [[draw(scalars) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for row in A:
            row[1] = row[0]
        B[1] = [-b for b in B[0]]
    return A, B


def _operator(M):
    basis = [GeneratorInfo(f"g{i}") for i in range(len(M))]
    return OperatorMatrix(basis, basis, {(t, s): v for t, row in enumerate(M)
                                         for s, v in enumerate(row)})


def _sequential(pairs, zero, add, mul):
    acc = zero
    for a, b in pairs:
        acc = add(acc, mul(a, b))
    return acc


def _check_dense(got, want, assert_same):
    """``got`` (operator entries) stores exactly the entries of the dense
    ``want`` that are not decidably zero, each equal field for field."""
    for t, row in enumerate(want):
        for s, w in enumerate(row):
            if w.is_zero():
                assert (t, s) not in got
            else:
                assert_same(got[(t, s)], w)


def _check_compose(A, B, zero, add, mul, assert_same):
    got = _operator(A).compose(_operator(B)).entries
    n = len(A)
    _check_dense(got, [[_sequential([(A[t][m], B[m][s]) for m in range(n)],
                                    zero, add, mul) for s in range(n)]
                       for t in range(n)], assert_same)
    return got


@pytest.mark.parametrize("name", sorted(KERNEL_SETUPS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_novikov_sums_of_products_match_the_sequential_formula(name, data):
    setup = KERNEL_SETUPS[name]
    A, B = data.draw(cancelling_operators(kernel_elems(setup)))
    _check_compose(A, B, setup.zero(), ref.elem_add, ref.elem_mul,
                   assert_same_elem)
    pairs = [(A[0][m], B[m][0]) for m in range(len(A))]
    assert_same_elem(NovikovElem.sum_of_products(pairs),
                     _sequential(pairs, setup.zero(), ref.elem_add,
                                 ref.elem_mul))


@pytest.mark.parametrize("name", sorted(KERNEL_SETUPS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_series_sums_of_products_match_the_sequential_formula(name, data):
    setup = KERNEL_SETUPS[name]
    A, B = data.draw(cancelling_operators(kernel_series(setup)))
    got = _check_compose(A, B, USeries.zero(setup, ORDER), ref.useries_add,
                         ref.useries_mul, assert_same_series)
    _check_dense(got, ref._dmul(A, B, setup, ORDER), assert_same_series)
    for a, b in itertools.product(A[0], B[0]):
        assert_same_series(a * b, ref.useries_mul(a, b))


def test_cancellation_to_an_exact_zero_is_not_stored():
    # two products that cancel, and two that vanish through zero divisors
    # of Z/6: the entry is an exact zero and is not stored; with a tail on
    # one factor, the cancelled entry is O(q^T) and is kept
    setup = KERNEL_SETUPS["Z/6-1"]
    a = NovikovElem.build(setup, [(0, 1), (1, 2)])
    b = NovikovElem.build(setup, [(1, 1), (2, 5)])
    two, three = setup.monomial(2, 1), setup.monomial(3, 0)
    for A, B in (([[a, a], [a, a]], [[b, b], [-b, -b]]),
                 ([[two, three], [two, three]], [[three, three], [two, two]])):
        assert _check_compose(A, B, setup.zero(), ref.elem_add,
                              ref.elem_mul, assert_same_elem) == {}
    tailed = NovikovElem(setup, a.terms, 4)
    got = _check_compose([[tailed, a], [a, a]], [[b, b], [-b, -b]],
                         setup.zero(), ref.elem_add, ref.elem_mul,
                         assert_same_elem)
    assert got[(0, 0)].terms == () and got[(0, 0)].trunc == 5


@functools.cache
@st.composite
def product_pairs(draw, scalars):
    """Two to four pairs (C, D) of dense t x m and m x s operators, with
    its own middle size m per pair; when drawn so, a pair repeats an
    earlier one with D negated, so that their products cancel cell by
    cell."""
    t, s, pairs = draw(sizes), draw(sizes), []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        if pairs and draw(st.booleans()):
            C, D = pairs[draw(st.integers(0, len(pairs) - 1))]
            pairs.append((C, [[-v for v in row] for row in D]))
            continue
        m = draw(sizes)
        pairs.append(([[draw(scalars) for _ in range(m)] for _ in range(t)],
                      [[draw(scalars) for _ in range(s)] for _ in range(m)]))
    return pairs


def _dense_operator(M, source, target):
    return OperatorMatrix(source, target, {(t, u): v for t, row in enumerate(M)
                                           for u, v in enumerate(row)})


def _pair_operators(pairs):
    def basis(prefix, n):
        return [GeneratorInfo(f"{prefix}{i}") for i in range(n)]

    target, source = basis("t", len(pairs[0][0])), basis("s",
                                                         len(pairs[0][1][0]))
    return [(_dense_operator(C, basis("m", len(D)), target),
             _dense_operator(D, source, basis("m", len(D))))
            for C, D in pairs]


@pytest.mark.parametrize("kind", ["novikov", "series"])
@pytest.mark.parametrize("name", sorted(KERNEL_SETUPS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_compose_of_several_pairs_matches_the_sequential_sum(name, kind,
                                                             data):
    # termless O(q^T) entries, lost u-orders and cells that cancel across
    # pairs: equal, key for key and field for field, to compose-then-+ and
    # to the dense formula over every pair's products
    setup = KERNEL_SETUPS[name]
    if kind == "novikov":
        scalars, zero = kernel_elems(setup), setup.zero()
        add, mul, assert_same = ref.elem_add, ref.elem_mul, assert_same_elem
    else:
        scalars, zero = kernel_series(setup), USeries.zero(setup, ORDER)
        add, mul = ref.useries_add, ref.useries_mul
        assert_same = assert_same_series
    pairs = data.draw(product_pairs(scalars))
    (A, B), *rest = ops = _pair_operators(pairs)
    got = A.compose(B, *rest)
    want = A.compose(B)
    for C, D in rest:
        want = want + C.compose(D)
    assert (got.source, got.target) == (want.source, want.target)
    assert set(got.entries) == set(want.entries)
    for k, v in want.entries.items():
        assert_same(got.entries[k], v)
    _check_dense(got.entries, [[_sequential(
        [(C[t][m], D[m][u]) for C, D in pairs for m in range(len(D))],
        zero, add, mul) for u in range(len(pairs[0][1][0]))]
        for t in range(len(pairs[0][0]))], assert_same)


def test_compose_of_several_pairs_checks_every_basis():
    # each further pair must chain (D's target is C's source) and share
    # the first pair's outer bases, as its sum with the first would
    setup = SETUPS["Q"]
    a, b, c = ([GeneratorInfo(f"{x}{i}") for i in range(2)] for x in "abc")
    one = setup.one()

    def op(source, target):
        return OperatorMatrix(source, target, {(0, 0): one})

    A, B = op(b, a), op(c, b)
    assert A.compose(B, (op(a, a), op(c, a))).entries
    for pair in ((op(b, a), op(a, b)), (op(b, c), op(c, b)),
                 (op(b, a), op(c, c))):
        with pytest.raises(NovikovError,
                           match="operator composition basis mismatch"):
            A.compose(B, pair)


@pytest.mark.parametrize("name", ["Q-1", "Q-1/2", "F2-1", "F5-1/2"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_matches_the_sequential_formula(name, data):
    # each row of scaled_transform @ rhs is one sum of products; rows with
    # a tail may leave the elimination undetermined, which is not compared
    setup = KERNEL_SETUPS[name]
    m = data.draw(sizes)
    n = data.draw(sizes)
    rows = [[data.draw(kernel_elems(setup, ("zero", "monomial", "exact",
                                            "exact", "tailed")))
             for _ in range(n)] for _ in range(m)]
    rhs = [data.draw(kernel_elems(setup)) for _ in range(m)]
    try:
        red = linalg.row_reduce(rows, setup, 6)
    except linalg.UndeterminedError:
        return
    b = [_sequential([(u, rhs[c]) for c, u in
                      sorted(red.scaled_transform[r].items())],
                     setup.zero(), ref.elem_add, ref.elem_mul)
         for r in range(m)]
    x, bad = linalg.solve(red, rhs)
    pivot_rows = {r for r, _ in red.pivots}
    inconsistent = [r for r in range(m)
                    if r not in pivot_rows and b[r].has_terms()]
    if inconsistent:
        assert x is None and bad[0] == inconsistent[0]
        assert_same_elem(bad[1], b[bad[0]])
        return
    assert bad is None and set(x) == {c for _, c in red.pivots}
    for r, c in red.pivots:
        assert_same_elem(x[c], red._divide(r, b[r]))


def test_a_dense_compose_builds_each_entry_once(monkeypatch):
    # 4x4 operators of 3-term entries with positive coefficients over Q,
    # so no entry cancels: each entry of the product is one pass over its
    # four products, with no partial sum and no product made on its own
    setup = SETUPS["Q"]
    rng = random.Random(5)

    def dense():
        return [[NovikovElem.build(setup, [
            (e, rng.randint(1, 9)) for e in rng.sample(range(-3, 4), 3)])
            for _ in range(4)] for _ in range(4)]

    A, B = _operator(dense()), _operator(dense())
    counts = {"additions": 0, "elements made": 0}
    real_add, real_init = NovikovElem.__add__, NovikovElem.__init__

    def add(a, b):
        counts["additions"] += 1
        return real_add(a, b)

    def init(self, *args, **kwargs):
        counts["elements made"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(NovikovElem, "__add__", add)
    monkeypatch.setattr(NovikovElem, "__init__", init)
    AB = A.compose(B)
    assert len(AB.entries) == 16
    assert counts == {"additions": 0, "elements made": 16}
