import ast
import doctest
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import dense_reference as ref
import eqcartan.novikov
from eqcartan.novikov import (
    CoefficientError,
    CoefficientRing,
    InputError,
    InversionError,
    LatticeMismatch,
    NovikovElem,
    ScalarSetup,
    USeries,
    dq,
    format_novikov,
    format_useries,
    invert_truncated,
    parse_novikov,
    useries_du,
    useries_invert_unit,
)

SETUP_Q = ScalarSetup.make(1, "Q")
SETUP_HALF = ScalarSetup.make(Fraction(1, 2), "Q")
SETUP_F5 = ScalarSetup.make(1, "F5")
SETUP_Z6 = ScalarSetup.make(1, "Z/6")


def elem(setup, pairs):
    return NovikovElem.build(setup, pairs)


coeffs = st.fractions(max_denominator=20).filter(lambda f: f != 0)
exponents = st.integers(min_value=-6, max_value=6)


@st.composite
def novikov_elems(draw, setup=SETUP_Q):
    n = draw(st.integers(min_value=0, max_value=4))
    pairs = {}
    for _ in range(n):
        pairs[draw(exponents)] = draw(coeffs)
    return elem(setup, list(pairs.items()))


# -- ring axioms and arithmetic ------------------------------------------------


def test_monomial_product():
    a = SETUP_Q.monomial(2, 3)
    b = SETUP_Q.monomial(Fraction(1, 2), -1)
    assert format_novikov(a * b) == "q^2"


def test_addition_collects_exponents():
    a = elem(SETUP_Q, [(0, 1), (2, 3)])
    b = elem(SETUP_Q, [(2, -3), (1, 5)])
    assert sorted((a + b).terms) == [(0, 1), (1, 5)]


@given(novikov_elems(), novikov_elems(), novikov_elems())
@settings(max_examples=60, deadline=None)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(novikov_elems(), novikov_elems())
@settings(max_examples=60, deadline=None)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(novikov_elems(), novikov_elems())
@settings(max_examples=60, deadline=None)
def test_dq_is_a_derivation(a, b):
    assert dq(a * b) == dq(a) * b + a * dq(b)


def test_dq_monomial():
    x = SETUP_HALF.monomial(4, Fraction(3, 2))
    assert list(dq(x).terms) == [(SETUP_HALF.lattice.index_of(Fraction(1, 2)),
                            Fraction(6))]


def test_dq_fractional_exponent_needs_rational_coefficients():
    setup = ScalarSetup.make(Fraction(1, 2), "Z")
    x = setup.monomial(1, Fraction(1, 2))
    with pytest.raises(CoefficientError):
        dq(x)


def test_valuation_and_leading():
    a = elem(SETUP_Q, [(3, 7), (-2, 1)])
    assert a.exponents()[0] == Fraction(-2)
    assert a.leading() == (SETUP_Q.lattice.index_of(-2), 1)


# -- truncation metadata -------------------------------------------------------


def test_truncation_drops_high_terms_and_records_bound():
    a = elem(SETUP_Q, [(0, 1), (5, 2)]).truncate(3)
    assert a.trunc == 3
    assert list(a.terms) == [(0, 1)]


def test_truncation_propagates_through_sum():
    a = elem(SETUP_Q, [(0, 1)]).truncate(3)
    b = elem(SETUP_Q, [(1, 1)])
    assert (a + b).trunc == 3


def test_truncation_tightens_under_product():
    # (1 + O(q^3)) * q^2 is only known to O(q^5)
    a = elem(SETUP_Q, [(0, 1)]).truncate(3)
    b = SETUP_Q.monomial(1, 2)
    assert (a * b).trunc == 5


def test_product_of_two_tails_keeps_a_tail():
    # O(q^2) * O(q^3) is O(q^5): a termless factor is bounded below by its
    # trunc, not by an infinite valuation
    a = NovikovElem.build(SETUP_Q, [], 2)
    b = NovikovElem.build(SETUP_Q, [], 3)
    assert a * b == NovikovElem.build(SETUP_Q, [], 5)
    assert ref.elem_mul(a, b) == NovikovElem.build(SETUP_Q, [], 5)
    # a tail times an entry with terms is bounded by the entry's valuation
    c = NovikovElem.build(SETUP_Q, [(-1, 1)], 4)
    assert a * c == NovikovElem.build(SETUP_Q, [], 1)
    assert c * a == NovikovElem.build(SETUP_Q, [], 1)


# -- inversion -----------------------------------------------------------------


def test_invert_matches_geometric_series():
    a = elem(SETUP_Q, [(0, 1), (1, -1)])  # 1 - q
    inv = invert_truncated(a, 6)
    expected = elem(SETUP_Q, [(k, 1) for k in range(6)]).truncate(6)
    assert sorted(inv.terms) == sorted(expected.terms)
    prod = a * inv
    assert list(prod.terms) == [(0, 1)]
    assert prod.trunc == 6


@given(novikov_elems())
@settings(max_examples=40, deadline=None)
def test_invert_is_an_inverse_to_budget(tail):
    # units of the form 1 + (higher order): multiply back and compare with 1
    shift = 1 - min([i for i, _ in tail.terms], default=0)
    a = SETUP_Q.one() + tail * SETUP_Q.monomial(1, shift)
    inv = invert_truncated(a, 5)
    prod = a * inv
    assert [(i, c) for i, c in prod.terms if i < 5] == [(0, 1)]


INVERSION_SETUPS = [ScalarSetup.make(g, ring)
                    for g in (1, Fraction(1, 2))
                    for ring in ("Q", "F2", "F5", "F7")]


@st.composite
def inversion_inputs(draw):
    """(a, q_order): a has 1-5 terms, possibly negative valuation, and may be
    truncated a few steps past its leading term."""
    setup = draw(st.sampled_from(INVERSION_SETUPS))
    ring = setup.ring
    coeff = (st.fractions(max_denominator=9).filter(lambda f: f != 0)
             if ring.kind == "Q"
             else st.integers(min_value=1, max_value=ring.modulus - 1))
    pairs = draw(st.lists(st.tuples(st.integers(-8, 12), coeff),
                          min_size=1, max_size=5))
    lead = min(i for i, _ in pairs)
    trunc = draw(st.one_of(st.none(), st.integers(lead + 1, lead + 16)))
    a = NovikovElem.build(setup, pairs, trunc)
    assume(a.terms)
    return a, draw(st.integers(min_value=0, max_value=128))


@given(inversion_inputs())
@settings(max_examples=200, deadline=None)
def test_invert_matches_the_geometric_series_reference(case):
    a, q_order = case
    inv = invert_truncated(a, q_order)
    old = ref.invert_truncated(a, q_order)
    assert inv.terms == old.terms
    assert inv.trunc == old.trunc
    # a * inv = 1 below the bound, and the product claims no more than that
    e = a.terms[0][0]
    bound = q_order if a.trunc is None else min(q_order, a.trunc - e)
    prod = a * inv
    one = [(0, 1)] if bound > 0 else []
    assert [(i, c) for i, c in prod.terms if i < bound] == one
    assert prod.trunc is None or prod.trunc >= bound


@pytest.mark.parametrize("q_order", [0, 1, 2])
def test_invert_at_an_empty_or_minimal_bound(q_order):
    for setup in INVERSION_SETUPS:
        a = setup.parse("q^-1 + q")
        for t in (None, 0, 1):
            x = a if t is None else a.truncate(t)
            inv = invert_truncated(x, q_order)
            old = ref.invert_truncated(x, q_order)
            assert (inv.terms, inv.trunc) == (old.terms, old.trunc)


def test_invert_zero_fails():
    with pytest.raises(InversionError):
        invert_truncated(SETUP_Q.zero(), 4)


def test_invert_nonunit_coefficient_over_z():
    setup = ScalarSetup.make(1, "Z")
    with pytest.raises((InversionError, CoefficientError)):
        invert_truncated(setup.monomial(2, 0), 4)


# -- coefficient rings ---------------------------------------------------------


def test_f5_arithmetic_wraps():
    a = SETUP_F5.monomial(3, 0)
    b = SETUP_F5.monomial(4, 0)
    assert not (a * b + SETUP_F5.monomial(3, 0)).has_terms()  # 12+3 = 0 mod 5


def test_z6_zero_divisors_cancel():
    a = SETUP_Z6.monomial(2, 1)
    b = SETUP_Z6.monomial(3, 1)
    assert not (a * b).has_terms()


def test_lattice_mismatch_rejected():
    a = SETUP_Q.monomial(1, 1)
    b = SETUP_HALF.monomial(1, 1)
    with pytest.raises(Exception):
        a + b


# 2047 is a strong pseudoprime to base 2, 561 a Carmichael number and
# 3825123056546413051 a strong pseudoprime to the bases 2..31
LARGE_MODULI = [10**12 + 39, 10**14 + 31, 10**16 + 61, 10**16 + 63,
                3825123056546413051, 2**61 - 1, 2**64 - 59, 2**64 - 1]


def test_fp_accepts_exactly_the_primes():
    for p in [*range(-2, 3000), *LARGE_MODULI]:
        if sympy.isprime(p):
            assert CoefficientRing("Fp", p).modulus == p
        else:
            with pytest.raises(InputError, match=rf"^{p} is not prime$"):
                CoefficientRing("Fp", p)


def test_fp_refuses_a_modulus_past_two_to_the_64():
    # the check is Miller-Rabin with the bases 2..37, taken as exact below
    # 2^64 only; 318665857834031151167461 is a strong pseudoprime to all
    for p in (2**64, 2**64 + 13, 318665857834031151167461):
        with pytest.raises(InputError, match="F_p needs p < 2"):
            CoefficientRing("Fp", p)


@pytest.mark.parametrize("ring, residue", [("F2", 0), ("F5", 3), ("Z/6", 4)])
def test_build_reduces_int_coefficients_mod_m(ring, residue):
    # -2 is 0 in F2, 3 in F5 and 4 in Z/6: build stores the residue, as the
    # ring operations of the direct + and * paths do
    setup = ScalarSetup.make(1, ring)
    x = NovikovElem.build(setup, [(-1, -2)])
    assert x == setup.monomial(-2, -1)
    assert x.terms == (((-1, residue),) if residue else ())
    assert x.is_zero() == (residue == 0)
    assert format_novikov(x) == (f"{residue}*q^(-1)" if residue else "0")
    y = NovikovElem.build(setup, [(0, 7), (0, -1), (1, -1)])
    assert y == setup.monomial(6, 0) + setup.monomial(-1, 1)


@pytest.mark.parametrize("kind", ["lost u-order zero", "exact monomial"])
def test_setup_mismatch_raised_by_sum_product_and_scale(kind):
    # each call checks the scalar setups once, also where no coefficient
    # is multiplied: a series with only zero coefficients but lost u-order
    mono = SETUP_Q.monomial(2, 1)
    a = (USeries.build(SETUP_Q, 3, [], valid=2) if kind == "lost u-order zero"
         else USeries.from_novikov(mono, 3))
    other = USeries.from_novikov(SETUP_F5.monomial(2, 1), 3)
    for op in (lambda: a + other, lambda: other + a, lambda: a - other,
               lambda: a * other, lambda: other * a,
               lambda: a.scale(SETUP_F5.monomial(2, 1)),
               lambda: other.scale(mono),
               lambda: mono + SETUP_F5.monomial(2, 1),
               lambda: mono * SETUP_F5.monomial(2, 1)):
        with pytest.raises(LatticeMismatch):
            op()


# -- u-series ------------------------------------------------------------------


def test_useries_product_truncates_at_order():
    one = SETUP_Q.one()
    a = USeries.build(SETUP_Q, 3, [one, one, one])
    sq = a * a
    assert [c.terms[0][1] if c.has_terms() else 0
            for c in sq.coeffs] == [1, 2, 3]


def test_useries_valid_propagates():
    one = SETUP_Q.one()
    a = USeries.build(SETUP_Q, 4, [one, one], valid=2)
    b = USeries.from_novikov(one, 4, 1)  # u
    assert (a * b).valid == 3
    assert (a + b).valid == 2


def test_useries_product_keeps_a_left_tail():
    # [O(q^2)] * [1] keeps O(q^2) at u^0, as [1] * [O(q^2)] does
    tail = NovikovElem.build(SETUP_Q, [], 2)
    a = USeries.build(SETUP_Q, 2, [tail])
    one = USeries.build(SETUP_Q, 2, [SETUP_Q.one()])
    assert (a * one).coeffs == (tail, SETUP_Q.zero())
    assert (one * a).coeffs == (tail, SETUP_Q.zero())
    assert ref.useries_mul(a, one) == a * one


def test_useries_product_valid_counts_tailed_coefficients():
    # the u^0 coefficient O(q^2) is not decidably zero, so the unknown u^1
    # coefficient of the right factor makes u^1 of the product unknown
    tail = NovikovElem.build(SETUP_Q, [], 2)
    a = USeries.build(SETUP_Q, 2, [tail])
    b = USeries.build(SETUP_Q, 2, [SETUP_Q.one()], valid=1)
    for got in (a * b, ref.useries_mul(a, b)):
        assert got.valid == 1
        assert got.coeffs[0] == tail
    # O(u) * O(u^2) is O(u^3), not an exact zero
    z = SETUP_Q.zero()
    c = USeries.build(SETUP_Q, 4, [z], valid=1)
    d = USeries.build(SETUP_Q, 4, [z, z], valid=2)
    assert (c * d).valid == ref.useries_mul(c, d).valid == 3


def test_useries_du():
    one = SETUP_Q.one()
    a = USeries.build(SETUP_Q, 4, [one, one, one, one])
    d = useries_du(a)
    assert d.valid == 3
    assert [c.terms[0][1] if c.has_terms() else 0
            for c in d.coeffs[:3]] == [1, 2, 3]


def test_useries_unit_inverse():
    one = SETUP_Q.one()
    q = SETUP_Q.monomial(1, 1)
    p = USeries.build(SETUP_Q, 4, [one, q, one, q])
    inv = useries_invert_unit(p, 8)
    prod = p * inv
    assert prod.coeffs[0].trunc is None
    assert list(prod.coeffs[0].terms) == [(0, 1)]
    assert all(not c.has_terms() for c in prod.coeffs[1:])


def test_useries_shift_down():
    one = SETUP_Q.one()
    a = USeries.build(SETUP_Q, 3, [SETUP_Q.zero(), one, one])
    s = a.shift_down(1)
    assert list(s.coeffs[0].terms) == [(0, 1)]
    assert s.valid == 2



def test_module_doctests_pass():
    result = doctest.testmod(eqcartan.novikov)
    assert result.failed == 0
    assert result.attempted == 4


# a slice of coeffs up to valid, or a loop over range(..valid..): both skip
# placeholders that a series no longer stores
SKIPS_UNKNOWN_ORDERS = re.compile(r"coeffs\[[^\]]*valid|range\([^)]*valid")


def test_no_source_skips_coefficients_above_valid():
    src = Path(eqcartan.novikov.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if SKIPS_UNKNOWN_ORDERS.search(line)]
    assert hits == []


# q-power text outside a word: "q^2" but not the "q^2" inside "d_eq^2"
BUILDS_QPOW_TEXT = re.compile(r"(?<!\w)q\^")


def _docstrings(tree):
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def test_novikov_is_the_only_module_that_prints_q_powers():
    """Every printer goes through ``format_novikov``: no other src module
    calls ``_format_qpow`` or builds q-power text in code (docstrings and
    comments may show it)."""
    src = Path(eqcartan.novikov.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        if path.name == "novikov.py":
            continue
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            text = (node.value if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docs else "")
            if name == "_format_qpow" or BUILDS_QPOW_TEXT.search(text):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


READS_THE_ENVIRONMENT = re.compile(r"\benviron\b|getenv")


def test_only_the_input_layer_reads_the_environment():
    """The truncation orders come from the environment in ``schema`` and
    ``cli`` only; every other src module takes them as arguments."""
    src = Path(eqcartan.novikov.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            if path.name not in ("schema.py", "cli.py")
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if READS_THE_ENVIRONMENT.search(line)]
    assert hits == []


# -- text grammar --------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "0", "1", "-1", "q", "q^-1", "2*q^3", "1/2*q^-2 + q + 3",
])
def test_novikov_parse_format_roundtrip(text):
    x = parse_novikov(text, SETUP_Q)
    assert parse_novikov(format_novikov(x), SETUP_Q) == x


@given(novikov_elems())
@settings(max_examples=60, deadline=None)
def test_format_parse_identity(a):
    assert parse_novikov(format_novikov(a), SETUP_Q) == a


PRINT_SETUPS = [ScalarSetup.make(g, ring)
                for ring in ("Q", "Z", "F2", "F3", "Z/6")
                for g in (1, Fraction(1, 2), Fraction(1, 3))]


def _coerced(ring, c):
    """c in the ring: a fraction over Q, else its image, or its numerator
    where the denominator has no inverse."""
    try:
        return ring.coerce(c)
    except CoefficientError:
        return ring.coerce(c.numerator)


@st.composite
def printed_elems(draw, setup):
    pairs = draw(st.lists(st.tuples(
        st.integers(min_value=-9, max_value=9),
        st.one_of(st.sampled_from([1, -1, 2, -2]),
                  st.fractions(min_value=-7, max_value=7,
                               max_denominator=6))),
        max_size=5))
    trunc = draw(st.one_of(st.none(), st.integers(min_value=-9, max_value=12)))
    return NovikovElem.build(
        setup, [(i, _coerced(setup.ring, c)) for i, c in pairs], trunc)


@given(st.sampled_from(PRINT_SETUPS).flatmap(
    lambda setup: st.lists(printed_elems(setup), min_size=1, max_size=4)))
@settings(max_examples=150, deadline=None)
def test_printers_match_the_reference_byte_for_byte(elems):
    setup = elems[0].setup
    for x in elems:
        assert format_novikov(x) == ref.format_novikov(x)
    a = USeries(setup, len(elems), tuple(elems))
    assert format_useries(a) == ref.format_useries(a)


@pytest.mark.parametrize("setup", PRINT_SETUPS,
                         ids=lambda s: f"{s.ring.describe()}-g{s.lattice.generator}")
def test_printers_match_the_reference_on_every_kind_of_term(setup):
    """Exponent 0, 1, negative and fractional steps, with unit, negative
    and fractional coefficients, and the zero element."""
    ring = setup.ring
    xs = [setup.zero(), NovikovElem(setup, (), 3)]
    for c in (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)):
        c = _coerced(ring, c)
        xs.append(NovikovElem.build(setup, [(i, c) for i in (-4, -1, 0, 1, 2, 5)]))
    xs.append(NovikovElem.build(setup, [(0, _coerced(ring, -1)), (1, 1)]))
    for x in xs:
        assert format_novikov(x) == ref.format_novikov(x)
    for order in (len(xs), len(xs) + 2):  # exact, then with u-order lost
        a = USeries(setup, order, tuple(xs))
        assert format_useries(a) == ref.format_useries(a)
    assert format_useries(USeries(setup, 2, (setup.zero(),) * 2)) == "0"


def test_parse_fractional_exponent():
    x = parse_novikov("q^(1/2)", SETUP_HALF)
    assert x.exponents() == [Fraction(1, 2)]


def test_parse_rejects_off_lattice_exponent():
    with pytest.raises(Exception):
        parse_novikov("q^(1/2)", SETUP_Q)


def test_format_useries():
    for setup, coeffs, text in [
        (SETUP_Q, ("1 + q", "q^2", "2"), "1 + q + (q^2)*u + (2)*u^2"),
        # coefficients whose exponents are printed in parentheses
        (SETUP_HALF, ("0", "q^(-1)", "0"), "(q^(-1))*u"),
        (SETUP_HALF, ("1", "q^(1/2)", "0"), "1 + (q^(1/2))*u"),
        (SETUP_HALF, ("q^(-1/2)", "-3/2*q^(-3/2) + q^(5/2)", "-q^(-1)"),
         "q^(-1/2) + (-3/2*q^(-3/2) + q^(5/2))*u + (-q^(-1))*u^2"),
        (SETUP_Q, ("0", "0", "0"), "0"),
    ]:
        a = USeries(setup, 3, tuple(parse_novikov(c, setup) for c in coeffs))
        assert format_useries(a) == text


def _tailed(setup, text, trunc):
    return NovikovElem.build(setup, parse_novikov(text, setup).terms, trunc)


@pytest.mark.parametrize("x, text", [
    (invert_truncated(SETUP_Q.parse("1 + q + q^3"), 3), "1 - q + q^2 + O(q^3)"),
    (NovikovElem(SETUP_Q, (), 2), "O(q^2)"),
    (NovikovElem(SETUP_Q, (), 0), "O(1)"),
    (_tailed(SETUP_Q, "-q^-2", 1), "-q^(-2) + O(q)"),
    (_tailed(SETUP_HALF, "2*q^(1/2)", 3), "2*q^(1/2) + O(q^(3/2))"),
    (NovikovElem(SETUP_HALF, (), -1), "O(q^(-1/2))"),
], ids=["inverse", "termless", "termless-at-q0", "negative", "half",
        "half-termless"])
def test_format_novikov_prints_the_unknown_tail(x, text):
    assert format_novikov(x) == text == ref.format_novikov(x)


@pytest.mark.parametrize("order, coeffs, text", [
    (3, ("1", 2, "1"), "1 + (O(q^2))*u + (1)*u^2"),
    (3, ("1", "0"), "1 + O(u^2)"),
    (3, ("0", "q"), "(q)*u + O(u^2)"),
    (2, ("1",), "1 + O(u)"),
    (2, (), "O(1)"),
    (3, (0, "q"), "O(1) + (q)*u + O(u^2)"),
], ids=["tailed-coefficient", "lost-order", "lost-order-no-constant",
        "lost-one-order", "nothing-known", "both-tails"])
def test_format_useries_prints_tailed_coefficients_and_lost_order(
        order, coeffs, text):
    """A string coefficient is exact; an int T is the termless O(q^T)."""
    a = USeries(SETUP_Q, order, tuple(
        NovikovElem(SETUP_Q, (), c) if isinstance(c, int)
        else parse_novikov(c, SETUP_Q) for c in coeffs))
    assert format_useries(a) == text == ref.format_useries(a)
