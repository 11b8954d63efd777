"""Integral coefficients over Q are Python ints.

``CoefficientRing("Q")`` stores a value as an ``int`` when it is integral
and as a ``Fraction`` otherwise.  These tests pin three consequences:

- on integer input whose pivots lead with +-1, ``solve_iota`` and
  ``cohomology_over_novikov_field`` build no ``Fraction`` and leave only
  ints in every elimination and every iota entry: a leak would cost the
  integer inner loop, not an answer, so only a test sees it;
- elements with int coefficients and equal elements with Fraction
  coefficients give equal values that print alike under every scalar
  operation the kernels use;
- no raw coefficient reaches ``schema.jsonify``, where an int would become
  a JSON number while a Fraction becomes a string.  With every Q
  coefficient held as a Fraction again, no Fraction may reach it and every
  golden file must come out byte for byte.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import normal_form_differential
from eqcartan import cli, linalg, schema
from eqcartan.cartan import flatten_equivariant, solve_iota
from eqcartan.complexes import cohomology_over_novikov_field
from eqcartan.novikov import (
    CoefficientRing,
    NovikovElem,
    ScalarSetup,
    USeries,
    dq,
    invert_truncated,
)
from golden_commands import COMMANDS, ROOT, golden_bytes, golden_name

SETUP_Q = ScalarSetup.make(1, "Q")


def coefficients(x):
    """Every coefficient of a NovikovElem or of a USeries."""
    if isinstance(x, USeries):
        return [c for e in x.coeffs for _, c in e.terms]
    return [c for _, c in x.terms]


def row_coefficients(rows):
    return [c for row in rows for e in row.values() for c in coefficients(e)]


# -- no Fraction on integer input ---------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_integer_input_builds_no_fraction(monkeypatch, seed):
    rng = random.Random(seed)
    # iota exists on an acyclic complex; the classes and torsion of the
    # other survive in its cohomology
    acyclic = normal_form_differential(rng, SETUP_Q, 0, 0, 3, 3)
    diff = normal_form_differential(rng, SETUP_Q, 2, 1, 2, 3)
    given_coeffs = [c for d in (acyclic, diff) for comp in d.components
                    for e in comp.entries.values() for c in coefficients(e)]
    assert given_coeffs and all(type(c) is int for c in given_coeffs)
    reductions = []
    real_row_reduce = linalg.row_reduce

    def recording(*args, **kwargs):
        reductions.append(real_row_reduce(*args, **kwargs))
        return reductions[-1]

    monkeypatch.setattr(linalg, "row_reduce", recording)
    # every Fraction built, with the functions on the stack
    built = []
    real_new = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        frame, stack = sys._getframe(1), set()
        while frame is not None:
            stack.add(frame.f_code.co_name)
            frame = frame.f_back
        built.append((args, stack))
        return real_new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        data, obstruction = solve_iota(acyclic)
        H = cohomology_over_novikov_field(flatten_equivariant(diff))
    finally:
        Fraction.__new__ = real_new
    assert built == []
    assert obstruction is None and reductions
    for red in reductions:
        assert all(type(c) is int for c in row_coefficients(red.scaled))
        assert all(type(c) is int
                   for c in row_coefficients(red.scaled_transform))
    iota_coeffs = [c for op in data.iota for e in op.entries.values()
                   for c in coefficients(e)]
    assert iota_coeffs and all(type(c) is int for c in iota_coeffs)
    rep_coeffs = [c for _, _, reps in H.blocks for _, rep in reps
                  for e in rep.values() for c in coefficients(e)]
    assert all(type(c) is int for c in rep_coeffs)


def test_gcd_of_integer_polynomials_stays_in_ints():
    # Euclid over Q, dividing by top coefficients, gives -676/9 - 338/9 q
    # on the first pair; the gcd must be the primitive one, up to sign
    a, b, c = (SETUP_Q.parse(t) for t in ("2 + 3*q + 4*q^2", "4 + 2*q",
                                          "3 - q^2"))
    for x, y in ((a * b, b * c), (b * c, a * b), (a * b * c, b * b)):
        g = linalg._gcd(x, y)
        assert g.terms in (((0, 2), (1, 1)), ((0, -2), (1, -1)))
        assert all(type(t) is int for t in coefficients(g))
    assert linalg._gcd(a * c, b * c).terms in (((0, 3), (2, -1)),
                                               ((0, -3), (2, 1)))


def test_only_a_non_unit_leading_coefficient_inverts_to_a_fraction():
    ring = SETUP_Q.ring
    assert [type(ring.inv(c)) for c in (1, -1, 2)] == [int, int, Fraction]
    assert type(ring.inv(Fraction(1, 3))) is int
    assert coefficients(invert_truncated(SETUP_Q.parse("1 - q + 2*q^3"), 8)) \
        == [1, 1, 1, -1, -3, -5, -3, 3]
    assert all(type(c) is int for c in coefficients(
        invert_truncated(SETUP_Q.parse("-q^2 + 3*q^4 - 2*q^5"), 8)))


# -- ints and equal Fractions agree -------------------------------------------


def stored_form(c):
    """The rule: an int when integral, else a Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@st.composite
def twins(draw):
    """(x, y): equal Q elements, x with its coefficients as the ring stores
    them and y with every coefficient a Fraction; possibly truncated."""
    pairs = draw(st.lists(
        st.tuples(st.integers(min_value=-4, max_value=4),
                  st.one_of(st.integers(min_value=-9, max_value=9),
                            st.fractions(max_denominator=3))),
        max_size=4))
    x = NovikovElem.build(SETUP_Q, [(e, SETUP_Q.ring.coerce(c))
                                    for e, c in pairs])
    if x.terms and draw(st.booleans()):
        x = x.truncate(x.terms[-1][0] + draw(st.integers(1, 3)))
    y = NovikovElem(SETUP_Q, tuple((e, Fraction(c)) for e, c in x.terms),
                    x.trunc)
    return x, y


def assert_alike(from_ints, from_fractions):
    assert from_ints == from_fractions
    assert str(from_ints) == str(from_fractions)
    if isinstance(from_ints, NovikovElem):
        assert from_ints.trunc == from_fractions.trunc
        assert all(stored_form(c) for c in coefficients(from_ints))


@settings(max_examples=120, deadline=None)
@given(twins(), twins(), st.integers(min_value=-5, max_value=5))
def test_ints_and_equal_fractions_agree(a, b, k):
    (xa, ya), (xb, yb) = a, b
    assert_alike(xa, ya)
    assert_alike(xa + xb, ya + yb)
    assert_alike(xa - xb, ya - yb)
    assert_alike(xa * xb, ya * yb)
    assert_alike(xa.scale(k), ya.scale(Fraction(k)))
    assert_alike(dq(xa), dq(ya))
    if xa.terms:
        assert_alike(invert_truncated(xa, 6), invert_truncated(ya, 6))
    if xb.terms:
        qx, qy = linalg._quotient(xa, xb), linalg._quotient(ya, yb)
        assert (qx is None) == (qy is None)
        if qx is not None:
            assert_alike(qx, qy)
        if xa.terms and xa.trunc is None and xb.trunc is None:
            assert_alike(linalg._gcd(xa, xb), linalg._gcd(ya, yb))


# -- no raw coefficient reaches jsonify ---------------------------------------


def hold_q_as_fractions(monkeypatch):
    """Store every Q coefficient as a Fraction, integral ones too."""
    for name in ("coerce", "add", "mul", "inv", "from_rational",
                 "mul_rational"):
        real = getattr(CoefficientRing, name)

        def as_fraction(self, *args, _real=real):
            out = _real(self, *args)
            return Fraction(out) if self.kind == "Q" else out

        monkeypatch.setattr(CoefficientRing, name, as_fraction)


def leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from leaves(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from leaves(v)
    else:
        yield obj


@pytest.mark.parametrize("argv,code", COMMANDS,
                         ids=[golden_name(argv) for argv, _ in COMMANDS])
def test_no_raw_coefficient_reaches_jsonify(capsys, monkeypatch, argv, code):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("EQCARTAN_Q_ORDER", raising=False)
    monkeypatch.delenv("EQCARTAN_U_ORDER", raising=False)
    hold_q_as_fractions(monkeypatch)
    assert type(SETUP_Q.parse("2*q").terms[0][1]) is Fraction
    raw = []
    real_jsonify = schema.jsonify

    def recording(obj):
        raw.extend(v for v in leaves(obj) if isinstance(v, Fraction))
        return real_jsonify(obj)

    monkeypatch.setattr(schema, "jsonify", recording)
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert raw == []
    assert out.encode("utf-8") == golden_bytes(argv)
