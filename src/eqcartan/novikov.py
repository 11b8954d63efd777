"""Exact arithmetic for a one-variable Novikov ring and truncated u-series.

The scalar ring is a "Novikov polynomial" ring: finite formal sums

    f = sum_i  r_i * q^(a_i)

whose exponents a_i range over a cyclic subgroup A = g*Z of the rationals
containing the integers (so 1/g is a positive integer), and whose
coefficients r_i live in one of Z, Q, F_p, Z/m.  Exponents are stored as
integer multiples of the generator g, so comparison and arithmetic are
exact.  Completions only ever enter through explicit truncation orders:
a q-order budget for inversion and a u-order N for power series in the
equivariant variable u.

Truncation metadata travels with values.  A NovikovElem may carry a
``trunc`` bound (an exponent index): terms with index >= trunc are
unknown rather than known-zero.  A USeries stores only its known
coefficients, and their number is its ``valid`` order: coefficients of u^k
for k >= valid are unknown (this is how the top order lost by d/du is
recorded).  Downstream identity checks use these bounds to report
"verified to order so-and-so" instead of overclaiming; ``_min_trunc`` is
the one rule by which q-bounds combine (None is exact, else the least).
A sum of products (an operator or series product, a solution, a series
inverse) is built in one pass by ``sum_of_products``, with the weakest bound.

``NovikovElem`` and ``USeries`` are slotted frozen dataclasses: a value
cannot be changed after it is built, and building one stores its fields
through their slots, with no instance ``__dict__``.  Each ``ScalarSetup``
holds one shared exact zero and one shared one, returned by ``zero()`` and
``one()``; ``dq``, ``q_shift`` and the padding of a series return that zero
instead of building a new one.

Doctest flavour::

    >>> s = ScalarSetup.make("1/2", "Q")
    >>> a = s.parse("q^(1/2) + q")
    >>> print(a * a)
    q + 2*q^(3/2) + q^2
    >>> print(dq(a))
    1/2*q^(-1/2) + 1
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Union

__all__ = [
    "NovikovError",
    "InputError",
    "InternalError",
    "LatticeMismatch",
    "CoefficientError",
    "InversionError",
    "ExponentLattice",
    "CoefficientRing",
    "ScalarSetup",
    "NovikovElem",
    "USeries",
    "dq",
    "invert_truncated",
    "useries_du",
    "useries_udq",
]

INF = math.inf


class NovikovError(ValueError):
    """Base class for structured arithmetic errors."""


class InputError(NovikovError):
    """The arguments or the document do not describe a valid instance
    (a bad ring, a non-positive size, a map that is not a chain map)."""


class InternalError(RuntimeError):
    """A broken internal invariant: a defect of the program, not a verdict
    on its input."""


class LatticeMismatch(NovikovError):
    pass


class CoefficientError(InputError):
    """Derivative or scalar leaves the coefficient ring, or an operation
    needs field coefficients that the input's ring does not have."""


class InversionError(NovikovError):
    pass


@dataclass(frozen=True)
class ExponentLattice:
    """The cyclic exponent group A = g*Z with 1 an integer multiple of g."""

    generator: Fraction

    def __post_init__(self):
        g = self.generator
        if g <= 0:
            raise InputError("lattice generator must be positive")
        if (1 / g).denominator != 1:
            raise InputError(
                "1 must be an integer multiple of the lattice generator"
            )

    @cached_property
    def steps_per_unit(self) -> int:
        """How many lattice steps make the exponent 1."""
        return int(1 / self.generator)

    def index_of(self, exponent: Union[int, Fraction]) -> int:
        if type(exponent) is int:
            return exponent * self.steps_per_unit
        e = Fraction(exponent)
        idx = e / self.generator
        if idx.denominator != 1:
            raise NovikovError(f"exponent {e} not in lattice g={self.generator}")
        return int(idx)

    def exponent_of(self, index: int) -> Union[int, Fraction]:
        """index * g, an int when it is integral."""
        s = self.steps_per_unit
        return index // s if index % s == 0 else Fraction(index, s)

    @cached_property
    def _words(self) -> dict:
        """Each exponent index's printed q-power, filled as it is printed."""
        return {0: ""}

_FIELD_KINDS = {"Q", "Fp"}


def _rational(c):
    """c as an int when it is integral, else as a Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the prime bases 2..37, exact for every p < 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    d = p - 1
    s = (d & -d).bit_length() - 1  # p - 1 = d 2^s with d odd
    d >>= s
    for a in bases:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(s)):
            return False  # a witnesses that p is composite
    return True


@dataclass(frozen=True)
class CoefficientRing:
    """One of Z, Q, F_p, Z/m.  Coefficients of Z, F_p and Z/m are ints (the
    residues in [0, m) for F_p and Z/m).  A coefficient of Q is an int when
    it is integral and a Fraction otherwise, so arithmetic on integer input
    builds no Fraction; equal values compare, hash and print alike."""

    kind: str  # "Z" | "Q" | "Fp" | "Zmod"
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.kind in ("Z", "Q"):
            if self.modulus is not None:
                raise InputError("modulus only allowed for Fp / Zmod")
        elif self.kind == "Fp":
            p = self.modulus
            if p is not None and p >= 2**64:
                raise InputError(f"F_p needs p < 2^64, not {p}")
            if p is None or not _is_prime(p):
                raise InputError(f"{p} is not prime")
        elif self.kind == "Zmod":
            if self.modulus is None or self.modulus < 2:
                raise InputError("modulus must be >= 2")
        else:
            raise InputError(f"unknown coefficient ring kind {self.kind!r}")

    # -- basic ring structure -------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind in _FIELD_KINDS

    def coerce(self, v):
        if self.kind == "Q":
            return v if type(v) is int else _rational(Fraction(v))
        if self.kind == "Z":
            f = Fraction(v)
            if f.denominator != 1:
                raise CoefficientError(f"{v} is not an integer")
            return int(f)
        # residue rings
        f = Fraction(v)
        m = self.modulus
        if f.denominator == 1:
            return int(f) % m
        return self.from_rational(f)

    def add(self, a, b):
        c = a + b
        return c % self.modulus if self.modulus else _rational(c)

    def mul(self, a, b):
        c = a * b
        return c % self.modulus if self.modulus else _rational(c)

    def neg(self, a):
        return (-a) % self.modulus if self.modulus else -a

    def inv(self, a):
        if a == 0:
            raise InversionError("division by zero")
        if self.kind == "Q":
            return a if a in (1, -1) else _rational(Fraction(1, a))
        if self.kind == "Fp":
            return pow(int(a), -1, self.modulus)
        raise CoefficientError("inverse requires field coefficients")

    def from_rational(self, r: Fraction):
        """Image of an exact rational in this ring, or CoefficientError."""
        m = self.modulus
        if m is None:
            return self.coerce(r)
        if math.gcd(r.denominator, m) != 1:
            raise CoefficientError(
                f"derivative leaves coefficient ring: denominator {r.denominator}"
                f" not invertible mod {m}"
            )
        return (r.numerator * pow(r.denominator, -1, m)) % m

    def mul_rational(self, a, r: Fraction):
        """a * r for a in the ring, r an exact rational."""
        if self.kind == "Q":
            return _rational(a * r)
        if self.kind == "Z":
            f = Fraction(a) * r
            if f.denominator != 1:
                raise CoefficientError(
                    f"derivative leaves coefficient ring: {a}*{r} not in Z"
                )
            return int(f)
        return self.mul(a, self.from_rational(r))

    # -- text -----------------------------------------------------------------

    def parse(self, text: str):
        text = text.strip()
        try:
            return self.coerce(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise NovikovError(f"bad coefficient {text!r}") from exc

    def describe(self) -> str:
        if self.kind == "Fp":
            return f"F{self.modulus}"
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return self.kind


def _ring_from_name(name: str) -> CoefficientRing:
    name = name.strip()
    if name == "Z":
        return CoefficientRing("Z")
    if name == "Q":
        return CoefficientRing("Q")
    m = re.fullmatch(r"F(\d+)", name)
    if m:
        return CoefficientRing("Fp", int(m.group(1)))
    m = re.fullmatch(r"Z/(\d+)", name)
    if m:
        return CoefficientRing("Zmod", int(m.group(1)))
    raise InputError(f"unknown coefficient ring {name!r}")


@dataclass(frozen=True)
class ScalarSetup:
    """An exponent lattice together with a coefficient ring.

    A setup builds its exact zero and its one once, at construction, and
    ``zero()`` and ``one()`` return those shared elements (not fields: they
    take no part in ``==``, ``hash`` or ``repr``)."""

    lattice: ExponentLattice
    ring: CoefficientRing

    def __post_init__(self):
        object.__setattr__(self, "_zero", NovikovElem(self, ()))
        object.__setattr__(self, "_one", NovikovElem(self, ((0, 1),)))

    @staticmethod
    def make(generator, ring_name: str) -> "ScalarSetup":
        return ScalarSetup(ExponentLattice(Fraction(generator)),
                           _ring_from_name(ring_name))

    def zero(self) -> "NovikovElem":
        return self._zero

    def one(self) -> "NovikovElem":
        return self._one

    def monomial(self, coeff, exponent) -> "NovikovElem":
        c = self.ring.coerce(coeff)
        if c == 0:
            return self.zero()
        return NovikovElem(self, ((self.lattice.index_of(exponent), c),))

    def parse(self, text: str) -> "NovikovElem":
        return parse_novikov(text, self)

    def describe(self) -> dict:
        return {
            "lattice_generator": str(self.lattice.generator),
            "coefficients": self.ring.describe(),
        }


def _min_trunc(*bounds: Optional[int]) -> Optional[int]:
    """The least of these truncation bounds; None (exact) if all are None."""
    known = [t for t in bounds if t is not None]
    return min(known) if known else None


def _check_same_setup(a: "NovikovElem", b: "NovikovElem"):
    if a.setup is not b.setup and a.setup != b.setup:
        raise LatticeMismatch(
            f"scalar setup mismatch: {a.setup.describe()} vs {b.setup.describe()}"
        )


@dataclass(frozen=True, slots=True)
class NovikovElem:
    """Canonical finite sum of q-monomials, with optional truncation bound.

    ``terms`` maps exponent index n (exponent n*g) to a nonzero coefficient,
    stored as a sorted tuple of pairs.  ``trunc`` of None means the element
    is exact; an integer bound means terms with index >= trunc are unknown
    (the element is only guaranteed below that exponent).

    An element is *decidably zero* when it has no terms and no tail
    (``is_zero()``).  ``+`` and ``*`` with a decidably zero operand skip the
    general formula: a sum returns the other operand and a product returns
    the zero operand, values equal field for field to what the formula
    gives.  A termless element with a tail, ``O(q^T)``, is not decidably
    zero and always goes through the formula, which carries its tail.

    Results are canonical by construction: ``+`` of single-term operands
    and ``*`` of exact ones make their one- or two-term result, ``scale``
    and ``dq`` their terms, directly, with no zero coefficient (``2q * 3q``
    over Z/6) or term at or above ``trunc``.  Any other product is a
    ``sum_of_products`` of one pair; only a general sum sorts in ``build``.

    The type is a slotted frozen dataclass: assigning a field raises
    ``FrozenInstanceError``, and ``__init__`` stores the three fields
    through their slots.  ``dq`` and ``q_shift`` return the setup's shared
    zero (or the operand) where their result is an exact zero.
    """

    setup: ScalarSetup
    terms: tuple  # ((index, coeff), ...) strictly increasing index
    trunc: Optional[int] = None

    def __init__(self, setup: ScalarSetup, terms: tuple,
                 trunc: Optional[int] = None):
        _set_elem_setup(self, setup)
        _set_elem_terms(self, terms)
        _set_elem_trunc(self, trunc)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def build(setup: ScalarSetup, pairs, trunc: Optional[int] = None) -> "NovikovElem":
        """Canonical form: residues mod m, merged, no zeros, none >= trunc."""
        ring, m = setup.ring, setup.ring.modulus
        acc: dict = {}
        for idx, c in pairs:
            if trunc is not None and idx >= trunc:
                continue
            acc[idx] = ring.add(acc[idx], c) if idx in acc else c % m if m else c
        out = tuple(
            (idx, acc[idx]) for idx in sorted(acc) if acc[idx] != 0
        )
        return NovikovElem(setup, out, trunc)

    # -- structure ------------------------------------------------------------

    def has_terms(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        """Decidably zero: no terms and no unknown tail."""
        return not self.terms and self.trunc is None

    def valuation_index(self):
        """Index of the minimal exponent, or +inf for a termless element."""
        return self.terms[0][0] if self.terms else INF

    def leading(self):
        if not self.terms:
            raise InversionError("division by zero")
        return self.terms[0]

    def exponents(self):
        return [self.setup.lattice.exponent_of(n) for n, _ in self.terms]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "NovikovElem") -> "NovikovElem":
        _check_same_setup(self, other)
        if not self.terms and self.trunc is None:
            return other
        if not other.terms and other.trunc is None:
            return self
        ta, tb = self.trunc, other.trunc
        t = tb if ta is None else ta if tb is None else min(ta, tb)
        if len(self.terms) == 1 == len(other.terms):
            (na, ca), = self.terms
            (nb, cb), = other.terms
            pairs = (((na, self.setup.ring.add(ca, cb)),) if na == nb
                     else self.terms + other.terms if na < nb
                     else other.terms + self.terms)
            return NovikovElem(self.setup, tuple(
                p for p in pairs if p[1] != 0 and (t is None or p[0] < t)), t)
        return NovikovElem.build(self.setup, self.terms + other.terms, t)

    def __neg__(self) -> "NovikovElem":
        if not self.terms:
            return self
        ring = self.setup.ring
        return NovikovElem(
            self.setup,
            tuple((n, ring.neg(c)) for n, c in self.terms),
            self.trunc,
        )

    def __sub__(self, other: "NovikovElem") -> "NovikovElem":
        return self + (-other if other.terms else other)

    def __mul__(self, other: "NovikovElem") -> "NovikovElem":
        _check_same_setup(self, other)
        if not self.terms and self.trunc is None:
            return self
        if not other.terms and other.trunc is None:
            return other
        if (len(self.terms) == 1 == len(other.terms) and self.trunc is None
                and other.trunc is None):
            (na, ca), = self.terms
            (nb, cb), = other.terms
            c = self.setup.ring.mul(ca, cb)
            return NovikovElem(self.setup, ((na + nb, c),) if c != 0 else ())
        return NovikovElem.sum_of_products(((self, other),))

    @staticmethod
    def sum_of_products(pairs) -> "NovikovElem":
        """sum(a * b for a, b in pairs) over a non-empty sequence, built once
        from one exponent -> coefficient table of every term product, with
        the least ``trunc`` that ``*`` gives a pair.  Decidably zero operands
        are skipped: the result equals the sequential sum field for field."""
        first = pairs[0][0]
        setup, acc, trunc = first.setup, {}, INF
        for a, b in pairs:
            if a.setup is not setup or b.setup is not setup:
                _check_same_setup(first, a)
                _check_same_setup(first, b)
            if a.is_zero() or b.is_zero():
                continue
            if a.trunc is not None or b.trunc is not None:
                # a termless factor is valued at its trunc: O(q)O(q) = O(q^2)
                ta = INF if a.trunc is None else a.trunc
                tb = INF if b.trunc is None else b.trunc
                trunc = min(trunc, (a.terms[0][0] if a.terms else ta) + tb,
                            (b.terms[0][0] if b.terms else tb) + ta)
            for na, ca in a.terms:
                for nb, cb in b.terms:
                    n = na + nb
                    acc[n] = acc[n] + ca * cb if n in acc else ca * cb
        m, terms = setup.ring.modulus, []
        for n in sorted(acc):
            if n >= trunc:
                break
            if (c := acc[n] % m if m else _rational(acc[n])) != 0:
                terms.append((n, c))
        return NovikovElem(setup, tuple(terms),
                           None if trunc == INF else trunc)

    def scale(self, coeff) -> "NovikovElem":
        ring = self.setup.ring
        c = ring.coerce(coeff)
        return NovikovElem(self.setup, tuple(
            (n, p) for n, a in self.terms if (p := ring.mul(a, c)) != 0),
            self.trunc)

    def q_shift(self, steps: int) -> "NovikovElem":
        """Multiply by q^(steps * g)."""
        if not steps or (not self.terms and self.trunc is None):
            return self
        return NovikovElem(
            self.setup,
            tuple((n + steps, c) for n, c in self.terms),
            None if self.trunc is None else self.trunc + steps,
        )

    def truncate(self, bound: int) -> "NovikovElem":
        t = bound if self.trunc is None else min(bound, self.trunc)
        return NovikovElem.build(self.setup, self.terms, t)

    def specialize_q1(self):
        """Sum of coefficients: the image under q -> 1."""
        ring = self.setup.ring
        acc = 0
        for _, c in self.terms:
            acc = ring.add(acc, c)
        return acc

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_novikov(self)


# the slot descriptors through which a frozen NovikovElem stores its fields
_set_elem_setup = NovikovElem.setup.__set__
_set_elem_terms = NovikovElem.terms.__set__
_set_elem_trunc = NovikovElem.trunc.__set__


def dq(a: NovikovElem) -> NovikovElem:
    """The derivation q -> d/dq:  r*q^e  |->  (r*e)*q^(e-1)."""
    lat = a.setup.lattice
    ring = a.setup.ring
    step = lat.steps_per_unit
    pairs = []
    for n, c in a.terms:
        e = lat.exponent_of(n)
        x = ring.mul_rational(c, e) if e else 0
        if x != 0:
            pairs.append((n - step, x))
    if a.trunc is None:
        return NovikovElem(a.setup, tuple(pairs)) if pairs else a.setup._zero
    return NovikovElem(a.setup, tuple(pairs), a.trunc - step)


def invert_truncated(a: NovikovElem, q_order: int) -> NovikovElem:
    """Truncated inverse over a Novikov field.

    Returns b with a*b = 1 up to terms of exponent index >= q_order counted
    from the constant (the result's trunc is -lead + q_order, i.e. q_order
    lattice steps of correct data past the leading term of b).  Monomials
    invert exactly.

    Writing a = c q^e (1 + sum_j alpha_j q^j) and bound = min(q_order,
    a.trunc - e), the inverse is c^-1 q^-e sum_{k < bound} b_k q^k with the
    power-series recurrence b_0 = 1, b_k = -sum_{1 <= j <= k} alpha_j
    b_{k-j}; the result's trunc is -e + bound.  Only the nonzero alpha_j
    enter the sum, so the cost is O(q_order * terms(a)) coefficient
    operations.
    """
    if not a.setup.ring.is_field:
        raise CoefficientError("inverse requires field coefficients")
    setup = a.setup
    ring = setup.ring
    e, c = a.leading()
    c_inv = ring.inv(c)
    if len(a.terms) == 1:
        # exact monomial inverse, but respect any unknown tail of the input
        lead_inv = NovikovElem(setup, ((-e, c_inv),))
        if a.trunc is None:
            return lead_inv
        return lead_inv.truncate(a.trunc - 2 * e)
    bound = q_order
    if a.trunc is not None:
        bound = min(bound, a.trunc - e)
    alphas = [(n - e, ring.mul(c_inv, x)) for n, x in a.terms[1:]
              if n - e < bound]
    b = [1]
    for k in range(1, bound):
        acc = 0
        for j, alpha in alphas:
            if j > k:
                break
            acc = ring.add(acc, ring.mul(alpha, b[k - j]))
        b.append(ring.neg(acc))
    return NovikovElem.build(
        setup, ((k - e, ring.mul(c_inv, bk)) for k, bk in enumerate(b)),
        -e + bound)


# -- truncated power series in u ---------------------------------------------


@dataclass(frozen=True, slots=True)
class USeries:
    """Power series in u over NovikovElem, truncated at order N.

    ``coeffs`` holds exactly the known coefficients, of u^0 through
    u^(valid - 1); ``valid`` = len(coeffs) <= N is set once at
    construction.  The coefficients of u^k for valid <= k < N are unknown
    (the top orders lost by d/du or by a division by u^k) and are not
    stored, so no reader can take them for known zeros.  All arithmetic
    propagates the weaker bound.

    A series is *decidably zero* when ``valid == order`` and every
    coefficient is a decidably zero NovikovElem (``is_zero()``, a flag set
    once at construction).  Only negation and ``q_shift`` of a decidably
    zero series, and a product whose right operand is the exact unit 1,
    skip the general formula: they return the zero operand or the left
    one, equal field for field to what the formula gives (same
    coefficients, tails and ``valid``).  ``+``, ``-``, ``*`` and ``scale``
    leave a zero operand to ``NovikovElem`` arithmetic and
    ``sum_of_products``, which decide it once, per coefficient.  A series
    that lost u-order or whose coefficients carry q-tails always goes
    through the formula; so does ``useries_du``, which lowers ``valid``
    even of an exact zero.

    Results are canonical by construction: every operation makes only its
    known coefficients, without ``build``.  Each call checks the scalar
    setups once.

    The type is a slotted frozen dataclass: assigning a field raises
    ``FrozenInstanceError``.  ``valid`` and ``_zero`` are slots set once in
    ``__init__``, outside ``==``, ``hash`` and ``repr``.  Known zeros that
    pad a series (``build``, ``times_u``) are the setup's shared zero.
    """

    setup: ScalarSetup
    order: int
    coeffs: tuple
    valid: int = field(init=False, repr=False, compare=False)
    _zero: bool = field(init=False, repr=False, compare=False)

    def __init__(self, setup: ScalarSetup, order: int, coeffs: tuple):
        valid = len(coeffs)
        if valid > order:
            raise NovikovError("more coefficients than the truncation order")
        zero = valid == order
        for c in coeffs if zero else ():
            if c.terms or c.trunc is not None:
                zero = False
                break
        _set_series_setup(self, setup)
        _set_series_order(self, order)
        _set_series_coeffs(self, coeffs)
        _set_series_valid(self, valid)
        _set_series_zero(self, zero)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(setup: ScalarSetup, order: int) -> "USeries":
        return USeries.build(setup, order, ())

    @staticmethod
    def from_novikov(c: NovikovElem, order: int, u_power: int = 0) -> "USeries":
        """c u^u_power, zero when u_power >= order."""
        return USeries.build(c.setup, order,
                             (c.setup.zero(),) * u_power + (c,))

    @staticmethod
    def build(setup: ScalarSetup, order: int, coeffs, valid=None) -> "USeries":
        """The first ``valid`` (default: ``order``) of ``coeffs``, padded
        with known zeros up to ``valid``."""
        v = order if valid is None else max(0, min(valid, order))
        cs = tuple(coeffs)[:v]
        return USeries(setup, order, cs + (setup.zero(),) * (v - len(cs)))

    # -- structure ------------------------------------------------------------

    def is_zero_to(self, order: Optional[int] = None) -> bool:
        """No visible terms below min(valid, order).

        Coefficients may still carry unknown q-tails; use q_certificate()
        to learn the exponent order to which the zero is certified.
        """
        return not any(c.terms for c in self.coeffs[:order])

    def is_zero(self) -> bool:
        """Decidably zero: no visible terms, no lost u-order, no q-tail."""
        return self._zero

    def _of(self, coeffs: tuple) -> "USeries":
        """This setup and order with these known coefficients."""
        return USeries(self.setup, self.order, coeffs)

    def q_certificate(self) -> Optional[int]:
        """Minimal coefficient trunc index, or None if every coeff is exact."""
        return _min_trunc(*(c.trunc for c in self.coeffs))

    def _lead(self) -> int:
        """The first u-order whose coefficient is not decidably zero, else
        ``valid``: below it the series is an exact zero."""
        return next((k for k, c in enumerate(self.coeffs) if not c.is_zero()),
                    self.valid)

    def u_valuation(self) -> Optional[int]:
        return next((k for k, c in enumerate(self.coeffs) if c.terms), None)

    # -- arithmetic -----------------------------------------------------------

    def _common(self, other: "USeries"):
        if self.setup is not other.setup and self.setup != other.setup:
            raise LatticeMismatch("scalar setup mismatch in USeries arithmetic")
        if self.order != other.order:
            raise NovikovError("truncation order mismatch in USeries arithmetic")

    def __add__(self, other: "USeries") -> "USeries":
        self._common(other)
        return self._of(tuple(a + b
                              for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "USeries":
        if self._zero:
            return self
        return self._of(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "USeries") -> "USeries":
        self._common(other)
        return self._of(tuple(a - b
                              for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "USeries") -> "USeries":
        self._common(other)
        if other.valid == self.order:
            one = other.coeffs[0]
            if (one.terms == ((0, 1),) and one.trunc is None
                    and all(c.is_zero() for c in other.coeffs[1:])):
                return self  # other is the exact unit 1
        return USeries.sum_of_products(((self, other),))

    @staticmethod
    def sum_of_products(pairs) -> "USeries":
        """sum(a * b for a, b in pairs) over a non-empty sequence, with the
        least ``valid`` that ``*`` gives a pair; each coefficient below it is
        built once from all of its term products.  A zero operand adds no
        cell: the result equals the sequential sum field for field."""
        first = pairs[0][0]
        v = first.order
        for a, b in pairs:
            first._common(a)
            a._common(b)
            # products landing at u^v or above are unknown: none is formed
            v = min(v, a._lead() + b.valid, b._lead() + a.valid)
        cells = [[] for _ in range(v)]
        for a, b in pairs:
            for i, x in enumerate(a.coeffs[:v]):
                if x.terms or x.trunc is not None:
                    for j, y in enumerate(b.coeffs[:v - i]):
                        if y.terms or y.trunc is not None:
                            cells[i + j].append((x, y))
        zero = first.setup.zero()
        return first._of(tuple([
            zero if not c else c[0][0] * c[0][1] if len(c) == 1
            else NovikovElem.sum_of_products(c) for c in cells]))

    def scale(self, c: NovikovElem) -> "USeries":
        _check_same_setup(self, c)
        return self._of(tuple(a * c for a in self.coeffs))

    def q_shift(self, steps: int) -> "USeries":
        """Multiply every coefficient by q^(steps * g)."""
        if self._zero or not steps:
            return self
        return self._of(tuple(c.q_shift(steps) for c in self.coeffs))

    def times_u(self, k: int = 1) -> "USeries":
        return self._of(((self.setup.zero(),) * k + self.coeffs)[:self.order])

    def shift_down(self, k: int) -> "USeries":
        """Divide by u^k; the dropped coefficients must be zero."""
        if any(c.terms for c in self.coeffs[:k]):
            raise NovikovError("shift_down would drop a nonzero coefficient")
        return self._of(self.coeffs[k:])

    def __bool__(self):
        return any(c.terms for c in self.coeffs)

    def __str__(self):
        return format_useries(self)


# the slot descriptors through which a frozen USeries stores its fields
_set_series_setup = USeries.setup.__set__
_set_series_order = USeries.order.__set__
_set_series_coeffs = USeries.coeffs.__set__
_set_series_valid = USeries.valid.__set__
_set_series_zero = USeries._zero.__set__


def useries_du(a: USeries) -> USeries:
    """d/du: coefficient of u^k becomes (k+1)*a_{k+1}; loses the top order,
    so ``valid`` drops by one (to no less than 0)."""
    return a._of(tuple(c if c.is_zero() else c.scale(k)
                       for k, c in enumerate(a.coeffs[1:], 1)))


def useries_udq(a: USeries) -> USeries:
    """Coefficientwise d/dq."""
    return a._of(tuple(dq(c) for c in a.coeffs))


def useries_invert_unit(p: USeries, q_order: int) -> USeries:
    """Inverse of a u-series whose u^0 coefficient is nonzero (field coeffs).

    Standard power-series recursion; the constant term is inverted with the
    given q-order budget, so coefficients may carry truncation metadata.
    The inverse is known to the same u-order as ``p``.
    """
    if not (p.coeffs and p.coeffs[0].terms):
        raise InversionError("u-series is not a unit (u^0 coefficient vanishes)")
    b0 = invert_truncated(p.coeffs[0], q_order)
    out = [b0]
    for k in range(1, len(p.coeffs)):
        out.append(-(b0 * NovikovElem.sum_of_products(
            [(p.coeffs[j], out[k - j]) for j in range(1, k + 1)])))
    return p._of(tuple(out))


# -- text grammar -------------------------------------------------------------
#
#   novikov :=  term (("+"|"-") term)*
#   term    :=  coeff | coeff "*" qpow | qpow
#   qpow    :=  "q" | "q^" int | "q^(" rational ")"
#
# A printed value ends in its unknown tail, `` + O(qpow)`` (``O(1)`` at
# q^0) or, for a series that lost u-order, `` + O(u^valid)``; the parser
# reads no tail back.


def _split_top_level(text: str):
    """Split on +/- at paren depth 0 (not after '^', '*', '(' or at start)."""
    parts = []
    sign = 1
    depth = 0
    cur = ""
    prev_significant = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise NovikovError(f"unbalanced parens in {text!r}")
        if ch in "+-" and depth == 0 and prev_significant not in ("", "^", "*", "(", "e", "E"):
            parts.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
            prev_significant = ""
            continue
        if ch in "+-" and depth == 0 and prev_significant == "":
            if ch == "-":
                sign = -sign
            continue
        cur += ch
        if not ch.isspace():
            prev_significant = ch
    if depth != 0:
        raise NovikovError(f"unbalanced parens in {text!r}")
    parts.append((sign, cur))
    return [(s, p.strip()) for s, p in parts if p.strip()]


_TERM_RE = re.compile(
    r"""^(?:(?P<coeff>[0-9][0-9/]*)\s*\*?\s*)?          # optional coefficient
         (?:q(?:\^(?:(?P<iexp>-?\d+)|\((?P<rexp>-?\d+(?:/\d+)?)\)))?)?$""",
    re.VERBOSE,
)


def parse_novikov(text: str, setup: ScalarSetup) -> NovikovElem:
    text = text.strip()
    if text in ("", "0"):
        return setup.zero()
    pairs = []
    for sign, part in _split_top_level(text):
        part = part.replace(" ", "")
        m = _TERM_RE.match(part)
        if not m or (m.group("coeff") is None and "q" not in part):
            raise NovikovError(f"cannot parse novikov term {part!r}")
        coeff = setup.ring.parse(m.group("coeff")) if m.group("coeff") else 1
        if sign < 0:
            coeff = setup.ring.neg(coeff)
        if "q" in part:
            if m.group("iexp") is not None:
                exp = Fraction(int(m.group("iexp")))
            elif m.group("rexp") is not None:
                exp = Fraction(m.group("rexp"))
            else:
                exp = Fraction(1)
        else:
            exp = Fraction(0)
        pairs.append((setup.lattice.index_of(exp), coeff))
    return NovikovElem.build(setup, pairs)


def _format_qpow(exp: Fraction) -> str:
    if exp == 1:
        return "q"
    if exp.denominator == 1 and exp >= 0:
        return f"q^{exp.numerator}"
    return f"q^({exp})"


def format_novikov(x: NovikovElem) -> str:
    """x in the grammar above, exponents ascending, then its tail: each term
    reads its q-power from the lattice's table and prints a coefficient
    other than 1 once, by ``str``; the text is joined once."""
    t = x.trunc
    if not x.terms and t is None:
        return "0"
    lat = x.setup.lattice
    words, parts = lat._words, []
    for n, c in x.terms:
        w = words.get(n)
        if w is None:
            w = words[n] = _format_qpow(lat.exponent_of(n))
        if c == 1:
            parts += (" + ", w or "1")
            continue
        mag = str(c)
        sign, mag = (" - ", mag[1:]) if mag[0] == "-" else (" + ", mag)
        parts += (sign, f"{mag}*{w}" if w and mag != "1" else w or mag)
    if t is not None:
        w = "1" if t == 0 else words.get(t) or _format_qpow(lat.exponent_of(t))
        parts += (" + ", f"O({w})")
    parts[0] = "" if parts[0] == " + " else "-"
    return "".join(parts)


def format_useries(a: USeries) -> str:
    """c0 + (c1)*u + (c2)*u^2 + ..., each decidably zero coefficient left
    out, then `` + O(u^v)`` if the series lost u-order."""
    parts = []
    for k, c in enumerate(a.coeffs):
        if c.is_zero():
            continue
        body = format_novikov(c)
        if k == 0:
            parts.append(body)
        else:
            upow = "u" if k == 1 else f"u^{k}"
            parts.append(f"({body})*{upow}")
    v = a.valid
    if v < a.order:
        parts.append("O(1)" if v == 0 else "O(u)" if v == 1 else f"O(u^{v})")
    return " + ".join(parts) if parts else "0"
