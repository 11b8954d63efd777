"""Characteristic-2 finite analogue of the equivariant package.

Over F_2 Novikov coefficients, the input is a complex together with seven
operators d, iota, lambda, sigma, Sigma, xi, Xi subject to the relation set
(all sums are mod 2, so commutators and anticommutators coincide):

    d^2 = 0
    d iota + iota d = 0
    d lambda + lambda d = 0,   lambda = entrywise d/dq of d
    d sigma + sigma d = 0
    d Sigma + Sigma d = sigma^2 + id
    d xi + xi d = sigma iota + iota sigma
    d Xi + Xi d = sigma xi + xi sigma + Sigma iota + iota Sigma + lambda

``assemble_and_check`` builds the degree-1-variable truncations

    d_eq    = d + h (id + sigma) + h^2 Sigma            (mod h^3)
    Gamma_q = iota + h xi + h^2 (d/dq + Xi)             (mod h^3)

and certifies d_eq^2 = 0 and d_eq Gamma_q + Gamma_q d_eq = 0 mod h^3, one
certificate per h-order.  Over F_2, {d, id} = 2d = 0 and (id + sigma)^2 =
id + sigma^2, so d_eq^2 at h^0, h^1, h^2 is the matrix of the d^2, sigma and
Sigma relations, and the anticommutator at h^0, h^1 that of the iota and xi
relations.  At h^2 the d/dq part of Gamma_q contributes the entrywise
Leibniz defect d/dq o d + d o d/dq = dq(d) where the Xi relation has lambda:
that certificate is the Xi relation's matrix plus that of lambda = dq(d).
The tests expand both products order by order in a dense reference, which
must agree record for record.

Truncation is fixed at h^3: nothing beyond that order is specified by the
relation set, and we refuse to extrapolate.

Each relation's sum of operator products (id is the product id id, lambda
is lambda id) is made on bit-packed rows, the lighter factor of each
product doing the loop, or by ``OperatorMatrix.compose`` where the rows
would be too wide (see ``_products``); lambda from d is ``entrywise(dq)``.
Entries with a q-tail are refused.  Both entry points read one table of the
relation matrices, made once per datum; failures read in row-major order,
and ``assemble_and_check`` prints each distinct entry once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

from .novikov import InputError, NovikovElem, ScalarSetup, dq, format_novikov
from .complexes import GeneratorInfo, OperatorMatrix, _witnesses

__all__ = ["Z2CartanData", "verify_relations", "assemble_and_check"]

H_ORDER = 3
_PACKED_BITS = 1 << 16   # the widest packed row; see _products


@dataclass(frozen=True)
class Z2CartanData:
    """The seven-operator system over F2 Novikov coefficients; frozen, as
    its relation table is made on first use and kept."""

    setup: ScalarSetup
    basis: Tuple[GeneratorInfo, ...]
    d: OperatorMatrix
    iota: OperatorMatrix
    lam: OperatorMatrix
    sigma: OperatorMatrix
    Sigma: OperatorMatrix
    xi: OperatorMatrix
    Xi: OperatorMatrix

    def __post_init__(self):
        if (self.setup.ring.kind, self.setup.ring.modulus) != ("Fp", 2):
            raise InputError("the finite analogue requires F2 coefficients")
        object.__setattr__(self, "basis", tuple(self.basis))
        for name, op in self.operators().items():
            if op.source != self.basis or op.target != self.basis:
                raise InputError(f"operator {name} basis mismatch")
            if any(v.trunc is not None for v in op.entries.values()):
                raise InputError(f"operator {name} has an entry with a q-tail")

    @staticmethod
    def build(setup, basis, **entry_maps) -> "Z2CartanData":
        basis = tuple(basis)
        ops = {}
        for name in ("d", "iota", "lam", "sigma", "Sigma", "xi", "Xi"):
            ops[name] = OperatorMatrix(basis, basis,
                                       dict(entry_maps.get(name, {})))
        return Z2CartanData(setup, basis, **ops)

    def operators(self) -> Dict[str, OperatorMatrix]:
        return {"d": self.d, "iota": self.iota, "lam": self.lam,
                "sigma": self.sigma, "Sigma": self.Sigma,
                "xi": self.xi, "Xi": self.Xi}

    @property
    def n(self) -> int:
        return len(self.basis)

    def identity(self) -> OperatorMatrix:
        one = self.setup.one()
        return OperatorMatrix(self.basis, self.basis,
                              {(i, i): one for i in range(self.n)})

    @cached_property
    def _relations(self):
        """Each displayed relation with its matrix, zero iff it holds."""
        d, iota, lam, sig = self.d, self.iota, self.lam, self.sigma
        Sig, xi, Xi, one = self.Sigma, self.xi, self.Xi, self.identity()
        product = _products(self.setup, (d, iota, lam, sig, Sig, xi, Xi, one))
        return [
            ("d^2 = 0", product((d, d))),
            ("d iota = iota d", product((d, iota), (iota, d))),
            ("d lambda = lambda d", product((d, lam), (lam, d))),
            ("lambda = dq(d)", lam + d.entrywise(dq)),
            ("d sigma = sigma d", product((d, sig), (sig, d))),
            ("d Sigma + Sigma d = sigma^2 + id",
             product((d, Sig), (Sig, d), (sig, sig), (one, one))),
            ("d xi + xi d = sigma iota + iota sigma",
             product((d, xi), (xi, d), (sig, iota), (iota, sig))),
            (_XI_RELATION, product((d, Xi), (Xi, d), (sig, xi), (xi, sig),
                                   (Sig, iota), (iota, Sig), (lam, one))),
        ]


def _products(setup, ops):
    """One function that sums the products of pairs (A, B) of ``ops``,
    equal field for field to ``A.compose(B, *pairs)``.

    Row t of an operator is one int with bit s S + i - lo for each term of
    q-index i in entry (t, s) (M4RI's packed rows: Albrecht, Bard and Hart,
    ACM TOMS 37(1), 2010); [lo, hi] holds every index, read off each
    entry's first and last term, and S = 2 (hi - lo) + 1 a product's.  Bit
    pos of a product row is a term of index pos % S + 2 lo in column
    pos // S.  The lighter factor of each pair does the loop: n steps per
    term of B (``_by_terms_of_b``) where n terms(B) < terms(A), else one
    step per term of A (``_by_terms_of_a``).  Rows of n S > _PACKED_BITS
    bits take compose: at n = 12 (Python 3.11.7, 2 shared cores) the packed
    relations took 2.6 ms to compose's 3.9 at 48,000 bits, 3.5 to 3.8 at
    72,000 and 4.4 to 3.8 at 96,000, level near 79,000.
    """
    values = [v.terms for op in ops for v in op.entries.values()]
    lo = min([terms[0][0] for terms in values], default=0)
    S = 2 * (max([terms[-1][0] for terms in values], default=0) - lo) + 1
    n = len(ops[0].target)
    if n * S > _PACKED_BITS:
        return lambda first, *pairs: first[0].compose(first[1], *pairs)
    rows, size = {}, {}   # by id(op): its packed rows; its number of terms
    for op in ops:
        packed, count = [0] * n, 0
        for (t, s), v in op.entries.items():
            base = s * S - lo
            for i, _ in v.terms:
                packed[t] |= 1 << (base + i)
            count += len(v.terms)
        rows[id(op)], size[id(op)] = packed, count

    def product(*pairs):
        acc = [0] * n
        for A, B in pairs:
            if n * size[id(B)] < size[id(A)]:
                acc = _by_terms_of_b(acc, rows[id(A)], B, lo, S)
            else:
                acc = _by_terms_of_a(acc, A, rows[id(B)], lo)
        cells = {}
        for t, row in enumerate(acc):
            while row:
                pos = (row & -row).bit_length() - 1
                row &= row - 1
                cells.setdefault((t, pos // S), []).append((pos % S + 2 * lo, 1))
        A, B = pairs[0]
        return OperatorMatrix._made(
            B.source, A.target,
            {k: NovikovElem(setup, tuple(terms)) for k, terms in cells.items()},
            A.degree + B.degree)
    return product


def _by_terms_of_a(acc, A, rows_b, lo):
    """acc + A B, in place: each term i at (t, m) of A XORs row m of B,
    shifted by i - lo, into row t."""
    for (t, m), a in A.entries.items():
        for i, _ in a.terms:
            acc[t] ^= rows_b[m] << (i - lo)
    return acc


def _by_terms_of_b(acc, rows_a, B, lo, S):
    """acc + A B: each term j at (m, s) of B moves slot m of every row of A
    into slot s, shifted by j - lo."""
    mask = (1 << S) - 1
    for (m, s), b in B.entries.items():
        for j, _ in b.terms:
            acc = [x ^ (((r >> (m * S)) & mask) << (s * S + j - lo))
                   for x, r in zip(acc, rows_a)]
    return acc


_XI_RELATION = ("d Xi + Xi d = sigma xi + xi sigma + Sigma iota + iota Sigma"
                " + lambda")


def verify_relations(Z: Z2CartanData) -> dict:
    """Exact check of every displayed relation; failures carry witnesses."""
    relations = []
    for name, M in Z._relations:
        fails = _witnesses(M, relation=name)
        relations.append({"relation": name, "holds": not fails,
                          "failures": fails})
    return {"relations": relations,
            "all_hold": all(r["holds"] for r in relations)}


def assemble_and_check(Z: Z2CartanData) -> dict:
    """Assemble d_eq and Gamma_q mod h^3 and certify both identities.

    Returns both operators' h-components, each stored entry under its
    "row,column" names (``format_novikov`` prints each distinct one once),
    and one certificate per h-order of each identity, read off the relation
    matrices (module doc).
    """
    key = [[f"{t.name},{s.name}" for s in Z.basis] for t in Z.basis]
    rel = dict(Z._relations)
    by_order = [
        ("d_eq^2", [rel["d^2 = 0"], rel["d sigma = sigma d"],
                    rel["d Sigma + Sigma d = sigma^2 + id"]]),
        ("d_eq Gamma_q + Gamma_q d_eq",
         [rel["d iota = iota d"], rel["d xi + xi d = sigma iota + iota sigma"],
          rel[_XI_RELATION] + rel["lambda = dq(d)"]]),
    ]
    certificates = []
    for identity, mats in by_order:
        for k, M in enumerate(mats):
            fails = _witnesses(M, relation=f"{identity}, order h^{k}")
            certificates.append({"identity": f"{identity} = 0", "h_order": k,
                                 "holds": not fails, "failures": fails})
    d_eq = [Z.d, Z.identity() + Z.sigma, Z.Sigma]   # h^0, h^1, h^2 parts
    gamma = [Z.iota, Z.xi, Z.Xi]        # matrix parts; h^2 also carries d/dq

    text = {}   # each distinct entry printed once, by its terms

    def fmt(mats, derivative_at=None):
        out = []
        for k, M in enumerate(mats):
            entries = {key[t][s]: text.get(v.terms)
                       or text.setdefault(v.terms, format_novikov(v))
                       for (t, s), v in M.entries.items()}
            comp = {"h_order": k, "entries": entries}
            if derivative_at == k:
                comp["plus_operator"] = "d/dq"
            out.append(comp)
        return out

    return {
        "h_truncation": H_ORDER,
        "d_eq": fmt(d_eq),
        "gamma_q": fmt(gamma, derivative_at=2),
        "certificates": certificates,
        "all_hold": all(c["holds"] for c in certificates),
    }
