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

and certifies d_eq^2 = 0 and d_eq Gamma_q + Gamma_q d_eq = 0 mod h^3,
recording the order-by-order cancellation.  The h^2 order of the second
certificate uses the operator identity  d/dq o d + d o d/dq = lambda
(entrywise Leibniz), which is where the derivative term of Gamma_q meets
the last relation.  Both certificates are formal consequences of the
relation set; a failure on relation-verified data is an implementation
bug, which is exactly what the tests exploit.

Truncation is fixed at h^3: nothing beyond that order is specified by the
relation set, and we refuse to extrapolate.

All of it computes on the stored ``OperatorMatrix`` operators: products are
``compose``, sums ``+`` and lambda from d is ``entrywise(dq)``; failures and
formatted entries are read from the stored entries in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .novikov import InputError, ScalarSetup, dq
from .complexes import GeneratorInfo, OperatorMatrix

__all__ = ["Z2CartanData", "verify_relations", "assemble_and_check"]

H_ORDER = 3


def _require_f2(setup: ScalarSetup):
    if not (setup.ring.kind == "Fp" and setup.ring.modulus == 2):
        raise InputError("the finite analogue requires F2 coefficients")


@dataclass
class Z2CartanData:
    """The seven-operator system over F2 Novikov coefficients."""

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
        _require_f2(self.setup)
        self.basis = tuple(self.basis)
        for name, op in self.operators().items():
            if op.source != self.basis or op.target != self.basis:
                raise InputError(f"operator {name} basis mismatch")

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


def _anticommutator(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    return A.compose(B) + B.compose(A)


def _failures(M: OperatorMatrix, basis, relation):
    return [{"relation": relation, "entry": [basis[t].name, basis[s].name],
             "value": str(M.entries[(t, s)])}
            for t, s in sorted(M.entries) if M.entries[(t, s)].has_terms()]


def verify_relations(Z: Z2CartanData) -> dict:
    """Exact check of every displayed relation; failures carry witnesses."""
    basis = Z.basis
    d, iota, lam, sig = Z.d, Z.iota, Z.lam, Z.sigma
    Sig, xi, Xi = Z.Sigma, Z.xi, Z.Xi
    checks = [
        ("d^2 = 0", d.compose(d)),
        ("d iota = iota d", _anticommutator(d, iota)),
        ("d lambda = lambda d", _anticommutator(d, lam)),
        ("lambda = dq(d)", lam + d.entrywise(dq)),
        ("d sigma = sigma d", _anticommutator(d, sig)),
        ("d Sigma + Sigma d = sigma^2 + id",
         _anticommutator(d, Sig) + sig.compose(sig) + Z.identity()),
        ("d xi + xi d = sigma iota + iota sigma",
         _anticommutator(d, xi) + _anticommutator(sig, iota)),
        ("d Xi + Xi d = sigma xi + xi sigma + Sigma iota + iota Sigma"
         " + lambda",
         _anticommutator(d, Xi) + _anticommutator(sig, xi)
         + _anticommutator(Sig, iota) + lam),
    ]
    relations = []
    for name, M in checks:
        fails = _failures(M, basis, name)
        relations.append({"relation": name, "holds": not fails,
                          "failures": fails})
    return {"relations": relations,
            "all_hold": all(r["holds"] for r in relations)}


def assemble_and_check(Z: Z2CartanData) -> dict:
    """Assemble d_eq and Gamma_q mod h^3 and certify both identities.

    Returns the h-components of both operators (as formatted sparse
    matrices) and one certificate per h-order of each identity.  The
    d/dq part of Gamma_q is handled symbolically: its contribution to the
    h^2 order of the anticommutator with d_eq is the entrywise Leibniz
    defect lambda = dq(d).
    """
    basis = Z.basis
    d_eq = [Z.d, Z.identity() + Z.sigma, Z.Sigma]   # h^0, h^1, h^2 parts
    gamma = [Z.iota, Z.xi, Z.Xi]        # matrix parts; h^2 also carries d/dq

    certificates = []
    # d_eq^2 mod h^3
    for k in range(H_ORDER):
        acc = None
        for i in range(k + 1):
            term = d_eq[i].compose(d_eq[k - i])
            acc = term if acc is None else acc + term
        fails = _failures(acc, basis, f"d_eq^2, order h^{k}")
        certificates.append({
            "identity": "d_eq^2 = 0",
            "h_order": k,
            "holds": not fails,
            "failures": fails,
        })
    # d_eq Gamma_q + Gamma_q d_eq mod h^3; the h^2 derivative part of
    # Gamma_q contributes {d/dq, d} = lambda at order h^2 and nothing
    # below h^3 against the higher components of d_eq.
    for k in range(H_ORDER):
        acc = None
        for i in range(k + 1):
            term = _anticommutator(d_eq[i], gamma[k - i])
            acc = term if acc is None else acc + term
        if k == 2:
            acc = acc + Z.d.entrywise(dq)
        fails = _failures(acc, basis,
                          f"d_eq Gamma_q + Gamma_q d_eq, order h^{k}")
        certificates.append({
            "identity": "d_eq Gamma_q + Gamma_q d_eq = 0",
            "h_order": k,
            "holds": not fails,
            "failures": fails,
        })

    def fmt(mats, derivative_at=None):
        out = []
        for k, M in enumerate(mats):
            entries = {
                f"{basis[t].name},{basis[s].name}": str(M.entries[(t, s)])
                for t, s in sorted(M.entries) if M.entries[(t, s)].has_terms()
            }
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
