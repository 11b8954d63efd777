"""Seeded input generators for the benchmark, each with the expectation its
construction fixes.

Every generator takes a ``random.Random`` (or an index into an exhaustive
enumeration) and returns program objects plus the verdict the benchmark
expects.  Nothing here is timed: inputs are built before an instance starts
and expectations are derived from the construction, never from the program's
answer.  The constructions are the ones the test-suite uses (conjugation of a
normal form by nilpotent elementary factors, homotopy-built characteristic-2
systems, the CP^n quantum ring), re-implemented here so that the benchmark
does not import the tests.
"""

from __future__ import annotations

import itertools
import random

from eqcartan.cartan import CartanData, EquivariantDifferential
from eqcartan.complexes import GeneratorInfo, GradingKind, OperatorMatrix
from eqcartan.finite2 import Z2CartanData
from eqcartan.novikov import ScalarSetup, USeries, dq
from eqcartan.quantum import projective_space_model

SETUP_Q = ScalarSetup.make(1, "Q")
SETUP_F5 = ScalarSetup.make(1, "F5")
SETUP_F2 = ScalarSetup.make(1, "F2")
Z2 = GradingKind("Z/2")


# -- dense Novikov matrices ---------------------------------------------------


def _mat_mul(A, B, z):
    n = len(A)
    out = [[z] * n for _ in range(n)]
    for t in range(n):
        for m in range(n):
            if A[t][m]:
                for s in range(n):
                    if B[m][s]:
                        out[t][s] = out[t][s] + A[t][m] * B[m][s]
    return out


def _mat_add(*Ms):
    out = Ms[0]
    for M in Ms[1:]:
        out = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(out, M)]
    return out


def _anti(A, B, z):
    return _mat_add(_mat_mul(A, B, z), _mat_mul(B, A, z))


def _entries(M):
    return {(t, s): e for t, row in enumerate(M) for s, e in enumerate(row)
            if e}


def _conjugate(comps, j, f, a, b, setup, order):
    """Components of (1 + u^j f E_ab) d (1 - u^j f E_ab), truncated at order.

    The factor is invertible mod u^order with inverse 1 - u^j f E_ab (as
    E_ab^2 = 0 for a != b), so d_eq^2 = 0 and the Lambda[u]-module structure
    (free rank, torsion orders, cohomology) are preserved exactly.
    """
    n = len(comps[0])
    z = setup.zero()
    zero = [[z] * n for _ in range(n)]
    out = [[row[:] for row in (comps[k] if k < len(comps) else zero)]
           for k in range(order)]
    E = [[z] * n for _ in range(n)]
    E[a][b] = f
    for k, d_k in enumerate(comps):
        Ed = _mat_mul(E, d_k, z)
        dE = _mat_mul(d_k, E, z)
        EdE = _mat_mul(Ed, E, z)
        if k + j < order:
            M = out[k + j]
            for t in range(n):
                for s in range(n):
                    M[t][s] = M[t][s] + Ed[t][s] - dE[t][s]
        if k + 2 * j < order:
            M = out[k + 2 * j]
            for t in range(n):
                for s in range(n):
                    M[t][s] = M[t][s] - EdE[t][s]
    return out


def _nonzero_coeff(rng, setup):
    if setup.ring.kind == "Fp":
        return rng.randint(1, setup.ring.modulus - 1)
    return rng.choice([1, 2, 3, -1])


def _monomial(rng, setup, max_exp):
    return setup.monomial(_nonzero_coeff(rng, setup), rng.randint(0, max_exp))


def _multi_term(rng, setup):
    """A unit of the Novikov field with three terms, 1 +- q +- 2q^3.

    The constant term is nonzero, so the truncated inverse is a genuine
    series that fills the whole q-order budget.  Only the signs are drawn:
    the exponents and magnitudes set how large the inverse's coefficients
    grow, and so the cost of every product with it."""
    c = setup.one()
    for coeff, e in ((1, 1), (2, 3)):
        c = c + setup.monomial(rng.choice([coeff, -coeff]), e)
    return c


def _differential(setup, basis, comps, order):
    return EquivariantDifferential.build(
        setup, Z2, basis, [_entries(M) for M in comps], order=order)


def _conjugate_randomly(rng, comps, basis, setup, order, rounds, max_k=3):
    """Apply ``rounds`` conjugations by 1 + u^j f E_ab, f a monomial, with
    a, b of equal degree (u^j is even, so the Z/2 grading is kept),
    rejecting draws whose top component index would exceed max_k."""
    by_parity = {0: [], 1: []}
    for i, g in enumerate(basis):
        by_parity[g.index % 2].append(i)
    for _ in range(rounds):
        for _attempt in range(20):
            a, b = rng.sample(by_parity[rng.randint(0, 1)], 2)
            cand = _conjugate(comps, rng.randint(1, 2),
                              _monomial(rng, setup, 2), a, b, setup, order)
            while cand and all(not e for row in cand[-1] for e in row):
                cand.pop()
            if len(cand) - 1 <= max_k:
                comps = cand
                break
    return comps


# -- cartan-sparse: acyclic conjugated pairings -------------------------------


def acyclic_differential(rng, setup, n, order=5, conjugations=2):
    """An acyclic d_eq on n = 2 * pairs >= 4 generators with monomial
    coefficients.

    d_0 pairs x_i -> y_i with c q^e, then ``conjugations`` conjugations by
    1 + u^j f E_ab at random positions, as in the test-suite's generator; the
    count is fixed so that instances of one size cost about the same.
    Acyclic, so: an iota always exists, the u-module is zero (free rank 0,
    no torsion) and no cohomology class survives.
    """
    npairs = n // 2
    basis = []
    for i in range(npairs):
        basis.append(GeneratorInfo(f"x{i}", 1))
        basis.append(GeneratorInfo(f"y{i}", 0))
    z = setup.zero()
    d0 = [[z] * n for _ in range(n)]
    for i in range(npairs):
        d0[2 * i + 1][2 * i] = _monomial(rng, setup, 3)
    comps = _conjugate_randomly(rng, [d0], basis, setup, order,
                                conjugations)
    return _differential(setup, basis, comps, order)


# -- classes-denseq: summands with surviving classes --------------------------


def normal_form(rng, setup, n_free, n_torsion, n_acyclic, order):
    """Free generators, u^j-torsion pairs and acyclic pairs, conjugated.

    Returns (diff, expected) where ``expected`` fixes, per displayed Z/2
    degree, the free rank and the sorted torsion orders.  A torsion pair
    x -> u^j c y with c a unit contributes Lambda[u]/u^j at the degree of y;
    an acyclic pair x -> c y contributes nothing.  Coefficients have three
    q-terms.

    The conjugations have a fixed shape: each free generator is linked to its
    own random pair while pairs last (E_{f,y} for an even f, E_{x,f} for an
    odd one: the factors between f and a pair that do not commute with d),
    and two pairs are linked by E_{x,x'}, each factor with u-power 1.  A
    random shape makes the cost of one instance vary tenfold (a factor that
    commutes with d changes nothing); with the shape fixed, the seed draws
    the pairs, the torsion orders and the coefficients' signs.
    """
    kinds = (["free"] * n_free + ["torsion"] * n_torsion
             + ["acyclic"] * n_acyclic)
    basis = []
    placed = []  # (kind, source position, target position, u power)
    n_free_seen = 0
    for i, kind in enumerate(kinds):
        if kind == "free":
            # alternate parities, so the Z/2 blocks have fixed sizes
            basis.append(GeneratorInfo(f"f{i}", n_free_seen % 2))
            n_free_seen += 1
            continue
        basis.append(GeneratorInfo(f"x{i}", 1))
        basis.append(GeneratorInfo(f"y{i}", 0))
        j = rng.randint(1, min(2, order - 1)) if kind == "torsion" else 0
        placed.append((kind, len(basis) - 2, len(basis) - 1, j))
    n = len(basis)
    z = setup.zero()
    top = max([j for _, _, _, j in placed] + [0])
    comps = [[[z] * n for _ in range(n)] for _ in range(top + 1)]
    expected = {}
    for g in basis:
        expected.setdefault(g.index % 2, {"free_rank": 0,
                                          "torsion_orders": []})
    for g in basis:
        if g.name.startswith("f"):
            expected[g.index % 2]["free_rank"] += 1
    for kind, s, t, j in placed:
        comps[j][t][s] = _multi_term(rng, setup)
        if kind == "torsion":
            expected[basis[t].index % 2]["torsion_orders"].append(j)
    for entry in expected.values():
        entry["torsion_orders"].sort()
    pairs = [(s, t) for _, s, t, _ in placed]
    links = []
    frees = [f for f, g in enumerate(basis) if g.name.startswith("f")]
    if pairs:
        partners = rng.sample(pairs, min(len(frees), len(pairs)))
        partners += [rng.choice(pairs) for _ in frees[len(partners):]]
        for f, (s, t) in zip(frees, partners):
            links.append((f, t) if basis[f].index % 2 == 0 else (s, f))
    if len(pairs) > 1:
        (s1, _), (s2, _) = rng.sample(pairs, 2)
        links.append((s1, s2))
    for a, b in links:
        comps = _conjugate(comps, 1, _multi_term(rng, setup), a, b, setup,
                           order)
        while len(comps) > 1 and all(not e for row in comps[-1] for e in row):
            comps.pop()
    return _differential(setup, basis, comps, order), {"per_degree": expected}


def cpn_lift(n, order, setup=SETUP_Q):
    """CP^n as a Cartan datum: d = 0, iota_0 = q * omega* (monotone regime).

    Returns (cartan_data, quantum_ring, expected) where expected maps each
    operator name to its closed-form matrix on the classes u^j e_i, in the
    order induced_connection lists them (by total degree 2(i + j), then by
    j).  With omega = (n+1) e_1 and the CP^n product table,

      Gamma_q(u^j e_i) = (n+1) u^j e_{i+1}                 (i < n)
                       = (n+1) q^(n+1) u^j e_0             (i = n)
      Gamma_u(u^j e_i) = 2(i + j) u^(j+1) e_i - 2 q Gamma_q(u^j e_i)

    with u^(j+1) terms dropped at j + 1 = order.  Matrix row c lists the
    coefficients of the image of class c; entries are (coefficient, q power).
    """
    Q = projective_space_model(n, setup)
    basis = Q.basis
    iota0 = {}
    for s in range(n + 1):
        if s < n:
            iota0[(s + 1, s)] = setup.monomial(n + 1, 1)
        else:
            iota0[(0, n)] = setup.monomial(n + 1, n + 2)
    diff = EquivariantDifferential.build(setup, GradingKind("Z"), basis,
                                         [{}], order=order)
    data = CartanData(diff, (OperatorMatrix(basis, basis, iota0, 2),),
                      "monotone")
    classes = sorted(((i + j, j, i) for j in range(order)
                      for i in range(n + 1)))
    pos = {(j, i): c for c, (_, j, i) in enumerate(classes)}
    gq, gu = [], []
    for _, j, i in classes:
        rq = {}
        ru = {}
        if i < n:
            rq[pos[(j, i + 1)]] = (n + 1, 0)
            ru[pos[(j, i + 1)]] = (-2 * (n + 1), 1)
        else:
            rq[pos[(j, 0)]] = (n + 1, n + 1)
            ru[pos[(j, 0)]] = (-2 * (n + 1), n + 2)
        if j + 1 < order and i + j:
            ru[pos[(j + 1, i)]] = (2 * (i + j), 0)
        gq.append(rq)
        gu.append(ru)
    return data, Q, {"gamma_q": gq, "gamma_u": gu, "classes": len(classes)}


# -- f2-sweep -----------------------------------------------------------------

R_NONZERO = [(c0, c1, c2) for c0 in (0, 1) for c1 in (0, 1) for c2 in (0, 1)
             if c0 or c1 or c2]
_CELLS = list(itertools.product(range(3), repeat=2))
_SUPPORTS = list(itertools.combinations(_CELLS, 3))
_VALUES = list(itertools.product(R_NONZERO, repeat=3))
SWEEP_SIZE = len(_SUPPORTS) * len(_VALUES)  # 84 * 343 = 28,812


def sweep_case(index):
    """Case ``index`` of the exhaustive 3x3, three-cell-support sweep over
    R = F2[u]/u^3: a 3x3 matrix of coefficient triples (c0, c1, c2)."""
    support = _SUPPORTS[index // len(_VALUES)]
    vals = _VALUES[index % len(_VALUES)]
    D = [[(0, 0, 0)] * 3 for _ in range(3)]
    for (t, s), v in zip(support, vals):
        D[t][s] = v
    return D


def sweep_rows(D):
    """The USeries matrix the program receives for sweep case D."""
    return [[USeries.build(SETUP_F2, 3,
                           [SETUP_F2.monomial(c, 0) if c else SETUP_F2.zero()
                            for c in cell])
             for cell in row] for row in D]


def z2_system(rng, npairs):
    """The seven-operator system over F2 on 2 * npairs generators, built
    from homotopies.

    With sigma = id + [d, A] and iota = c0 id + [d, B] (brackets are
    anticommutators in characteristic 2) the tower is generated by
    Sigma = AdA + AAd, xi = A iota + iota A, Xi = AA iota + A iota A.
    Even q-exponents in d make lambda = dq(d) vanish over F2, so every
    relation holds and both truncated certificates must hold.
    """
    setup = SETUP_F2
    n = 2 * npairs
    basis = tuple(GeneratorInfo(f"g{i}", i % 2) for i in range(n))
    z = setup.zero()
    ident = [[setup.one() if i == j else z for j in range(n)]
             for i in range(n)]
    d = [[z] * n for _ in range(n)]
    for i in range(npairs):
        d[2 * i + 1][2 * i] = setup.monomial(1, 2 * rng.randint(0, 2))

    def random_mat(density=0.5):
        return [[setup.monomial(1, rng.randint(-1, 2))
                 if rng.random() < density else z
                 for _ in range(n)] for _ in range(n)]

    A, B = random_mat(), random_mat()
    c0 = rng.randint(0, 1)
    iota = _mat_add([[e.scale(c0) for e in row] for row in ident],
                    _anti(d, B, z))
    lam = [[dq(e) for e in row] for row in d]
    sigma = _mat_add(ident, _anti(d, A, z))
    Sigma = _mat_add(_mat_mul(_mat_mul(A, d, z), A, z),
                     _mat_mul(_mat_mul(A, A, z), d, z))
    xi = _anti(A, iota, z)
    Xi = _mat_add(_mat_mul(_mat_mul(A, A, z), iota, z),
                  _mat_mul(_mat_mul(A, iota, z), A, z))
    return Z2CartanData.build(
        setup, basis, d=_entries(d), iota=_entries(iota), lam=_entries(lam),
        sigma=_entries(sigma), Sigma=_entries(Sigma), xi=_entries(xi),
        Xi=_entries(Xi))


# -- cli-docs: JSON documents -------------------------------------------------


def _scalar_text(x):
    """Novikov grammar text for an exact element over lattice generator 1,
    e.g. "3*q^0 - 1/2*q^2"."""
    text = ""
    for idx, c in x.terms:
        sign = "-" if c < 0 else "+"
        body = f"{abs(c)}*q^{idx}"
        text = (f"{text} {sign} {body}" if text
                else body if sign == "+" else f"-{body}")
    return text or "0"


def differential_document(diff):
    """A workbench document for an EquivariantDifferential: the complex
    block carries d_0, the d_family block every component."""
    names = [g.name for g in diff.basis]

    def entries(op):
        return [{"target": names[t], "source": names[s],
                 "value": _scalar_text(v)}
                for (t, s), v in sorted(op.entries.items())]

    ring = diff.setup.ring
    coeffs = "Q" if ring.kind == "Q" else f"F{ring.modulus}"
    return {
        "schema_version": 1,
        "scalar_setup": {"lattice_generator": "1", "coefficients": coeffs},
        "complex": {
            "grading": {"kind": "Z/2"},
            "generators": [{"name": g.name, "index": g.index}
                           for g in diff.basis],
            "differential": {"degree": 1,
                             "entries": entries(diff.components[0])},
        },
        "d_family": {"order": diff.order,
                     "components": [entries(op) for op in diff.components]},
    }


def seeded(seed, *salt):
    """An independent generator per (seed, salt) so that one instance's
    draws never shift another's."""
    return random.Random(f"{seed}:" + ":".join(str(s) for s in salt))
