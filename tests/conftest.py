import random

import pytest

from eqcartan.novikov import NovikovElem, ScalarSetup
from eqcartan.complexes import GeneratorInfo, GradingKind, OperatorMatrix
from eqcartan.cartan import EquivariantDifferential


@pytest.fixture
def setup_q():
    return ScalarSetup.make(1, "Q")


@pytest.fixture
def setup_f2():
    return ScalarSetup.make(1, "F2")


@pytest.fixture
def setup_f5():
    return ScalarSetup.make(1, "F5")


def densify(x, n, zero):
    """A sparse vector ({column: value}, as ``linalg.solve`` returns and
    ``Reduction._kernel`` builds) as a dense list of n entries, zero where
    it stores nothing."""
    return [x.get(c, zero) for c in range(n)]


def assert_transform_multiplies(red, rows):
    """scaled_transform @ rows = scaled, checked by multiplication on the
    undivided rows: the difference keeps no visible term (on exact input
    it is exactly zero).  ``rows`` are the reduced input, dense lists or
    {column: entry} dicts."""
    zero = red.setup.zero()
    rows = [row if isinstance(row, dict) else dict(enumerate(row))
            for row in rows]
    assert len(red.scaled_transform) == len(red.scaled) == len(rows)
    for u, want in zip(red.scaled_transform, red.scaled):
        got = {}
        for k, x in u.items():
            for c, e in rows[k].items():
                got[c] = got.get(c, zero) + x * e
        for c in set(got) | set(want):
            assert not (got.get(c, zero) - want.get(c, zero)).has_terms()


def divided_transform(red):
    """``red.scaled_transform`` with each pivot row divided by its pivot
    entry as ``Reduction.reduced`` is: the transform that divides by its
    pivots, as a reference elimination holds it."""
    return [{c: red._divide(r, e) for c, e in row.items()}
            for r, row in enumerate(red.scaled_transform)]


def via_block(fn, basis, vec, zero):
    """fn, a map of blocks, on one vector: vec as the single column of an
    OperatorMatrix over basis, and the column of fn's result back as a list
    with zero where it stores nothing."""
    out = fn(OperatorMatrix((GeneratorInfo("v"),), basis,
                            {(i, 0): v for i, v in enumerate(vec)}))
    return [out.entries.get((i, 0), zero) for i in range(len(out.target))]


# -- randomized equivariant differentials -------------------------------------
#
# Start from a pairing differential d0 (x_i -> y_i with a nonzero Novikov
# coefficient) and conjugate by nilpotent elementary factors id + u^j f E_ab.
# Conjugation preserves d_eq^2 = 0 exactly, so every output is a valid
# equivariant differential; we reject draws whose top components exceed K = 3.


def _conjugate_components(comps, j, f, a, b, setup, order):
    """Components of (1 + u^j f E_ab) d (1 - u^j f E_ab), truncated at order:
    u^j [E, d_k] is added at k + j and u^2j E d_k E subtracted at k + 2j."""
    n = len(comps[0])
    z = setup.zero()
    zero = [[z] * n for _ in range(n)]
    out = [[row[:] for row in (comps[k] if k < len(comps) else zero)]
           for k in range(order)]
    basis = tuple(GeneratorInfo(str(i)) for i in range(n))
    E = OperatorMatrix(basis, basis, {(a, b): f})
    for k, d_k in enumerate(comps):
        d = OperatorMatrix(basis, basis, {
            (t, s): v for t, row in enumerate(d_k) for s, v in enumerate(row)})
        Ed = E.compose(d)
        if k + j < order:
            M = out[k + j]
            for (t, s), v in (Ed - d.compose(E)).entries.items():
                M[t][s] = M[t][s] + v
        if k + 2 * j < order:
            M = out[k + 2 * j]
            for (t, s), v in Ed.compose(E).entries.items():
                M[t][s] = M[t][s] - v
    return out


def _coeff(rng, setup):
    """A random nonzero coefficient: 1..p-1 over F_p, else 1, 2, 3, -1 or -2."""
    if setup.ring.kind == "Fp":
        return rng.randint(1, setup.ring.modulus - 1)
    return rng.choice([1, 2, 3, -1, -2])


def random_equivariant_differential(rng: random.Random, setup,
                                    max_gens: int = 8, order: int = 5,
                                    max_k: int = 3):
    """A valid randomized EquivariantDifferential with K <= max_k, N = order."""
    npairs = rng.randint(1, max_gens // 2)
    n = 2 * npairs
    basis = []
    for i in range(npairs):
        basis.append(GeneratorInfo(f"x{i}", 1))
        basis.append(GeneratorInfo(f"y{i}", 0))
    z = setup.zero()
    d0 = [[z] * n for _ in range(n)]
    for i in range(npairs):
        c = rng.choice([1, 2, 3, -1]) if setup.ring.kind != "Fp" \
            else rng.randint(1, setup.ring.modulus - 1)
        e = rng.randint(0, 3)
        d0[2 * i + 1][2 * i] = setup.monomial(c, e)
    comps = [d0]
    for _ in range(rng.randint(1, 3) if npairs > 1 else 0):
        for _attempt in range(20):
            j = rng.randint(1, 2)
            # conjugating factors preserve the mod-2 grading: a and b are
            # generators of equal parity (u^j carries even degree)
            parity = rng.randint(0, 1)
            a, b = rng.sample(range(parity, n, 2), 2)
            c = rng.choice([1, 2, -1]) if setup.ring.kind != "Fp" \
                else rng.randint(1, setup.ring.modulus - 1)
            f = setup.monomial(c, rng.randint(0, 2))
            cand = _conjugate_components(comps, j, f, a, b, setup, order)
            while cand and all(not e for row in cand[-1] for e in row):
                cand.pop()
            if len(cand) - 1 <= max_k:
                comps = cand
                break
    entries = [
        {(t, s): M[t][s] for t in range(n) for s in range(n) if M[t][s]}
        for M in comps
    ]
    return EquivariantDifferential.build(
        setup, GradingKind("Z/2"), basis, entries, order=order)


def free_pair_differential(rng: random.Random, setup):
    """random_equivariant_differential's pairs (at most six generators,
    u-order 4) beside two free generators f0 -> f1 joined only by u c q^e
    with e in 0..2, so d_eq^2 = 0 still.

    d_0 vanishes on f0 and f1, so the order-2 equation of ``solve_iota`` at
    entry (f1, f0) reads q^w c e q^(e-1) = c q^e (iota_1[f0, f0] -
    iota_1[f1, f1]).  The order-1 solution ``solve_iota`` keeps vanishes on
    f0 and f1, so it reports an obstruction at order 2 exactly on the
    draws with e != 0 (iota_1[f0, f0] = e q^(w-1) would have solved it).
    """
    diff = random_equivariant_differential(rng, setup, 6, 4)
    n = diff.n
    comps = [dict(op.entries) for op in diff.components]
    if len(comps) < 2:
        comps.append({})
    c = (rng.randint(1, setup.ring.modulus - 1) if setup.ring.kind == "Fp"
         else rng.choice([1, 2, -1]))
    comps[1][(n + 1, n)] = setup.monomial(c, rng.randint(0, 2))
    basis = diff.basis + (GeneratorInfo("f0", 1), GeneratorInfo("f1", 0))
    return EquivariantDifferential.build(setup, diff.grading, basis, comps,
                                         order=diff.order)


def multi_term_unit(rng: random.Random, setup):
    """1 +- q +- 2q^3: a unit whose truncated inverse fills the q-budget."""
    c = setup.one()
    for coeff, e in ((1, 1), (2, 3)):
        c = c + setup.monomial(rng.choice([coeff, -coeff]), e)
    return c


def normal_form_differential(rng: random.Random, setup, n_free: int,
                             n_torsion: int, n_acyclic: int, order: int):
    """Free generators, u^j-torsion pairs and acyclic pairs, conjugated by
    factors 1 + u f E_ab with multi-term f; every pair coefficient is a
    multi-term unit times a random q-power.

    Free generators survive in the cohomology of d_0 and as free summands;
    a torsion pair x -> u^j c y gives Lambda[u]/u^j, so some classes of d_0
    survive only to be killed at u-order j.
    """
    basis = []
    pairs = []
    for i in range(n_free):
        basis.append(GeneratorInfo(f"f{i}", i % 2))
    for i in range(n_torsion + n_acyclic):
        basis.append(GeneratorInfo(f"x{i}", 1))
        basis.append(GeneratorInfo(f"y{i}", 0))
        j = rng.randint(1, min(2, order - 1)) if i < n_torsion else 0
        pairs.append((len(basis) - 2, len(basis) - 1, j))
    n = len(basis)
    z = setup.zero()
    comps = [[[z] * n for _ in range(n)]
             for _ in range(max([j for _, _, j in pairs] + [0]) + 1)]
    for s, t, j in pairs:
        comps[j][t][s] = (multi_term_unit(rng, setup)
                          * setup.monomial(1, rng.randint(-1, 2)))
    for _ in range(n_free + 1):
        # a and b of equal parity keep the Z/2 grading (u is even)
        parity = rng.randint(0, 1)
        same = [i for i, g in enumerate(basis) if g.index % 2 == parity]
        if len(same) < 2:
            continue
        a, b = rng.sample(same, 2)
        comps = _conjugate_components(comps, 1, multi_term_unit(rng, setup),
                                      a, b, setup, order)
        while len(comps) > 1 and all(not e for row in comps[-1] for e in row):
            comps.pop()
    entries = [
        {(t, s): M[t][s] for t in range(n) for s in range(n) if M[t][s]}
        for M in comps
    ]
    return EquivariantDifferential.build(
        setup, GradingKind("Z/2"), basis, entries, order=order)


def multi_term_differential(rng, setup, npairs, order):
    """Pairs x_i -> y_i with multi-term coefficients, conjugated by
    multi-term elementary factors, so solving inverts truncated series."""
    n = 2 * npairs
    basis = []
    for i in range(npairs):
        basis += [GeneratorInfo(f"x{i}", 1), GeneratorInfo(f"y{i}", 0)]
    z = setup.zero()
    d0 = [[z] * n for _ in range(n)]
    for i in range(npairs):
        d0[2 * i + 1][2 * i] = NovikovElem.build(
            setup, [(0, _coeff(rng, setup)), (1, _coeff(rng, setup)),
                    (3, _coeff(rng, setup))])
    comps = [d0]
    for _ in range(2):
        a, b = rng.sample(range(rng.randint(0, 1), n, 2), 2)
        f = NovikovElem.build(setup, [(0, _coeff(rng, setup)),
                                      (2, _coeff(rng, setup))])
        comps = _conjugate_components(comps, 1, f, a, b, setup, order)
        while len(comps) > 1 and all(not e for row in comps[-1] for e in row):
            comps.pop()
    entries = [{(t, s): M[t][s] for t in range(n) for s in range(n) if M[t][s]}
               for M in comps]
    return EquivariantDifferential.build(setup, GradingKind("Z/2"), basis,
                                         entries, order=order)
