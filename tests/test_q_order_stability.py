"""Raising the q-order never changes a certified answer.

README promises that raising ``EQCARTAN_Q_ORDER`` only turns "undetermined"
into an answer.  On seeded multi-term families (every pair coefficient a
unit 1 +- q +- 2q^3 times a q-power, conjugated by multi-term factors, with
surviving classes and u-torsion), the Betti numbers, the free ranks and
torsion orders over Lambda[[u]] and the solvability of the iota equation
must agree at every q-order where they are certified, and the verified
q-order of a certificate must never go down as the q-order goes up.

The same holds for the u-order (``EquivariantDifferential.order``, which
``EQCARTAN_U_ORDER`` sets): on the same families, compared at the orders
both runs computed.
"""

import random

import pytest

from conftest import normal_form_differential
from eqcartan.cartan import (EquivariantDifferential, flatten_equivariant,
                             solve_iota)
from eqcartan.complexes import (GradedComplex, cohomology_over_novikov_field,
                                u_module_decomposition)
from eqcartan.linalg import UndeterminedError
from eqcartan.novikov import ScalarSetup

Q_ORDERS = (16, 32, 64, 128)


def _certified(fn):
    """fn() or None when it is undetermined at this q-order."""
    try:
        return fn()
    except UndeterminedError:
        return None


def _answers(diff, q_order):
    """Each answer with its verified q-order index (None = exact)."""
    C = GradedComplex(diff.setup, diff.grading, diff.basis,
                      diff.components[0])

    def betti():
        rep = cohomology_over_novikov_field(C, q_order)
        return ({k: e["betti"] for k, e in rep["degrees"].items()},
                rep["certificate"]["verified_q_order_index"])

    def u_module():
        rep = u_module_decomposition(diff.as_operator(),
                                     analysis_order=diff.order,
                                     grading=diff.grading, q_order=q_order)
        return rep.per_degree, rep.verified_q_order_index

    def iota():
        _, obstruction = solve_iota(diff, q_order=q_order)
        return None if obstruction is None else obstruction["order"], None

    return {"betti": _certified(betti), "u_module": _certified(u_module),
            "iota_obstruction": _certified(iota)}


def _not_lower(a, b):
    """Verified index b (at the higher q-order) is no lower than a."""
    if b is None:
        return True
    return a is not None and b >= a


def _family(ring, seed, exact=False):
    """The seeded family; ``exact`` builds the same draws without cutting
    the conjugated components at the drawn u-order, so that d_eq squares to
    zero at every u-order."""
    rng = random.Random(seed)
    n_free = rng.randint(0, 2)
    n_torsion = rng.randint(0 if n_free else 1, 2)
    n_acyclic = rng.randint(0, 2)
    order = rng.randint(3, 4)
    return normal_form_differential(rng, ScalarSetup.make(1, ring), n_free,
                                    n_torsion, n_acyclic,
                                    U_ORDER_HEADROOM if exact else order)


@pytest.mark.parametrize("ring", ["Q", "F5"])
@pytest.mark.parametrize("seed", range(10))
def test_raising_q_order_never_changes_a_certified_answer(ring, seed):
    diff = _family(ring, seed)
    runs = [_answers(diff, q) for q in Q_ORDERS]
    # the largest budget decides everything on these families
    assert all(v is not None for v in runs[-1].values())
    for name in runs[-1]:
        certified = [(q, run[name]) for q, run in zip(Q_ORDERS, runs)
                     if run[name] is not None]
        for (q_lo, (ans_lo, ver_lo)), (q_hi, (ans_hi, ver_hi)) in zip(
                certified, certified[1:]):
            assert ans_hi == ans_lo, (name, q_lo, q_hi)
            assert _not_lower(ver_lo, ver_hi), (name, q_lo, q_hi)


# above the largest u-degree the conjugations of a family can reach
# (torsion u^2 plus u^2 per conjugation, at most three conjugations)
U_ORDER_HEADROOM = 12


def _u_answers(diff, order):
    d = EquivariantDifferential(diff.setup, diff.grading, diff.basis,
                                diff.components, order)
    rep = u_module_decomposition(d.as_operator(), analysis_order=order,
                                 grading=d.grading)
    _, obstruction = solve_iota(d)
    betti = {k: e["betti"] for k, e in cohomology_over_novikov_field(
        flatten_equivariant(d))["degrees"].items()}
    return rep.per_degree, obstruction, betti


@pytest.mark.parametrize("ring", ["Q", "F5"])
@pytest.mark.parametrize("seed", range(10))
def test_raising_u_order_never_changes_a_certified_answer(ring, seed):
    diff = _family(ring, seed, exact=True)
    lo = len(diff.components)  # the smallest order the family allows
    hi = lo + 2
    dec_lo, obs_lo, betti_lo = _u_answers(diff, lo)
    dec_hi, obs_hi, betti_hi = _u_answers(diff, hi)

    # torsion orders below the smaller u-order, and the free ranks
    for k in set(dec_lo) | set(dec_hi):
        e_lo = dec_lo.get(k, {"free_rank": 0, "torsion_orders": []})
        e_hi = dec_hi.get(k, {"free_rank": 0, "torsion_orders": []})
        assert e_lo["free_rank"] == e_hi["free_rank"], k
        assert e_lo["torsion_orders"] == [
            j for j in e_hi["torsion_orders"] if j < lo], k

    # iota solvability at the orders both runs solved (k < lo)
    if obs_lo is not None:
        assert obs_hi is not None and obs_hi["order"] == obs_lo["order"]
    else:
        assert obs_hi is None or obs_hi["order"] >= lo

    # Betti numbers of C (x) Lambda[u]/u^N: a free summand contributes N in
    # its degree and a torsion summand Lambda[u]/u^j contributes min(j, N)
    # to each parity, so with every pivot decided the Betti number less N
    # times the free rank must not depend on N
    if not any(e["undetermined"] for e in (*dec_lo.values(),
                                           *dec_hi.values())):
        for k in set(betti_lo) | set(betti_hi):
            free = dec_hi.get(k, {"free_rank": 0})["free_rank"]
            assert (betti_lo.get(k, 0) - lo * free
                    == betti_hi.get(k, 0) - hi * free), k
