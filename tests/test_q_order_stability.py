"""Raising the q-order never changes a certified answer.

README promises that raising ``EQCARTAN_Q_ORDER`` only turns "undetermined"
into an answer.  On seeded multi-term families (every pair coefficient a
unit 1 +- q +- 2q^3 times a q-power, conjugated by multi-term factors, with
surviving classes and u-torsion), the Betti numbers, the free ranks and
torsion orders over Lambda[[u]] and the solvability of the iota equation
must agree at every q-order where they are certified, and the verified
q-order of a certificate must never go down as the q-order goes up.
"""

import random

import pytest

from conftest import normal_form_differential
from eqcartan.cartan import solve_iota
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


@pytest.mark.parametrize("ring", ["Q", "F5"])
@pytest.mark.parametrize("seed", range(10))
def test_raising_q_order_never_changes_a_certified_answer(ring, seed):
    rng = random.Random(seed)
    n_free = rng.randint(0, 2)
    n_torsion = rng.randint(0 if n_free else 1, 2)
    diff = normal_form_differential(rng, ScalarSetup.make(1, ring), n_free,
                                    n_torsion, rng.randint(0, 2),
                                    rng.randint(3, 4))
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
