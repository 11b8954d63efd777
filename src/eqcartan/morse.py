"""Morse-flow transport and integer weight facts on small projective spaces.

The flow on CP^N is the projectivization of the explicit linear flow

    s . (w_0, w_1, ..., w_N) = (w_0, e^{-2s} w_1, ..., e^{-2Ns} w_N),

whose critical points are the coordinate lines c_0, ..., c_N.  A flow line
runs from c_k, k the last nonzero coordinate of a point on it, to c_j, j the
first.

``parallel_transport`` computes the circle element alpha comparing the
canonical fibre identifications at the two endpoint critical points, for
the round connection on the unit-sphere bundle: the horizontal lift
satisfies theta' = -Im<c, c'>.  The flow scales each coordinate by a
positive real, so on the normalized curve every c_k' is a real multiple of
c_k, Im<c, c'> = 0, and the lift keeps every phase.  alpha is therefore the
closed form (arg w_j - arg w_k) / 2 pi mod 1, read from the start point with
no sampling and no integration error.

``weight_matrix_facts`` is exact integer arithmetic only.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

from .novikov import InputError

__all__ = ["parallel_transport", "alpha1_winding", "additivity_report",
           "weight_matrix_facts"]


def parallel_transport(w: Sequence[complex]) -> dict:
    """Circle element (in R/Z) comparing the endpoint fibre identifications
    of the flow line through the homogeneous coordinates ``w``.

    The lift starts at the canonical point over the start critical fibre
    c_start (coordinate ``start`` real positive) and keeps every phase, so
    alpha is the phase of coordinate ``end`` in that gauge.  A point with one
    nonzero coordinate is critical, its own flow line, with alpha 0.
    """
    nonzero = [k for k, z in enumerate(w) if z != 0]
    if not nonzero:
        raise ValueError("zero vector is not a projective point")
    start, end = nonzero[-1], nonzero[0]
    turn = cmath.phase(w[end]) - cmath.phase(w[start])
    return {"alpha": (turn / (2 * math.pi)) % 1.0,
            "start": start, "end": end}


def _circle_diff(a: float, b: float) -> float:
    """a - b wrapped to (-1/2, 1/2]."""
    d = (a - b) % 1.0
    return d if d <= 0.5 else d - 1.0


def flow_line_p1(r: float) -> list:
    """Start point of the standard first-stratum family (e^{2 pi i r} : 1)."""
    return [cmath.exp(2j * math.pi * r), 1.0]


def alpha1_winding(grid: int = 64) -> dict:
    """Winding number of r -> alpha_1(v_r) over a uniform r-grid.

    The family v_r(s) = (e^{2 pi i r} : e^{-2s} : 0 ...) runs from c_1 to
    c_0; the accumulated wrapped phase difference over a full r-circle is
    the degree of alpha_1 (recorded with its sign).  Fewer than two grid
    points cannot resolve a winding.
    """
    if grid < 2:
        raise InputError(f"grid must be an integer >= 2, got {grid}")
    alphas = [parallel_transport(flow_line_p1(i / grid))["alpha"]
              for i in range(grid)]
    total = sum(_circle_diff(alphas[(i + 1) % grid], alphas[i])
                for i in range(grid))
    winding = round(total)
    return {
        "grid": grid,
        "winding": int(winding),
        "abs_winding": abs(int(winding)),
        "residual": abs(total - winding),
        "orientation_convention": "r increases counterclockwise in the "
                                  "first homogeneous coordinate",
    }


def additivity_report(deltas: Sequence[float] = (1e-2, 1e-3, 1e-4)) -> dict:
    """Transport additivity across a near-broken trajectory in CP^2.

    A trajectory from c_2 to c_0 with first coordinate of size delta^2
    passes within ~delta of c_1.  Its transport is compared against the sum
    over the two limit pieces (c_2 -> c_1 and c_1 -> c_0).  With the closed
    form the measured defect is 0 up to rounding; the reported error adds
    the documented delta^2 bound of the breaking, which dominates it and
    decreases strictly with delta.

    Each delta must satisfy 0 < delta < 1 with delta^2 > 0 (a delta^2 that
    underflows makes the whole trajectory the c_2 -> c_1 piece), and the
    list must decrease strictly.
    """
    for delta in deltas:
        if not (0 < delta < 1 and delta * delta > 0):
            raise InputError("breaking distance must satisfy 0 < delta < 1 "
                             f"with delta^2 > 0, got {delta}")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise InputError("breaking distances must decrease strictly, got "
                         f"{list(deltas)}")
    phases = (0.23, 0.61, 0.87)  # arbitrary fixed nontrivial fibre phases
    e0, e1, e2 = (cmath.exp(2j * math.pi * p) for p in phases)
    alpha_a = parallel_transport([0.0, e1, e2])["alpha"]  # c_2 -> c_1
    rows = []
    for delta in deltas:
        eps = delta * delta
        alpha_whole = parallel_transport([eps * e0, e1, e2])["alpha"]
        alpha_b = parallel_transport([eps * e0, e1, 0.0])["alpha"]  # c_1 -> c_0
        defect = abs(_circle_diff(alpha_whole, alpha_a + alpha_b))
        rows.append({
            "delta": delta,
            "alpha_whole": alpha_whole,
            "alpha_pieces_sum": (alpha_a + alpha_b) % 1.0,
            "measured_defect": defect,
            "projection_bound": eps,
            "error": defect + eps,
        })
    errors = [r["error"] for r in rows]
    return {
        "rows": rows,
        "monotone_decreasing": all(a > b for a, b in zip(errors, errors[1:])),
        "finest_error": errors[-1],
    }


# -- exact integer facts ------------------------------------------------------


def _mat2_mul(A, B):
    return [
        [A[0][0] * B[0][0] + A[0][1] * B[1][0],
         A[0][0] * B[0][1] + A[0][1] * B[1][1]],
        [A[1][0] * B[0][0] + A[1][1] * B[1][0],
         A[1][0] * B[0][1] + A[1][1] * B[1][1]],
    ]


def _mat2_inv_exact(A):
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    if abs(det) != 1:
        raise ValueError("matrix is not in GL_2(Z)")
    return [[A[1][1] // det, -A[0][1] // det],
            [-A[1][0] // det, A[0][0] // det]]


def weight_matrix_facts() -> dict:
    """Exact integer content of the two low-dimensional homology lemmas.

    (a) Torus weights (0,1,-1) and (1,-1,0) on the two boundary factors:
    the circle direction (0,1,0) acts with weights (1,-1), so the class
    (1,-1) comes from a contractible orbit and lies in the kernel of the
    (diagonal) boundary map (a,b) -> a + b.

    (b) The composition (1 -1; 1 0) . (0 1; 1 -1)^(-1) of the two
    identification matrices equals (0 1; 1 1), with determinant -1.
    """
    w_factor_1 = (0, 1, -1)
    w_factor_2 = (1, -1, 0)
    direction = (0, 1, 0)
    subgroup_weights = (
        sum(a * b for a, b in zip(w_factor_1, direction)),
        sum(a * b for a, b in zip(w_factor_2, direction)),
    )
    kernel_vector = subgroup_weights  # (1, -1): the contractible orbit class
    # the onto diagonal map Z^2 -> Z with (1,-1) in its kernel is (a,b) -> a+b
    annihilated = kernel_vector[0] + kernel_vector[1] == 0
    A = [[1, -1], [1, 0]]
    B = [[0, 1], [1, -1]]
    X = _mat2_mul(A, _mat2_inv_exact(B))
    det = X[0][0] * X[1][1] - X[0][1] * X[1][0]
    return {
        "subgroup_weights": list(subgroup_weights),
        "kernel_vector": list(kernel_vector),
        "kernel_vector_annihilated": annihilated,
        "composition_matrix": X,
        "composition_expected": [[0, 1], [1, 1]],
        "composition_matches": X == [[0, 1], [1, 1]],
        "determinant": det,
        "in_GL2Z": abs(det) == 1,
    }
