"""The numerical CP^N transport kept as a test oracle.

``eqcartan.morse.parallel_transport`` reads alpha in closed form from the
phases of the start point, because the round connection form vanishes on
the flow lines.  This module is the integrator that closed form replaced:
trajectories of the flow

    s . (w_0, w_1, ..., w_N) = (w_0, e^{-2s} w_1, ..., e^{-2Ns} w_N)

are sampled in closed form and renormalized per sample, with magnitudes
tracked in the log domain so long durations do not underflow before
normalization; the horizontal-lift phase theta' = -Im<c, c'> is integrated
with fourth-order differences and a composite Simpson rule on the sample
grid, after a gauge loop that makes consecutive samples in phase.
``test_morse.py`` asserts that the closed form and this integral give the
same endpoints and the same alpha on random starts.

It needs numpy, which only the tests install.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


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


def _flow_at(start: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Renormalized flow images, one row per time, computed stably in the
    log domain."""
    nz = np.nonzero(start)[0]
    logmag = np.full((len(times), len(start)), -np.inf)
    logmag[:, nz] = np.log(np.abs(start[nz])) - 2 * np.outer(times, nz)
    phase = np.zeros(len(start))
    phase[nz] = np.angle(start[nz])
    mags = np.exp(logmag - logmag.max(axis=1, keepdims=True))
    w = mags * np.exp(1j * phase)
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def integrate_flow(start: ProjectivePoint, duration: float,
                   samples: int = 2048) -> FlowTrajectory:
    """Closed-form trajectory from s = 0 to s = duration."""
    if start.critical_index() is not None:
        k = start.critical_index()
        times = np.array([0.0, duration])
        pts = np.array([start.w, start.w])
        return FlowTrajectory(times, pts, k, k, stationary=True)
    times = np.linspace(0.0, duration, samples + 1)
    pts = _flow_at(start.w, times)
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
