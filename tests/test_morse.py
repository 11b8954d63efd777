import math

import numpy as np
import pytest

from eqcartan.novikov import InputError
from eqcartan.morse import (
    ProjectivePoint,
    additivity_report,
    alpha1_winding,
    flow_line_p1,
    integrate_flow,
    parallel_transport,
    weight_matrix_facts,
)


# -- the gradient flow ---------------------------------------------------------


def test_flow_preserves_normalization():
    start = flow_line_p1(0.3)
    traj = integrate_flow(start, 10.0, samples=256)
    norms = np.linalg.norm(traj.samples, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_flow_converges_to_bottom_critical_point():
    start = flow_line_p1(0.7)
    traj = integrate_flow(start, 20.0, samples=512)
    end = traj.samples[-1]
    assert abs(abs(end[0]) - 1.0) < 1e-6


def test_critical_point_is_stationary():
    w = np.zeros(3, dtype=complex)
    w[1] = 1.0
    traj = integrate_flow(ProjectivePoint(w), 5.0, samples=64)
    assert np.allclose(traj.samples[0], traj.samples[-1])


def test_distance_to_critical_is_stable_for_tiny_components():
    # the off-coordinate mass must not be lost to cancellation
    w = np.array([1e-8, math.sqrt(1 - 1e-16), 0.0], dtype=complex)
    p = ProjectivePoint(w)
    assert p.distance_to_critical(1) == pytest.approx(1e-8, rel=1e-3)


# -- parallel transport --------------------------------------------------------


@pytest.mark.parametrize("phase", [0.0, 0.2, 0.45, 0.8])
def test_transport_matches_round_connection_phase(phase):
    # along a flow line the connection keeps phases constant, so the
    # transport compares arg w_0 with arg w_k at the endpoints
    w = np.array([math.sqrt(0.5),
                  math.sqrt(0.5) * np.exp(2j * math.pi * phase)],
                 dtype=complex)
    traj = integrate_flow(ProjectivePoint(w), 20.0, samples=2048)
    out = parallel_transport(traj)
    expected = (-phase) % 1.0
    assert min(abs(out["alpha"] - expected),
               abs(out["alpha"] - expected + 1),
               abs(out["alpha"] - expected - 1)) < 1e-6 \
        or min(abs(out["alpha"] - phase),
               abs(out["alpha"] - phase + 1),
               abs(out["alpha"] - phase - 1)) < 1e-6


def test_transport_reports_projection_bound():
    traj = integrate_flow(flow_line_p1(0.3), 20.0, samples=512)
    out = parallel_transport(traj)
    assert out["projection_bound"] >= 0


# -- the winding number --------------------------------------------------------


def test_alpha1_winding_is_one():
    out = alpha1_winding(grid=64)
    assert out["abs_winding"] == 1
    assert out["residual"] < 0.01


def test_alpha1_winding_coarse_grid_agrees():
    out = alpha1_winding(grid=32, samples=512)
    assert out["abs_winding"] == 1


@pytest.mark.parametrize("grid", [0, -3])
def test_alpha1_winding_rejects_an_empty_grid(grid):
    with pytest.raises(InputError):
        alpha1_winding(grid=grid)


@pytest.mark.parametrize("delta", [0.0, -1e-2, math.nan, math.inf])
def test_additivity_rejects_a_bad_breaking_distance(delta):
    with pytest.raises(InputError):
        additivity_report([1e-2, delta])


# -- concatenation additivity --------------------------------------------------


def test_additivity_errors_decrease():
    out = additivity_report()
    errs = [e["error"] for e in out["rows"]]
    assert out["monotone_decreasing"]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3


def test_additivity_error_carries_documented_bound():
    out = additivity_report(deltas=(1e-2,))
    entry = out["rows"][0]
    assert entry["error"] >= entry["delta"] ** 2


# -- exact weight facts --------------------------------------------------------


def test_weight_matrix_facts():
    out = weight_matrix_facts()
    assert out["composition_matrix"] == [[0, 1], [1, 1]]
    assert out["composition_matches"]
    assert out["determinant"] == -1
    assert out["kernel_vector"] == [1, -1]
    assert out["subgroup_weights"] == [1, -1]
