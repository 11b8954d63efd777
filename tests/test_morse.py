import cmath
import math
import random

import numpy as np
import pytest

import morse_reference as numeric
from eqcartan.novikov import InputError
from eqcartan.morse import (
    _circle_diff,
    additivity_report,
    alpha1_winding,
    flow_line_p1,
    parallel_transport,
    weight_matrix_facts,
)


# -- the sampled flow of the reference integrator ------------------------------


def test_flow_preserves_normalization():
    start = numeric.ProjectivePoint(flow_line_p1(0.3))
    traj = numeric.integrate_flow(start, 10.0, samples=256)
    norms = np.linalg.norm(traj.samples, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_flow_converges_to_bottom_critical_point():
    start = numeric.ProjectivePoint(flow_line_p1(0.7))
    traj = numeric.integrate_flow(start, 20.0, samples=512)
    end = traj.samples[-1]
    assert abs(abs(end[0]) - 1.0) < 1e-6


def test_critical_point_is_stationary():
    w = np.zeros(3, dtype=complex)
    w[1] = 1.0
    traj = numeric.integrate_flow(numeric.ProjectivePoint(w), 5.0, samples=64)
    assert np.allclose(traj.samples[0], traj.samples[-1])


def test_distance_to_critical_is_stable_for_tiny_components():
    # the off-coordinate mass must not be lost to cancellation
    w = np.array([1e-8, math.sqrt(1 - 1e-16), 0.0], dtype=complex)
    p = numeric.ProjectivePoint(w)
    assert p.distance_to_critical(1) == pytest.approx(1e-8, rel=1e-3)


# -- parallel transport --------------------------------------------------------


def _random_start(rng):
    """N + 1 complex Gaussian coordinates, N = 1..5, each zero with
    probability 1/4, at least one nonzero."""
    n = rng.randint(2, 6)
    w = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) if rng.random() < 0.75
         else 0j for _ in range(n)]
    if not any(w):
        w[rng.randrange(n)] = cmath.exp(2j * math.pi * rng.random())
    return w


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_matches_the_integrated_round_connection(seed):
    # the integral of Im<c, c'> along the sampled flow (duration 12, 512
    # samples) reads the same endpoints and, within its error, the same alpha
    rng = random.Random(seed)
    for _ in range(60):
        w = _random_start(rng)
        want = numeric.parallel_transport(numeric.integrate_flow(
            numeric.ProjectivePoint(w), 12.0, samples=512))
        got = parallel_transport(w)
        assert (got["start"], got["end"]) == (want["start"], want["end"]), w
        assert abs(_circle_diff(got["alpha"], want["alpha"])) <= 1e-9, w


@pytest.mark.parametrize("phase", [0.0, 0.2, 0.45, 0.8])
def test_transport_matches_round_connection_phase(phase):
    # along a flow line the connection keeps phases constant, so the
    # transport from c_1 to c_0 reads arg w_0 - arg w_1 = -2 pi phase
    w = [math.sqrt(0.5), math.sqrt(0.5) * cmath.exp(2j * math.pi * phase)]
    out = parallel_transport(w)
    assert (out["start"], out["end"]) == (1, 0)
    assert abs(_circle_diff(out["alpha"], -phase)) < 1e-12


def test_a_critical_point_is_its_own_flow_line():
    w = [0.0, cmath.exp(0.7j), 0.0]
    assert parallel_transport(w) == {"alpha": 0.0, "start": 1, "end": 1}


def test_the_zero_vector_is_refused():
    with pytest.raises(ValueError, match="zero vector"):
        parallel_transport([0.0, 0j])


# -- the winding number --------------------------------------------------------


@pytest.mark.parametrize("grid", [64, 32, 2])
def test_alpha1_winding_is_one(grid):
    out = alpha1_winding(grid=grid)
    assert out["winding"] == 1
    assert out["abs_winding"] == 1
    assert out["residual"] < 0.01


@pytest.mark.parametrize("grid", [1, 0, -3])
def test_alpha1_winding_rejects_a_grid_below_two(grid):
    with pytest.raises(InputError):
        alpha1_winding(grid=grid)


@pytest.mark.parametrize("delta", [0.0, -1e-2, math.nan, math.inf, 1.0,
                                   1e300, 1e-200])
def test_additivity_rejects_a_bad_breaking_distance(delta):
    with pytest.raises(InputError):
        additivity_report([1e-2, delta])


@pytest.mark.parametrize("deltas", [[1e-3, 1e-2], [1e-2, 1e-2]])
def test_additivity_rejects_distances_that_do_not_decrease(deltas):
    with pytest.raises(InputError, match="decrease strictly"):
        additivity_report(deltas)


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
