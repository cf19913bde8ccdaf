import numpy as np
import pytest

from frnse.grid import GridSpec, from_spectral, random_band_limited, to_spectral, zero_field
from frnse.nonlinear import PhysParams
from frnse.propagate import free_phase
from frnse.trajectory import (NodeFields, Trajectory, dot_values, norm_law_residuals,
                              sup_h1_distance)


def test_trajectory_validation(gspec8, rng):
    f = random_band_limited(gspec8, rng)
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0], [f, f])  # not strictly increasing
    with pytest.raises(ValueError):
        Trajectory([0.0], [f, f])  # length mismatch
    other = zero_field(GridSpec(8, 2.0))
    with pytest.raises(ValueError):
        Trajectory([0.0, 1.0], [f, other])  # mixed grids
    traj = Trajectory([0.0, 0.5, 1.0], [f, f, f])
    assert len(traj) == 3
    assert traj.final() is traj.fields[-1]


def test_node_fields_built_when_read(gspec8, rng):
    # a Duhamel trajectory keeps coefficients: node j reads as the Field of
    # U_j e^{-i a1 t_j |k|^2}, bit for bit, node 0 as phi itself; a slice
    # is a view that builds nothing until read
    phi = random_band_limited(gspec8, rng)
    times = np.linspace(0.0, 0.3, 4)
    coeffs = [to_spectral(phi)] + [to_spectral(random_band_limited(gspec8, rng))
                                   for _ in times[1:]]
    traj = Trajectory(times, NodeFields(phi, times, coeffs, 0.7))
    assert len(traj) == 4 and traj.fields[0] is phi and traj.spec == gspec8
    for j in range(1, 4):
        want = from_spectral(gspec8, coeffs[j] * free_phase(gspec8, times[j], 0.7))
        assert np.array_equal(traj.fields[j].values, want.values)
    assert np.array_equal(traj.final().values, traj.fields[3].values)
    evens = traj.fields[::2]
    assert isinstance(evens, NodeFields) and len(evens) == 2 and evens[0] is phi
    assert np.array_equal(evens[-1].values, traj.fields[2].values)


def test_sup_h1_distance(gspec8, rng):
    f = random_band_limited(gspec8, rng)
    g = random_band_limited(gspec8, rng)
    d = sup_h1_distance([f, f], [f, g])
    assert d > 0.0
    assert sup_h1_distance([f, g], [f, g]) == 0.0


def test_dot_values_exact_on_quadratics():
    # the nonuniform 3-point stencil differentiates quadratics exactly,
    # endpoints included
    t = np.array([0.0, 0.1, 0.25, 0.4, 0.7])
    y = 3.0 * t**2 - 2.0 * t + 1.0
    expect = 6.0 * t - 2.0
    assert np.max(np.abs(dot_values(t, y) - expect)) < 1e-12


def test_dot_values_needs_three():
    with pytest.raises(ValueError):
        dot_values(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


def test_norm_law_residual_zero_on_manufactured_data():
    # choose l2(t)^2 = q(t) quadratic and back out G1 from the law itself;
    # the finite-difference residual then vanishes identically
    params = PhysParams(1.0, 0.7)
    t = np.linspace(0.0, 1.0, 9)
    q = 0.25 + 0.1 * t + 0.05 * t**2  # l2 squared, stays below 1
    dq = 0.1 + 0.1 * t
    g1v = dq / (2.0 * params.alpha2 * (1.0 - q))
    res = norm_law_residuals(t, np.sqrt(q), g1v, params)
    assert np.max(np.abs(res)) < 1e-12


def test_norm_law_residual_detects_violation():
    params = PhysParams(1.0, 1.0)
    t = np.linspace(0.0, 1.0, 9)
    l2 = np.full(9, 0.5)
    g1v = np.full(9, 1.0)  # law says l2 should be growing; it is not
    res = norm_law_residuals(t, l2, g1v, params)
    assert np.max(np.abs(res)) > 0.1
