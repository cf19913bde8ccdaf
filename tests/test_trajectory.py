import warnings
from dataclasses import replace

import numpy as np
import pytest

from frnse.grid import (Field, GridSpec, from_spectral, h1_norm, random_band_limited,
                        scaled_gaussian, to_spectral)
from frnse.nonlinear import PhysParams
from frnse.picard import PicardConfig, march_solve, picard_solve
from frnse.propagate import free_phase
from frnse.trajectory import NodeFields, Trajectory, norm_law_residuals, sup_h1_distance


def test_trajectory_validation(gspec8, rng):
    f = random_band_limited(gspec8, rng)
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0], [f, f])  # not strictly increasing
    with pytest.raises(ValueError):
        Trajectory([0.0], [f, f])  # length mismatch
    other = Field(GridSpec(8, 2.0), np.zeros((8, 8, 8), complex))
    with pytest.raises(ValueError):
        Trajectory([0.0, 1.0], [f, other])  # mixed grids
    with pytest.raises(ValueError, match="at least one node"):
        Trajectory([], [])
    traj = Trajectory([0.0, 0.5, 1.0], [f, f, f])
    assert len(traj) == 3
    assert traj.final() is traj.fields[-1]


def test_node_fields_built_when_read(gspec8, rng, kfull):
    # a Duhamel trajectory keeps coefficients: node j reads as the Field of
    # U_j e^{-i a1 t_j |k|^2}, bit for bit, node 0 as phi itself; a slice
    # reads its nodes as indexing does
    phi = random_band_limited(gspec8, rng)
    times = np.linspace(0.0, 0.3, 4)
    coeffs = [to_spectral(phi)] + [to_spectral(random_band_limited(gspec8, rng))
                                   for _ in times[1:]]
    traj = Trajectory(times, NodeFields(phi, times, coeffs, 0.7))
    assert len(traj) == 4 and traj.fields[0] is phi and traj.final().spec == gspec8
    for j in range(1, 4):
        want = from_spectral(gspec8, coeffs[j] * free_phase(gspec8, times[j], 0.7))
        assert np.array_equal(traj.fields[j].values, want.values)
    assert np.array_equal(traj.final().values, traj.fields[3].values)
    for part, nodes in ((slice(1, 3), [1, 2]), (slice(None, None, -2), [3, 1]),
                        (slice(-1, None), [3]), (slice(5, 9), [])):
        got = traj.fields[part]
        assert isinstance(got, tuple) and len(got) == len(nodes)
        for f, j in zip(got, nodes):
            assert np.array_equal(f.values, traj.fields[j].values)
    assert traj.fields[:1][0] is phi
    # a Picard solve's trajectory slices into a trajectory of its own
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0))
    solved, _ = picard_solve(phi * (0.4 / h1_norm(phi)), cfg)
    part = Trajectory(solved.times[1:3], solved.fields[1:3])
    assert part.times == solved.times[1:3] and len(part) == 2
    assert np.array_equal(part.final().values, solved.fields[2].values)


def _solves(gspec8, kfull):
    """Picard (trapezoid) and march (Simpson) solves on the same nodes, every
    other node of a march at twice the nodes, and a march from perturbed
    data, each as the NodeFields of its coefficients on the coarse nodes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.4)
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-12)
    direction = random_band_limited(gspec8, np.random.default_rng(3))
    moved = phi + direction * (1e-2 / h1_norm(direction))

    def nodes(datum, coeffs):
        return NodeFields(datum, cfg.times, coeffs, 1.0)

    march = nodes(phi, list(march_solve(phi, cfg)))
    return {
        "picard-march": (picard_solve(phi, replace(cfg, quad="trapezoid"))[0].fields, march),
        "coarse-fine": (march, nodes(phi, list(march_solve(phi, replace(cfg, m=8)))[::2])),
        "data": (march, nodes(moved, list(march_solve(moved, cfg)))),
    }


def test_sup_h1_distance(gspec8, kfull, count_transforms):
    # the Parseval sum on the node coefficients, which transforms nothing,
    # against the field-path formula max_j ||a_j - b_j||_H1, which builds
    # and transforms each node; node 0 differs only in the perturbed case
    solves = _solves(gspec8, kfull)
    calls = count_transforms()
    dist = {case: sup_h1_distance(gspec8, a.coeffs, b.coeffs) for case, (a, b) in solves.items()}
    assert calls == {"fftn": 0, "ifftn": 0}
    for case, (a, b) in solves.items():
        ref = max(h1_norm(x - y) for x, y in zip(a, b))
        assert ref > 1e-5, case  # well above the field path's round-off
        assert dist[case] == pytest.approx(ref, rel=1e-12, abs=0.0), case
        assert (h1_norm(a[0] - b[0]) > 0.0) == (case == "data")
        assert sup_h1_distance(gspec8, a.coeffs, a.coeffs) == 0.0
        # either side may be a stream, such as a march compared as it runs
        assert sup_h1_distance(gspec8, iter(a.coeffs), b.coeffs) == dist[case]
        assert sup_h1_distance(gspec8, a.coeffs, iter(b.coeffs)) == dist[case]


def test_sup_h1_distance_needs_the_same_node_count(gspec8, rng):
    # nodes pair up only one for one: a shorter list, or a stream that ends
    # early, is refused from either side
    coeffs = [to_spectral(random_band_limited(gspec8, rng)) for _ in range(4)]
    for short in (coeffs[:3], iter(coeffs[:3])):
        with pytest.raises(ValueError):
            sup_h1_distance(gspec8, coeffs, short)
    with pytest.raises(ValueError):
        sup_h1_distance(gspec8, coeffs[:3], coeffs)
    assert sup_h1_distance(gspec8, coeffs, iter(coeffs)) == 0.0


def test_norm_law_residuals_exact_on_quadratics():
    # with G1 = 0 the residual is the derivative of ||psi||^2 itself; the
    # nonuniform 3-point stencil differentiates quadratics exactly, endpoints
    # included
    t = np.array([0.0, 0.1, 0.25, 0.4, 0.7])
    msq = 3.0 * t**2 - 2.0 * t + 1.0
    res = norm_law_residuals(t, np.sqrt(msq), np.zeros_like(t), PhysParams(1.0, 1.0))
    assert np.max(np.abs(res - (6.0 * t - 2.0))) < 1e-12


def test_norm_law_residuals_needs_three():
    with pytest.raises(ValueError):
        norm_law_residuals(np.array([0.0, 1.0]), np.array([1.0, 0.5]), np.zeros(2),
                           PhysParams(1.0, 1.0))


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
