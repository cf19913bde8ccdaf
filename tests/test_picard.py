from dataclasses import replace

import numpy as np
import pytest
import warnings

from frnse import nonlinear
from frnse.errors import DivergenceDetected, NonConvergence
from frnse.grid import (GridSpec, from_spectral, h1_norm, random_band_limited,
                        scaled_gaussian, spectral_h1_norm, to_spectral, zero_field)
from frnse.kernel import KernelSpec, default_radius
from frnse.nonlinear import PhysParams
from frnse.picard import (PicardConfig, _prefix_integrals, _refine,
                          contraction_report, duhamel_map, picard_solve,
                          sweep_solve)
from frnse.propagate import free_evolve, free_phase
from frnse.trajectory import Trajectory, sup_h1_distance

R16 = default_radius(1.6)


def _zero_trajectory(spec, cfg):
    return Trajectory(cfg.times, [zero_field(spec)] * (cfg.m + 1))


def _samples(f, m, T):
    t = np.linspace(0.0, T, m + 1)
    return [np.array([f(x)]) for x in t], t


def test_config_validation(kfull):
    params = PhysParams(1.0, 1.0)
    with pytest.raises(ValueError):
        PicardConfig(T=0.0, m=4, kspec=kfull, params=params)
    with pytest.raises(ValueError):
        PicardConfig(T=1.0, m=1, kspec=kfull, params=params)
    with pytest.raises(ValueError):
        PicardConfig(T=1.0, m=5, kspec=kfull, params=params, quad="simpson")
    with pytest.raises(ValueError):
        PicardConfig(T=1.0, m=4, kspec=kfull, params=params, quad="gauss")
    cfg = PicardConfig(T=1.0, m=4, kspec=kfull, params=params)
    assert np.allclose(cfg.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_trapezoid_exact_on_linear():
    W, t = _samples(lambda x: 2.0 * x + 1.0, 7, 1.4)
    P = _prefix_integrals(W, 0.2, "trapezoid")
    expect = t**2 + t
    got = np.array([p[0] for p in P])
    assert np.max(np.abs(got - expect)) < 1e-13


def test_simpson_exact_on_quadratics():
    W, t = _samples(lambda x: 3.0 * x**2 - x + 0.5, 8, 0.8)
    P = _prefix_integrals(W, 0.1, "simpson")
    expect = t**3 - t**2 / 2.0 + 0.5 * t
    got = np.array([p[0] for p in P])
    assert np.max(np.abs(got - expect)) < 1e-13


def test_simpson_cubic_only_node_one_defects():
    # cubics are integrated exactly at every node except node 1, whose
    # three-point rule carries the single local O(dt^4) defect dt^4/4
    dt = 0.1
    W, t = _samples(lambda x: x**3, 8, 0.8)
    P = _prefix_integrals(W, dt, "simpson")
    got = np.array([p[0] for p in P])
    expect = t**4 / 4.0
    errs = np.abs(got - expect)
    assert errs[1] == pytest.approx(dt**4 / 4.0, rel=1e-10)
    mask = np.ones(9, dtype=bool)
    mask[1] = False
    assert np.max(errs[mask]) < 1e-14


def test_simpson_fourth_order_convergence():
    # smooth integrand: halving dt shrinks the worst node error ~16x
    errors = []
    for m in (16, 32, 64):
        W, t = _samples(np.cos, m, 1.6)
        P = _prefix_integrals(W, 1.6 / m, "simpson")
        got = np.array([p[0] for p in P])
        errors.append(np.max(np.abs(got - np.sin(t))))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.25)
    assert errors[1] / errors[2] == pytest.approx(16.0, rel=0.25)


def test_duhamel_free_case(gspec8, rng, kfull):
    # with alpha2 = 0 the integrand vanishes: whatever the input, the image
    # is phi_hat at every node, i.e. the free trajectory of phi
    phi = random_band_limited(gspec8, rng)
    cfg = PicardConfig(T=0.4, m=4, kspec=kfull, params=PhysParams(1.0, 0.0))
    phi_hat = to_spectral(phi)
    start = [to_spectral(random_band_limited(gspec8, rng)) for _ in cfg.times]
    for u in duhamel_map(gspec8, start, phi_hat, cfg):
        assert np.array_equal(u, phi_hat)
    traj, _ = sweep_solve(phi, cfg, init=_zero_trajectory(gspec8, cfg))
    for t, f in zip(traj.times, traj.fields):
        ref = free_evolve(phi, float(t), 1.0)
        assert np.max(np.abs(f.values - ref.values)) < 1e-14


def test_duhamel_node_zero_is_phi(gspec8, rng, kfull):
    phi = random_band_limited(gspec8, rng)
    phi = phi * (0.3 / h1_norm(phi))  # inside the contraction regime
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0))
    phi_hat = to_spectral(phi)
    out = duhamel_map(gspec8, [phi_hat] * (cfg.m + 1), phi_hat, cfg)
    assert len(out) == cfg.m + 1
    assert np.array_equal(out[0], phi_hat)
    traj, _ = picard_solve(phi, cfg)
    assert traj.fields[0] is phi
    assert np.allclose(traj.times, cfg.times)


def test_duhamel_validates_nodes(gspec8, rng, kfull):
    phi = random_band_limited(gspec8, rng)
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0))
    phi_hat = to_spectral(phi)
    with pytest.raises(ValueError):
        duhamel_map(gspec8, [phi_hat, phi_hat], phi_hat, cfg)


def test_sweep_init_trajectory_at_wrong_times(gspec8, rng, kfull):
    phi = random_band_limited(gspec8, rng)
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0))
    shifted = Trajectory(cfg.times + 0.01, [phi for _ in cfg.times])
    with pytest.raises(ValueError):
        sweep_solve(phi, cfg, init=shifted)


def test_picard_converges_small_data(gspec16, kfull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec16, 0.15, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=8, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-11)
    traj, report = picard_solve(phi, cfg)
    assert report.converged
    assert len(traj) == 9
    assert report.residual < 1e-10
    incs = report.increments
    assert all(b < a for a, b in zip(incs[1:], incs[2:])) or len(incs) <= 2
    assert not report.left_ball


def test_sweep_init_variants_agree(gspec8, kfull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.4)
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="trapezoid", tol=1e-12, max_iter=40)
    t1, _ = sweep_solve(phi, cfg, init="free")
    t2, _ = sweep_solve(phi, cfg, init=_zero_trajectory(gspec8, cfg))
    assert sup_h1_distance(t1.fields, t2.fields) < 1e-10
    t3, _ = sweep_solve(phi, cfg, init=t1)
    assert sup_h1_distance(t3.fields, t1.fields) < 1e-10
    with pytest.raises(ValueError):
        sweep_solve(phi, cfg, init="bogus")


def test_picard_transform_counts(gspec8, kfull, count_transforms):
    # each map sends every node through one inverse and one forward n^3
    # transform; phi is transformed once and nodes 1..m once more on return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.4)
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="trapezoid", tol=1e-12, max_iter=40)
    calls = count_transforms()
    _, report = picard_solve(phi, cfg)
    maps, nodes = report.iterations + 1, cfg.m + 1
    assert calls == {"fftn": 1 + maps * nodes, "ifftn": maps * nodes + cfg.m}


def test_warm_rung_transform_counts(gspec8, kfull, count_transforms):
    # a rung started from the solution on m/2 steps transforms only its
    # m/2+1 coarse nodes beyond what a cold solve does: the midpoints are
    # interpolated on coefficients. Each integrand sends its node through
    # one inverse and one forward n^3 transform: m+1 to start, m per sweep
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.4)
    cfg = PicardConfig(T=0.2, m=8, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-12)
    coarse, _ = sweep_solve(phi, replace(cfg, m=4))
    calls = count_transforms()
    _, report = sweep_solve(phi, cfg, coarse)
    integrands = cfg.m + 1 + report.iterations * cfg.m
    assert calls == {"fftn": 1 + len(coarse) + integrands,
                     "ifftn": integrands + cfg.m}


def test_nonconvergence_carries_report(gspec8, kfull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=4, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="trapezoid", tol=1e-30, max_iter=2)
    with pytest.raises(NonConvergence) as exc:
        picard_solve(phi, cfg)
    report = exc.value.report
    assert not report.converged
    assert report.iterations == 2
    with pytest.raises(ValueError):
        contraction_report(report)  # too few increments to fit


def test_divergence_raises_without_overflow_warnings(gspec8, kfull):
    # a huge but finite iterate overflows in the H^1 distances before the
    # next map goes non-finite; only DivergenceDetected may reach the caller
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=4, kspec=kfull, params=PhysParams(1.0, 1000.0),
                       quad="trapezoid", max_iter=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceDetected):
            picard_solve(phi, cfg)


def test_contraction_report_shape(gspec16, kfull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec16, 0.15, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=8, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-12)
    _, report = picard_solve(phi, cfg)
    con = contraction_report(report)
    assert not con.degenerate
    assert con.C_fit > 0.0
    assert con.C_fit * report.T < 0.5  # small-data contraction regime
    assert con.envelope_ok
    assert con.increments_decreasing


def test_contraction_degenerate_free_case(gspec8, rng, kfull):
    phi = random_band_limited(gspec8, rng)
    cfg = PicardConfig(T=0.3, m=4, kspec=kfull, params=PhysParams(1.0, 0.0))
    _, report = picard_solve(phi, cfg)
    con = contraction_report(report)
    assert con.degenerate
    assert con.C_fit == 0.0


def test_refine_exact_for_cubic_coefficients(gspec8, rng):
    # interaction-picture coefficients cubic in t: the centred and the
    # one-sided 4-point stencils reproduce every midpoint
    T, m = 0.3, 5
    A, B, C, D = (to_spectral(random_band_limited(gspec8, rng)) for _ in range(4))

    def U(t):
        return A + t * (B + t * (C + t * D))

    coarse = [U(t) for t in np.linspace(0.0, T, m + 1)]
    fine = _refine(coarse)
    assert len(fine) == 2 * m + 1
    assert all(f is g for f, g in zip(fine[::2], coarse))
    for t, f in zip(np.linspace(0.0, T, 2 * m + 1)[1::2], fine[1::2]):
        ref = U(t)
        assert spectral_h1_norm(gspec8, f - ref) <= 1e-13 * spectral_h1_norm(gspec8, ref)
    with pytest.raises(ValueError):
        _refine(coarse[:3])


def test_coarse_initializer_needs_even_m_of_at_least_6(gspec8, kfull):
    # a trajectory on every other node is refined; below m = 6 there are
    # too few coarse steps for the 4-point stencils
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.4)
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-12)
    coarse = Trajectory(cfg.times[::2], [phi] * 3)
    with pytest.raises(ValueError):
        sweep_solve(phi, cfg, init=coarse)
    odd = replace(cfg, m=5, quad="trapezoid")
    with pytest.raises(ValueError):
        sweep_solve(phi, odd, init=Trajectory(odd.times[::2], [phi] * 3))


def test_warm_simpson_rung_lands_on_cold_fixed_point(gspec8, kfull):
    phi = scaled_gaussian(gspec8, 0.15, l2_target=0.5)
    params = PhysParams(0.05, 1.0)
    cfg = PicardConfig(T=0.25, m=8, kspec=kfull, params=params, quad="simpson",
                       tol=1e-12)
    coarse, _ = sweep_solve(phi, cfg)
    cold, cold_report = sweep_solve(phi, replace(cfg, m=16))
    warm, warm_report = sweep_solve(phi, replace(cfg, m=16), coarse)
    assert sup_h1_distance(warm.fields, cold.fields) < 1e-12
    assert warm_report.iterations < cold_report.iterations


def _sweep_case(gspec8, kfull, quad):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.5)
    return phi, PicardConfig(T=0.25, m=8, kspec=kfull, params=PhysParams(1.0, 1.0),
                             quad=quad, tol=1e-12)


@pytest.mark.parametrize("quad", ["simpson", "trapezoid"])
@pytest.mark.parametrize("warm", [False, True])
def test_sweep_lands_on_picard_fixed_point(gspec8, kfull, quad, warm):
    phi, cfg = _sweep_case(gspec8, kfull, quad)
    ref, _ = picard_solve(phi, cfg)
    init = sweep_solve(phi, replace(cfg, m=4))[0] if warm else "free"
    traj, report = sweep_solve(phi, cfg, init)
    assert report.converged and report.residual < 1e-11
    assert np.allclose(traj.times, cfg.times) and traj.fields[0] is phi
    assert sup_h1_distance(traj.fields, ref.fields) < 1e-11


def test_sweep_kernel_apply_count(gspec8, kfull, monkeypatch):
    # every node's integrand once to start, then nodes 1..m once per sweep;
    # the residual is read from the final integrands
    calls = []
    real = nonlinear.apply_kernel

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nonlinear, "apply_kernel", counted)
    phi, cfg = _sweep_case(gspec8, kfull, "simpson")
    _, report = sweep_solve(phi, cfg)
    assert report.iterations >= 3
    assert len(calls) == (cfg.m + 1) + report.iterations * cfg.m


def test_sweep_nonconvergence_carries_report(gspec8, kfull):
    phi, cfg = _sweep_case(gspec8, kfull, "trapezoid")
    with pytest.raises(NonConvergence) as exc:
        sweep_solve(phi, replace(cfg, tol=1e-30, max_iter=2))
    report = exc.value.report
    assert not report.converged
    assert report.iterations == 2
    assert report.residual == report.increments[-1]


def test_sweep_divergence_raises_without_overflow_warnings(gspec8, kfull):
    phi, cfg = _sweep_case(gspec8, kfull, "trapezoid")
    cfg = replace(cfg, params=PhysParams(1.0, 1000.0), max_iter=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceDetected):
            sweep_solve(phi, cfg)
