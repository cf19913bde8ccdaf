import numpy as np
import pytest
import warnings
from dataclasses import replace

from frnse.errors import DivergenceDetected
from frnse.grid import (Field, from_spectral, h1_norm, random_band_limited, scaled_gaussian,
                        spectral_h1_norm, to_spectral)
from frnse import nonlinear
from frnse.nonlinear import PhysParams, nonlinear_part
from frnse.propagate import free_evolve, free_phase
from frnse.stepper import StepConfig, evolve, ifrk4_step


def _gaussian(spec, h1_target=0.5):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return scaled_gaussian(spec, 0.15, h1_target=h1_target)


def test_config_validation(kfull):
    params = PhysParams(1.0, 1.0)
    with pytest.raises(ValueError):
        StepConfig(dt=1e-2, T=0.0, kspec=kfull, params=params)
    with pytest.raises(ValueError):
        StepConfig(dt=1e-2, T=1.0, kspec=kfull, params=params, dt_min=1e-2)
    with pytest.raises(ValueError):
        StepConfig(dt=1e-2, T=1.0, kspec=kfull, params=params, h1_cap=0.0)
    with pytest.raises(ValueError):
        StepConfig(dt=1e-2, T=1.0, kspec=kfull, params=params,
                   snapshot_every=0)


def test_free_step_is_bitwise_free_propagator(gspec8, rng, kfull):
    psi = random_band_limited(gspec8, rng)
    psi_k = to_spectral(psi)
    cfg = StepConfig(dt=1e-2, T=1.0, kspec=kfull, params=PhysParams(0.7, 0.0))
    first = nonlinear_part(psi, cfg.params, kfull)[0]
    out = ifrk4_step(gspec8, psi_k, 3e-3, cfg, first)
    assert np.array_equal(out, psi_k * free_phase(gspec8, 3e-3, 0.7))


def test_step_is_the_lawson_combination(gspec8, rng, kfull):
    # RK4 on the Duhamel integrand equals, in exact arithmetic, Lawson's
    # combination of stages taken in the moving frame: e = e^{i a1 dt/2 Lap}
    psi = random_band_limited(gspec8, rng)
    psi = psi * (2.0 / h1_norm(psi))
    c = to_spectral(psi)
    cfg = StepConfig(dt=1e-2, T=1.0, kspec=kfull, params=PhysParams(0.7, 3.0))
    dt = 4e-3
    e, e2 = free_phase(gspec8, dt / 2.0, 0.7), free_phase(gspec8, dt, 0.7)

    def n(u):
        return nonlinear_part(from_spectral(gspec8, u), cfg.params, kfull)[0]

    na = n(c)
    nb = n((c + (dt / 2.0) * na) * e)
    nc = n(c * e + (dt / 2.0) * nb)
    nd = n(c * e2 + dt * (nc * e))
    want = c * e2 + (dt / 6.0) * (na * e2 + 2.0 * (nb * e) + 2.0 * (nc * e) + nd)
    got = ifrk4_step(gspec8, c, dt, cfg, na)
    assert spectral_h1_norm(gspec8, got - c * e2) > 1e-4 * spectral_h1_norm(gspec8, c)
    assert spectral_h1_norm(gspec8, got - want) <= 1e-13 * spectral_h1_norm(gspec8, want)


def test_step_fourth_order(gspec8, kfull):
    from frnse.experiments import stepper_order_study

    phi = _gaussian(gspec8, h1_target=2.0)
    cfg = StepConfig(dt=1e-3, T=0.1, kspec=kfull, params=PhysParams(1.0, 4.0),
                     dt_min=1e-12, snapshot_every=10**9)
    order, budget, _ = stepper_order_study(phi, cfg, steps=(32, 64, 128))
    assert order == pytest.approx(4.0, rel=0.25)
    assert budget > 0.0
    for steps in ((32, 64), (32, 64, 96)):
        with pytest.raises(ValueError, match="at least 3 doubling step counts"):
            stepper_order_study(phi, cfg, steps=steps)
    # a rung that ends early (here its first stage overflows) has no final state
    with pytest.raises(RuntimeError, match="reference run with 32 steps did not complete"):
        stepper_order_study(phi, replace(cfg, params=PhysParams(1.0, 1e308)), (32, 64, 128))


def test_evolve_diagnostics_aligned(gspec8, kfull):
    phi = _gaussian(gspec8)
    cfg = StepConfig(dt=5e-3, T=0.05, kspec=kfull, params=PhysParams(1.0, 1.0),
                     snapshot_every=3)
    traj, rep = evolve(phi, cfg)
    assert rep.completed()
    assert rep.steps == 10
    assert rep.rejections == 0
    n = len(rep.times)
    assert n == 11
    for arr in (rep.l2, rep.h1, rep.g1_energy, rep.balance_residual, rep.dts):
        assert len(arr) == n
    assert rep.dts[0] == 0.0
    assert rep.times[-1] == pytest.approx(0.05, abs=1e-12)
    # snapshots: node 0, every 3rd accepted step, and the final state
    assert np.allclose(traj.times, [0.0, 0.015, 0.03, 0.045, 0.05])
    # the recorded H^1 series is the Parseval norm of each accepted state's
    # coefficients; its snapshot field reads the same up to one round trip
    assert rep.h1[0] == h1_norm(phi)
    assert np.allclose(rep.h1[[0, 3, 6, 9, 10]],
                       [h1_norm(f) for f in traj.fields], rtol=1e-13, atol=0)


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    real = nonlinear.apply_kernel

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(nonlinear, "apply_kernel", counted)
    return calls


def test_evolve_kernel_applies_per_step(gspec8, kfull, kernel_calls):
    # first same as last: one kernel application per accepted state gives
    # its G1 and the next step's first stage; each step adds three stages
    cfg = StepConfig(dt=5e-3, T=0.05, kspec=kfull, params=PhysParams(1.0, 1.0))
    _, rep = evolve(_gaussian(gspec8), cfg)
    assert rep.rejections == 0
    assert len(kernel_calls) == 1 + 4 * rep.steps


def test_evolve_transform_counts(gspec8, kfull, count_transforms):
    # the steps carry coefficients: three stages each go to physical space
    # and back, and each accepted state once more for its first stage; phi
    # and its first stage are transformed once
    phi = _gaussian(gspec8)
    cfg = StepConfig(dt=5e-3, T=0.05, kspec=kfull, params=PhysParams(1.0, 1.0))
    calls = count_transforms()
    _, rep = evolve(phi, cfg)
    assert rep.rejections == 0
    assert calls == {"fftn": 2 + 4 * rep.steps, "ifftn": 4 * rep.steps}


def test_evolve_free_case_matches_propagator(gspec8, rng, kfull):
    psi = random_band_limited(gspec8, rng)
    cfg = StepConfig(dt=1e-2, T=0.1, kspec=kfull, params=PhysParams(1.0, 0.0),
                     snapshot_every=10**9)
    traj, rep = evolve(psi, cfg)
    ref = free_evolve(psi, 0.1, 1.0)
    err = np.max(np.abs(traj.fields[-1].values - ref.values))
    assert err < 1e-12


def test_balance_residual_small(gspec16, kfull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec16, 0.15, l2_target=1.0)
    cfg = StepConfig(dt=2.5e-3, T=0.1, kspec=kfull,
                     params=PhysParams(1.0, 1.0), snapshot_every=10**9)
    _, rep = evolve(phi, cfg)
    assert rep.completed()
    mid = rep.balance_residual[1:-1]  # one-sided end stencils are cruder
    assert np.max(np.abs(mid)) < 1e-5
    # unit-norm datum stays pinned to the invariant sphere
    assert np.max(np.abs(rep.l2 - 1.0)) < 1e-6


def test_immediate_blowup_flag(gspec8, kfull):
    phi = _gaussian(gspec8, h1_target=2.0)
    cfg = StepConfig(dt=1e-2, T=1.0, kspec=kfull, params=PhysParams(1.0, 1.0),
                     h1_cap=1.0)
    traj, rep = evolve(phi, cfg)
    assert rep.status == "BlowupSuspected"
    assert rep.escape_time == 0.0
    assert rep.steps == 0
    assert len(traj) == 1


def test_cap_escalation_reports_escape_time(gspec16, kfull, kernel_calls):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec16, 0.12, l2_target=1.0)
    cfg = StepConfig(dt=5e-3, T=2.0, kspec=kfull, params=PhysParams(1.0, 50.0),
                     h1_cap=h1_norm(phi) * 1.02, dt_min=1e-4,
                     snapshot_every=10**9)
    traj, rep = evolve(phi, cfg)
    assert rep.status == "BlowupSuspected"
    assert 0.0 < rep.escape_time < 0.01
    assert rep.rejections > 0
    assert not rep.completed()
    # trajectory still ends at the last accepted state
    assert traj.times[-1] == rep.times[-1]
    # a rejected trial reuses the first stage: three kernel applies each
    assert len(kernel_calls) == 1 + 4 * rep.steps + 3 * rep.rejections


def test_steps_that_stay_non_finite_end_as_blowup_suspected(gspec8, kfull, kernel_calls):
    # a non-finite trial step fails the H1 cap like any other: dt is halved
    # down to dt_min and the run ends as BlowupSuspected, with no raise
    cfg = StepConfig(dt=2.5e-3, T=0.01, kspec=kfull, params=PhysParams(1.0, 1e308))
    trials = [cfg.dt / 2**k for k in range(64) if cfg.dt / 2**k >= cfg.dt_min]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj, rep = evolve(_gaussian(gspec8), cfg)
    assert (rep.status, rep.steps) == ("BlowupSuspected", 0)
    assert rep.rejections == len(trials) == 18
    assert rep.escape_time == trials[-1]
    assert len(rep.times) == len(traj) == 1
    assert len(kernel_calls) == 1 + 3 * rep.rejections


def test_non_finite_first_stage_ends_at_the_first_rejection(gspec8, kfull, kernel_calls):
    # a first stage that overflows makes every trial step non-finite, so no
    # dt leaves the state: the first rejection ends the run at its time, and
    # the overflow on the way raises no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.12, l2_target=1.0)
    cfg = StepConfig(dt=2.5e-3, T=0.01, kspec=kfull, params=PhysParams(1.0, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, rep = evolve(phi, cfg)
    assert (rep.status, rep.steps, rep.rejections) == ("BlowupSuspected", 0, 1)
    assert rep.escape_time == 0.0
    assert len(rep.times) == len(traj) == 1
    assert len(kernel_calls) == 1 + 3


def test_nonfinite_initial_raises(gspec8, kfull):
    values = np.zeros((8, 8, 8), complex)
    values[0, 0, 0] = np.nan
    cfg = StepConfig(dt=1e-2, T=0.1, kspec=kfull, params=PhysParams(1.0, 1.0))
    with pytest.raises(DivergenceDetected):
        evolve(Field(gspec8, values), cfg)
