"""Integrating-factor RK4 time stepper with a blow-up monitor.

Works on the transformed variable u(t) = e^{-i a1 t Lap} psi(t), whose
evolution u_t = e^{-i a1 t Lap} [a2 g1(psi) - a2 g2(psi)] carries no stiff
linear part; classical RK4 on u gives fourth-order steps that reduce
*exactly* to the free propagator when alpha2 = 0 (the exp(-i a1 |k|^2 dt)
multiplier is computed directly, not squared from the half step).

Stepping is first same as last: the potential of each accepted state is
computed once and gives both its G1 diagnostic and the first stage of the
step that leaves it, so a run without rejections makes 1 + 4 * steps
kernel applications.

Blow-up is operationalized as a monitor: when the H^1 norm of a candidate
step exceeds h1_cap the step is rejected and dt halved; hitting dt_min with
the cap still exceeded ends the run with status "BlowupSuspected" and an
escape-time estimate. That status is a diagnostic, never a verified claim
about the continuum equation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected
from .grid import from_spectral, h1_norm, l2_norm, to_spectral
from .kernel import KernelSpec
from .nonlinear import PhysParams, _nonlinear_and_g1, nonlinear_part
from .propagate import free_phase
from .trajectory import Trajectory, norm_law_residuals

COMPLETED = "Completed"
BLOWUP_SUSPECTED = "BlowupSuspected"


@dataclass(frozen=True)
class StepConfig:
    """Stepper setup: initial dt, horizon T, kernel, coefficients, and the
    blow-up monitor thresholds (H^1 cap, smallest allowed step)."""

    dt: float
    T: float
    kspec: KernelSpec
    params: PhysParams
    h1_cap: float = 1e3
    dt_min: float = 1e-8
    snapshot_every: int = 10

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not 0 < self.dt_min < self.dt:
            raise ValueError(
                f"need dt > dt_min > 0, got dt={self.dt}, dt_min={self.dt_min}"
            )
        if not self.h1_cap > 0:
            raise ValueError("h1_cap must be positive")
        if not isinstance(self.snapshot_every, (int, np.integer)) or self.snapshot_every < 1:
            raise ValueError("snapshot_every must be a positive integer")
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "T", float(self.T))


def ifrk4_step(psi, dt, cfg, first):
    """One integrating-factor RK4 step of size dt from psi.

    first is the first stage nonlinear_part(psi); evolve computes it once
    per accepted state, together with that state's G1, and reuses it when a
    step is rejected and retried. The other RK4 stage derivatives of
    u(t) = e^{-i a1 t Lap} psi(t) are evaluated by pushing each stage back
    to the physical variable: three more nonlinearity evaluations and a
    handful of diagonal multipliers. Raises DivergenceDetected if the
    result is not finite.
    """
    spec = psi.spec
    a1 = cfg.params.alpha1
    e = free_phase(spec, dt / 2.0, a1)
    e2 = free_phase(spec, dt, a1)

    def stage(coeffs):
        state = from_spectral(spec, coeffs)
        return to_spectral(nonlinear_part(state, cfg.params, cfg.kspec))

    psi_k = to_spectral(psi)
    na_k = to_spectral(first)
    nb_k = stage((psi_k + (dt / 2.0) * na_k) * e)
    nc_k = stage(psi_k * e + (dt / 2.0) * nb_k)
    nd_k = stage(psi_k * e2 + dt * (nc_k * e))
    # operand order matches free_evolve so the alpha2 = 0 case is bitwise free
    out_k = psi_k * e2 + (dt / 6.0) * (na_k * e2 + 2.0 * (nb_k * e) + 2.0 * (nc_k * e) + nd_k)
    out = from_spectral(spec, out_k)
    if not out.is_finite():
        raise DivergenceDetected(f"non-finite field after step dt={dt}")
    return out


@dataclass(frozen=True)
class RunReport:
    """Every-step diagnostics plus the run outcome.

    Arrays are aligned: row j describes the state at times[j], reached by a
    step of size dts[j] (dts[0] = 0). balance_residual is the signed defect
    of d/dt ||psi||^2 = 2 a2 G1 (1 - ||psi||^2), finite-differenced on the
    recorded nodes (NaN when fewer than 3 rows exist).
    """

    status: str
    escape_time: float
    times: np.ndarray
    l2: np.ndarray
    h1: np.ndarray
    g1_energy: np.ndarray
    balance_residual: np.ndarray
    dts: np.ndarray
    steps: int
    rejections: int

    def completed(self):
        return self.status == COMPLETED


def evolve(phi, cfg):
    """Step from 0 to T, recording diagnostics every step.

    Returns (trajectory, report): the trajectory keeps node 0, every
    snapshot_every-th accepted state, and the final state; the report keeps
    the full diagnostic series. An initial H^1 norm above h1_cap ends
    immediately with status BlowupSuspected (escape time 0). NaN inside a
    step is treated like a cap violation (halve dt and retry) until dt_min,
    where it re-raises DivergenceDetected.
    """
    if not phi.is_finite():
        raise DivergenceDetected("initial datum is not finite")
    first, g1v = _nonlinear_and_g1(phi, cfg.params, cfg.kspec)
    h1v = h1_norm(phi)
    times, l2s, h1s, g1s, dts = [0.0], [l2_norm(phi)], [h1v], [g1v], [0.0]
    snap_times, snap_fields = [0.0], [phi]

    def report(status, escape_time, steps, rejections):
        t = np.array(times)
        l2a, h1a, g1a = np.array(l2s), np.array(h1s), np.array(g1s)
        if len(t) >= 3:
            bal = norm_law_residuals(t, l2a, g1a, cfg.params)
        else:
            bal = np.full(len(t), np.nan)
        return RunReport(
            status=status,
            escape_time=escape_time,
            times=t,
            l2=l2a,
            h1=h1a,
            g1_energy=g1a,
            balance_residual=bal,
            dts=np.array(dts),
            steps=steps,
            rejections=rejections,
        )

    if h1v > cfg.h1_cap:
        rep = report(BLOWUP_SUSPECTED, 0.0, 0, 0)
        return Trajectory(snap_times, snap_fields), rep

    cur = phi
    t, dt = 0.0, cfg.dt
    steps = rejections = 0
    status, escape = COMPLETED, float("nan")
    while t < cfg.T * (1.0 - 1e-12):
        step = min(dt, cfg.T - t)
        try:
            # overflow inside a rejected trial step is expected and handled
            with np.errstate(over="ignore", invalid="ignore"):
                cand = ifrk4_step(cur, step, cfg, first)
            cand_h1 = h1_norm(cand)
            ok = cand_h1 <= cfg.h1_cap
        except DivergenceDetected:
            if step / 2.0 < cfg.dt_min:
                raise
            cand, ok = None, False
        if not ok:
            rejections += 1
            if step / 2.0 < cfg.dt_min:
                status, escape = BLOWUP_SUSPECTED, t + step
                break
            dt = step / 2.0
            continue
        cur = cand
        t += step
        steps += 1
        times.append(t)
        dts.append(step)
        first, g1v = _nonlinear_and_g1(cur, cfg.params, cfg.kspec)
        l2s.append(l2_norm(cur))
        h1s.append(cand_h1)
        g1s.append(g1v)
        if steps % cfg.snapshot_every == 0:
            snap_times.append(t)
            snap_fields.append(cur)
    if snap_times[-1] != times[-1] and len(times) > 1:
        snap_times.append(times[-1])
        snap_fields.append(cur)
    return Trajectory(snap_times, snap_fields), report(status, escape, steps, rejections)
