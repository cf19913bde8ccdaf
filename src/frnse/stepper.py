"""Integrating-factor RK4 time stepper with a blow-up monitor.

Works on the transformed variable u(t) = e^{-i a1 t Lap} psi(t), whose
evolution u_t = e^{-i a1 t Lap} [a2 g1(psi) - a2 g2(psi)] carries no stiff
linear part; classical RK4 on u gives fourth-order steps that reduce
*exactly* to the free propagator when alpha2 = 0 (the exp(-i a1 |k|^2 dt)
multiplier is computed directly, not squared from the half step).

The stepper carries the spectral coefficients of psi from step to step.
Stepping is first same as last: the potential of each accepted state is
computed once and gives both its G1 diagnostic and the first stage of the
step that leaves it, so a run without rejections makes 1 + 4 * steps
kernel applications, 4 * steps inverse and 2 + 4 * steps forward n^3
transforms.

Blow-up is operationalized as a monitor: when the H^1 norm of a candidate
step exceeds h1_cap the step is rejected and dt halved; hitting dt_min with
the cap still exceeded ends the run with status "BlowupSuspected" and an
escape-time estimate. That status is a diagnostic, never a verified claim
about the continuum equation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected
from .grid import from_spectral, l2_norm, spectral_h1_norm, to_spectral
from .kernel import KernelSpec
from .nonlinear import PhysParams, nonlinear_part
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


def ifrk4_step(spec, coeffs, dt, cfg, first):
    """One integrating-factor RK4 step of size dt from the state with
    spectral coefficients coeffs; returns the coefficients after the step.

    first is the first stage, the coefficients of nonlinear_part at coeffs;
    evolve computes it once per accepted state, together with that state's
    G1, and reuses it when a step is rejected and retried. The other RK4
    stage derivatives of u(t) = e^{-i a1 t Lap} psi(t) each take one trip
    through physical space (from_spectral, then nonlinear_part) and a
    handful of diagonal multipliers. Raises DivergenceDetected if the result
    is not finite.
    """
    a1 = cfg.params.alpha1
    e = free_phase(spec, dt / 2.0, a1)
    e2 = free_phase(spec, dt, a1)

    def stage(u):
        return nonlinear_part(from_spectral(spec, u), cfg.params, cfg.kspec)[0]

    nb = stage((coeffs + (dt / 2.0) * first) * e)
    nc = stage(coeffs * e + (dt / 2.0) * nb)
    nd = stage(coeffs * e2 + dt * (nc * e))
    # operand order matches free_evolve so the alpha2 = 0 case is bitwise free
    out = coeffs * e2 + (dt / 6.0) * (first * e2 + 2.0 * (nb * e) + 2.0 * (nc * e) + nd)
    if not np.isfinite(out).all():
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

    def table(self):
        """The diagnostics as (header, rows), one row per recorded state."""
        return (("t", "l2", "h1", "G1", "balance_residual", "dt"),
                list(zip(self.times, self.l2, self.h1, self.g1_energy,
                         self.balance_residual, self.dts)))


def evolve(phi, cfg):
    """Step from 0 to T, recording diagnostics every step.

    Returns (trajectory, report): the trajectory keeps node 0, every
    snapshot_every-th accepted state, and the final state; the report keeps
    the full diagnostic series. An initial H^1 norm above h1_cap ends
    immediately with status BlowupSuspected (escape time 0). NaN inside a
    step is treated like a cap violation (halve dt and retry) until dt_min,
    where it re-raises DivergenceDetected.

    The steps carry spectral coefficients; each H^1 norm is the Parseval sum
    on them. An accepted state is brought to physical space once, for its
    first stage and G1, its L2 norm and its snapshot.
    """
    if not np.isfinite(phi.values).all():
        raise DivergenceDetected("initial datum is not finite")
    spec = phi.spec
    rows = []  # (t, l2, h1, G1, dt) of every accepted state

    def accept(t, step, state, h1v):
        """Record an accepted state; return its first stage."""
        first, g1v = nonlinear_part(state, cfg.params, cfg.kspec)
        rows.append((t, l2_norm(state), h1v, g1v, step))
        return first

    cur, state, t = to_spectral(phi), phi, 0.0
    h1v = spectral_h1_norm(spec, cur)
    first = accept(t, 0.0, state, h1v)
    snap_times, snap_fields = [t], [state]
    dt, steps, rejections = cfg.dt, 0, 0
    status, escape = COMPLETED, float("nan")
    if h1v > cfg.h1_cap:
        status, escape = BLOWUP_SUSPECTED, 0.0
    while status == COMPLETED and t < cfg.T * (1.0 - 1e-12):
        step = min(dt, cfg.T - t)
        try:
            # overflow inside a rejected trial step is expected and handled
            with np.errstate(over="ignore", invalid="ignore"):
                cand = ifrk4_step(spec, cur, step, cfg, first)
                cand_h1 = spectral_h1_norm(spec, cand)
            ok = cand_h1 <= cfg.h1_cap
        except DivergenceDetected:
            if step / 2.0 < cfg.dt_min:
                raise
            ok = False
        if not ok:
            rejections += 1
            if step / 2.0 < cfg.dt_min:
                status, escape = BLOWUP_SUSPECTED, t + step
                break
            dt = step / 2.0
            continue
        cur, state = cand, from_spectral(spec, cand)
        t += step
        steps += 1
        first = accept(t, step, state, cand_h1)
        if steps % cfg.snapshot_every == 0:
            snap_times.append(t)
            snap_fields.append(state)
    if snap_times[-1] != t:
        snap_times.append(t)
        snap_fields.append(state)
    times, l2, h1, g1v, dts = (np.array(c) for c in zip(*rows))
    if len(times) >= 3:
        bal = norm_law_residuals(times, l2, g1v, cfg.params)
    else:
        bal = np.full(len(times), np.nan)
    report = RunReport(
        status=status,
        escape_time=escape,
        times=times,
        l2=l2,
        h1=h1,
        g1_energy=g1v,
        balance_residual=bal,
        dts=dts,
        steps=steps,
        rejections=rejections,
    )
    return Trajectory(snap_times, snap_fields), report
