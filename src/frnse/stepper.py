"""Integrating-factor RK4 time stepper with a blow-up monitor.

Works on the transformed variable u(t) = e^{-i a1 t Lap} psi(t), whose
evolution u_t = e^{-i a1 t Lap} [a2 g1(psi) - a2 g2(psi)] carries no stiff
linear part; classical RK4 on u gives fourth-order steps that reduce
*exactly* to the free propagator when alpha2 = 0 (the exp(-i a1 |k|^2 dt)
multiplier is computed directly, not squared from the half step).

Blow-up is operationalized as a monitor: when the H^1 norm of a candidate
step exceeds h1_cap the step is rejected and dt halved; hitting dt_min with
the cap still exceeded ends the run with status "BlowupSuspected" and an
escape-time estimate. That status is a diagnostic, never a verified claim
about the continuum equation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected
from .grid import Field, h1_norm, l2_norm, make_grid, to_spectral
from .kernel import KernelSpec
from .nonlinear import PhysParams, _big_g1_value, nonlinear_part, potential
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


def ifrk4_step(psi, dt, cfg):
    """One integrating-factor RK4 step of size dt.

    RK4 stage derivatives of u(t) = e^{-i a1 t Lap} psi(t) are evaluated by
    pushing each stage back to the physical variable; only four nonlinearity
    evaluations and a handful of diagonal multipliers are needed. Raises
    DivergenceDetected if the result is not finite.
    """
    spec = psi.spec
    g = make_grid(spec)
    a1 = cfg.params.alpha1
    e = np.exp(-1j * a1 * (dt / 2.0) * g.ksq)
    e2 = np.exp(-1j * a1 * dt * g.ksq)
    n3 = spec.n**3

    def to_k(values):
        return np.fft.fftn(values) / n3

    def to_x(coeffs):
        return np.fft.ifftn(coeffs) * n3

    def N(values):
        return nonlinear_part(Field(spec, values), cfg.params, cfg.kspec).values

    psi_k = to_spectral(psi)
    na = N(psi.values)
    na_k = to_k(na)
    psi2 = to_x((psi_k + (dt / 2.0) * na_k) * e)
    nb = N(psi2)
    nb_k = to_k(nb)
    psi3 = to_x(psi_k * e + (dt / 2.0) * nb_k)
    nc = N(psi3)
    nc_k = to_k(nc)
    psi4 = to_x(psi_k * e2 + dt * (nc_k * e))
    nd = N(psi4)
    nd_k = to_k(nd)
    # operand order matches free_evolve so the alpha2 = 0 case is bitwise free
    out_k = psi_k * e2 + (dt / 6.0) * (na_k * e2 + 2.0 * (nb_k * e) + 2.0 * (nc_k * e) + nd_k)
    out = Field(spec, to_x(out_k))
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


def _diag_row(psi, h1, cfg):
    pot = potential(psi, cfg.kspec)
    return l2_norm(psi), h1, _big_g1_value(psi, pot)


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
    times, l2s, h1s, g1s, dts = [0.0], [], [], [], [0.0]
    l2v, h1v, g1v = _diag_row(phi, h1_norm(phi), cfg)
    l2s.append(l2v)
    h1s.append(h1v)
    g1s.append(g1v)
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
                cand = ifrk4_step(cur, step, cfg)
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
        l2v, h1v, g1v = _diag_row(cur, cand_h1, cfg)
        l2s.append(l2v)
        h1s.append(h1v)
        g1s.append(g1v)
        if steps % cfg.snapshot_every == 0:
            snap_times.append(t)
            snap_fields.append(cur)
    if snap_times[-1] != times[-1] and len(times) > 1:
        snap_times.append(times[-1])
        snap_fields.append(cur)
    return Trajectory(snap_times, snap_fields), report(status, escape, steps, rejections)
