"""Experiment battery: every analytic property as a measurable check.

Every study that a battery section reports returns that section's part,
(rows, tables): a list of CheckRow records, one row per assertion carrying
the measured value, the threshold it was held against and a pass flag, and
the section's tables by name, each a (header, rows) pair. An external
harness (or the CLI `verify` command) can consume them without re-deriving
tolerances.

No functional-inequality constant is ever assumed numerically: every check
is a scaling law, a monotonicity statement, a stability test under sample
doubling, or a self-consistency budget built from measured convergence
orders.

verify_battery runs the whole battery on a parsed config, the same one the
run's manifest records: the config sets the grid, physics, kernel and every
[experiment] key, and experiment.scale picks the remaining sizes from
SCALES. Its sections run as independent jobs on one worker process per
CPU; it prints one stderr line per section with the seconds its job
spent on it, and the timings never reach the tables.
"""

import math
import multiprocessing
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .config import dependence_datum
from .grid import (
    Field,
    GridSpec,
    from_spectral,
    h1_norm,
    l2_norm,
    lp_norm,
    min_image_r2,
    plane_wave,
    random_band_limited,
    scaled_gaussian,
    spectral_h1_norm,
    warn_if_cramped,
)
from .kernel import (
    KernelSpec,
    apply_kernel,
    direct_convolution_oracle,
    kernel_l1_mass,
    tail_norm_bound,
    tail_norm_estimates,
)
from .nonlinear import PhysParams, density, g1, potential_and_energy
from .picard import PicardConfig, contraction_report, march_solve, picard_solve
from .propagate import free_evolve, free_gaussian_exact, free_phase
from .stepper import StepConfig, evolve
from .trajectory import norm_law_residuals, sup_h1_distance


@dataclass(frozen=True)
class CheckRow:
    """One assertion outcome: measured value vs threshold, with a category
    tag (scaling-law, monotonicity, stability, budget, bound, identity,
    info). Info rows always pass and carry threshold NaN."""

    check: str
    kind: str
    measured: float
    threshold: float
    passed: bool
    detail: str = ""


def check_table(rows):
    """CheckRows as a (header, rows) table with one column per field."""
    return tuple(f.name for f in fields(CheckRow)), [astuple(r) for r in rows]


def _row(check, kind, measured, threshold, passed, detail=""):
    return CheckRow(check, kind, float(measured), float(threshold), bool(passed), detail)


def _info(check, measured, detail=""):
    return CheckRow(check, "info", float(measured), float("nan"), True, detail)


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


# --------------------------------------------------------------------------
# kernel oracle and propagator checks
# --------------------------------------------------------------------------

def oracle_equivalence_rows(L, n, seed):
    """FFT apply vs direct summation on an n^3 grid, all kernel variants,
    then the full kernel against a Gaussian's Newton potential."""
    gspec = GridSpec(n, L)
    rng = np.random.default_rng([seed, 101])
    rho = Field(gspec, rng.standard_normal((n, n, n)))
    rows = []
    for kspec in (
        KernelSpec("full"),
        KernelSpec("inner", a=0.25 * L),
        KernelSpec("tail", a=0.25 * L),
    ):
        ref = direct_convolution_oracle(kspec, rho)
        err = l2_norm(apply_kernel(kspec, rho) - ref) / l2_norm(ref)
        rows.append(
            _row(f"kernel-oracle-{kspec.variant}", "identity", err, 1e-10, err < 1e-10,
                 f"n={n} seeded density")
        )
    rows.append(gaussian_potential_row(L=L))
    return rows, {}


def gaussian_potential_row(L, n=32):
    """Relative L2 error of the full kernel against the Newton potential of a
    centered Gaussian, (2 pi sigma^2)^{3/2} erf(r / (sqrt(2) sigma)) / r."""
    sigma = 0.12
    gspec = GridSpec(n, L)
    r2 = min_image_r2(gspec)
    r = np.sqrt(r2)
    ref = np.full_like(r, 4.0 * np.pi * sigma**2)  # the limit at r = 0
    erf = np.vectorize(math.erf)(r / (math.sqrt(2.0) * sigma))
    np.divide((2.0 * np.pi * sigma**2) ** 1.5 * erf, r, out=ref, where=r > 0.0)
    pot = apply_kernel(KernelSpec("full"), Field(gspec, np.exp(-r2 / (2.0 * sigma**2))))
    err = float(np.sqrt(np.sum((pot.values - ref) ** 2) / np.sum(ref**2)))
    return _row("kernel-gaussian-potential", "identity", err, 1e-8, err < 1e-8,
                f"n={n}, sigma={sigma}")


def propagator_rows(gspec, alpha1, seed):
    """Plane-wave phase, unitarity, group law, and the analytic Gaussian."""
    rows = []
    k0 = 2.0 * np.pi / gspec.L * np.array([1.0, 2.0, 0.0])
    pw = plane_wave(gspec, (1, 2, 0))
    t = 0.0371
    expected = np.exp(-1j * alpha1 * float(k0 @ k0) * t) * pw.values
    err = float(np.max(np.abs(free_evolve(pw, t, alpha1).values - expected)))
    rows.append(_row("propagator-plane-wave", "identity", err, 1e-12, err < 1e-12))

    rng = np.random.default_rng([seed, 202])
    psi = random_band_limited(gspec, rng)
    moved = free_evolve(psi, t, alpha1)
    for which, nrm in (("l2", l2_norm), ("h1", h1_norm)):
        drift = abs(nrm(moved) - nrm(psi)) / nrm(psi)
        rows.append(_row(f"propagator-unitarity-{which}", "identity", drift, 1e-12,
                         drift < 1e-12))
    s = 0.0173
    group = h1_norm(free_evolve(moved, s, alpha1) - free_evolve(psi, t + s, alpha1))
    group /= h1_norm(psi)
    rows.append(_row("propagator-group-law", "identity", group, 1e-12, group < 1e-12))
    back = h1_norm(free_evolve(moved, -t, alpha1) - psi) / h1_norm(psi)
    rows.append(_row("propagator-inverse", "identity", back, 1e-12, back < 1e-12))

    sigma = 0.12
    phi = warn_if_cramped(scaled_gaussian(gspec, sigma))
    for tg in (1e-3, 2e-3):
        ref = free_gaussian_exact(gspec, sigma, tg, alpha1)
        rel = l2_norm(free_evolve(phi, tg, alpha1) - ref) / l2_norm(ref)
        rows.append(
            _row(f"propagator-gaussian-t{tg:g}", "identity", rel, 1e-6, rel < 1e-6,
                 f"sigma={sigma}")
        )
    return rows, {}


# --------------------------------------------------------------------------
# tail operator norms
# --------------------------------------------------------------------------

def kernel_norm_study(gspec, a_list, p, trials, seed):
    """Tail operator norm estimates vs the table's l1 bound, plus the slope.

    Each estimate is held against the l1 mass ||k_h||_1 of the tail table,
    which bounds the discrete operator in every L^p (Young), at every
    radius; kernel_l1_mass takes it from the table's even octant, so the
    study forms no (2n)^3 array. The continuum bound 2*pi*a^2 and the ratio
    ||k_h||_1 / 2*pi*a^2 go in the row's detail. Returns (rows, tables), the
    battery's part: tables holds the tail_norms table of (a, ||k_h||_1,
    estimate) rows.
    """
    table = []
    rows = []
    estimates = tail_norm_estimates(gspec, a_list, p=p, trials=trials, seed=seed)
    for a, est in zip(a_list, estimates):
        # the table has negative lobes: its l1 mass exceeds its sum, 2 pi a^2
        bound = kernel_l1_mass(gspec, KernelSpec("tail", a=a))
        table.append((float(a), bound, float(est)))
        continuum = tail_norm_bound(a)
        rows.append(
            _row(f"tail-norm-bound-a{a:g}", "bound", est, bound, est <= bound,
                 f"p={p:g}, 2 pi a^2 = {continuum:.6g}, "
                 f"ratio ||k_h||_1 / 2 pi a^2 = {bound / continuum:.4f}")
        )
    if len(a_list) >= 2:
        slope = loglog_slope([r[0] for r in table], [max(r[2], 1e-300) for r in table])
        rows.append(
            _row("tail-norm-slope", "scaling-law", slope, 2.0, abs(slope - 2.0) <= 0.3,
                 "log-log estimate vs a, tolerance 0.3")
        )
    return rows, {"tail_norms": (("a", "bound", "estimate"), table)}


# --------------------------------------------------------------------------
# solver-level studies
# --------------------------------------------------------------------------

def contraction_rows(traj, report, params, kspec):
    """CheckRows for a converged fixed-point run's contraction behavior, then
    the norm law's balance defect on its nodes; the tables hold its report's
    picard table."""
    ana = contraction_report(report)
    if ana.degenerate:
        rows = [_info("picard-degenerate", 0.0, "first increment at round-off")]
    else:
        inc = report.increments
        rows = [
            _row("picard-increments-decreasing", "monotonicity",
                 max(inc[k + 1] / inc[k] for k in range(1, len(inc) - 1))
                 if len(inc) > 2 else 0.0,
                 1.0, ana.increments_decreasing, "after the first increment"),
            _row("picard-ratios-decreasing", "monotonicity",
                 max(ana.ratios[k + 1] / ana.ratios[k] for k in range(len(ana.ratios) - 1))
                 if len(ana.ratios) > 1 else 0.0,
                 1.25, ana.ratios_decreasing, "25% noise headroom"),
            _row("picard-factorial-envelope", "budget", float(ana.C_fit * report.T),
                 float("inf"), ana.envelope_ok, "delta_k <= 1.25 delta_0 (C T)^k / k!"),
            _row("picard-residual", "budget", report.residual, 1e-8, report.residual < 1e-8),
            _info("picard-C-fit", ana.C_fit),
        ]
    rows.append(_info("picard-fixed-point-balance", norm_law_check(traj, params, kspec),
                      "balance defect finite-differenced on the fixed point's nodes"))
    return rows, {"picard": report.table()}


def _order_and_budget(diffs):
    """Observed order from self-convergence differences under successive
    refinement by 2, and the Richardson error budget of the finest
    solution (factor-2 safety)."""
    order = float(np.log2(diffs[0] / diffs[-1]) / (len(diffs) - 1))
    return order, 2.0 * diffs[-1] / (2.0**order - 1.0)


def quadrature_order_study(phi, cfg, ms):
    """Self-convergence of the fixed-point solution under node doubling.

    Marches every rung cold, all in lockstep by time: rung 2m takes two
    nodes for each node of rung m. The sup-node H1 difference of each
    neighbouring pair of rungs on their common nodes is kept as a running
    max, so a rung holds its march's window and its latest node. Returns
    (order, budget, final): the observed order, a Richardson error budget
    for the finest solve (factor-2 safety) and that solve's terminal state.
    """
    if len(ms) < 3 or any(m2 != 2 * m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError("ms must be at least 3 doubling node counts")
    spec, rungs = phi.spec, []
    for m in ms:
        rungs.append(march_solve(phi, replace(cfg, m=m)))
    diffs, u = [0.0] * (len(ms) - 1), [None] * len(ms)
    for k in range(ms[-1] + 1):
        # the rungs with a node at the finest rung's node k: if one, every finer one
        at = [i for i, m in enumerate(ms) if k % (ms[-1] // m) == 0]
        for i in at:
            u[i] = next(rungs[i])
        for i in at[:-1]:
            diffs[i] = max(diffs[i], spectral_h1_norm(spec, u[i] - u[i + 1]))
    order, budget = _order_and_budget(diffs)
    return order, budget, from_spectral(spec, u[-1] * free_phase(spec, cfg.T, cfg.params.alpha1))


def stepper_order_study(phi, cfg, steps):
    """Self-convergence of the stepper's terminal state under dt halving,
    one rung's at a time; (order, budget, final) as quadrature_order_study."""
    if len(steps) < 3 or any(s2 != 2 * s1 for s1, s2 in zip(steps, steps[1:])):
        raise ValueError("steps must be at least 3 doubling step counts")
    diffs, final = [], None
    for s in steps:
        traj, rep = evolve(phi, replace(cfg, dt=cfg.T / s))
        if not rep.completed():
            raise RuntimeError(f"reference run with {s} steps did not complete")
        if final is not None:
            diffs.append(h1_norm(final - traj.final()))
        final = traj.final()
    order, budget = _order_and_budget(diffs)
    return order, budget, final


#: The refinement ladders of the cross-method check, in the order of its rows.
LADDERS = ("simpson", "trapezoid", "ifrk4")


def cross_method_ladder(which, phi, pcfg, ms, steps):
    """One ladder of the cross-method check: node doubling under the
    quadrature rule `which`, or dt halving for which = "ifrk4". Every
    fixed-point solve is a cold march_solve. Returns (which, order, budget,
    final), final the terminal state of the finest rung."""
    if which == "ifrk4":
        scfg = StepConfig(dt=pcfg.T / steps[0], T=pcfg.T, kspec=pcfg.kspec,
                          params=pcfg.params, snapshot_every=10**9)
        return (which, *stepper_order_study(phi, scfg, steps))
    return (which, *quadrature_order_study(phi, replace(pcfg, quad=which), ms))


def cross_method_check(ladders):
    """Fixed-point vs time-stepper agreement within measured error budgets.

    ladders holds the cross_method_ladder results in LADDERS order: the
    node-doubling studies of both quadrature rules and the stepper's
    dt-halving. Checks each observed order against its nominal value
    (tolerance 20%), then requires the terminal H1 distance between the
    finest Simpson and IFRK4 solutions to sit below the sum of their
    Richardson budgets.
    """
    (_, simpson_order, simpson_budget, simpson_final), (_, trap_order, _, _), \
        (_, step_order, step_budget, step_final) = ladders
    rows = [
        _row("simpson-order", "scaling-law", simpson_order, 4.0,
             0.8 * 4.0 <= simpson_order <= 1.2 * 4.0, "tolerance 20%"),
        _row("trapezoid-order", "scaling-law", trap_order, 2.0,
             0.8 * 2.0 <= trap_order <= 1.2 * 2.0, "tolerance 20%"),
        _row("ifrk4-order", "scaling-law", step_order, 4.0,
             0.8 * 4.0 <= step_order <= 1.2 * 4.0, "tolerance 20%"),
    ]
    dist = h1_norm(simpson_final - step_final)
    budget = simpson_budget + step_budget
    rows.append(
        _row("cross-method-agreement", "budget", dist, budget, dist <= budget,
             f"budgets {simpson_budget:.3e} + {step_budget:.3e}")
    )
    return rows, {}


# --------------------------------------------------------------------------
# normalization / balance law
# --------------------------------------------------------------------------

def norm_law_check(traj, params, kspec):
    """Max interior-node residual of d/dt ||psi||^2 = 2 a2 G1 (1 - ||psi||^2).

    Central-differences the node norms of the trajectory; needs >= 3 nodes.
    """
    l2, g1v = zip(*((l2_norm(f), potential_and_energy(f, kspec)[1]) for f in traj.fields))
    res = norm_law_residuals(traj.times, l2, g1v, params)
    return float(np.max(np.abs(res[1:-1])))


def normalization_study(gspec, kspec, params, T, dt, sigma):
    """Unit-norm conservation and sub-unit norm growth along stepper runs.

    The unit-L2 run must keep | ||psi||^2 - 1 | below 1e-6 throughout, and
    its report's table is the diagnostics table; the half-norm run must show
    strictly positive measured d/dt ||psi||^2 at every recorded node.
    """
    rows = []
    cfg = StepConfig(dt=dt, T=T, kspec=kspec, params=params, snapshot_every=10**9)
    phi_unit = scaled_gaussian(gspec, sigma, l2_target=1.0)
    _, rep = evolve(phi_unit, cfg)
    dev = float(np.max(np.abs(rep.l2**2 - 1.0)))
    rows.append(_row("norm-law-unit-sphere", "identity", dev, 1e-6,
                     rep.completed() and dev < 1e-6, f"T={T}, dt={dt}"))
    bal = float(np.max(np.abs(rep.balance_residual)))
    rows.append(_info("norm-law-unit-residual", bal, "balance defect along the run"))

    phi_half = scaled_gaussian(gspec, sigma, l2_target=0.5)
    _, rep2 = evolve(phi_half, cfg)
    deriv = np.gradient(rep2.l2**2, rep2.times, edge_order=2)
    min_deriv = float(np.min(deriv))
    rows.append(_row("norm-law-subunit-growth", "monotonicity", min_deriv, 0.0,
                     rep2.completed() and min_deriv > 0.0,
                     "d/dt ||psi||^2 > 0 below the unit sphere"))
    return rows, {"diagnostics": rep.table()}


# --------------------------------------------------------------------------
# truncation convergence and continuous dependence
# --------------------------------------------------------------------------

def truncation_convergence(phi, base, a_list):
    """Distance between truncated-kernel and full-kernel fixed points.

    base must use the full kernel; for each truncation radius a (strictly
    decreasing) the same problem is solved with the
    inner-truncated kernel and E(a) = sup-node H1 distance to the full
    solution is recorded. E must be nonincreasing as a decreases; the
    log-log slope is reported as an info row. Every solve is a cold
    march_solve, and each truncated one is compared with the stored full one
    as it runs. The truncation table has rows (a, E).
    """
    if base.kspec.variant != "full":
        raise ValueError("base configuration must use the full kernel")
    a_list = [float(a) for a in a_list]
    if any(a2 >= a1 for a1, a2 in zip(a_list, a_list[1:])):
        raise ValueError("a_list must be strictly decreasing")
    full = list(march_solve(phi, base))
    table = []
    for a in a_list:
        nodes = march_solve(phi, replace(base, kspec=KernelSpec("inner", a=a)))
        table.append((a, sup_h1_distance(phi.spec, nodes, full)))
    errs = [e for _, e in table]
    monotone = all(e2 <= e1 * (1.0 + 1e-9) for e1, e2 in zip(errs, errs[1:]))
    rows = [
        _row("truncation-monotone", "monotonicity",
             max(e2 / e1 for e1, e2 in zip(errs, errs[1:])) if len(errs) > 1 else 0.0,
             1.0, monotone, "E(a) nonincreasing as a decreases")
    ]
    if len(table) >= 2 and min(errs) > 0:
        rows.append(_info("truncation-slope", loglog_slope(a_list, errs), "log-log E(a) vs a"))
    return rows, {"truncation": (("a", "error"), table)}


def continuous_dependence(phi, deltas, cfg, seed, base=None):
    """Perturbation response of the fixed point against the exp(C T) budget.

    Perturbs phi along one fixed-seed H1-normalized random direction scaled
    to each delta, re-solves, and reports R(delta) = sup-node H1 distance /
    delta. Asserts R <= exp(C_fit T) * 1.25 with C_fit fitted from the
    unperturbed run's contraction report, and max/min R < 2 across the
    ladder. The base solve is picard_solve, since its increments give
    C_fit; base, if given, is that solve's (trajectory, report) for phi
    under cfg. Each perturbed solve is a cold march_solve, compared with
    the base node coefficients as it runs. The dependence table has rows
    (delta, R(delta)).
    """
    deltas = [float(d) for d in deltas]
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    if deltas and min(deltas) <= 0:
        raise ValueError("deltas must be positive")
    phi_h1 = h1_norm(phi)
    if deltas and max(deltas) > 0.5 * phi_h1:
        raise ValueError("perturbations must be small against ||phi||_H1")
    base_traj, base_report = base or picard_solve(phi, cfg)
    ana = contraction_report(base_report)
    direction = random_band_limited(phi.spec, np.random.default_rng([seed, 7]))
    direction = direction * (1.0 / h1_norm(direction))
    table = []
    for d in deltas:
        nodes = march_solve(phi + d * direction, cfg)
        table.append((d, sup_h1_distance(phi.spec, nodes, base_traj.fields.coeffs) / d))
    ratios = [r for _, r in table]
    bound = float(np.exp(ana.C_fit * cfg.T) * 1.25)
    rows = [
        _row("dependence-bound", "budget", max(ratios), bound,
             max(ratios) <= bound, f"exp(C_fit T) * 1.25, C_fit={ana.C_fit:.3e}")
    ]
    spread = max(ratios) / min(ratios)
    rows.append(_row("dependence-stability", "stability", spread, 2.0, spread < 2.0,
                     "R(delta) spread across the ladder"))
    return rows, {"dependence": (("delta", "ratio"), table)}


# --------------------------------------------------------------------------
# inequality and Lipschitz batteries
# --------------------------------------------------------------------------

RIESZ_P = 1.125
RIESZ_Q = 4.5  # 3p/(3-2p) at p = 1.125

#: Exponents for the mixed-norm Lipschitz probe: difference of g1 measured in
#: L^{3/2}, input difference in L^{2.25} (valid exponent triple rho=3, r=1.5).
RHO_PRIME = 1.5
R_ONE = 2.25


def ball_field(gspec, rng, M):
    """Random band-limited field scaled to H^1 norm M*u, u ~ U(0.3, 1).

    Drawing the shape before the scale keeps the field a deterministic
    function of (rng stream, M) that is exactly linear in M, so doubling M
    doubles the field.
    """
    f = random_band_limited(gspec, rng)
    target = M * rng.uniform(0.3, 1.0)
    return f * (target / h1_norm(f))


def inequality_battery(gspec, samples, seed):
    """Empirical suprema for the embedding and potential inequalities.

    For each inequality the battery reports the supremum of LHS/RHS over
    seeded band-limited samples and asserts (a) the supremum is finite, (b)
    it grows by < 2x when the sample count doubles (the extra samples extend
    the same seed sequence), and (c) no single ratio exceeds 10x the running
    median. The interaction ratio ||g1(psi)|| / ||psi||_H1^2 additionally
    gets a growth exponent across ball radii (1 by homogeneity).
    """
    if samples < 50:
        raise ValueError(f"need at least 50 samples, got {samples}")
    kspec = KernelSpec("full")

    def sample_fields(count, M=1.0):
        return [
            ball_field(gspec, np.random.default_rng([seed, i]), M) for i in range(count)
        ]

    base = sample_fields(2 * samples)
    h1sq = np.array([h1_norm(f) ** 2 for f in base])
    rows = []

    def family(name, ratios, detail=""):
        ratios = np.asarray(ratios)
        sup1 = float(ratios[:samples].max())
        sup2 = float(ratios.max())
        med = float(np.median(ratios))
        rows.append(_info(f"{name}-sup", sup2, detail))
        growth = sup2 / sup1
        rows.append(_row(f"{name}-stability", "stability", growth, 2.0,
                         np.isfinite(sup2) and growth < 2.0,
                         f"sup growth under sample doubling ({samples} -> {2*samples})"))
        spread = sup2 / med
        rows.append(_row(f"{name}-spread", "stability", spread, 10.0, spread < 10.0,
                         "max ratio vs running median"))

    for p in (2, 3, 4, 6):
        family(f"sobolev-p{p}", np.array([lp_norm(f, p) ** 2 for f in base]) / h1sq,
               detail=f"||psi||_Lp^2 / ||psi||_H1^2 at p={p}")
    # one potential per base field serves the Riesz ratio and ||g1||
    riesz, g1_l2 = [], []
    for f in base:
        rho = density(f)
        pot = apply_kernel(kspec, rho)
        riesz.append(lp_norm(pot, RIESZ_Q) / lp_norm(rho, RIESZ_P))
        g1_l2.append(l2_norm(Field(gspec, f.values * pot.values)))
    family("riesz", riesz,
           detail=f"||K rho||_q / ||rho||_p at p={RIESZ_P}, q={RIESZ_Q}")
    g1_ratio = np.array(g1_l2) / h1sq
    family("g1-ratio", g1_ratio, detail="||g1(psi)||_L2 / ||psi||_H1^2")

    # the M = 1 sample is base[:samples], whose ratios are already measured
    Ms = (0.5, 1.0, 2.0)
    meds = [np.median(g1_ratio[:samples]) if M == 1.0 else
            np.median([l2_norm(g1(f, kspec)) / h1_norm(f) ** 2
                       for f in sample_fields(samples, M=M)])
            for M in Ms]
    slope = loglog_slope(Ms, meds)
    rows.append(_row("g1-ratio-growth", "scaling-law", slope, 1.0,
                     abs(slope - 1.0) <= 0.5,
                     "degree-3 numerator over degree-2 denominator"))
    return rows, {}


def _g1_and_g2(psi, kspec):
    """g1(psi) = psi*V and g2(psi) = G1*psi from one potential V."""
    pot, energy = potential_and_energy(psi, kspec)
    return Field(psi.spec, psi.values * pot.values), energy * psi


def lipschitz_battery(M_list, pairs, seed, *, gspec):
    """Lipschitz-ratio growth of the nonlinearities across ball radii.

    Pair i of `pairs` seeded field pairs in the H^1 ball of radius M comes
    from the child seed [seed, i], so the pairs at each M are the same
    shapes, scaled, and the ratios scale exactly by homogeneity. One
    potential per field gives both g1 and g2, and three probes take the max
    of ||G(phi) - G(psi)|| / ||phi - psi||: g1 in L2, g1 in L^{3/2} against
    L^{9/4}, and g2 in L2. Fits log(max ratio) vs log(M) for each and
    asserts the g2-in-L2 slope stays at or below 3.5 (cubic growth plus
    tolerance). Note g2 is degree-5 homogeneous, so its difference ratio
    scales exactly like M^4: this row measures 4.0 and fails by design —
    it is kept as a negative control for the cubic-growth hypothesis.
    The probes table has one row per probe and radius.
    """
    if len(M_list) < 2 or min(M_list) <= 0:
        raise ValueError(f"need at least two positive ball radii, got {M_list}")
    kspec = KernelSpec("full")
    names = ("g1_in_L2", "g1_in_Lrho", "g2_in_L2")
    ratios = {which: [] for which in names}
    for M in M_list:
        best = dict.fromkeys(names, 0.0)
        for i in range(pairs):
            rng = np.random.default_rng([seed, i])
            phi = ball_field(gspec, rng, M)
            psi = ball_field(gspec, rng, M)
            (g1_phi, g2_phi), (g1_psi, g2_psi) = (_g1_and_g2(f, kspec) for f in (phi, psi))
            d, dg1 = phi - psi, g1_phi - g1_psi
            d_l2 = l2_norm(d)  # two draws of one stream: never 0
            for which, ratio in zip(names, (l2_norm(dg1) / d_l2,
                                            lp_norm(dg1, RHO_PRIME) / lp_norm(d, R_ONE),
                                            l2_norm(g2_phi - g2_psi) / d_l2)):
                best[which] = max(best[which], ratio)
        for which in names:
            ratios[which].append(float(best[which]))
    slopes = {which: loglog_slope(M_list, r) for which, r in ratios.items()}
    rows = [_info(f"{which}-M{float(M):g}", r, f"{pairs} pairs")
            for which in names for M, r in zip(M_list, ratios[which])]
    rows.append(_row("g2-lipschitz-slope", "scaling-law", slopes["g2_in_L2"], 3.5,
                     slopes["g2_in_L2"] <= 3.5,
                     "cubic growth + 0.5; degree-5 homogeneity forces 4.0"))
    rows.append(_info("g1-lipschitz-slope", slopes["g1_in_L2"],
                      "degree-3 homogeneity gives 2.0"))
    rows.append(_info("g1-mixed-lipschitz-slope", slopes["g1_in_Lrho"]))
    probes = [(which, float(M), seed, pairs, r, slopes[which])
              for which in names for M, r in zip(M_list, ratios[which])]
    return rows, {"probes": (("probe", "M", "seed", "pairs", "max_ratio", "fit_slope"), probes)}


def domination_rows(gspec, a, samples, seed):
    """Pointwise |g1 with truncated kernel| <= |g1 full| + 1e-10 on samples:
    measured, as the tail table's negative lobes make it no identity."""
    kspec_full = KernelSpec("full")
    kspec_inner = KernelSpec("inner", a=a)
    worst = -np.inf
    for i in range(samples):
        f = ball_field(gspec, np.random.default_rng([seed, i]), 1.0)
        excess = np.max(np.abs(g1(f, kspec_inner).values) - np.abs(g1(f, kspec_full).values))
        worst = max(worst, float(excess))
    return [
        _row("truncated-g1-domination", "bound", worst, 1e-10, worst <= 1e-10,
             f"max pointwise excess over {samples} samples, a={a:g}")
    ], {}


# --------------------------------------------------------------------------
# the full battery
# --------------------------------------------------------------------------

#: The sizes that differ between the full and the quick battery: the data
#: widths, the Picard node counts, the stepper's step counts and dt, and the
#: domination sample count. The config sets the grid, physics, kernel and the
#: [experiment] keys; every other size is fixed at its use.
SCALES = {
    "full": dict(sigma=0.12, smooth_sigma=0.13, picard_m=64, order_ms=(32, 64, 128),
                 order_steps=(64, 128, 256), trunc_m=32, dep_m=32, norm_dt=2.5e-3,
                 domination_samples=200),
    "quick": dict(sigma=0.15, smooth_sigma=0.15, picard_m=16, order_ms=(16, 32, 64),
                  order_steps=(32, 64, 128), trunc_m=16, dep_m=16, norm_dt=5e-3,
                  domination_samples=50),
}


@dataclass
class VerifyResult:
    rows: list
    tables: dict
    #: {"workers": count, "sections": [(section, seconds), ...]}, in SECTIONS order
    timing: dict


def _picard_config(cfg):
    """The contraction solve's config, which the other solver studies vary."""
    return PicardConfig(T=0.25, m=SCALES[cfg.experiment.scale]["picard_m"], kspec=cfg.kernel,
                        params=cfg.params, quad="simpson", tol=1e-12)


def _smooth_problem(cfg):
    """The smooth datum and config of the order studies and truncation."""
    s = SCALES[cfg.experiment.scale]
    phi = scaled_gaussian(cfg.grid, s["smooth_sigma"], l2_target=0.5)
    pcfg = replace(_picard_config(cfg), m=s["order_ms"][0],
                   params=PhysParams(0.05, cfg.params.alpha2))
    return phi, pcfg


# Each battery job is a generator function of the config (and its own
# arguments) that yields (section, part) as it ends each section: part is a
# cross_method_ladder result for "cross-method", else the (rows, tables) the
# section's study returns.

def _oracle_job(cfg):
    L, seed = cfg.grid.L, cfg.experiment.seed
    yield "kernel-oracle", oracle_equivalence_rows(L=L, n=8, seed=seed)
    # propagator exactness needs spectral headroom; cheap at n=32
    yield "propagator", propagator_rows(GridSpec(32, L), cfg.params.alpha1, seed=seed)


def _tail_job(cfg):
    e = cfg.experiment
    yield "tail-norms", kernel_norm_study(cfg.grid, e.a_list, p=e.p, trials=e.trials, seed=e.seed)


def _contraction_job(cfg):
    e, s = cfg.experiment, SCALES[cfg.experiment.scale]
    phi = scaled_gaussian(cfg.grid, s["sigma"], h1_target=0.5)
    pcfg = _picard_config(cfg)
    traj, report = picard_solve(phi, pcfg)
    # on a 16^3 grid at quick scale the dependence problem is the
    # contraction problem: its solve is reused, not repeated, and the
    # dependence distances read its node coefficients, not its fields
    dep_cfg = replace(pcfg, m=s["dep_m"])
    phi_dep = dependence_datum(cfg.grid.L)
    same = dep_cfg == pcfg and np.array_equal(phi_dep.values, phi.values)
    yield "contraction", contraction_rows(traj, report, cfg.params, cfg.kernel)
    yield "dependence", continuous_dependence(phi_dep, e.deltas, dep_cfg, seed=e.seed,
                                              base=(traj, report) if same else None)


def _ladder_job(cfg, which):
    s = SCALES[cfg.experiment.scale]
    phi, pcfg = _smooth_problem(cfg)
    yield "cross-method", cross_method_ladder(which, phi, pcfg, s["order_ms"], s["order_steps"])


def _normalization_job(cfg):
    s = SCALES[cfg.experiment.scale]
    yield "normalization", normalization_study(cfg.grid, cfg.kernel, cfg.params, T=0.5,
                                               dt=s["norm_dt"], sigma=s["sigma"])


def _truncation_job(cfg):
    phi, pcfg = _smooth_problem(cfg)
    trunc_cfg = replace(pcfg, T=0.15, m=SCALES[cfg.experiment.scale]["trunc_m"])
    yield "truncation", truncation_convergence(phi, trunc_cfg, cfg.experiment.a_list)


def _ball_job(cfg):
    e = cfg.experiment
    gspec = GridSpec(16, cfg.grid.L)
    yield "inequalities", inequality_battery(gspec, samples=e.samples, seed=e.seed)
    yield "lipschitz", lipschitz_battery((0.5, 1.0, 2.0), pairs=e.pairs, seed=e.seed, gspec=gspec)
    yield "domination", domination_rows(gspec, a=0.2, seed=e.seed,
                                        samples=SCALES[e.scale]["domination_samples"])


#: The battery's sections, in the order of its rows and stderr lines.
SECTIONS = ("kernel-oracle", "propagator", "tail-norms", "contraction", "cross-method",
            "normalization", "truncation", "dependence", "inequalities", "lipschitz",
            "domination")

#: The battery's jobs with their arguments: the three short jobs that end
#: its first four sections first, so that their lines print early, then the
#: rest longest first, so that the short ones fill in behind (seconds at
#: quick scale on a 2-core host: 0.10, 0.24, 0.41, then 1.19, 1.17, 0.87,
#: 0.73, 0.67, 0.31).
_JOBS = ((_oracle_job,), (_tail_job,), (_contraction_job,), (_ladder_job, "ifrk4"),
         (_normalization_job,), (_ladder_job, "trapezoid"), (_ladder_job, "simpson"),
         (_ball_job,), (_truncation_job,))


def _run_job(job):
    """Run one job, a generator function and its arguments, here. Returns
    (section, seconds, part, warnings) for each section it ends, warnings
    the (message, category, filename, lineno) of each raised meanwhile."""
    fn, *args = job
    result = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        for name, part in fn(*args):
            now = time.perf_counter()
            result.append((name, now - start, part,
                           [(w.message, w.category, w.filename, w.lineno) for w in caught]))
            caught.clear()
            start = now
    return result


def _worker_count():
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def run_jobs(fn, tasks, collect):
    """Hand fn(task) to collect for each task in a list as it ends; returns
    the worker count, one per CPU this process may run on, at most one per
    task. Two or more take the tasks in order in a pool of forked processes,
    which inherit every loaded module and cache. One, or a call inside a
    pool worker, runs them here, in turn. A task that raises cancels those
    not yet started; no worker outlives it."""
    workers = min(1 if multiprocessing.parent_process() else _worker_count(), len(tasks))
    if workers < 2:
        for result in map(fn, tasks):
            collect(result)
        return workers
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        for future in as_completed([pool.submit(fn, task) for task in tasks]):
            collect(future.result())
    finally:
        pool.shutdown(cancel_futures=True)
    return workers


def verify_battery(cfg):
    """Run the whole battery on a parsed config; returns a VerifyResult.

    cfg.experiment.scale picks the sizes in SCALES. The g2-lipschitz-slope
    row fails by design (see lipschitz_battery), so a full verify run exits
    red on exactly that row when everything else is healthy.

    The jobs run on one worker process per CPU (run_jobs), and the rows and
    tables come out in SECTIONS order whatever order the jobs end in. Once a
    section and every section before it are done, the warnings its job
    raised are raised again here, and one stderr line gives the seconds its
    job spent on it (cross-method: the sum of its three ladders).
    """
    parts = {name: [] for name in SECTIONS}
    timing = []
    registry = {}  # "default" warnings show once per battery

    def collect(result):
        for name, seconds, part, caught in result:
            parts[name].append((seconds, part, caught))
        while len(timing) < len(SECTIONS):
            name = SECTIONS[len(timing)]
            done = parts[name]
            if len(done) < (len(LADDERS) if name == "cross-method" else 1):
                return
            if name == "cross-method":
                done.sort(key=lambda p: LADDERS.index(p[1][0]))
            for _, _, caught in done:
                for message, category, filename, lineno in caught:
                    warnings.warn_explicit(message, category, filename, lineno,
                                           registry=registry)
            seconds = round(sum(s for s, _, _ in done), 2)
            print(f"verify: {name} {seconds:.2f} s", file=sys.stderr, flush=True)
            timing.append((name, seconds))

    workers = run_jobs(_run_job, [(fn, cfg, *args) for fn, *args in _JOBS], collect)
    rows, tables = [], {}
    for name in SECTIONS:
        found = [part for _, part, _ in parts[name]]
        section_rows, section_tables = cross_method_check(found) if name == "cross-method" \
            else found[0]
        rows += section_rows
        tables.update(section_tables)
    tables["battery"] = check_table(rows)
    return VerifyResult(rows, tables, {"workers": workers, "sections": timing})
