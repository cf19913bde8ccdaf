"""End-to-end verification gate.

Each test pins one measured property of the solver stack at its stated
tolerance and prints a single pass/fail line. The g2 Lipschitz slope test
asserts a cubic-growth bound that degree-5 homogeneity genuinely violates
(the difference ratio scales exactly like M^4); it is expected to stay red
and serves as the battery's negative control.
"""

import contextlib
import filecmp
import io
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from frnse import experiments
from frnse.experiments import (contraction_rows,
                               continuous_dependence, cross_method_check,
                               domination_rows, inequality_battery,
                               kernel_norm_study, lipschitz_battery,
                               norm_law_check, normalization_study,
                               oracle_equivalence_rows, propagator_rows,
                               truncation_convergence, verify_battery)
from frnse.config import parse_config
from frnse.grid import GridSpec, random_band_limited, scaled_gaussian
from frnse.io import read_csv, read_field, write_csv, write_field
from frnse.kernel import KernelSpec, default_radius
from frnse.nonlinear import PhysParams
from frnse.picard import PicardConfig, march_solve, picard_solve

G32 = GridSpec(32, 1.6)
G16 = GridSpec(16, 1.6)
KFULL = KernelSpec("full", R=default_radius(1.6))
PARAMS = PhysParams(1.0, 1.0)
SMOOTH = PhysParams(0.05, 1.0)
GOLDEN = Path(__file__).resolve().parent / "data" / "verify_quick_golden.csv"
QUICK_CFG = Path(__file__).resolve().parents[1] / "configs" / "verify-quick.cfg"


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_kernel_oracle_equivalence():
    rows = oracle_equivalence_rows(L=1.6, n=8, seed=0)
    worst = max(r.measured for r in rows)
    _verdict("01", "FFT kernel apply matches direct summation, all variants",
             all(r.passed for r in rows) and worst < 1e-10,
             f"worst rel error {worst:.3e}, tolerance 1e-10")


def test_criterion_02_free_propagator_exactness():
    rows = propagator_rows(G32, PARAMS.alpha1, seed=0, sigma=0.12)
    by = {r.check: r for r in rows}
    exact = ["propagator-plane-wave", "propagator-unitarity-l2",
             "propagator-unitarity-h1", "propagator-group-law",
             "propagator-inverse"]
    ok = all(by[k].passed and by[k].measured < 1e-12 for k in exact)
    gauss = [r for r in rows if r.check.startswith("propagator-gaussian")]
    ok = ok and gauss and all(r.passed and r.measured < 1e-6 for r in gauss)
    _verdict("02", "free propagator: phase/unitarity/group law 1e-12, "
             "analytic Gaussian 1e-6", ok)


def test_criterion_03_tail_operator_norm_bound():
    table, rows = kernel_norm_study(G32, (0.4, 0.2, 0.1), seed=0)
    bounds_ok = all(est <= bound for _, bound, est in table)
    slope = [r for r in rows if r.check == "tail-norm-slope"][0]
    _verdict("03", "tail operator norm under 2*pi*a^2 with slope 2.0 +/- 0.3",
             bounds_ok and all(r.passed for r in rows),
             f"slope {slope.measured:.3f}")


def test_criterion_04_contraction_regime():
    phi = scaled_gaussian(G32, 0.12, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=64, kspec=KFULL, params=PARAMS,
                       quad="simpson", tol=1e-12)
    _, report = picard_solve(phi, cfg)
    rows, ana = contraction_rows(report)
    ok = (report.converged and not ana.degenerate
          and all(r.passed for r in rows) and report.residual < 1e-8)
    _verdict("04", "fixed-point iteration contracts with factorial envelope "
             "and residual < 1e-8", ok,
             f"C_fit*T {ana.C_fit * report.T:.3f}, residual {report.residual:.3e}")


def test_criterion_05_cross_method_agreement():
    phi = scaled_gaussian(G32, 0.13, l2_target=0.5)
    cfg = PicardConfig(T=0.25, m=32, kspec=KFULL, params=SMOOTH,
                       quad="simpson", tol=1e-12)
    rows = cross_method_check(phi, cfg, ms=(32, 64, 128),
                              steps=(64, 128, 256))
    by = {r.check: r for r in rows}
    agree = by["cross-method-agreement"]
    _verdict("05", "quadrature/stepper orders within 20% and terminal states "
             "agree within summed Richardson budgets",
             all(r.passed for r in rows),
             f"H1 distance {agree.measured:.3e} <= budget {agree.threshold:.3e}")


def test_criterion_06_norm_law():
    rows, _ = normalization_study(G32, KFULL, PARAMS, T=0.5, dt=2.5e-3,
                                  sigma=0.12, seed=0)
    by = {r.check: r for r in rows}
    unit, sub = by["norm-law-unit-sphere"], by["norm-law-subunit-growth"]
    _verdict("06", "unit-sphere norm pinned to 1e-6 over [0, 0.5]; "
             "sub-unit norm strictly grows",
             unit.passed and sub.passed,
             f"max | ||psi||^2 - 1 | = {unit.measured:.3e}")


def test_criterion_07_truncation_convergence():
    phi = scaled_gaussian(G32, 0.13, l2_target=0.5)
    cfg = PicardConfig(T=0.15, m=32, kspec=KFULL, params=SMOOTH,
                       quad="simpson", tol=1e-12)
    table, slope, rows = truncation_convergence(phi, cfg, (0.4, 0.2, 0.1))
    errs = [e for _, e in table]
    _verdict("07", "truncated-kernel fixed points converge to the full one "
             "as a decreases",
             all(r.passed for r in rows),
             "E(a) = " + ", ".join(f"{e:.3e}" for e in errs))


def test_criterion_08_continuous_dependence():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(G16, 0.15, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=32, kspec=KFULL, params=PARAMS,
                       quad="simpson", tol=1e-12)
    table, rows = continuous_dependence(phi, (1e-2, 1e-3, 1e-4), cfg, seed=0)
    ratios = [r for _, r in table]
    _verdict("08", "perturbation response bounded by exp(C_fit T) * 1.25 and "
             "stable (spread < 2) across three decades",
             all(r.passed for r in rows),
             "R(delta) = " + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_09a_truncated_g1_domination():
    rows = domination_rows(G16, a=0.2, samples=200, seed=0)
    _verdict("09a", "truncated g1 pointwise dominated by full g1 on 200 "
             "samples", all(r.passed for r in rows),
             f"max excess {rows[0].measured:.3e} <= 1e-10")


def test_criterion_09b_g2_lipschitz_slope():
    rows, _ = lipschitz_battery((0.5, 1.0, 2.0), pairs=10, seed=0, gspec=G16)
    red = [r for r in rows if r.check == "g2-lipschitz-slope"][0]
    # degree-5 homogeneity makes the true slope exactly 4; the cubic-growth
    # bound below is expected to fail and is kept as a negative control
    _verdict("09b", "g2 Lipschitz-in-M slope at or below 3.5",
             red.measured <= red.threshold,
             f"measured {red.measured:.3f}, threshold {red.threshold}")


def test_criterion_09c_g1_ratio_stability():
    rows, _ = inequality_battery(G16, samples=60, seed=0)
    g1_rows = [r for r in rows if r.check.startswith("g1-ratio")]
    _verdict("09c", "g1 interaction ratio stable under sample doubling with "
             "homogeneous growth", bool(g1_rows) and all(r.passed for r in g1_rows))


def _quick_config():
    """The config of `frnse verify --config configs/verify-quick.cfg`."""
    return parse_config(QUICK_CFG.read_text(encoding="utf-8"))


def _quick_battery():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return verify_battery(_quick_config())


@pytest.fixture(scope="module")
def quick_run():
    """One quick battery run, shared by criterion 10, the drift guard and the
    warning, solver and progress guards. Records the caller and solver of
    every fixed-point solve (both solvers always start cold), every warning
    raised, and stderr."""
    solves = []

    def picard(phi, cfg):
        solves.append((sys._getframe(1).f_code.co_name, "picard"))
        return picard_solve(phi, cfg)

    def march(phi, cfg):
        solves.append((sys._getframe(1).f_code.co_name, "march"))
        return march_solve(phi, cfg)

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.setattr(experiments, "picard_solve", picard)
        mp.setattr(experiments, "march_solve", march)
        result = verify_battery(_quick_config())
    return result, solves, caught, err.getvalue()


@pytest.fixture(scope="module")
def quick_battery(quick_run):
    return quick_run[0]


def test_quick_battery_emits_no_box_decay_warning(quick_run):
    # the battery compares two solvers on one periodic grid; box decay is
    # checked only where a free-space reading is made
    caught = quick_run[2]
    assert not [w for w in caught if "at the box boundary" in str(w.message)]


def test_quick_battery_measured_solves_start_cold(quick_run):
    assert quick_run[1] == [
        # the one Weissinger iteration: its increments feed contraction_rows
        # and, since at quick scale it is also the dependence base solve,
        # continuous_dependence's C_fit
        ("verify_battery", "picard"),
        # every other solve only needs the fixed point: a cold march
        *[("quadrature_order_study", "march")] * 6,  # Simpson and trapezoid ladders
        *[("truncation_convergence", "march")] * 3,
        *[("continuous_dependence", "march")] * 3,
    ]


def test_quick_battery_reports_each_section(quick_run):
    # one stderr line per section, in battery order, with its seconds
    lines = quick_run[3].splitlines()
    names = [re.fullmatch(r"verify: (\S+) \d+\.\d\d s", line).group(1)
             for line in lines]
    assert names == ["kernel-oracle", "propagator", "tail-norms", "contraction",
                     "cross-method", "normalization", "truncation", "dependence",
                     "inequalities", "lipschitz", "domination"]


def test_criterion_10_determinism(tmp_path, quick_battery):
    r1, r2 = quick_battery, _quick_battery()
    dirs = [tmp_path / "one", tmp_path / "two"]
    for d, res in zip(dirs, (r1, r2)):
        os.makedirs(d)
        for name, (header, rows) in sorted(res.tables.items()):
            write_csv(str(d / f"{name}.csv"), header, rows)
    names = sorted(r1.tables)
    same = all(
        filecmp.cmp(str(dirs[0] / f"{n}.csv"), str(dirs[1] / f"{n}.csv"),
                    shallow=False)
        for n in names
    )
    f = random_band_limited(G16, np.random.default_rng(42))
    snap = str(tmp_path / "snap.field")
    write_field(snap, f, t=0.125)
    g, t = read_field(snap)
    round_trip = t == 0.125 and g.values.tobytes() == f.values.tobytes()
    _verdict("10", "verify battery byte-deterministic and snapshots "
             "round-trip bit-exactly", same and round_trip,
             f"{len(names)} tables compared")


def test_quick_verify_drift_guard(quick_battery):
    # every quick-verify row against the values the battery measured before
    # the solver core moved to spectral space; verdicts must not change and
    # measured values may move by round-off only
    header, golden = read_csv(str(GOLDEN))
    col = {name: j for j, name in enumerate(header)}
    rows = quick_battery.rows
    assert [r.check for r in rows] == [g[col["check"]] for g in golden]
    moved = []
    for r, g in zip(rows, golden):
        assert r.passed == (g[col["passed"]] == "true"), r.check
        if r.check == "picard-ratios-decreasing":
            # a ratio of successive increments that reach the 1e-13 floor:
            # any reordering of round-off moves it by percents, so only its
            # verdict is pinned
            continue
        want = float(g[col["measured"]])
        if not abs(r.measured - want) <= 1e-5 * abs(want) + 1e-12:
            moved.append(f"{r.check}: {r.measured!r} vs golden {want!r}")
    assert not moved, "; ".join(moved)
