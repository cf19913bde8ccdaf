"""End-to-end verification gate.

Criteria 01-09c read one run of `frnse verify --config configs/verify.cfg`,
criterion 10 and the guards below it one quick run. Each criterion pins one
measured property at its stated tolerance and prints a pass/fail line. The
g2 Lipschitz slope test asserts a cubic-growth bound that degree-5
homogeneity genuinely violates (the difference ratio scales exactly like
M^4); it stays red as the battery's negative control.
"""

import contextlib
import filecmp
import io
import os
import re
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from frnse import experiments
from frnse.config import parse_config
from frnse.experiments import verify_battery
from frnse.grid import GridSpec, random_band_limited
from frnse.io import read_csv, read_field, write_csv, write_field
from frnse.picard import march_solve, picard_solve

DATA = Path(__file__).resolve().parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _config(name):
    """The config of `frnse verify --config configs/<name>`."""
    return parse_config((CONFIGS / name).read_text(encoding="utf-8"))


def _recorded_battery(name, log):
    """verify_battery on configs/<name>. Records the caller and solver of
    every fixed-point solve (both solvers always start cold) to log, a
    ForkLog made before the battery starts its workers, and every warning
    raised, and stderr. Two jobs run at a time, so the solves come in no
    fixed order."""
    def recorded(solve, label):
        def call(phi, cfg):
            log.put((sys._getframe(1).f_code.co_name, label))
            return solve(phi, cfg)
        return call

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.setattr(experiments, "picard_solve", recorded(picard_solve, "picard"))
        mp.setattr(experiments, "march_solve", recorded(march_solve, "march"))
        result = verify_battery(_config(name))
    return result, Counter(log.records()), caught, err.getvalue()


@pytest.fixture(scope="module")
def full_run(fork_log):
    """One full battery run, shared by criteria 01-09c and the full drift and
    solve guards."""
    return _recorded_battery("verify.cfg", fork_log())


def _checks(run, *prefixes):
    """The run's rows whose check name starts with one of prefixes, by name."""
    rows = {r.check: r for r in run[0].rows if r.check.startswith(prefixes)}
    assert rows, f"no row named {' or '.join(prefixes)}*"
    return rows


def test_criterion_01_kernel_oracle_equivalence(full_run):
    rows = _checks(full_run, "kernel-oracle-").values()
    worst = max(r.measured for r in rows)
    _verdict("01", "FFT kernel apply matches direct summation, all variants",
             all(r.passed for r in rows) and worst < 1e-10,
             f"worst rel error {worst:.3e}, tolerance 1e-10")


def test_criterion_02_free_propagator_exactness(full_run):
    by = _checks(full_run, "propagator-")
    exact = ["propagator-plane-wave", "propagator-unitarity-l2",
             "propagator-unitarity-h1", "propagator-group-law",
             "propagator-inverse"]
    ok = all(by[k].passed and by[k].measured < 1e-12 for k in exact)
    gauss = [r for k, r in by.items() if k.startswith("propagator-gaussian")]
    ok = ok and gauss and all(r.passed and r.measured < 1e-6 for r in gauss)
    _verdict("02", "free propagator: phase/unitarity/group law 1e-12, "
             "analytic Gaussian 1e-6", ok)


def test_criterion_03_tail_operator_norm_bound(full_run):
    rows = _checks(full_run, "tail-norm")
    table = full_run[0].tables["tail_norms"][1]
    bounds_ok = all(est <= bound for _, bound, est in table)
    slope = rows["tail-norm-slope"]
    _verdict("03", "tail operator norm under the tail table's l1 mass "
             "||k_h||_1 with slope 2.0 +/- 0.3",
             bounds_ok and all(r.passed for r in rows.values()),
             f"slope {slope.measured:.3f}")


def test_criterion_04_contraction_regime(full_run):
    # the run itself holds convergence: picard_solve raises NonConvergence
    rows = _checks(full_run, "picard-")
    residual = full_run[0].tables["picard"][1][-1][2]
    ok = ("picard-degenerate" not in rows
          and all(r.passed for r in rows.values()) and residual < 1e-8)
    _verdict("04", "fixed-point iteration contracts with factorial envelope "
             "and residual < 1e-8", ok,
             f"C_fit*T {rows['picard-factorial-envelope'].measured:.3f}, "
             f"residual {residual:.3e}")


def test_criterion_05_cross_method_agreement(full_run):
    by = _checks(full_run, "simpson-order", "trapezoid-order", "ifrk4-order",
                 "cross-method-agreement")
    agree = by["cross-method-agreement"]
    _verdict("05", "quadrature/stepper orders within 20% and terminal states "
             "agree within summed Richardson budgets",
             all(r.passed for r in by.values()),
             f"H1 distance {agree.measured:.3e} <= budget {agree.threshold:.3e}")


def test_criterion_06_norm_law(full_run):
    by = _checks(full_run, "norm-law-")
    unit, sub = by["norm-law-unit-sphere"], by["norm-law-subunit-growth"]
    _verdict("06", "unit-sphere norm pinned to 1e-6 over [0, 0.5]; "
             "sub-unit norm strictly grows",
             unit.passed and sub.passed,
             f"max | ||psi||^2 - 1 | = {unit.measured:.3e}")


def test_criterion_07_truncation_convergence(full_run):
    rows = _checks(full_run, "truncation-").values()
    errs = [e for _, e in full_run[0].tables["truncation"][1]]
    _verdict("07", "truncated-kernel fixed points converge to the full one "
             "as a decreases",
             all(r.passed for r in rows),
             "E(a) = " + ", ".join(f"{e:.3e}" for e in errs))


def test_criterion_08_continuous_dependence(full_run):
    rows = _checks(full_run, "dependence-").values()
    ratios = [r for _, r in full_run[0].tables["dependence"][1]]
    _verdict("08", "perturbation response bounded by exp(C_fit T) * 1.25 and "
             "stable (spread < 2) across three decades",
             all(r.passed for r in rows),
             "R(delta) = " + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_09a_truncated_g1_domination(full_run):
    (row,) = _checks(full_run, "truncated-g1-domination").values()
    _verdict("09a", "truncated g1 pointwise dominated by full g1 on 200 "
             "samples", row.passed,
             f"max excess {row.measured:.3e} <= 1e-10")


def test_criterion_09b_g2_lipschitz_slope(full_run):
    (red,) = _checks(full_run, "g2-lipschitz-slope").values()
    # degree-5 homogeneity makes the true slope exactly 4; the cubic-growth
    # bound below is expected to fail and is kept as a negative control
    _verdict("09b", "g2 Lipschitz-in-M slope at or below 3.5",
             red.measured <= red.threshold,
             f"measured {red.measured:.3f}, threshold {red.threshold}")


def test_criterion_09c_g1_ratio_stability(full_run):
    g1_rows = _checks(full_run, "g1-ratio").values()
    _verdict("09c", "g1 interaction ratio stable under sample doubling with "
             "homogeneous growth", all(r.passed for r in g1_rows))


def test_full_battery_solve_sequence(full_run):
    assert full_run[1] == Counter({
        ("_contraction_job", "picard"): 1,  # the contraction solve
        ("quadrature_order_study", "march"): 6,  # Simpson and trapezoid ladders
        ("truncation_convergence", "march"): 4,  # the full kernel, then 3 radii
        # the dependence problem (16^3, m 32) is not the contraction problem
        # (32^3, m 64) at full scale: its base is a Weissinger iteration anew
        ("continuous_dependence", "picard"): 1,
        ("continuous_dependence", "march"): 3,
    })


@pytest.fixture(scope="module")
def quick_run(fork_log):
    """One quick battery run, shared by criterion 10, the quick drift guard
    and the warning, solver and progress guards."""
    return _recorded_battery("verify-quick.cfg", fork_log())


def test_quick_battery_emits_no_box_decay_warning(quick_run):
    # the battery compares two solvers on one periodic grid; box decay is
    # checked only where a free-space reading is made
    caught = quick_run[2]
    assert not [w for w in caught if "at the box boundary" in str(w.message)]


def test_quick_battery_measured_solves_start_cold(quick_run):
    assert quick_run[1] == Counter({
        # the one Weissinger iteration: its increments feed contraction_rows
        # and, since at quick scale it is also the dependence base solve,
        # continuous_dependence's C_fit
        ("_contraction_job", "picard"): 1,
        # every other solve only needs the fixed point: a cold march
        ("quadrature_order_study", "march"): 6,  # Simpson and trapezoid ladders
        ("truncation_convergence", "march"): 3,
        ("continuous_dependence", "march"): 3,
    })


def test_quick_battery_reports_each_section(quick_run):
    # one stderr line per section, in battery order, with its seconds
    lines = quick_run[3].splitlines()
    names = [re.fullmatch(r"verify: (\S+) \d+\.\d\d s", line).group(1)
             for line in lines]
    assert names == ["kernel-oracle", "propagator", "tail-norms", "contraction",
                     "cross-method", "normalization", "truncation", "dependence",
                     "inequalities", "lipschitz", "domination"]


def test_criterion_10_determinism(tmp_path, quick_run):
    # the second run takes the in-process path, so the tables also show that
    # it and the worker pool write the same bytes
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("ignore")
        mp.setattr(experiments, "_worker_count", lambda: 1)
        r1, r2 = quick_run[0], verify_battery(_config("verify-quick.cfg"))
    assert r2.timing["workers"] == 1
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
    f = random_band_limited(GridSpec(16, 1.6), np.random.default_rng(42))
    snap = str(tmp_path / "snap.field")
    write_field(snap, f, t=0.125)
    g, t = read_field(snap)
    round_trip = t == 0.125 and g.values.tobytes() == f.values.tobytes()
    _verdict("10", "verify battery byte-deterministic and snapshots "
             "round-trip bit-exactly", same and round_trip,
             f"{len(names)} tables compared")


#: Rows that read round-off, not a measurement: an absolute 1e-12 holds them
#: on top of the relative rule. Every other row is held relative only.
ROUNDOFF_ROWS = ("kernel-oracle-", "propagator-plane-wave", "propagator-unitarity-",
                 "propagator-group-law", "propagator-inverse", "picard-residual")


def _assert_matches_golden(rows, golden, verdict_only=()):
    """Battery rows against a golden battery CSV: the same checks and
    verdicts, and values within 1e-5 relative (+ 1e-12 for ROUNDOFF_ROWS)
    but for verdict_only."""
    _, want = read_csv(str(DATA / golden))  # check, kind, measured, ..., passed
    assert [(r.check, r.passed) for r in rows] == [(g[0], g[4] == "true") for g in want]
    moved = []
    for r, g in zip(rows, want):
        ref = float(g[2])
        slack = 1e-12 if r.check.startswith(ROUNDOFF_ROWS) else 0.0
        if r.check not in verdict_only and not abs(r.measured - ref) <= 1e-5 * abs(ref) + slack:
            moved.append(f"{r.check}: {r.measured!r} vs golden {g[2]}")
    assert not moved, "; ".join(moved)


def test_quick_verify_drift_guard(quick_run):
    # every quick-verify row against the values the battery measured when
    # the kernel became spectral. picard-ratios-decreasing is a
    # ratio of successive increments that reach the 1e-13 floor: any
    # reordering of round-off moves it by percents, so only its verdict is
    # pinned
    _assert_matches_golden(quick_run[0].rows, "verify_quick_golden.csv",
                           verdict_only=("picard-ratios-decreasing",))


def test_full_verify_drift_guard(full_run):
    # every full-verify row against the battery CSV that `frnse verify
    # --config configs/verify.cfg` wrote when the kernel became spectral. All are
    # pinned: picard-ratios-decreasing reads 0.7526 against the factorial
    # law's 3/4 here, its last increment 1,800 times the 2e-16 residual
    _assert_matches_golden(full_run[0].rows, "verify_full_golden.csv")
