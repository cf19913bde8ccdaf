import itertools
import math
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from frnse import experiments, kernel, nonlinear
from frnse.config import parse_config

from frnse.experiments import (_order_and_budget, ball_field, contraction_rows,
                               continuous_dependence, cross_method_check, domination_rows,
                               gaussian_potential_row,
                               inequality_battery, kernel_norm_study,
                               lipschitz_battery, loglog_slope,
                               norm_law_check, normalization_study,
                               oracle_equivalence_rows, propagator_rows,
                               quadrature_order_study, truncation_convergence)
from frnse.grid import Field, GridSpec, h1_norm, min_image_r2, scaled_gaussian
from frnse.kernel import KernelSpec, apply_kernel, kernel_table
from frnse.nonlinear import PhysParams
from frnse.picard import PicardConfig, march_solve, picard_solve
from frnse.stepper import StepConfig, evolve
from frnse.trajectory import NodeFields, Trajectory, sup_h1_distance


def _small_data(spec, h1_target=0.5):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return scaled_gaussian(spec, 0.15, h1_target=h1_target)


def test_loglog_slope_exact_on_power_law():
    xs = np.array([0.1, 0.2, 0.5, 1.3])
    assert loglog_slope(xs, 3.0 * xs**2.5) == pytest.approx(2.5, abs=1e-12)


def test_oracle_equivalence_rows_pass():
    rows, tables = oracle_equivalence_rows(1.6, 8, 0)
    assert tables == {}
    assert [r.check for r in rows] == ["kernel-oracle-full", "kernel-oracle-inner",
                                       "kernel-oracle-tail", "kernel-gaussian-potential"]
    assert all(r.passed for r in rows)
    assert all(r.measured < 1e-10 for r in rows[:3])
    assert rows[3] == gaussian_potential_row(1.6)


def test_gaussian_potential_row_is_spectrally_accurate():
    # the closed-form Newton potential of a Gaussian: the error falls from
    # 1.5e-6 at n=16 to the Gaussian's own e^-22 floor at the box face
    row = gaussian_potential_row(1.6)
    assert (row.check, row.kind, row.threshold, row.detail) == (
        "kernel-gaussian-potential", "identity", 1e-8, "n=32, sigma=0.12")
    assert row.passed and row.measured < 1e-9
    # the same comparison on a 16^3 grid, the closed form taken here
    gspec, sigma = GridSpec(16, 1.6), 0.12
    r = np.sqrt(min_image_r2(gspec))
    erf = np.vectorize(math.erf)(r / (math.sqrt(2.0) * sigma))
    ref = np.full_like(r, 4.0 * np.pi * sigma**2)  # the limit at r = 0
    np.divide((2.0 * np.pi * sigma**2) ** 1.5 * erf, r, out=ref, where=r > 0.0)
    pot = apply_kernel(KernelSpec("full"), Field(gspec, np.exp(-r**2 / (2.0 * sigma**2))))
    assert 1e-7 < np.linalg.norm(pot.values - ref) / np.linalg.norm(ref) < 1e-5


def test_propagator_rows_pass(gspec32):
    rows, tables = propagator_rows(gspec32, 1.0, seed=0)
    assert tables == {}
    assert all(r.passed for r in rows)
    names = {r.check for r in rows}
    assert "propagator-gaussian-t0.002" in names
    assert "propagator-unitarity-l2" in names


def test_kernel_norm_study(gspec32):
    rows, tables = kernel_norm_study(gspec32, a_list=(0.4, 0.2), p=2.0, trials=8, seed=0)
    assert list(tables) == ["tail_norms"]
    header, table = tables["tail_norms"]
    assert header == ("a", "bound", "estimate")
    assert all(r.passed for r in rows)
    assert [a for a, _, _ in table] == [0.4, 0.2]
    for (a, bound, est), row in zip(table, rows):
        assert est <= bound
        # the bound is the l1 mass of the tail table; the table sums to
        # 2 pi a^2 and has negative lobes, so the mass is larger
        tail = kernel_table(gspec32, KernelSpec("tail", a=a))
        assert bound == pytest.approx(np.abs(tail).sum(), rel=1e-14)
        assert tail.sum() == pytest.approx(2.0 * np.pi * a**2, rel=1e-12)
        assert bound > tail.sum()
        assert row.threshold == bound
        assert f"2 pi a^2 = {2.0 * np.pi * a**2:.6g}" in row.detail


def test_kernel_norm_study_builds_no_table(monkeypatch):
    # the study takes each l1 mass from the table's even octant: with
    # kernel_table raising it still runs on both estimators, and its bounds
    # are the tables' masses
    gspec, a_list = GridSpec(16, 1.6), (0.4, 0.2, 0.1)
    masses = [np.abs(kernel_table(gspec, KernelSpec("tail", a=a))).sum() for a in a_list]

    def boom(*args):
        raise AssertionError("kernel_table called")

    monkeypatch.setattr(kernel, "kernel_table", boom)
    monkeypatch.setattr(experiments, "kernel_table", boom, raising=False)
    for p in (2.0, 3.0):
        _, tables = kernel_norm_study(gspec, a_list, p=p, trials=4, seed=0)
        bounds = [bound for _, bound, _ in tables["tail_norms"][1]]
        assert bounds == pytest.approx(masses, rel=1e-13, abs=0.0)


def test_tail_norm_estimate_under_continuum_bound_at_p2():
    # at a = 3h on a 48^3 grid the p=2 estimate sits under 2 pi a^2, the
    # multiplier's peak; the row holds it against the table's l1 mass
    rows, tables = kernel_norm_study(GridSpec(48, 1.6), a_list=(0.1,), p=2.0, trials=32,
                                     seed=0)
    (_, bound, est), = tables["tail_norms"][1]
    assert est <= 2.0 * np.pi * 0.1**2 * (1.0 + 1e-12)
    assert est > 0.9 * 2.0 * np.pi * 0.1**2
    assert [r.check for r in rows] == ["tail-norm-bound-a0.1"]
    assert rows[0].passed and est <= bound


def test_contraction_rows_converged(gspec16, kfull):
    phi = _small_data(gspec16)
    cfg = PicardConfig(T=0.25, m=8, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-11)
    traj, report = picard_solve(phi, cfg)
    rows, tables = contraction_rows(traj, report, cfg.params, kfull)
    names = [r.check for r in rows]
    assert names == ["picard-increments-decreasing", "picard-ratios-decreasing",
                     "picard-factorial-envelope", "picard-residual",
                     "picard-C-fit", "picard-fixed-point-balance"]
    assert all(r.passed for r in rows)
    assert rows[-1].measured == norm_law_check(traj, cfg.params, kfull)
    np.testing.assert_equal(tables, {"picard": report.table()})  # NaN residuals


def test_increments_row_reads_the_increments_its_verdict_reads(gspec8, kfull):
    # contraction_report fits only the increments above its round-off floor
    # (1e-13 of the first); the row's measured value comes from those too
    phi = _small_data(gspec8)
    cfg = PicardConfig(T=0.25, m=4, kspec=kfull, params=PhysParams(1.0, 1.0))
    traj, report = picard_solve(phi, cfg)
    report = replace(report, increments=(1e-1, 1e-3, 1e-6, 1e-16, 1e-15))
    row = contraction_rows(traj, report, cfg.params, kfull)[0][0]
    assert row.check == "picard-increments-decreasing"
    assert row.measured == pytest.approx(1e-3, rel=1e-12)
    assert row.passed and row.measured <= row.threshold == 1.0


def _ladder_results(gspec8):
    phi = _small_data(gspec8)
    return [("simpson", 4.1, 1e-3, phi), ("trapezoid", 1.9, 2e-3, phi * 1.5),
            ("ifrk4", 3.9, 3e-3, phi * 1.002)]


def test_cross_method_check_matches_ladders_by_name(gspec8):
    ladders = _ladder_results(gspec8)
    rows, tables = cross_method_check(ladders)
    assert tables == {}
    assert [(r.check, r.measured, r.threshold) for r in rows[:3]] == [
        ("simpson-order", 4.1, 4.0), ("trapezoid-order", 1.9, 2.0), ("ifrk4-order", 3.9, 4.0)]
    assert rows[3].check == "cross-method-agreement"
    assert rows[3].measured == pytest.approx(0.002 * h1_norm(ladders[0][3]), rel=1e-12)
    assert rows[3].threshold == 1e-3 + 3e-3
    for order in itertools.permutations(ladders):
        assert cross_method_check(list(order)) == (rows, {})


def test_cross_method_order_band_edges(gspec8):
    # each order row passes on 0.8 * nominal <= order <= 1.2 * nominal,
    # tested at the band's edges and one ulp outside them
    ladders = _ladder_results(gspec8)
    for i, nominal in enumerate((4.0, 2.0, 4.0)):
        for edge in (0.8 * nominal, 1.2 * nominal):
            for order in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                case = list(ladders)
                case[i] = (case[i][0], order, *case[i][2:])
                row = cross_method_check(case)[0][i]
                assert row.passed == (0.8 * nominal <= order <= 1.2 * nominal)


def test_contraction_rows_degenerate(gspec8, rng, kfull):
    from frnse.grid import random_band_limited

    phi = random_band_limited(gspec8, rng)
    cfg = PicardConfig(T=0.3, m=4, kspec=kfull, params=PhysParams(1.0, 0.0))
    traj, report = picard_solve(phi, cfg)
    rows, tables = contraction_rows(traj, report, cfg.params, kfull)
    assert [r.check for r in rows] == ["picard-degenerate", "picard-fixed-point-balance"]
    np.testing.assert_equal(tables, {"picard": report.table()})  # NaN residuals


def test_norm_law_check(gspec8, kfull):
    phi = _small_data(gspec8)
    cfg = StepConfig(dt=5e-3, T=0.05, kspec=kfull, params=PhysParams(1.0, 1.0),
                     snapshot_every=1)
    traj, _ = evolve(phi, cfg)
    res = norm_law_check(traj, PhysParams(1.0, 1.0), kfull)
    assert res < 1e-3
    short = Trajectory(traj.times[:2], traj.fields[:2])
    with pytest.raises(ValueError):
        norm_law_check(short, PhysParams(1.0, 1.0), kfull)


@pytest.mark.parametrize("quad", ["simpson", "trapezoid"])
def test_quadrature_order_study_matches_whole_rungs(gspec8, kfull, quad):
    # the lockstep ladder against its definition: each rung's whole node
    # list, compared with every other node of the next rung once all are in
    phi = _small_data(gspec8)
    cfg = PicardConfig(T=0.25, m=4, kspec=kfull, params=PhysParams(0.05, 1.0), quad=quad,
                       tol=1e-12)
    ms = (4, 8, 16)
    order, budget, final = quadrature_order_study(phi, cfg, ms)
    rungs = [list(march_solve(phi, replace(cfg, m=m))) for m in ms]
    diffs = [sup_h1_distance(gspec8, coarse, fine[::2]) for coarse, fine in zip(rungs, rungs[1:])]
    assert (order, budget) == _order_and_budget(diffs)
    last = NodeFields(phi, replace(cfg, m=ms[-1]).times, rungs[-1], cfg.params.alpha1)[-1]
    assert np.array_equal(final.values, last.values)
    for ms in ((4, 8), (4, 8, 12)):
        with pytest.raises(ValueError, match="at least 3 doubling node counts"):
            quadrature_order_study(phi, cfg, ms)


def test_normalization_study_quick(gspec16, kfull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, tables = normalization_study(
            gspec16, kfull, PhysParams(1.0, 1.0), T=0.1, dt=2.5e-3, sigma=0.12)
        # the diagnostics table is the unit-L2 run's report's own
        cfg = StepConfig(dt=2.5e-3, T=0.1, kspec=kfull, params=PhysParams(1.0, 1.0),
                         snapshot_every=10**9)
        _, unit = evolve(scaled_gaussian(gspec16, 0.12, l2_target=1.0), cfg)
    by_name = {r.check: r for r in rows}
    assert by_name["norm-law-unit-sphere"].passed
    assert by_name["norm-law-subunit-growth"].passed
    assert unit.completed()
    np.testing.assert_equal(tables, {"diagnostics": unit.table()})


def test_truncation_convergence_guards(gspec16, kfull):
    phi = _small_data(gspec16)
    base = PicardConfig(T=0.1, m=4, kspec=kfull, params=PhysParams(1.0, 1.0),
                        quad="trapezoid")
    with pytest.raises(ValueError):
        truncation_convergence(phi, base, a_list=(0.2, 0.4))  # not decreasing
    inner = PicardConfig(T=0.1, m=4, params=PhysParams(1.0, 1.0),
                         kspec=KernelSpec("inner", a=0.3))
    with pytest.raises(ValueError):
        truncation_convergence(phi, inner, a_list=(0.4, 0.2))


def test_truncation_convergence_below_grid_spacing(gspec16, kfull):
    # the battery's quick truncation problem, down to a = h/2 = 0.05: no
    # radius needs resolving, and E(a) keeps shrinking below h
    phi = scaled_gaussian(gspec16, 0.15, l2_target=0.5)
    base = PicardConfig(T=0.15, m=16, kspec=kfull, params=PhysParams(0.05, 1.0),
                        quad="simpson", tol=1e-12)
    rows, tables = truncation_convergence(phi, base, a_list=(0.4, 0.2, 0.1, 0.05))
    header, table = tables["truncation"]
    assert header == ("a", "error")
    assert [a for a, _ in table] == [0.4, 0.2, 0.1, 0.05]
    errs = [e for _, e in table]
    assert errs == pytest.approx([0.913, 0.730, 0.314, 0.094], abs=1e-3)
    assert all(r.passed for r in rows if r.kind != "info")


def test_truncation_convergence_runs(gspec16, kfull):
    phi = _small_data(gspec16, h1_target=0.4)
    base = PicardConfig(T=0.1, m=8, kspec=kfull, params=PhysParams(1.0, 1.0),
                        quad="simpson", tol=1e-11)
    rows, tables = truncation_convergence(phi, base, a_list=(0.4, 0.2))
    (_, table), = tables.values()
    assert len(table) == 2
    assert table[0][1] >= table[1][1]  # error shrinks with a
    assert all(r.passed for r in rows if r.kind != "info")
    # the slope is the truncation-slope row's, fitted on the table
    assert rows[-1].check == "truncation-slope"
    assert rows[-1].measured == loglog_slope([a for a, _ in table], [e for _, e in table])


def test_continuous_dependence_guards(gspec8, kfull):
    phi = _small_data(gspec8)
    cfg = PicardConfig(T=0.1, m=4, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="trapezoid")
    with pytest.raises(ValueError):
        continuous_dependence(phi, (1e-3, 1e-2), cfg, seed=0)  # not decreasing
    with pytest.raises(ValueError):
        continuous_dependence(phi, (10.0, 1.0), cfg, seed=0)  # not small vs phi
    with pytest.raises(ValueError):
        continuous_dependence(phi, (1e-3, -1e-4), cfg, seed=0)  # not positive


def test_continuous_dependence_runs(gspec16, kfull):
    phi = _small_data(gspec16)
    cfg = PicardConfig(T=0.1, m=8, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-11)
    rows, tables = continuous_dependence(phi, (1e-2, 1e-3), cfg, seed=0)
    header, table = tables["dependence"]
    assert header == ("delta", "ratio") and [d for d, _ in table] == [1e-2, 1e-3]
    assert all(r.passed for r in rows)
    # a base solved beforehand gives the same rows, bit for bit
    again = continuous_dependence(phi, (1e-2, 1e-3), cfg, seed=0,
                                  base=picard_solve(phi, cfg))
    assert again == (rows, tables)


def test_inequality_battery(gspec8):
    with pytest.raises(ValueError):
        inequality_battery(gspec8, samples=10, seed=0)
    rows, tables = inequality_battery(gspec8, samples=50, seed=0)
    assert tables == {}
    assert all(r.passed for r in rows)
    assert any(r.check.startswith("riesz") for r in rows)
    assert any(r.check.startswith("g1-ratio") for r in rows)


def test_inequality_battery_holds_no_fields():
    # one pass draws, measures and drops each field; held, the 100 fields
    # of a 16^3 grid would take over 6 MiB
    tracemalloc.start()
    try:
        inequality_battery(GridSpec(16, 1.6), samples=50, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_lipschitz_battery_negative_control(gspec8):
    rows, tables = lipschitz_battery((0.5, 1.0, 2.0), pairs=4, seed=0, gspec=gspec8)
    header, probes = tables["probes"]
    assert header == ("probe", "M", "seed", "pairs", "max_ratio", "fit_slope")
    by_name = {r.check: r for r in rows}
    red = by_name["g2-lipschitz-slope"]
    assert not red.passed
    assert red.threshold == 3.5
    # homogeneity makes the slopes exact: degree 3 gives 2, degree 5 gives 4
    assert red.measured == pytest.approx(4.0, abs=1e-8)
    assert by_name["g1-lipschitz-slope"].measured == pytest.approx(2.0, abs=1e-8)
    assert by_name["g1-mixed-lipschitz-slope"].measured == pytest.approx(2.0, abs=1e-8)
    assert len(probes) == 9  # three probes x three radii
    slopes = {"g1_in_L2": "g1-lipschitz-slope", "g1_in_Lrho": "g1-mixed-lipschitz-slope",
              "g2_in_L2": "g2-lipschitz-slope"}
    for which, M, _, _, ratio, slope in probes:
        assert by_name[f"{which}-M{M:g}"].measured == ratio
        assert slope == by_name[slopes[which]].measured


def test_ball_field_is_linear_in_M(gspec8):
    f1 = ball_field(gspec8, np.random.default_rng(9), 1.0)
    f2 = ball_field(gspec8, np.random.default_rng(9), 2.0)
    assert np.allclose(f2.values, 2.0 * f1.values, rtol=1e-12, atol=1e-15)


def test_lipschitz_battery_exact_scaling(gspec8):
    # same seed => pairs at radius 2 are exactly twice the pairs at 1, so
    # the ratio scales by 2^2 for g1 (both probes) and 2^4 for g2: exact,
    # not fitted
    _, probes = lipschitz_battery((1.0, 2.0), pairs=6, seed=3, gspec=gspec8)[1]["probes"]
    ratio = {(which, M): r for which, M, _, _, r, _ in probes}
    for which, factor in (("g1_in_L2", 4.0), ("g1_in_Lrho", 4.0), ("g2_in_L2", 16.0)):
        assert ratio[which, 2.0] == pytest.approx(factor * ratio[which, 1.0], rel=1e-9)
    with pytest.raises(ValueError):
        lipschitz_battery((1.0,), pairs=2, seed=0, gspec=gspec8)


def test_lipschitz_battery_one_potential_per_field(gspec8, monkeypatch):
    # one kernel apply per field gives all three probes: 2 per pair per radius
    calls = []
    real = kernel.apply_kernel

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (experiments, nonlinear):
        monkeypatch.setattr(module, "apply_kernel", counted)
    M_list, pairs = (0.5, 1.0, 2.0), 3
    lipschitz_battery(M_list, pairs=pairs, seed=0, gspec=gspec8)
    assert len(calls) == 2 * pairs * len(M_list)


def test_domination_rows(gspec8):
    rows, tables = domination_rows(gspec8, a=0.4, samples=50, seed=0)
    assert len(rows) == 1 and tables == {}
    assert rows[0].passed


#: A quick-scale verify config for the battery tests whose sections are stubbed.
BATTERY_CFG = """
[grid]
n = 12
L = 1.6

[physics]
alpha1 = 1.0
alpha2 = 1.0

[experiment]
scale = quick
samples = 70
pairs = 5
a_list = 0.5, 0.3
deltas = 0.02, 0.002
p = 3.0
trials = 9
"""


def _stub_sections(monkeypatch, log):
    """Replace every battery section by a recorder that writes each call to
    log and returns an empty result: ([], {}) for each section's study."""
    studies = ("oracle_equivalence_rows", "propagator_rows", "kernel_norm_study",
               "contraction_rows", "cross_method_check", "normalization_study",
               "truncation_convergence", "continuous_dependence", "inequality_battery",
               "lipschitz_battery", "domination_rows")
    returns = dict.fromkeys(studies, ([], {}))
    returns.update(picard_solve=(None, None), cross_method_ladder=("simpson", 4.0, 0.0, None))
    for name, value in returns.items():
        def record(*args, _name=name, _value=value, **kwargs):
            log.put((_name, args, kwargs))
            return _value
        monkeypatch.setattr(experiments, name, record)
    return returns


def test_quick_config_reaches_the_battery(monkeypatch, fork_log):
    # every battery section is replaced by a recorder, so only the sizes
    # that verify_battery hands to each section are measured; the sections
    # run in worker processes, so the recorders write to a ForkLog
    log = fork_log()
    returns = _stub_sections(monkeypatch, log)
    experiments.verify_battery(parse_config(BATTERY_CFG))
    records = log.records()
    calls = {name: (args, kwargs) for name, args, kwargs in records}
    assert set(calls) == set(returns)
    ladders = sorted(args[0] for name, args, _ in records if name == "cross_method_ladder")
    assert ladders == sorted(experiments.LADDERS)
    assert calls["cross_method_ladder"][0][3:] == ((16, 32, 64), (32, 64, 128))
    assert calls["kernel_norm_study"][0][:2] == (GridSpec(12, 1.6), (0.5, 0.3))
    assert calls["kernel_norm_study"][1] == {"p": 3.0, "trials": 9, "seed": 0}
    phi, pcfg = calls["picard_solve"][0]
    assert phi.spec == GridSpec(12, 1.6) and pcfg.m == 16
    assert calls["truncation_convergence"][0][2] == (0.5, 0.3)
    assert calls["continuous_dependence"][0][1] == (0.02, 0.002)
    assert calls["inequality_battery"][1]["samples"] == 70
    assert calls["lipschitz_battery"][1]["pairs"] == 5
    assert calls["domination_rows"][1]["samples"] == 50


def test_section_lines_precede_the_last_job(monkeypatch, fork_log, capsys):
    # in-process the jobs run in the order they are submitted; the short
    # jobs that end the first sections go first, so every section done
    # before truncation, the last job, has its stderr line out before it starts
    returns = _stub_sections(monkeypatch, fork_log())
    shown = []

    def truncation(*args, **kwargs):
        shown.extend(line.split()[1] for line in capsys.readouterr().err.splitlines())
        return returns["truncation_convergence"]

    monkeypatch.setattr(experiments, "truncation_convergence", truncation)
    monkeypatch.setattr(experiments, "_worker_count", lambda: 1)
    experiments.verify_battery(parse_config(BATTERY_CFG))
    assert shown == list(experiments.SECTIONS[:experiments.SECTIONS.index("truncation")])


def _pid(_):
    return os.getpid()


def _nested_run_jobs(_):
    pids = []
    workers = experiments.run_jobs(_pid, range(3), pids.append)
    return workers, os.getpid(), set(pids)


def test_run_jobs_in_a_pool_worker_starts_no_pool(monkeypatch):
    # a task that calls run_jobs itself (verify's tail section, a sweep
    # point) runs that call's tasks in its own worker, on one worker
    monkeypatch.setattr(experiments, "_worker_count", lambda: 2)
    results = []
    assert experiments.run_jobs(_nested_run_jobs, range(2), results.append) == 2
    assert len(results) == 2
    for workers, pid, inner in results:
        assert workers == 1 and inner == {pid} and pid != os.getpid()
