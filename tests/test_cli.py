import glob
import json
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from frnse import cli, config, experiments
from frnse.cli import build_parser, main
from frnse.config import build_initial, parse_config
from frnse.grid import Field, GridSpec, scaled_gaussian
from frnse.io import read_csv, read_field, write_csv, write_field
from frnse.picard import picard_solve
from frnse.stepper import evolve

BASE = """
[grid]
n = 8
L = 1.6

[physics]
alpha1 = 1.0
alpha2 = 0.0

[initial]
type = gaussian
sigma = 0.12
h1_norm = 0.5
"""

PICARD = BASE + """
[picard]
T = 0.2
m = 4
quad = trapezoid
"""

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")

SOLVE = BASE + """
[stepper]
T = 0.02
dt = 5e-3
snapshot_every = 2
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run_dirs(out):
    return [d for d in glob.glob(os.path.join(str(out), "*")) if os.path.isdir(d)]


def _manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _assert_table_written(tmp_path, path, table):
    """The file at path holds the (header, rows) table, byte for byte."""
    want = tmp_path / "want.csv"
    write_csv(str(want), *table)
    assert want.read_bytes() == Path(path).read_bytes()


def test_picard_run_produces_artifacts(tmp_path):
    cfg = _write(tmp_path, PICARD)
    out = tmp_path / "runs"
    assert main(["picard", "--config", cfg, "--out", str(out)]) == 0
    (run_dir,) = _run_dirs(out)
    man = _manifest(run_dir)
    assert man["status"] == "ok"
    assert man["command"] == "picard"
    assert man["format"].startswith("frnse-run-manifest")
    assert not os.path.exists(os.path.join(run_dir, "INCOMPLETE"))
    names = sorted(os.listdir(run_dir))
    (iterations,) = [n for n in names if n.endswith("-iterations.csv")]
    assert any(n.endswith("-final.field") for n in names)
    # free case: converged in one sweep with zero contraction constant
    assert man["summary"]["converged"] is True
    # the iteration table is the solve report's own
    parsed = parse_config(PICARD, command="picard")
    _, report = picard_solve(build_initial(parsed), parsed.picard)
    _assert_table_written(tmp_path, os.path.join(run_dir, iterations), report.table())


def test_solve_run_produces_artifacts(tmp_path):
    cfg = _write(tmp_path, SOLVE)
    out = tmp_path / "runs"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    (run_dir,) = _run_dirs(out)
    man = _manifest(run_dir)
    assert man["summary"]["run_status"] == "Completed"
    assert man["summary"]["steps"] == 4
    names = os.listdir(run_dir)
    (diag,) = [n for n in names if n.endswith("-diagnostics.csv")]
    # the diagnostics table is the run report's own
    parsed = parse_config(SOLVE, command="solve")
    _, report = evolve(build_initial(parsed), parsed.stepper)
    _assert_table_written(tmp_path, os.path.join(run_dir, diag), report.table())
    snaps = [n for n in names if ".field" in n]
    assert len(snaps) == man["summary"]["snapshots"]
    assert sorted(man["files"]) == man["files"]


def test_solve_that_no_step_survives_ends_as_blowup_suspected(tmp_path, capsys):
    # the datum's first stage overflows, so no dt leaves it: the first
    # rejected trial ends the run as a cap violation does, without a
    # RuntimeWarning, with its diagnostics written, and exits 0
    out = tmp_path / "runs"
    args = ["solve", "--config", os.path.join(CONFIGS, "gaussian-solve.cfg"), "--set",
            "grid.n=8", "--set", "stepper.T=0.01", "--set", "physics.alpha2=1e308"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*args, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "BlowupSuspected: 0 steps, 1 rejections, t=0,")
    (run_dir,) = _run_dirs(out)
    man = _manifest(run_dir)
    assert (man["status"], man["errors"]) == ("BlowupSuspected", [])
    assert man["summary"]["escape_time"] == 0.0
    (diag,) = [n for n in man["files"] if n.endswith("-diagnostics.csv")]
    header, rows = read_csv(os.path.join(run_dir, diag))
    assert header[0] == "t" and len(rows) == 1


def _picard_demo(tmp_path, capsys, *sets):
    """Run frnse picard on picard-demo.cfg at n = 8 with the overrides sets;
    returns its exit code, its printed lines and its run's manifest."""
    out = tmp_path / "runs"
    sets = [arg for o in ("grid.n=8", *sets) for arg in ("--set", o)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["picard", "--config", os.path.join(CONFIGS, "picard-demo.cfg"),
                     *sets, "--out", str(out)])
    (run_dir,) = _run_dirs(out)
    return code, capsys.readouterr().out.splitlines(), run_dir, _manifest(run_dir)


def test_picard_out_of_iterations_exits_1_with_its_table(tmp_path, capsys):
    code, lines, run_dir, man = _picard_demo(tmp_path, capsys, "picard.max_iter=2")
    assert code == 1
    assert any(line.startswith("did not converge: ") for line in lines)
    assert man["status"] == "failed"
    (error,) = man["errors"]
    assert error["type"] == "NonConvergence"
    (table,) = man["files"]
    assert table.endswith("-iterations.csv")
    assert len(read_csv(os.path.join(run_dir, table))[1]) == 2
    assert man["summary"]["contraction"] == {
        "skipped": "need at least 3 increments above the round-off floor, got 2"}


def test_picard_divergence_exits_1_with_no_files(tmp_path, capsys):
    code, lines, _, man = _picard_demo(tmp_path, capsys, "physics.alpha2=1e308")
    assert code == 1
    assert "iteration diverged: non-finite field at node 1" in lines
    assert (man["status"], man["files"]) == ("failed", [])
    (error,) = man["errors"]
    assert error["type"] == "DivergenceDetected"


@pytest.mark.parametrize("command, text", [("solve", SOLVE), ("picard", PICARD)])
def test_solvers_load_neither_battery_nor_pool(tmp_path, command, text):
    # a fresh interpreter, so that no other test's imports are seen
    cfg = _write(tmp_path, text)
    script = ("import sys; from frnse.cli import main; code = main(sys.argv[1:]); "
              "print(sorted(set(sys.modules) & {'frnse.experiments', 'frnse.svg', "
              "'concurrent.futures', 'multiprocessing'})); sys.exit(code)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, command, "--config", cfg, "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_runs_blas_on_one_thread():
    # the CLI sets numpy's BLAS to one thread whatever the caller asked for:
    # the process, and a pool worker making a BLAS call, run one thread each
    script = (
        "import json, os, sys\n"
        "import frnse.cli\n"
        "from frnse.experiments import loglog_slope, run_jobs\n"
        "def threads(_):\n"
        "    loglog_slope([1.0, 2.0, 4.0], [1.0, 4.0, 16.0])\n"
        "    return len(os.listdir('/proc/self/task'))\n"
        "here = ['numpy' in sys.modules, len(os.listdir('/proc/self/task'))]\n"
        "workers = []\n"
        "run_jobs(threads, range(2), workers.append)\n"
        "print(json.dumps([here, workers]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[True, 1], [1, 1]]


def test_missing_config_file_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_config_error_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, BASE.replace("alpha1 = 1.0", "alpha1 = -1.0") + "\n[stepper]\nT = 0.1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "alpha1" in err


@pytest.mark.parametrize("command, config, override", [
    ("kernel-norms", "kernel-norms.cfg", "experiment.p=1"),
    ("kernel-norms", "kernel-norms.cfg", "experiment.a_list=0.4,-0.2"),
    ("verify", "verify-quick.cfg", "experiment.deltas=0.01,0.02"),
    ("verify", "verify-quick.cfg", "experiment.deltas=1e-2,1e-3,-1e-4"),
    ("verify", "verify.cfg", "experiment.a_list=0.1,0.2,0.4"),
    # truncation_convergence measures truncated kernels against the full one
    ("verify", "verify-quick.cfg", ("kernel.variant=inner", "kernel.a=0.2")),
    # continuous_dependence refuses a perturbation above half the datum's H1
    # norm, 0.5 at both scales, after most of the battery has run
    ("verify", "verify-quick.cfg", "experiment.deltas=0.3,0.1"),
    ("verify", "verify-quick.cfg", "experiment.deltas=0.25"),
    # with no nonlinearity every ladder rung is exact and no order is fitted
    ("verify", "verify-quick.cfg", "physics.alpha2=0"),
    # a truncation radius at or beyond the kernel's reach crashed in KernelSpec
    ("kernel-norms", "kernel-norms.cfg", "experiment.a_list=5.0,0.4"),
    ("verify", "verify-quick.cfg", "experiment.a_list=5.0,0.4"),
    # so is kernel.a: the reach is sqrt(3) * grid.L = 2.77 at L = 1.6
    ("solve", "gaussian-solve.cfg", ("kernel.a=2.8", "kernel.variant=tail")),
    # a norm target at or below zero ran on the datum of its absolute value
    ("solve", "gaussian-solve.cfg", "initial.l2_norm=-1"),
    ("solve", "gaussian-solve.cfg", "initial.l2_norm=0"),
    ("picard", "picard-demo.cfg", "initial.h1_norm=-0.5"),
    # one that is not finite ran into the solver as a non-finite datum
    ("solve", "gaussian-solve.cfg", "initial.l2_norm=inf"),
    ("solve", "gaussian-solve.cfg", "initial.amplitude=inf"),
    ("picard", "picard-demo.cfg", "initial.h1_norm=inf"),
    # at p = inf every trial's ratio read 1: sum |f|^inf is inf, and inf^0 is 1
    ("kernel-norms", "kernel-norms.cfg", ("experiment.p=inf", "grid.n=8")),
    # every pending trial is held in memory: 10^7 of them needed about 21 GiB
    ("kernel-norms", "kernel-norms.cfg", "experiment.trials=10001"),
])
def test_bad_experiment_override_exits_2(tmp_path, capsys, command, config, override):
    overrides = (override,) if isinstance(override, str) else override
    path = os.path.join(CONFIGS, config)
    out = tmp_path / "r"
    sets = [arg for o in overrides for arg in ("--set", o)]
    assert main([command, "--config", path, *sets, "--out", str(out)]) == 2
    assert overrides[0].split("=")[0] in capsys.readouterr().err
    assert not out.exists()  # rejected before any run directory exists


@pytest.mark.parametrize("command, text", [("solve", SOLVE), ("picard", PICARD)])
def test_overflowing_norm_target_exits_2_before_any_step(tmp_path, monkeypatch, capsys,
                                                        command, text):
    # a finite target can scale the datum, or only its L2 or H1 norm, past
    # float64, which shows only once its run has built it: the run records
    # the error and steps nothing
    def boom(*args):
        raise AssertionError("the solver started")

    monkeypatch.setattr(cli, "evolve", boom)
    monkeypatch.setattr(cli, "picard_solve", boom)
    for i, target in enumerate(("l2_norm = 1e308", "l2_norm = 1e200", "h1_norm = 1e308")):
        key = "initial." + target.split(" ")[0]
        cfg = _write(tmp_path, text.replace("h1_norm = 0.5", target))
        out = tmp_path / f"r{i}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"{key} gives a datum that is not finite" in capsys.readouterr().err
        (run_dir,) = _run_dirs(out)
        man = _manifest(run_dir)
        assert (man["status"], man["files"]) == ("failed", [])
        (error,) = man["errors"]
        assert error["type"] == "ConfigError" and key in error["message"]


def _file_initial(tmp_path, command, payload):
    """Config for command whose initial datum is the file payload writes."""
    field = tmp_path / "start.field"
    if payload is not None:
        payload(field)
    text = BASE.replace("type = gaussian", f"type = file\npath = {field}")
    if command == "sweep":
        return text + PICARD[len(BASE):] + "\n[sweep]\ncommand = picard\npicard.m = 4; 8\n"
    return text + (PICARD if command == "picard" else SOLVE)[len(BASE):]


def _zero_field(n):
    return Field(GridSpec(n, 1.6), np.zeros((n, n, n), complex))


def _same_grid(path):
    write_field(str(path), _zero_field(8))


def _other_grid(path):
    write_field(str(path), _zero_field(16))


def _truncated(path):
    _same_grid(path)
    path.write_bytes(path.read_bytes()[:-8])


@pytest.mark.parametrize("command", ["solve", "picard", "sweep"])
@pytest.mark.parametrize("payload, message", [
    (_other_grid, "16^3"), (None, "No such file"), (_truncated, "payload")])
def test_bad_initial_file_exits_2(tmp_path, capsys, command, payload, message):
    # each of these crashed the command with exit 1 after its run began
    cfg = _write(tmp_path, _file_initial(tmp_path, command, payload))
    out = tmp_path / "r"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_point_on_another_grid_than_its_file_never_starts(tmp_path):
    text = _file_initial(tmp_path, "sweep", _same_grid).replace("picard.m = 4; 8", "grid.n = 8; 16")
    out = tmp_path / "runs"
    assert main(["sweep", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    (run_dir,) = _run_dirs(out)
    exits = {r["overrides"][0]: r["exit"] for r in _manifest(run_dir)["summary"]["runs"]}
    assert exits == {"grid.n=8": 0, "grid.n=16": 2}
    assert len([d for d in os.listdir(run_dir) if d.startswith("run-")]) == 1


def test_good_initial_file_runs(tmp_path):
    cfg = _write(tmp_path, _file_initial(tmp_path, "solve", _same_grid))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 0


def test_initial_file_is_read_once_per_run(tmp_path, monkeypatch):
    # parse_config checks the file and the command builds the datum from
    # the same read
    reads = []

    def counted(path):
        reads.append(path)
        return read_field(path)

    monkeypatch.setattr(config, "read_field", counted)
    cfg = _write(tmp_path, _file_initial(tmp_path, "solve", _same_grid))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert reads == [str(tmp_path / "start.field")]


def test_verify_accepts_a_list_at_or_below_h():
    # the spectral tail keeps its full mass below the grid spacing, so no
    # truncation radius needs resolving: h is 0.1 here, at n=16
    with open(os.path.join(CONFIGS, "verify.cfg"), encoding="utf-8") as fh:
        cfg = parse_config(fh.read(), ("grid.n=16", "experiment.a_list=0.2,0.1,0.05"),
                           command="verify")
    assert min(cfg.experiment.a_list) < cfg.grid.h


def test_kernel_R_override_exits_2(tmp_path, capsys):
    path = os.path.join(CONFIGS, "gaussian-solve.cfg")
    out = tmp_path / "r"
    assert main(["solve", "--config", path, "--set", "kernel.R=3", "--out", str(out)]) == 2
    assert "unknown key kernel.R" in capsys.readouterr().err
    assert not out.exists()


def test_bad_seed_flag_exits_2(tmp_path, capsys):
    # --seed N is --set experiment.seed=N, so it is validated the same way
    path = os.path.join(CONFIGS, "kernel-norms.cfg")
    out = tmp_path / "r"
    assert main(["kernel-norms", "--config", path, "--seed", "-1", "--out", str(out)]) == 2
    assert "experiment.seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_section_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)  # no [stepper]
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "stepper" in err
    # no --set was given, and the missing section has no line to cite
    assert "override" not in err
    assert "config: [missing] solve needs a [stepper] section" in err


@pytest.mark.parametrize("command, config, old, new, key", [
    ("verify", "verify-quick.cfg", "alpha2 = 1.0", "alpha2 = 0.0", "physics.alpha2"),
    ("verify", "verify-quick.cfg", "variant = full", "a = 0.2\nvariant = inner", "kernel.variant"),
    ("verify", "verify-quick.cfg", "pairs = 4", "pairs = 4\ndeltas = 0.3, 0.1",
     "experiment.deltas"),
    ("kernel-norms", "kernel-norms.cfg", "a_list = 0.4, 0.2, 0.1", "a_list = 5.0, 0.4",
     "experiment.a_list"),
])
def test_command_rule_broken_in_the_file_cites_its_line(tmp_path, capsys, command, config,
                                                        old, new, key):
    # these were reported as overrides, at no line
    with open(os.path.join(CONFIGS, config), encoding="utf-8") as fh:
        text = fh.read().replace(old, new)
    out = tmp_path / "r"
    assert main([command, "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    line = text.splitlines().index(new.splitlines()[-1]) + 1
    assert f"line {line}: [constraint] {key}" in err
    assert "override" not in err
    assert not out.exists()


def test_command_rule_broken_by_a_default_cites_the_section_header(tmp_path, capsys):
    # at L = 0.2 the kernel's reach is 0.35, below the default a_list's 0.4
    path = os.path.join(CONFIGS, "verify.cfg")
    out = tmp_path / "r"
    assert main(["verify", "--config", path, "--set", "grid.L=0.2", "--out", str(out)]) == 2
    with open(path, encoding="utf-8") as fh:
        header = fh.read().splitlines().index("[experiment]") + 1
    err = capsys.readouterr().err
    assert f"line {header}: [constraint] experiment.a_list entries must be below" in err
    assert not out.exists()


def test_set_and_seed_land_in_manifest(tmp_path):
    cfg = _write(tmp_path, PICARD)
    out = tmp_path / "runs"
    code = main(["picard", "--config", cfg, "--out", str(out),
                 "--seed", "7", "--set", "picard.m=6"])
    assert code == 0
    (run_dir,) = _run_dirs(out)
    man = _manifest(run_dir)
    assert "m = 6" in man["config"]
    assert "seed = 7" in man["config"]


def test_seed_flag_wins_over_set(tmp_path):
    cfg = _write(tmp_path, PICARD)
    out = tmp_path / "runs"
    assert main(["picard", "--config", cfg, "--out", str(out),
                 "--seed", "7", "--set", "experiment.seed=3"]) == 0
    (run_dir,) = _run_dirs(out)
    assert "seed = 7" in _manifest(run_dir)["config"]


def test_out_env_fallback(tmp_path, monkeypatch):
    cfg = _write(tmp_path, PICARD)
    env_out = tmp_path / "from-env"
    monkeypatch.setenv("FRNSE_OUT", str(env_out))
    assert main(["picard", "--config", cfg]) == 0
    assert _run_dirs(env_out)
    # a config's [output] dir wins over the environment
    cfg_out = tmp_path / "from-config"
    cfg = _write(tmp_path, PICARD + f"\n[output]\ndir = {cfg_out}\n", name="out.cfg")
    assert main(["picard", "--config", cfg]) == 0
    assert _run_dirs(cfg_out) and len(_run_dirs(env_out)) == 1


def test_kernel_norms_command(tmp_path):
    text = """
[grid]
n = 16
L = 1.6

[physics]
alpha1 = 1.0
alpha2 = 1.0

[experiment]
a_list = 0.4, 0.2
trials = 8
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "runs"
    assert main(["kernel-norms", "--config", cfg, "--out", str(out)]) == 0
    (run_dir,) = _run_dirs(out)
    names = os.listdir(run_dir)
    assert any(n.endswith("-tail_norms.csv") for n in names)
    assert any(n.endswith("-checks.csv") for n in names)


def test_kernel_norms_pool_writes_the_serial_tables(tmp_path, monkeypatch):
    # at p != 2 the trials run on the fork pool; on one worker they run
    # in-process, and both write the same bytes
    text = """
[grid]
n = 16
L = 1.6

[physics]
alpha1 = 1.0
alpha2 = 1.0

[experiment]
a_list = 0.4, 0.2, 0.1
p = 3
trials = 4
"""
    cfg = _write(tmp_path, text)
    codes, tables = [], []
    for workers in (2, 1):
        monkeypatch.setattr(experiments, "_worker_count", lambda: workers)
        out = tmp_path / f"workers-{workers}"
        codes.append(main(["kernel-norms", "--config", cfg, "--out", str(out)]))
        (run_dir,) = _run_dirs(out)
        tables.append({name.rsplit("-", 1)[-1]: Path(run_dir, name).read_bytes()
                       for name in os.listdir(run_dir) if name.endswith(".csv")})
    assert codes[0] == codes[1]
    assert sorted(tables[0]) == ["checks.csv", "tail_norms.csv"]
    assert tables[0] == tables[1]


def test_kernel_norms_at_large_p_measures_every_radius(tmp_path):
    # at p = 400 |f|^p overflows: each trial's L^p norms are taken on the
    # field scaled by its peak, so no bound row passes at a vacuous 0
    path = os.path.join(CONFIGS, "kernel-norms.cfg")
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["kernel-norms", "--config", path, "--set", "grid.n=8",
                     "--set", "experiment.p=400", "--out", str(out)])
    assert code in (0, 1)
    (run_dir,) = _run_dirs(out)
    (checks,) = glob.glob(os.path.join(run_dir, "*-checks.csv"))
    with open(checks) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    bounds = [row for row in rows if row[0].startswith("tail-norm-bound-")]
    assert len(bounds) == 3
    for _, _, measured, threshold, passed, *_ in bounds:
        assert 0.0 < float(measured) <= float(threshold) and passed == "true"


def test_sweep_sequential(tmp_path):
    text = PICARD + """
[sweep]
command = picard
picard.m = 4; 8
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "runs"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    (run_dir,) = _run_dirs(out)
    man = _manifest(run_dir)
    assert len(man["summary"]["runs"]) == 2
    subs = [d for d in os.listdir(run_dir) if d.startswith("run-")]
    assert len(subs) == 2
    for sub in subs:
        assert os.path.exists(os.path.join(run_dir, sub, "manifest.json"))


def test_sweep_at_quick_scale(tmp_path):
    # each point re-parses the canonical form of a quick-scale config
    text = PICARD + """
[experiment]
scale = quick

[sweep]
command = picard
picard.m = 4
"""
    out = tmp_path / "runs"
    assert main(["sweep", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    (run_dir,) = _run_dirs(out)
    assert [r["exit"] for r in _manifest(run_dir)["summary"]["runs"]] == [0]


def test_plot_deterministic_svg(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("t,l2,h1\n0.0,1.0,2.0\n0.1,0.9,1.9\n0.2,0.8,1.7\n")
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["plot", str(csv), "--out", str(out1)]) == 0
    assert main(["plot", str(csv), "--out", str(out2)]) == 0
    svg1 = (out1 / "d.svg").read_bytes()
    svg2 = (out2 / "d.svg").read_bytes()
    assert svg1 == svg2
    assert svg1.startswith(b"<svg")


def test_plot_bad_csv_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    for text, message in [
        ("", "cannot read {}: "),
        ("t,x\n0,a\n1,b\n", "{}: fewer than two numeric columns, nothing to plot\n"),
        ("t,x\nnan,inf\nnan,nan\n", "{}: nothing to plot\n"),
    ]:
        bad.write_text(text)
        assert main(["plot", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(message.format(bad))
    assert not (tmp_path / "bad.svg").exists()


# verify rejects alpha2 = 0, at which its order studies have nothing to fit
VERIFY = BASE.replace("alpha2 = 0.0", "alpha2 = 1.0") + """
[experiment]
scale = quick
a_list = 0.4, 0.3
"""


def test_crash_still_writes_manifest(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("battery exploded")

    monkeypatch.setattr(experiments, "verify_battery", boom)
    cfg = _write(tmp_path, VERIFY)
    out = tmp_path / "runs"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    (run_dir,) = _run_dirs(out)
    assert not os.path.exists(os.path.join(run_dir, "INCOMPLETE"))
    man = _manifest(run_dir)
    assert man["status"] == "crashed"
    (error,) = man["errors"]
    assert error["type"] == "RuntimeError"
    assert error["message"] == "battery exploded"
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["verify crashed: RuntimeError: battery exploded"]


def test_verify_times_sections_and_reraises_worker_warnings(tmp_path, monkeypatch, capsys):
    def warned(fn, text):
        def call(*args, **kwargs):
            warnings.warn(text)
            return fn(*args, **kwargs)
        return call

    # the dependence section's job, the contraction job, ends before the
    # IFRK4 ladder of the cross-method section, which comes first in the
    # battery; the warnings still come back in battery order
    names = ("continuous_dependence", "stepper_order_study")
    for name in names:
        monkeypatch.setattr(experiments, name, warned(getattr(experiments, name), name))
    cfg = _write(tmp_path, VERIFY)
    out = tmp_path / "runs"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert [str(w.message) for w in caught if str(w.message) in names] \
        == ["stepper_order_study", "continuous_dependence"]
    assert multiprocessing.active_children() == []
    (run_dir,) = _run_dirs(out)
    timing = _manifest(run_dir)["timing"]
    assert sorted(timing) == ["sections", "workers"]
    assert timing["workers"] == min(len(os.sched_getaffinity(0)), len(experiments._JOBS))
    # the seconds of each stderr line, in battery order
    lines = capsys.readouterr().err.splitlines()
    shown = [[m.group(1), float(m.group(2))]
             for m in (re.fullmatch(r"verify: (\S+) (\d+\.\d\d) s", line) for line in lines)]
    assert timing["sections"] == shown
    assert [name for name, _ in shown] == list(experiments.SECTIONS)
    # the picard table is the contraction solve's report's own
    parsed = parse_config(VERIFY, command="verify")
    phi = scaled_gaussian(parsed.grid, experiments.SCALES["quick"]["sigma"], h1_target=0.5)
    _, report = picard_solve(phi, experiments._picard_config(parsed))
    (picard,) = glob.glob(os.path.join(run_dir, "*-picard.csv"))
    _assert_table_written(tmp_path, picard, report.table())


def test_verify_worker_crash_cancels_pending_jobs(tmp_path, monkeypatch, capsys, fork_log):
    # the IFRK4 ladder, the fourth job submitted, raises in a worker; the
    # truncation job, the last, must never start
    started = fork_log()
    real = experiments.truncation_convergence

    def boom(*args, **kwargs):
        raise RuntimeError("ladder exploded")

    def truncation(*args, **kwargs):
        started.put("truncation")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "stepper_order_study", boom)
    monkeypatch.setattr(experiments, "truncation_convergence", truncation)
    monkeypatch.setattr(experiments, "_worker_count", lambda: 2)
    cfg = _write(tmp_path, VERIFY)
    out = tmp_path / "runs"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert multiprocessing.active_children() == []
    assert started.records() == []
    (run_dir,) = _run_dirs(out)
    man = _manifest(run_dir)
    assert man["status"] == "crashed"
    (error,) = man["errors"]
    assert (error["type"], error["message"]) == ("RuntimeError", "ladder exploded")
    # the worker's own frames come back as the exception's cause
    assert "_RemoteTraceback" in error["traceback"]
    assert "in _ladder_job" in error["traceback"]
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "verify crashed: RuntimeError: ladder exploded"


def test_sweep_records_crashed_and_invalid_points(tmp_path, monkeypatch):
    real = cli.picard_solve

    def flaky(phi, pcfg):
        if pcfg.m == 8:
            raise RuntimeError("node count 8 rejected")
        return real(phi, pcfg)

    monkeypatch.setattr(cli, "picard_solve", flaky)
    text = PICARD + """
[sweep]
command = picard
picard.m = 4; 8; 1
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "runs"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    (run_dir,) = _run_dirs(out)
    man = _manifest(run_dir)
    assert man["status"] == "failed"
    exits = {r["overrides"][0]: r["exit"] for r in man["summary"]["runs"]}
    # m=1 is below the two-node minimum, so that point never starts
    assert exits == {"picard.m=4": 0, "picard.m=8": 1, "picard.m=1": 2}
    crashed = [r for r in man["summary"]["runs"] if r["exit"] == 1]
    sub = _manifest(os.path.join(run_dir, crashed[0]["run"]))
    assert sub["status"] == "crashed"


def test_sweep_pool_no_larger_than_its_points(tmp_path, monkeypatch):
    # a stand-in pool that records its size and runs each point as submitted
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def submit(self, fn, task):
            future = Future()
            future.set_result(fn(task))
            return future

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    # one worker per CPU, at most one per point
    for cpus, points, workers in ((64, 2, 2), (3, 4, 3)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        ms = "; ".join(str(4 + 2 * i) for i in range(points))
        cfg = _write(tmp_path, PICARD + f"\n[sweep]\ncommand = picard\npicard.m = {ms}\n")
        out = tmp_path / f"runs-{cpus}"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert sizes.pop() == workers
        (run_dir,) = _run_dirs(out)
        assert [r["exit"] for r in _manifest(run_dir)["summary"]["runs"]] == [0] * points


@pytest.mark.parametrize("command", ["solve", "picard", "verify", "sweep", "kernel-norms"])
def test_jobs_flag_is_rejected(command):
    # every command runs on the CPUs it may use; there is no --jobs
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--config", "x.cfg", "--jobs", "3"])
