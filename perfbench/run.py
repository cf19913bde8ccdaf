"""Outside-in benchmark for the frnse solver stack.

Runs one workload through the real ``frnse`` CLI, each repetition in a fresh
process, checks every run's outcome against the expected one, and prints
the metrics ``BENCHMARK.json`` declares for the mode:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 (end-to-end): first ``setup_s`` from fresh set-up processes, then
repetitions of the command while they end within S seconds (at least one);
reports medians of wall time, CPU time and peak RSS of the child, the times
scaled to a reference host speed by a calibration loop run around each
repetition (see ``calibration_s``).

--trace 1 (per layer): pairs of one plain and one traced repetition while
they end within S seconds (at least one pair). The traced child
(perfbench/traced.py) wraps the public functions of each module at every
binding; the layer metrics come from its spans, the process counters and
bytes written from the plain child, and ``trace.overhead_s`` is traced
minus plain wall time.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Every run's output goes to a throwaway directory
inside the checkout, removed afterwards.

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--repetitions K]

runs every workload in both modes, rotating the order between repetitions,
and prints each end-to-end metric per workload with the run_s tail
percentile over the pooled samples; ``--record FILE`` also writes the
metrics with the numpy version, CPU model and CPU count.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Wall-clock budget of one invocation; no repetition starts that would
#: likely end after it (one invocation must end within 180 s).
BUDGET_S = 150.0
#: Timed set-up processes per end-to-end run before the first repetition
#: (after one untimed warm-up that also writes the bytecode cache); one more
#: follows every repetition, so the probes sample the whole window.
SETUP_PROBES = 7


# --------------------------------------------------------------------------
# workloads and their expected outcomes
# --------------------------------------------------------------------------

#: Recorded final values of the solve workload for the centred Gaussian,
#: with relative tolerances that leave room for the seeded sub-cell offset.
SOLVE_STEPS = 20
SOLVE_SNAPSHOTS = 2
SOLVE_REF = {"final H1": (10.219164993456527, 0.01),
             "final G1": (1.2219600977343528, 0.05)}
PICARD_ITERATIONS = 4


@dataclass(frozen=True)
class Workload:
    argv: tuple
    seeding: str            # "center": seeded sub-cell offset; "seed": --seed
    exit_code: int
    failing: tuple = ()     # rows expected to fail (verify, kernel-norms)
    #: One calibration unit: (edge, complex, count) transform pairs of edge^3
    #: fields, matched to what the workload transforms: the 64^3 padded
    #: fields of an n=32 kernel apply, the 96^3 complex ones of n=48, and
    #: for verify also many small 16^3 ones where per-call overhead counts.
    calibration: tuple = ((64, False, 4),)
    #: Seconds of one calibration on the reference host (2-core Intel Xeon
    #: VM, numpy 2.4.6): times are reported at that host speed, as
    #: seconds * calibration_ref_s / calibration.
    calibration_ref_s: float = 0.18

    def scale(self, cals):
        """Factor to the reference host's speed for a repetition, from the
        calibrations around it."""
        return self.calibration_ref_s / statistics.fmean(cals)


#: Each workload is a CLI command on a shipped config; the overrides shorten
#: solve, picard and kernel-norms to a few seconds, so that one window holds
#: several repetitions, while keeping the grid size of the config.
WORKLOADS = {
    "solve-gaussian": Workload(
        ("solve", "--config", "configs/gaussian-solve.cfg",
         "--set", "stepper.T=0.05"), "center", 0),
    "picard-demo": Workload(
        ("picard", "--config", "configs/picard-demo.cfg",
         "--set", "picard.m=16"), "center", 0),
    "verify-quick": Workload(
        ("verify", "--config", "configs/verify-quick.cfg"), "seed", 1,
        # One repetition takes 15-25 s, which affords a calibration long
        # enough not to add noise of its own.
        failing=("g2-lipschitz-slope",),
        calibration=((64, False, 8), (16, True, 160)), calibration_ref_s=0.53),
    # tail-norm-slope measures 0.57 against 2 at n=48, p=3: a known defect,
    # recorded as the expected outcome rather than masked.
    "kernel-norms-complex": Workload(
        ("kernel-norms", "--config", "configs/kernel-norms.cfg",
         "--set", "grid.n=48", "--set", "experiment.p=3",
         "--set", "experiment.trials=8"), "seed", 1,
        failing=("tail-norm-slope",), calibration=((96, True, 1),),
        calibration_ref_s=0.52),
}

#: Box edge and points per axis of the centre-seeded configs.
CENTER_BOX = (1.6, 32)


def seeded_argv(workload, seed):
    """The workload's CLI arguments plus the overrides drawn from seed.

    Centre-seeded workloads move the Gaussian by a sub-cell offset of at
    most 0.4 h per axis, which keeps the bump below the box-decay warning
    threshold on all six faces.
    """
    if workload.seeding == "seed":
        return list(workload.argv) + ["--seed", str(seed % 2**31)]
    L, n = CENTER_BOX
    h = L / n
    rng = random.Random(seed)
    center = [L / 2.0 + rng.uniform(-0.4 * h, 0.4 * h) for _ in range(3)]
    return list(workload.argv) + [
        "--set", "initial.center=" + ",".join(repr(c) for c in center)]


def _last_g1(run_dir):
    [diag] = run_dir.glob("*-diagnostics.csv")
    lines = diag.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    return float(lines[-1].split(",")[header.index("G1")])


def _physics(command, run_dir, summary):
    """Deviations of the command's physics values from the reference."""
    bad = []
    if command == "solve":
        if summary.get("run_status") != "Completed":
            bad.append(f"run_status {summary.get('run_status')}")
        if summary.get("steps") != SOLVE_STEPS or summary.get("rejections") != 0:
            bad.append(f"{summary.get('steps')} steps, {summary.get('rejections')} rejections")
        l2 = summary.get("final_l2", math.nan)
        if not abs(l2 - 1.0) <= 1e-6:
            bad.append(f"final L2 {l2!r} not within 1e-6 of 1")
        measured = {"final H1": summary.get("final_h1", math.nan),
                    "final G1": _last_g1(run_dir)}
        for key, (ref, rel) in SOLVE_REF.items():
            if not abs(measured[key] - ref) <= rel * ref:
                bad.append(f"{key} {measured[key]!r} not within {rel:g} of {ref!r}")
        snaps = len(list(run_dir.glob("*-snap-*.field")))
        if snaps != SOLVE_SNAPSHOTS or summary.get("snapshots") != SOLVE_SNAPSHOTS:
            bad.append(f"{snaps} snapshot files, {summary.get('snapshots')} in summary")
    elif command == "picard":
        if summary.get("converged") is not True:
            bad.append("not converged")
        if not summary.get("residual", math.inf) < 1e-8:
            bad.append(f"residual {summary.get('residual')!r}")
        if summary.get("iterations") != PICARD_ITERATIONS:
            bad.append(f"iterations {summary.get('iterations')} != {PICARD_ITERATIONS}")
    return bad


def check_outcome(workload, code, out_root, stderr):
    """List every way a finished run deviates from its expected outcome."""
    bad = []
    if code != workload.exit_code:
        bad.append(f"exit {code} != {workload.exit_code}")
    # the seeded centre offset must not trigger the box-decay warning
    if workload.seeding == "center" and stderr.strip():
        bad.append(f"stderr: {stderr.strip()[-200:]}")
    dirs = [d for d in out_root.iterdir() if d.is_dir()]
    if len(dirs) != 1:
        return bad + [f"{len(dirs)} run directories"]
    run_dir = dirs[0]
    if (run_dir / "INCOMPLETE").exists():
        bad.append("INCOMPLETE marker left")
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return bad + [f"manifest: {e}"]
    summary = manifest.get("summary", {})
    command = workload.argv[0]
    if command in ("verify", "kernel-norms"):
        failing = tuple(summary.get("failed", ()))
        if failing != workload.failing:
            bad.append(f"failing rows {failing} != {workload.failing}")
    try:
        bad += _physics(command, run_dir, summary)
    except (OSError, ValueError, TypeError) as e:
        bad.append(f"cannot read results: {e!r}")
    return bad


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

def child_env():
    nproc = str(os.cpu_count() or 1)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = nproc
    env.pop("FRNSE_OUT", None)
    return env


def spawn(cmd, tmp, deadline):
    """Run cmd to completion; return (exit code, wall s, rusage, stderr).

    The child is killed if it is still running at the deadline.
    """
    with open(tmp / "stdout", "wb") as so, open(tmp / "stderr", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=so, stderr=se)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage, (tmp / "stderr").read_text(encoding="utf-8", errors="replace")


def _tree_bytes(path):
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_command(workload, argv, scratch, deadline, spans=None):
    """One repetition of the workload; spans=PATH runs it traced."""
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        out_root = tmp / "out"
        out_root.mkdir()
        frnse_args = argv + ["--out", str(out_root)]
        if spans is None:
            cmd = [sys.executable, "-m", "frnse"] + frnse_args
        else:
            cmd = [sys.executable, str(HERE / "traced.py"), str(spans), "--"] + frnse_args
        code, wall, usage, stderr = spawn(cmd, tmp, deadline)
        bad = check_outcome(workload, code, out_root, stderr)
        return {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "sys": usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024.0,
            "minflt": usage.ru_minflt,
            "bytes": _tree_bytes(out_root),
            "deviations": bad,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def setup_time(argv, scratch, deadline):
    """Wall seconds of one fresh set-up process for the workload's config."""
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        cmd = [sys.executable, str(HERE / "setup_probe.py")] + argv
        code, wall, _, stderr = spawn(cmd, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {stderr.strip()[-300:]}")
    return wall


# --------------------------------------------------------------------------
# host speed
# --------------------------------------------------------------------------

#: Units per calibration; a calibration is the median unit times this, so a
#: stall during one unit does not move it.
CALIBRATION_UNITS = 7

_calibration_fields = {}


def calibration_s(workload):
    """Wall seconds of a fixed numpy loop that gauges the host's speed now.

    One unit runs the transform pairs of workload.calibration, fields of the
    sizes the workload transforms most. The loop runs in this process,
    between the children, and touches no code of the program, so a change
    to the program cannot move it.
    """
    import numpy as np
    units = []
    for _ in range(CALIBRATION_UNITS):
        t0 = time.perf_counter()
        for edge, is_complex, count in workload.calibration:
            key = (edge, is_complex)
            if key not in _calibration_fields:
                field = np.random.default_rng(edge).standard_normal((edge,) * 3)
                _calibration_fields[key] = field + 0j if is_complex else field
            field = _calibration_fields[key]
            for _ in range(count):
                if is_complex:
                    np.fft.ifftn(np.fft.fftn(field) * 0.5)
                else:
                    np.fft.irfftn(np.fft.rfftn(field) * 0.5, s=field.shape, axes=(0, 1, 2))
        units.append(time.perf_counter() - t0)
    return statistics.median(units) * CALIBRATION_UNITS


# --------------------------------------------------------------------------
# metrics from the span trace
# --------------------------------------------------------------------------

#: Battery sections of experiments.verify_battery, by the functions it calls.
SECTIONS = {
    "oracle_equivalence_rows": "oracle",
    "propagator_rows": "propagator",
    "kernel_norm_study": "tail_norms",
    "picard_solve": "contraction",
    "contraction_rows": "contraction",
    "norm_law_check": "contraction",
    "cross_method_check": "cross_method",
    "normalization_study": "normalization",
    "truncation_convergence": "truncation",
    "continuous_dependence": "dependence",
    "inequality_battery": "inequality",
    "lipschitz_battery": "lipschitz",
    "domination_rows": "domination",
}

CALLS_SELF = {
    "grid": ("to_spectral", "from_spectral", "h1_norm", "l2_norm", "lp_norm"),
    "nonlinear": ("nonlinear_part", "potential", "g1"),
    "trajectory": ("sup_h1_distance",),
    "picard": ("duhamel_map",),
}


class Trace:
    """Span table of one traced run: durations, self times, name index."""

    def __init__(self, dump):
        self.names = dump["names"]
        self.spans = dump["spans"]
        self.caches = dump["caches"]
        self.dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        self.by_name = defaultdict(list)
        for i, (name_id, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += self.dur[i]
            self.by_name[self.names[name_id]].append(i)
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def name(self, i):
        return self.names[self.spans[i][0]]

    def calls(self, name):
        return len(self.by_name[name])

    def self_s(self, *names):
        return sum((self.self_time[i] for n in names for i in self.by_name[n]), 0.0)

    def total_s(self, *names):
        """Duration of the spans of names not nested in another of them."""
        group = set(names)
        total = 0.0
        for n in names:
            for i in self.by_name[n]:
                parent = self.spans[i][3]
                while parent >= 0 and self.name(parent) not in group:
                    parent = self.spans[parent][3]
                if parent < 0:
                    total += self.dur[i]
        return total

    def quantile_ms(self, name, q):
        durs = sorted(self.dur[i] for i in self.by_name[name])
        if not durs:
            return 0.0
        if len(durs) == 1:
            return durs[0] * 1e3
        return statistics.quantiles(durs, n=100, method="inclusive")[q - 1] * 1e3

    def extras(self, name):
        """Per-call extra values of name, for calls that returned."""
        return [self.spans[i][4] for i in self.by_name[name] if self.spans[i][4] is not None]

    def section_totals(self):
        """Seconds per verify battery section: spans of section functions
        called by verify_battery, or called from outside the package."""
        out = dict.fromkeys(SECTIONS.values(), 0.0)
        for fn, section in SECTIONS.items():
            name = ("picard." if fn == "picard_solve" else "experiments.") + fn
            for i in self.by_name[name]:
                parent = self.spans[i][3]
                top = parent < 0 and name.startswith("experiments.")
                if top or (parent >= 0 and self.name(parent) == "experiments.verify_battery"):
                    out[section] += self.dur[i]
        return out


def layer_metrics(plain, traced, trace):
    m = {}
    m["kernel.apply_kernel.calls"] = trace.calls("kernel.apply_kernel")
    m["kernel.apply_kernel.self_s"] = trace.self_s("kernel.apply_kernel")
    m["kernel.apply_kernel.p50_ms"] = trace.quantile_ms("kernel.apply_kernel", 50)
    m["kernel.apply_kernel.p90_ms"] = trace.quantile_ms("kernel.apply_kernel", 90)
    m["kernel.apply_kernel.complex_calls"] = sum(trace.extras("kernel.apply_kernel"))
    info = trace.caches.get("kernel_multiplier", {"hits": 0, "misses": 0})
    lookups = info["hits"] + info["misses"]
    m["kernel.kernel_multiplier.misses"] = info["misses"]
    m["kernel.kernel_multiplier.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
    m["kernel.setup_s"] = trace.total_s("kernel.kernel_multiplier", "kernel.kernel_table")
    m["kernel.cache_mb"] = sum(c["bytes"] for c in trace.caches.values()) / 2**20
    for module, fns in CALLS_SELF.items():
        for fn in fns:
            m[f"{module}.{fn}.calls"] = trace.calls(f"{module}.{fn}")
            m[f"{module}.{fn}.self_s"] = trace.self_s(f"{module}.{fn}")
    m["propagate.free_evolve.calls"] = trace.calls("propagate.free_evolve")
    m["propagate.free_evolve.self_s"] = trace.self_s("propagate.free_evolve")
    m["propagate.free_evolve.total_s"] = trace.total_s("propagate.free_evolve")
    m["picard.picard_solve.calls"] = trace.calls("picard.picard_solve")
    m["picard.picard_solve.total_s"] = trace.total_s("picard.picard_solve")
    m["picard.iterations"] = sum(e[0] for e in trace.extras("picard.picard_solve"))
    m["stepper.ifrk4_step.calls"] = trace.calls("stepper.ifrk4_step")
    m["stepper.ifrk4_step.self_s"] = trace.self_s("stepper.ifrk4_step")
    m["stepper.ifrk4_step.p50_ms"] = trace.quantile_ms("stepper.ifrk4_step", 50)
    m["stepper.ifrk4_step.p90_ms"] = trace.quantile_ms("stepper.ifrk4_step", 90)
    m["stepper.evolve.self_s"] = trace.self_s("stepper.evolve")
    m["stepper.steps"] = sum(e[1] for e in trace.extras("stepper.evolve"))
    m["stepper.rejections"] = sum(e[2] for e in trace.extras("stepper.evolve"))
    for section, seconds in trace.section_totals().items():
        m[f"experiments.{section}.total_s"] = seconds
    for fn in ("write_field", "write_csv", "write_manifest"):
        m[f"io.{fn}.total_s"] = trace.total_s(f"io.{fn}")
    m["io.bytes_written"] = plain["bytes"]
    ffts = [n for n in trace.by_name if n.startswith("fft.")]
    m["fft.calls"] = sum(trace.calls(n) for n in ffts)
    m["fft.elements"] = sum(e for n in ffts for e in trace.extras(n))
    m["fft.self_s"] = trace.self_s(*ffts)
    m["process.sys_s"] = plain["sys"]
    m["process.minor_faults"] = plain["minflt"]
    m["trace.overhead_s"] = traced["wall"] - plain["wall"]
    return m


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

@dataclass
class Measurement:
    metrics: dict
    attempted: int
    failed: int
    run_walls: list
    deviations: list
    raw: dict = None        # unscaled medians, printed for reference


def _keep_going(started, seconds, count, last, deadline):
    """Start another repetition only if it should end inside the window."""
    if count == 0:
        return True
    now = time.monotonic()
    return now - started + last <= seconds and now + last < deadline


def measure_end_to_end(name, seed, seconds, scratch, deadline):
    """Set-up probes, then repetitions until the window is full, each
    followed by one more set-up probe.

    A calibration runs before the first repetition and after every one;
    each repetition's times are scaled by the mean of the two calibrations
    around it. Set-up times are not scaled: the calibration gauges numeric
    work, not interpreter start-up.
    """
    workload = WORKLOADS[name]
    argv = seeded_argv(workload, seed)
    setup_time(argv, scratch, deadline)  # warm-up: bytecode cache, page cache
    setups = [setup_time(argv, scratch, deadline) for _ in range(SETUP_PROBES)]
    calibration_s(workload)              # warm-up: numpy import, plans
    cals = [calibration_s(workload)]
    runs, scales = [], []
    started = time.monotonic()
    last = 0.0
    while _keep_going(started, seconds, len(runs), last, deadline):
        t0 = time.monotonic()
        runs.append(run_command(workload, argv, scratch, deadline))
        cals.append(calibration_s(workload))
        scales.append(workload.scale(cals[-2:]))
        setups.append(setup_time(argv, scratch, deadline))
        last = time.monotonic() - t0
    metrics = {
        "run_s": statistics.median(r["wall"] * k for r, k in zip(runs, scales)),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu"] * k for r, k in zip(runs, scales)),
        "peak_rss_mb": statistics.median(r["rss_mib"] for r in runs),
    }
    raw = {"run_s": statistics.median(r["wall"] for r in runs),
           "cpu_s": statistics.median(r["cpu"] for r in runs),
           "calibration_s": statistics.median(cals)}
    deviations = [d for r in runs for d in r["deviations"]]
    failed = sum(1 for r in runs if r["deviations"])
    return Measurement(metrics, len(runs), failed,
                       [r["wall"] * k for r, k in zip(runs, scales)], deviations, raw)


def measure_layers(name, seed, seconds, scratch, deadline):
    workload = WORKLOADS[name]
    argv = seeded_argv(workload, seed)
    per_pair, runs = [], []
    calibration_s(workload)
    cals = [calibration_s(workload)]
    started = time.monotonic()
    last = 0.0
    while _keep_going(started, seconds, len(per_pair), last, deadline):
        t0 = time.monotonic()
        plain = run_command(workload, argv, scratch, deadline)
        spans = Path(tempfile.mkdtemp(dir=scratch)) / "spans.json"
        try:
            traced = run_command(workload, argv, scratch, deadline, spans=spans)
            trace = Trace(json.loads(spans.read_text(encoding="utf-8")))
        finally:
            shutil.rmtree(spans.parent, ignore_errors=True)
        runs += [plain, traced]
        per_pair.append(layer_metrics(plain, traced, trace))
        cals.append(calibration_s(workload))
        last = time.monotonic() - t0
    metrics = {k: statistics.median(p[k] for p in per_pair) for k in per_pair[0]}
    metrics["host.calibration_s"] = statistics.median(cals)
    deviations = [d for r in runs for d in r["deviations"]]
    failed = sum(1 for r in runs if r["deviations"])
    return Measurement(metrics, len(runs), failed, [r["wall"] for r in runs[::2]],
                       deviations)


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def result_line(spec, trace, m):
    decl = declared(spec, trace)
    names = [d["name"] for d in decl]
    if set(names) != set(m.metrics):
        missing = sorted(set(names) - set(m.metrics))
        extra = sorted(set(m.metrics) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                           f"undeclared {extra}")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {d["name"]: {"value": m.metrics[d["name"]], "unit": d["unit"]}
                    for d in decl},
    }


def tail_percentile(samples):
    """(p, value) for the highest whole percentile with >= 10 samples above
    it, or None when fewer than 20 samples exist."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        k = math.ceil(p * n / 100.0)  # nearest-rank percentile
        if k >= 1 and n - k >= 10:
            return p, xs[k - 1]
    return None


def describe(name, spec, m, trace):
    lines = [f"workload {name}: {m.attempted} runs attempted, {m.failed} failed "
             f"(failed_ratio {m.failed / m.attempted:.3g})"]
    for d in m.deviations:
        lines.append(f"  deviation: {d}")
    for d in declared(spec, trace):
        lines.append(f"  {d['name']} = {m.metrics[d['name']]!r} {d['unit']}")
    if m.raw:
        lines.append("  unscaled medians: " + ", ".join(
            f"{k} {v:.6g} s" for k, v in m.raw.items()))
    if not trace:
        tail = tail_percentile(m.run_walls)
        where = (f"p{tail[0]} {tail[1]:.6g} s" if tail
                 else "no tail percentile (needs >= 20 samples)")
        lines.append(f"  run_s median over {len(m.run_walls)} samples; {where}")
    return "\n".join(lines)


def host_record():
    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"numpy": numpy.__version__, "python": sys.version.split()[0],
            "cpu_model": model, "nproc": os.cpu_count()}


def run_all(args, spec, scratch):
    names = [w["name"] for w in spec["workloads"]]
    pooled = {n: {"e2e": [], "layers": [], "walls": []} for n in names}
    for rep in range(args.repetitions):
        order = names[rep % len(names):] + names[:rep % len(names)]
        for name in order:
            for trace in (False, True):
                measure = measure_layers if trace else measure_end_to_end
                deadline = time.monotonic() + BUDGET_S
                m = measure(name, args.seed + rep, args.seconds, scratch, deadline)
                print(describe(name, spec, m, trace), flush=True)
                pooled[name]["layers" if trace else "e2e"].append(m)
                if not trace:
                    pooled[name]["walls"] += m.run_walls
    record = {"host": host_record(), "seconds": args.seconds,
              "repetitions": args.repetitions, "first_seed": args.seed,
              "workloads": {}}
    ok = True
    print("\nsummary (median over repetitions):")
    for name in names:
        e2e, layers = pooled[name]["e2e"], pooled[name]["layers"]
        attempted = sum(m.attempted for m in e2e + layers)
        failed = sum(m.failed for m in e2e + layers)
        ok = ok and failed == 0
        entry = {"attempted": attempted, "failed": failed,
                 "failed_ratio": failed / attempted}
        for key, ms in (("end_to_end", e2e), ("per_layer", layers)):
            entry[key] = {d["name"]: {"value": statistics.median(m.metrics[d["name"]] for m in ms),
                                      "unit": d["unit"]} for d in spec[key]}
        tail = tail_percentile(pooled[name]["walls"])
        entry["run_s_samples"] = len(pooled[name]["walls"])
        entry["run_s_tail"] = {"percentile": tail[0], "value": tail[1]} if tail else None
        record["workloads"][name] = entry
        print(f"  {name}: failed_ratio {entry['failed_ratio']:.3g} of {attempted}; " +
              ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                        for k, v in entry["end_to_end"].items()))
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetitions", type=int, default=1, help="with --all")
    parser.add_argument("--record", default=None, help="with --all: write metrics here")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload NAME or --all")
    if not (ROOT / "src" / "frnse" / "cli.py").is_file():
        print(f"frnse sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so children are killed and reaped
    # and the throwaway directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.all:
            return run_all(args, spec, scratch)
        measure = measure_layers if args.trace else measure_end_to_end
        m = measure(args.workload, args.seed, args.seconds, scratch,
                    time.monotonic() + BUDGET_S)
        print(describe(args.workload, spec, m, args.trace), flush=True)
        print(json.dumps(result_line(spec, args.trace, m)))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
