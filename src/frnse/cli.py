"""Command-line driver: solve / picard / verify / sweep / kernel-norms / plot.

Every run gets its own timestamped directory under the output root
(--out > config [output].dir > $FRNSE_OUT > ./runs), an INCOMPLETE marker
that is cleared only after the manifest lands, and filenames prefixed with
the first 8 hex digits of the config hash. A command that raises still
writes its manifest, with status "crashed" and the exception in "errors".

The battery (experiments) and the SVG writer are imported by the commands
that run them, so solve and picard load only the solver stack.

Exit codes: 0 ok, 1 failed assertions, solver errors or a crash, 2 config
problems, including a datum found bad once its run built it (then recorded).
"""

import argparse
import itertools
import os
import sys
import time
import traceback
from dataclasses import replace
from datetime import datetime, timezone

# The fork pool (experiments.run_jobs) is frnse's one parallel layer, and its
# BLAS calls are small: numpy's OpenBLAS runs one thread, set before it loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .config import (ConfigError, build_initial, config_hash, parse_config,
                     serialize_config)
from .errors import DivergenceDetected, NonConvergence
from .io import (clear_incomplete, format_value, mark_incomplete, read_csv,
                 write_csv, write_field, write_manifest)
from .picard import contraction_report, picard_solve
from .stepper import evolve


def _iso(dt):
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _out_root(cli_out, cfg):
    if cli_out:
        return cli_out
    if cfg.outdir:
        return cfg.outdir
    return os.environ.get("FRNSE_OUT") or os.path.join(".", "runs")


def _make_run_dir(root, hash8):
    os.makedirs(root, exist_ok=True)
    while True:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%f")
        path = os.path.join(root, f"{stamp}Z-{hash8}")
        try:
            os.makedirs(path, exist_ok=False)
            return path
        except FileExistsError:
            time.sleep(0.001)


class RunContext:
    """Collects files, errors, and the summary for one run's manifest."""

    def __init__(self, command, cfg, run_dir):
        self.command = command
        self.cfg = cfg
        self.run_dir = run_dir
        self.hash = config_hash(cfg)
        self.hash8 = self.hash[:8]
        self.started = datetime.now(timezone.utc)
        self.files = []
        self.errors = []
        self.summary = {}
        self.timing = {}
        self.status = "ok"

    def path(self, name):
        self.files.append(name)
        return os.path.join(self.run_dir, name)

    def fail(self, exc):
        self.errors.append({"type": type(exc).__name__, "message": str(exc)})
        self.status = "failed"

    def finish(self):
        manifest = {
            "format": "frnse-run-manifest v1",
            "version": __version__,
            "command": self.command,
            "config_hash": self.hash,
            "config": serialize_config(self.cfg),
            "started": _iso(self.started),
            "finished": _iso(datetime.now(timezone.utc)),
            "status": self.status,
            "summary": self.summary,
            "timing": self.timing,
            "files": sorted(self.files),
            "errors": self.errors,
        }
        write_manifest(os.path.join(self.run_dir, "manifest.json"), manifest)
        clear_incomplete(self.run_dir)


def _write_tables(ctx, tables):
    """Write each (header, rows) table of tables as {hash8}-{name}.csv."""
    for name in sorted(tables):
        write_csv(ctx.path(f"{ctx.hash8}-{name}.csv"), *tables[name])


def _report_checks(ctx, rows, tables, **summary):
    """Write the tables, print the check rows and fail the run on each
    failing row; returns the failing rows' names."""
    _write_tables(ctx, tables)
    for r in rows:
        mark = "PASS" if r.passed else "FAIL"
        if r.kind == "info":
            print(f"  info {r.check}: {r.measured:.6g}  {r.detail}")
        else:
            print(f"  {mark} {r.check}: measured {r.measured:.6g} vs {r.threshold:.6g}")
    failing = [r.check for r in rows if not r.passed]
    ctx.summary = {**summary, "failed": failing}
    if failing:
        ctx.errors += [{"type": "CheckFailed", "message": n} for n in failing]
        ctx.status = "failed"
    return failing


def cmd_solve(ctx):
    cfg = ctx.cfg
    traj, report = evolve(build_initial(cfg), cfg.stepper)
    _write_tables(ctx, {"diagnostics": report.table()})
    for i, (t, f) in enumerate(zip(traj.times, traj.fields)):
        write_field(ctx.path(f"{ctx.hash8}-snap-{i:05d}.field"), f, t=t)
    ctx.summary = {
        "run_status": report.status,
        "escape_time": report.escape_time,
        "steps": report.steps,
        "rejections": report.rejections,
        "final_t": float(report.times[-1]),
        "final_l2": float(report.l2[-1]),
        "final_h1": float(report.h1[-1]),
        "snapshots": len(traj),
    }
    if not report.completed():
        ctx.status = report.status
    print(f"{report.status}: {report.steps} steps, {report.rejections} rejections, "
          f"t={report.times[-1]:.6g}, |psi|_L2={report.l2[-1]:.9g}, "
          f"|psi|_H1={report.h1[-1]:.6g}")
    return 0


def cmd_picard(ctx):
    cfg = ctx.cfg
    phi = build_initial(cfg)
    code = 0
    traj = None
    try:
        traj, report = picard_solve(phi, cfg.picard)
    except NonConvergence as e:
        report = e.report
        print(f"did not converge: {e}")
        ctx.fail(e)
        code = 1
    except DivergenceDetected as e:
        print(f"iteration diverged: {e}")
        ctx.fail(e)
        return 1
    _write_tables(ctx, {"iterations": report.table()})
    ctx.summary = {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual,
        "phi_h1": report.phi_h1,
        "ball_excursion": report.ball_excursion,
        "left_ball": report.left_ball,
    }
    try:
        con = contraction_report(report)
        ctx.summary["contraction"] = {
            "C_fit": con.C_fit,
            "envelope_ok": con.envelope_ok,
            "ratios_decreasing": con.ratios_decreasing,
            "increments_decreasing": con.increments_decreasing,
            "degenerate": con.degenerate,
        }
    except ValueError as e:
        ctx.summary["contraction"] = {"skipped": str(e)}
    if traj is not None:
        write_field(ctx.path(f"{ctx.hash8}-final.field"), traj.final(), t=cfg.picard.T)
    print(f"converged={report.converged} after {report.iterations} iterations, "
          f"residual={report.residual:.3e}")
    for k, inc, _ in report.table()[1]:
        print(f"  iter {k}: increment {inc:.6e}")
    return code


def cmd_verify(ctx):
    from .experiments import verify_battery  # loaded here, before its pool forks

    result = verify_battery(ctx.cfg)
    ctx.timing = result.timing
    failing = _report_checks(ctx, result.rows, result.tables, checks=len(result.rows),
                             scale=ctx.cfg.experiment.scale)
    if failing:
        print(f"{len(failing)} of {len(result.rows)} checks failed: "
              f"{', '.join(failing)}")
        return 1
    print(f"all {len(result.rows)} checks passed")
    return 0


def cmd_kernel_norms(ctx):
    from .experiments import check_table, kernel_norm_study

    cfg = ctx.cfg
    e = cfg.experiment
    rows, tables = kernel_norm_study(cfg.grid, e.a_list, p=e.p, trials=e.trials, seed=e.seed)
    tables["checks"] = check_table(rows)
    return 1 if _report_checks(ctx, rows, tables, a_list=list(e.a_list)) else 0


def _sweep_worker(task):
    """Run one sweep point; returns (index, hash8, exit code) and never
    raises for a bad config (hash8 None, code 2) or a crashed command."""
    index, text, overrides, parent_dir, command = task
    try:
        cfg = parse_config(text, overrides, command)
    except ConfigError as e:
        print(f"sweep point {index} ({', '.join(overrides)}): config error: {e}",
              file=sys.stderr)
        return index, None, 2
    h8 = config_hash(cfg)[:8]
    sub = os.path.join(parent_dir, f"run-{index:03d}-{h8}")
    os.makedirs(sub, exist_ok=False)
    return index, h8, _execute(command, cfg, sub)


def cmd_sweep(ctx):
    from .experiments import run_jobs

    cfg = ctx.cfg
    sw = cfg.sweep
    base_text = serialize_config(replace(cfg, sweep=None))
    keys = [k for k, _ in sw.axes]
    combos = list(itertools.product(*[vals for _, vals in sw.axes]))
    tasks = [
        (i, base_text,
         tuple(f"{k}={format_value(v)}" for k, v in zip(keys, combo)),
         ctx.run_dir, sw.command)
        for i, combo in enumerate(combos)
    ]
    print(f"sweep: {len(tasks)} {sw.command} runs over {', '.join(keys)}")
    results = []
    run_jobs(_sweep_worker, tasks, results.append)
    by_index = {i: (h8, code) for i, h8, code in results}
    entries = []
    for i, _, overrides, _, _ in tasks:
        h8, code = by_index[i]
        entries.append({
            "run": f"run-{i:03d}-{h8}" if h8 else f"run-{i:03d} (not started)",
            "config_hash8": h8,
            "overrides": list(overrides),
            "exit": code,
        })
    entries.sort(key=lambda r: r["config_hash8"] or "")
    ctx.summary = {"command": sw.command, "runs": entries}
    worst = max(code for _, _, code in results)
    if worst != 0:
        ctx.status = "failed"
        ctx.errors.append({
            "type": "SweepRunFailed",
            "message": ", ".join(e["run"] for e in entries if e["exit"] != 0),
        })
    print(f"sweep finished: {sum(1 for r in results if r[2] == 0)}/{len(results)} ok")
    return worst


_COMMANDS = {
    "solve": cmd_solve,
    "picard": cmd_picard,
    "verify": cmd_verify,
    "kernel-norms": cmd_kernel_norms,
    "sweep": cmd_sweep,
}


def _execute(command, cfg, run_dir):
    """Run one command in run_dir; every exception still leaves a manifest."""
    ctx = RunContext(command, cfg, run_dir)
    mark_incomplete(run_dir)
    try:
        code = _COMMANDS[command](ctx)
    except ConfigError as e:  # a datum that proves bad once built
        ctx.fail(e)
        print("config error:", *(f"  {i}" for i in e.issues), sep="\n", file=sys.stderr)
        code = 2
    except Exception as e:  # the run boundary: record, report, exit 1
        ctx.fail(e)
        ctx.status = "crashed"
        ctx.errors[-1]["traceback"] = traceback.format_exc()
        print(f"{command} crashed: {type(e).__name__}: {e}", file=sys.stderr)
        code = 1
    ctx.finish()
    return code


def cmd_plot(paths, out_dir):
    from .svg import line_chart

    code = 0
    for path in paths:
        try:
            header, rows = read_csv(path)
        except (OSError, ValueError) as e:
            print(f"cannot read {path}: {e}", file=sys.stderr)
            code = 1
            continue
        numeric = []
        for j, name in enumerate(header):
            try:
                col = [float(r[j]) for r in rows]
            except (ValueError, IndexError):
                continue
            numeric.append((name, col))
        if len(numeric) < 2:
            print(f"{path}: fewer than two numeric columns, nothing to plot",
                  file=sys.stderr)
            code = 1
            continue
        names = [n for n, _ in numeric]
        xi = names.index("t") if "t" in names else 0
        xname, xs = numeric[xi]
        series = [(n, xs, ys) for k, (n, ys) in enumerate(numeric) if k != xi]
        stem = os.path.splitext(os.path.basename(path))[0]
        try:
            svg = line_chart(series, title=stem, xlabel=xname, ylabel="value")
        except ValueError as e:
            print(f"{path}: {e}", file=sys.stderr)
            code = 1
            continue
        dest_dir = out_dir or os.path.dirname(path) or "."
        os.makedirs(dest_dir, exist_ok=True)
        dest = os.path.join(dest_dir, f"{stem}.svg")
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
        print(f"wrote {dest}")
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frnse",
        description="Spectral solver and property-check battery for a "
                    "frictional Schrodinger equation with truncated Newton "
                    "interaction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "solve": "time-step the equation and record diagnostics",
        "picard": "run the fixed-point iteration and its contraction report",
        "verify": "run the full property-check battery",
        "sweep": "run a Cartesian product of config overrides",
        "kernel-norms": "estimate tail-kernel operator norms against the bound",
    }
    for name in ("solve", "picard", "verify", "sweep", "kernel-norms"):
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", required=True, help="path to a config file")
        sp.add_argument("--out", default=None, help="output root directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="same as --set experiment.seed=N, and wins over it")
        sp.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override a config key")
    pp = sub.add_parser("plot", help="render CSV columns to an SVG line chart")
    pp.add_argument("csvs", nargs="+", help="CSV files to render")
    pp.add_argument("--out", default=None, help="directory for the SVGs")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "plot":
        return cmd_plot(args.csvs, args.out)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        seed = () if args.seed is None else (f"experiment.seed={args.seed}",)
        cfg = parse_config(text, tuple(args.overrides) + seed, args.command)
    except ConfigError as e:
        print("config error:", *(f"  {i}" for i in e.issues), sep="\n", file=sys.stderr)
        print("usage: frnse <command> --config FILE [--out DIR] [--seed N] "
              "[--set SECTION.KEY=VALUE]", file=sys.stderr)
        return 2
    root = _out_root(args.out, cfg)
    run_dir = _make_run_dir(root, config_hash(cfg)[:8])
    print(f"run directory: {run_dir}")
    return _execute(args.command, cfg, run_dir)


if __name__ == "__main__":
    sys.exit(main())
