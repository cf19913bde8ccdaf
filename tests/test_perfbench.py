"""Guards for the benchmark's entry points into the package.

perfbench/ drives the real CLI and wraps package functions by name; a name
that disappears makes its traced metrics read 0 silently, so these tests
fail loudly instead.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_run()


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_setup_probe_accepts_workload_arguments(name):
    argv = RUN.seeded_argv(RUN.WORKLOADS[name], 0)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py")] + argv,
        cwd=ROOT, env=RUN.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_setup_probe_parses_what_the_command_runs(name):
    # setup_probe.py times parse_config without the command; the command's
    # own rows only reject, so both must give the same config
    from frnse.cli import build_parser
    from frnse.config import parse_config

    args = build_parser().parse_args(RUN.seeded_argv(RUN.WORKLOADS[name], 0))
    text = (ROOT / args.config).read_text(encoding="utf-8")
    overrides = tuple(args.overrides)
    assert parse_config(text, overrides) == parse_config(text, overrides, args.command)


def _traced_targets():
    """TARGETS of perfbench/traced.py, read without importing it."""
    tree = ast.parse((PERFBENCH / "traced.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "TARGETS":
            table = node.value
            break
    else:
        raise AssertionError("traced.py defines no TARGETS")
    for key, value in zip(table.keys, table.values):
        names = eval(compile(ast.Expression(value), "traced.py", "eval"),
                     {"SECTIONS": RUN.SECTIONS})
        yield key.id, names


def test_traced_targets_exist():
    targets = list(_traced_targets())
    assert targets
    for module_name, names in targets:
        module = importlib.import_module(f"frnse.{module_name}")
        missing = [n for n in names if not callable(getattr(module, n, None))]
        assert not missing, f"frnse.{module_name} lacks {missing}"
    # the traced run reads the multiplier cache's hit and miss counts
    from frnse.kernel import kernel_multiplier
    assert hasattr(kernel_multiplier, "cache_info")


TINY = """
[grid]
n = 8
L = 1.6

[physics]
alpha1 = 1.0
alpha2 = 1.0

[initial]
type = gaussian
sigma = 0.15
h1_norm = 0.4

[picard]
T = 0.2
m = 4
quad = trapezoid

[stepper]
T = 0.01
dt = 5e-3
"""

SHARED = ("nonlinear.nonlinear_part", "kernel.apply_kernel", "grid.to_spectral")


@pytest.mark.parametrize("command, names", [
    ("picard", ("picard.picard_solve", "picard.duhamel_map") + SHARED),
    ("solve", ("stepper.evolve", "stepper.ifrk4_step") + SHARED),
])
def test_traced_run_records_hot_path(tmp_path, command, names):
    # a solver refactor that routes around a traced name must fail here
    # rather than read 0 in the benchmark's per-layer metrics
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(spans), "--", command,
         "--config", str(cfg), "--out", str(tmp_path / "runs")],
        cwd=ROOT, env=RUN.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text(encoding="utf-8"))
    recorded = {trace["names"][span[0]] for span in trace["spans"]}
    missing = [n for n in names if n not in recorded]
    assert not missing, f"{command} recorded no span for {missing}"
