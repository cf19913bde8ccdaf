"""The opt-in line tracer of conftest.py: pytest --trace-lines FILE."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_lines_lists_the_frnse_lines_a_run_executes(tmp_path):
    out = tmp_path / "lines.txt"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_grid.py::test_spectral_round_trip", "--trace-lines", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines and all(line.split(":")[1].isdigit() for line in lines)
    # a class statement runs at import: frnse is imported after the tracer starts
    grid = (ROOT / "src" / "frnse" / "grid.py").read_text(encoding="utf-8").splitlines()
    assert f"grid.py:{grid.index('class GridSpec:') + 1}" in lines
    # the modules this test never imports are not listed
    assert not [line for line in lines if line.startswith(("svg.py:", "cli.py:"))]
    # the run ends by listing every other executable line: together with
    # FILE they are the line tables of every frnse module
    summary = run.stdout[run.stdout.index("frnse lines never run:"):].splitlines()
    missed, total = map(int, re.fullmatch(r"frnse lines never run: (\d+) of (\d+)",
                                          summary[0]).groups())
    never = summary[1:]
    assert len(never) == missed and missed + len(lines) == total
    assert not set(never) & set(lines)
    svg = (ROOT / "src" / "frnse" / "svg.py").read_text(encoding="utf-8").splitlines()
    chart = next(i for i, line in enumerate(svg, 1) if line.startswith("def line_chart("))
    assert f"svg.py:{chart}" in never
