"""Shared fixtures for the test suite."""

import os
import pickle
import sys

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption("--trace-lines", metavar="FILE",
                     help="write each src/frnse line the run executes to FILE, as path:line")


def pytest_configure(config):
    path = config.getoption("--trace-lines")
    if not path:
        return
    # one CPU: the battery's pool then runs its jobs in this traced process
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src, hits = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "frnse"), set()

    def lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def write():
        sys.settrace(None)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{os.path.relpath(f, src)}:{n}\n" for f, n in sorted(hits))
        # executable lines: the line tables of every code object in each module
        codes, executable = [], set()
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    codes.append(compile(fh.read(), os.path.join(src, name), "exec"))
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, type(code))]
            executable |= {(code.co_filename, n) for *_, n in code.co_lines() if n}
        missed = sorted(executable - hits)
        print(f"\nfrnse lines never run: {len(missed)} of {len(executable)}")
        print("".join(f"{os.path.relpath(f, src)}:{n}\n" for f, n in missed), end="")

    sys.settrace(lambda frame, *_: lines if frame.f_code.co_filename.startswith(src) else None)
    config.add_cleanup(write)


def _grid(n):
    # frnse is imported by the tests, after --trace-lines starts its tracer
    from frnse.grid import GridSpec
    return GridSpec(n, 1.6)


@pytest.fixture
def gspec8():
    return _grid(8)


@pytest.fixture
def gspec16():
    return _grid(16)


@pytest.fixture
def gspec32():
    return _grid(32)


@pytest.fixture
def kfull():
    from frnse.kernel import KernelSpec
    return KernelSpec("full")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def count_transforms(monkeypatch):
    """Call it to start counting numpy's fftn and ifftn calls, or the
    numpy.fft functions it is given; it returns the live counts."""
    def start(names=("fftn", "ifftn")):
        calls = dict.fromkeys(names, 0)
        for name in calls:
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return calls
    return start


class ForkLog:
    """Records that forked worker processes add to and the test reads back:
    each put is one O_APPEND write of a length-prefixed pickle, so records
    from two processes never interleave."""

    def __init__(self, path):
        self.path = path
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))

    def put(self, record):
        data = pickle.dumps(record)
        data = len(data).to_bytes(8, "little") + data
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            assert os.write(fd, data) == len(data), "short write to the log"
        finally:
            os.close(fd)

    def records(self):
        with open(self.path, "rb") as fh:
            data = fh.read()
        out, at = [], 0
        while at < len(data):
            size = int.from_bytes(data[at:at + 8], "little")
            out.append(pickle.loads(data[at + 8:at + 8 + size]))
            at += 8 + size
        return out


@pytest.fixture(scope="session")
def fork_log(tmp_path_factory):
    """Call it for a new ForkLog: make it before the code under test starts
    its worker processes, so that they inherit the recorder that writes it."""
    return lambda: ForkLog(tmp_path_factory.mktemp("fork-log") / "records")
