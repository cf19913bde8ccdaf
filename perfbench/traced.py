"""Run one frnse CLI command with span tracing installed from outside.

Usage: python3 perfbench/traced.py SPANS.json -- <frnse arguments>

Before the command starts, every function named in TARGETS is replaced at
every module binding that holds it (``frnse.kernel.apply_kernel``,
``frnse.nonlinear.apply_kernel``, ``frnse.apply_kernel`` ...), and the
``numpy.fft`` transforms are replaced on the ``numpy.fft`` module. Nothing
under ``src/`` changes. Each call records a span (name, start, end, parent,
extra) in memory; the spans, the kernel caches' ``cache_info()`` and the
computed size of what those caches hold are written to SPANS.json when the
command returns. The process exits with the command's exit code.
"""

import functools
import json
import sys
import time
from collections import OrderedDict

import numpy.fft

import frnse
import frnse.cli
from frnse import (experiments, grid, io, kernel, nonlinear, picard,
                   propagate, stepper, trajectory)
from run import SECTIONS

TARGETS = {
    kernel: ("apply_kernel", "kernel_multiplier", "kernel_table"),
    grid: ("to_spectral", "from_spectral", "h1_norm", "l2_norm", "lp_norm"),
    nonlinear: ("nonlinear_part", "potential", "g1"),
    propagate: ("free_evolve",),
    trajectory: ("sup_h1_distance",),
    picard: ("duhamel_map", "picard_solve"),
    stepper: ("ifrk4_step", "evolve"),
    experiments: ("verify_battery",) + tuple(f for f in SECTIONS if f != "picard_solve"),
    io: ("write_field", "write_csv", "write_manifest"),
}

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                 "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

CACHED = ("kernel_multiplier", "kernel_table")


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        # LRU mirrors of the kernel caches: key -> bytes held by the result
        self.cached = {name: OrderedDict() for name in CACHED}

    def wrap(self, name, fn, extra=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [name_id, t0, t1, parent, None]
            if extra is not None:
                spans[idx][4] = extra(args, kwargs, out)
            return out

        return traced

    def lru_extra(self, name, maxsize):
        mirror = self.cached[name]

        def extra(args, kwargs, out):
            key = (args, tuple(sorted(kwargs.items())))
            mirror[key] = out.nbytes
            mirror.move_to_end(key)
            while len(mirror) > maxsize:
                mirror.popitem(last=False)
            return None

        return extra


def _complex_input(args, kwargs, out):
    density = args[1] if len(args) > 1 else kwargs["density"]
    return int(bool((density.values.imag != 0.0).any()))


def _fft_elements(args, kwargs, out):
    return max(int(numpy.asarray(args[0]).size), int(out.size))


def _report_counts(args, kwargs, out):
    report = out[1]
    return [getattr(report, "iterations", None), getattr(report, "steps", None),
            getattr(report, "rejections", None)]


EXTRAS = {
    "kernel.apply_kernel": _complex_input,
    "picard.picard_solve": _report_counts,
    "stepper.evolve": _report_counts,
}


def install(tracer):
    """Wrap TARGETS at every frnse module binding and numpy.fft; return the
    original lru-cached kernel functions for cache_info()."""
    wrappers = {}
    originals = {}
    for module, names in TARGETS.items():
        short = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:  # gone from the program: its metrics read 0
                continue
            extra = EXTRAS.get(f"{short}.{name}")
            if name in CACHED and hasattr(fn, "cache_info"):
                originals[name] = fn
                extra = tracer.lru_extra(name, fn.cache_parameters()["maxsize"])
            wrappers[id(fn)] = tracer.wrap(f"{short}.{name}", fn, extra)
    for name in FFT_FUNCTIONS:
        fn = getattr(numpy.fft, name)
        wrappers[id(fn)] = tracer.wrap(f"fft.{name}", fn, _fft_elements)
        setattr(numpy.fft, name, wrappers[id(fn)])
    for modname, module in list(sys.modules.items()):
        if modname != "frnse" and not modname.startswith("frnse."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    return originals


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <frnse arguments>", file=sys.stderr)
        return 2
    out_path, frnse_args = argv[0], argv[2:]
    tracer = Tracer()
    originals = install(tracer)
    try:
        code = frnse.cli.main(frnse_args)
    finally:
        caches = {}
        for name, fn in originals.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses,
                            "bytes": sum(tracer.cached[name].values())}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans,
                       "caches": caches}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
