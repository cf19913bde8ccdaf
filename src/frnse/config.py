"""Strict run configuration: sectioned key=value text, canonical round trip.

Format: `[section]` headers, `key = value` lines, `#` full-line comments,
blank lines ignored. Parsing is strict — unknown sections or keys, duplicate
keys, type errors, and constraint violations are all collected with their
line numbers and raised together as ConfigError (no silent defaults for
typos, no last-wins).

serialize_config produces a canonical form (fixed section and key order,
repr floats, resolved kernel radius) that re-parses to an equal config;
config_hash is the SHA-256 of that canonical form minus the [output]
section, so relocating output never changes the hash.
"""

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec, l2_norm, h1_norm, make_grid, scaled_gaussian, Field
from .io import read_field
from .kernel import KernelSpec, default_radius
from .nonlinear import PhysParams
from .picard import PicardConfig
from .stepper import StepConfig

_REQUIRED = object()


@dataclass(frozen=True)
class _Opt:
    typ: str  # int | float | str | floats | ints | radius
    default: object = _REQUIRED
    choices: tuple = ()


SCHEMA = {
    "grid": {"n": _Opt("int"), "L": _Opt("float")},
    "physics": {"alpha1": _Opt("float"), "alpha2": _Opt("float")},
    "kernel": {
        "variant": _Opt("str", "full", choices=("full", "inner", "tail")),
        "a": _Opt("float", 0.0),
        "R": _Opt("radius", None),  # None = auto = smallest radius covering the box
    },
    "initial": {
        "type": _Opt("str", "gaussian", choices=("gaussian", "plane_wave", "file")),
        "sigma": _Opt("float", 0.12),
        "center": _Opt("floats", None),
        "l2_norm": _Opt("float", None),
        "h1_norm": _Opt("float", None),
        "amplitude": _Opt("float", 1.0),
        "k": _Opt("ints", (1, 0, 0)),
        "path": _Opt("str", None),
    },
    "picard": {
        "T": _Opt("float", 0.25),
        "m": _Opt("int", 64),
        "quad": _Opt("str", "simpson", choices=("trapezoid", "simpson")),
        "tol": _Opt("float", 1e-10),
        "max_iter": _Opt("int", 25),
    },
    "stepper": {
        "T": _Opt("float", 0.5),
        "dt": _Opt("float", 2.5e-3),
        "h1_cap": _Opt("float", 1e3),
        "dt_min": _Opt("float", 1e-8),
        "snapshot_every": _Opt("int", 10),
    },
    "experiment": {
        "battery": _Opt("str", "verify", choices=("verify",)),
        "seed": _Opt("int", 0),
        "samples": _Opt("int", 60),
        "pairs": _Opt("int", 10),
        "scale": _Opt("str", "full", choices=("full", "quick")),
        "a_list": _Opt("floats", (0.4, 0.2, 0.1)),
        "deltas": _Opt("floats", (1e-2, 1e-3, 1e-4)),
        "p": _Opt("float", 2.0),
        "trials": _Opt("int", 32),
    },
    "output": {"dir": _Opt("str", None)},
    "sweep": None,  # special-cased: command + dotted keys with value lists
}

SECTION_ORDER = (
    "grid", "physics", "kernel", "initial", "picard", "stepper",
    "experiment", "sweep", "output",
)

SWEEP_COMMANDS = ("solve", "picard")


@dataclass(frozen=True)
class ConfigIssue:
    kind: str  # syntax | unknown-key | duplicate | type | constraint | missing
    line: int  # 0 for issues introduced by command-line overrides
    message: str

    def __str__(self):
        where = f"line {self.line}" if self.line else "override"
        return f"{where}: [{self.kind}] {self.message}"


class ConfigError(Exception):
    """All parse/validation problems for one config, with line numbers."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("\n".join(str(i) for i in self.issues))


@dataclass(frozen=True)
class InitialSpec:
    type: str
    sigma: float
    center: tuple
    l2_norm: float
    h1_norm: float
    amplitude: float
    k: tuple
    path: str


@dataclass(frozen=True)
class PicardSection:
    T: float
    m: int
    quad: str
    tol: float
    max_iter: int

    def build(self, kspec, params):
        return PicardConfig(T=self.T, m=self.m, kspec=kspec, params=params,
                            quad=self.quad, max_iter=self.max_iter, tol=self.tol)


@dataclass(frozen=True)
class StepperSection:
    T: float
    dt: float
    h1_cap: float
    dt_min: float
    snapshot_every: int

    def build(self, kspec, params):
        return StepConfig(dt=self.dt, T=self.T, kspec=kspec, params=params,
                          h1_cap=self.h1_cap, dt_min=self.dt_min,
                          snapshot_every=self.snapshot_every)


@dataclass(frozen=True)
class ExperimentSection:
    battery: str
    seed: int
    samples: int
    pairs: int
    scale: str
    a_list: tuple
    deltas: tuple
    p: float
    trials: int


@dataclass(frozen=True)
class SweepSection:
    command: str
    axes: tuple  # ((section.key, (values...)), ...)


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridSpec
    params: PhysParams
    kernel: KernelSpec
    initial: InitialSpec
    picard: PicardSection
    stepper: StepperSection
    experiment: ExperimentSection
    sweep: SweepSection
    outdir: str


def _tokenize(text, issues):
    raw = {}
    section_lines = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                issues.append(ConfigIssue("syntax", lineno, f"unterminated section header {stripped!r}"))
                current = None
                continue
            name = stripped[1:-1].strip()
            if name not in SCHEMA:
                issues.append(ConfigIssue("unknown-key", lineno, f"unknown section [{name}]"))
                current = ("!", name)
                continue
            if name in section_lines:
                issues.append(ConfigIssue("duplicate", lineno, f"section [{name}] appears twice"))
            else:
                section_lines[name] = lineno
            current = name
        elif "=" in stripped:
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if current is None:
                issues.append(ConfigIssue("syntax", lineno, f"key {key!r} outside any section"))
                continue
            if isinstance(current, tuple):
                continue  # already flagged the unknown section once
            if current != "sweep" and key not in SCHEMA[current]:
                issues.append(ConfigIssue("unknown-key", lineno, f"unknown key {current}.{key}"))
                continue
            if (current, key) in raw:
                issues.append(ConfigIssue("duplicate", lineno, f"duplicate key {current}.{key}"))
                continue
            raw[(current, key)] = (value, lineno)
        else:
            issues.append(ConfigIssue("syntax", lineno, f"expected 'key = value', got {stripped!r}"))
    return raw, section_lines


def _convert(opt, text, section, key, line, issues):
    try:
        if opt.typ == "int":
            return int(text)
        if opt.typ == "float":
            return float(text)
        if opt.typ == "radius":
            return None if text == "auto" else float(text)
        if opt.typ == "floats":
            return tuple(float(p) for p in text.split(","))
        if opt.typ == "ints":
            return tuple(int(p) for p in text.split(","))
    except ValueError:
        issues.append(ConfigIssue("type", line, f"{section}.{key}: expected {opt.typ}, got {text!r}"))
        return None
    if opt.choices and text not in opt.choices:
        issues.append(ConfigIssue(
            "constraint", line,
            f"{section}.{key} must be one of {', '.join(opt.choices)}, got {text!r}",
        ))
        return None
    return text


def _section_values(name, raw, section_lines, issues, forced=False):
    """Typed values + source lines for one section, or None if absent."""
    present = name in section_lines or forced or any(s == name for s, _ in raw)
    if not present:
        return None, {}
    out, lines = {}, {}
    for key, opt in SCHEMA[name].items():
        if (name, key) in raw:
            text, line = raw[(name, key)]
            out[key] = _convert(opt, text, name, key, line, issues)
            lines[key] = line
        else:
            if opt.default is _REQUIRED:
                issues.append(ConfigIssue(
                    "missing", section_lines.get(name, 0),
                    f"{name}.{key} is required",
                ))
                out[key] = None
            else:
                out[key] = opt.default
            lines[key] = section_lines.get(name, 0)
    return out, lines


def _constraint(issues, line, message):
    issues.append(ConfigIssue("constraint", line, message))


def apply_overrides(raw, overrides, issues):
    """Fold --set SECTION.KEY=VALUE pairs into the raw token map (line 0)."""
    forced = set()
    for item in overrides:
        head, eq, value = item.partition("=")
        if not eq or "." not in head:
            issues.append(ConfigIssue("syntax", 0, f"override must be section.key=value, got {item!r}"))
            continue
        section, _, key = head.strip().partition(".")
        key, value = key.strip(), value.strip()
        if section not in SCHEMA or SCHEMA[section] is None:
            issues.append(ConfigIssue("unknown-key", 0, f"unknown section {section!r} in override {item!r}"))
            continue
        if key not in SCHEMA[section]:
            issues.append(ConfigIssue("unknown-key", 0, f"unknown key {section}.{key} in override"))
            continue
        raw[(section, key)] = (value, 0)
        forced.add(section)
    return forced


def parse_config(text, overrides=()):
    """Parse (and fully validate) a config; raises ConfigError on problems."""
    issues = []
    raw, section_lines = _tokenize(text, issues)
    forced = apply_overrides(raw, overrides, issues) if overrides else set()

    grid_v, grid_l = _section_values("grid", raw, section_lines, issues, "grid" in forced)
    phys_v, phys_l = _section_values("physics", raw, section_lines, issues, "physics" in forced)
    if grid_v is None:
        issues.append(ConfigIssue("missing", 0, "section [grid] is required"))
    if phys_v is None:
        issues.append(ConfigIssue("missing", 0, "section [physics] is required"))

    grid = params = kernel = None
    if grid_v and None not in (grid_v["n"], grid_v["L"]):
        try:
            grid = GridSpec(grid_v["n"], grid_v["L"])
        except ValueError as e:
            _constraint(issues, grid_l.get("n", 0), f"grid: {e}")
    if phys_v and None not in (phys_v["alpha1"], phys_v["alpha2"]):
        try:
            params = PhysParams(phys_v["alpha1"], phys_v["alpha2"])
        except ValueError as e:
            _constraint(issues, phys_l.get("alpha1", 0), f"physics: {e}")

    kern_v, kern_l = _section_values("kernel", raw, section_lines, issues, True)
    if grid is not None and kern_v and kern_v["variant"] is not None:
        R = kern_v["R"]
        if R is None:
            R = default_radius(grid.L)
        try:
            kernel = KernelSpec(kern_v["variant"], R=R, a=kern_v["a"] or 0.0)
        except (ValueError, TypeError) as e:
            _constraint(issues, kern_l.get("a", kern_l.get("variant", 0)), f"kernel: {e}")
        if kernel is not None and kernel.R < default_radius(grid.L) * (1 - 1e-12):
            _constraint(issues, kern_l.get("R", 0),
                        f"kernel: R={kernel.R} must cover the box diameter "
                        f">= {default_radius(grid.L):.6g}")
            kernel = None

    init_v, init_l = _section_values("initial", raw, section_lines, issues, True)
    initial = None
    if init_v and init_v["type"] is not None:
        center = init_v["center"]
        if center is not None and len(center) != 3:
            _constraint(issues, init_l.get("center", 0), "initial.center needs exactly 3 values")
            center = None
        k = init_v["k"]
        if k is not None and len(k) != 3:
            _constraint(issues, init_l.get("k", 0), "initial.k needs exactly 3 integers")
            k = (1, 0, 0)
        if init_v["sigma"] is not None and init_v["sigma"] <= 0:
            _constraint(issues, init_l.get("sigma", 0), "initial.sigma must be positive")
        if init_v["l2_norm"] is not None and init_v["h1_norm"] is not None:
            _constraint(issues, init_l.get("l2_norm", 0),
                        "give at most one of initial.l2_norm / initial.h1_norm")
        if init_v["type"] == "file" and not init_v["path"]:
            _constraint(issues, init_l.get("path", 0), "initial.path is required for type=file")
        initial = InitialSpec(
            type=init_v["type"], sigma=init_v["sigma"], center=center,
            l2_norm=init_v["l2_norm"], h1_norm=init_v["h1_norm"],
            amplitude=init_v["amplitude"], k=k, path=init_v["path"],
        )

    picard = None
    pic_v, pic_l = _section_values("picard", raw, section_lines, issues, "picard" in forced)
    if pic_v is not None and None not in pic_v.values():
        picard = PicardSection(T=pic_v["T"], m=pic_v["m"], quad=pic_v["quad"],
                               tol=pic_v["tol"], max_iter=pic_v["max_iter"])
        if kernel is not None and params is not None:
            try:
                picard.build(kernel, params)
            except ValueError as e:
                _constraint(issues, pic_l.get("T", 0), f"picard: {e}")
                picard = None

    stepper = None
    st_v, st_l = _section_values("stepper", raw, section_lines, issues, "stepper" in forced)
    if st_v is not None and None not in st_v.values():
        stepper = StepperSection(T=st_v["T"], dt=st_v["dt"], h1_cap=st_v["h1_cap"],
                                 dt_min=st_v["dt_min"],
                                 snapshot_every=st_v["snapshot_every"])
        if kernel is not None and params is not None:
            try:
                stepper.build(kernel, params)
            except ValueError as e:
                _constraint(issues, st_l.get("dt", 0), f"stepper: {e}")
                stepper = None

    exp_v, exp_l = _section_values("experiment", raw, section_lines, issues, True)
    experiment = None
    if exp_v and None not in (exp_v["battery"], exp_v["seed"]):
        if exp_v["seed"] is not None and exp_v["seed"] < 0:
            _constraint(issues, exp_l.get("seed", 0), "experiment.seed must be >= 0")
        if exp_v["samples"] is not None and exp_v["samples"] < 50:
            _constraint(issues, exp_l.get("samples", 0), "experiment.samples must be >= 50")
        if exp_v["p"] is not None and exp_v["p"] <= 1:
            _constraint(issues, exp_l.get("p", 0), "experiment.p must be > 1")
        if exp_v["a_list"] is not None and min(exp_v["a_list"]) <= 0:
            _constraint(issues, exp_l.get("a_list", 0),
                        "experiment.a_list entries must be positive")
        deltas = exp_v["deltas"]
        if deltas is not None and any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
            _constraint(issues, exp_l.get("deltas", 0),
                        "experiment.deltas must be strictly decreasing")
        experiment = ExperimentSection(
            battery=exp_v["battery"], seed=exp_v["seed"], samples=exp_v["samples"],
            pairs=exp_v["pairs"], scale=exp_v["scale"], a_list=exp_v["a_list"],
            deltas=exp_v["deltas"], p=exp_v["p"], trials=exp_v["trials"],
        )

    sweep = None
    sweep_keys = [(s, k) for (s, k) in raw if s == "sweep"]
    if "sweep" in section_lines or sweep_keys:
        command = None
        axes = []
        for (_, key) in sweep_keys:
            text, line = raw[("sweep", key)]
            if key == "command":
                if text not in SWEEP_COMMANDS:
                    _constraint(issues, line,
                                f"sweep.command must be one of {', '.join(SWEEP_COMMANDS)}")
                else:
                    command = text
                continue
            if "." not in key:
                issues.append(ConfigIssue("unknown-key", line,
                                          f"sweep key {key!r} must be section.key"))
                continue
            sec, _, subkey = key.partition(".")
            if sec not in SCHEMA or SCHEMA[sec] is None or subkey not in SCHEMA[sec]:
                issues.append(ConfigIssue("unknown-key", line, f"unknown sweep axis {key!r}"))
                continue
            opt = SCHEMA[sec][subkey]
            values = tuple(
                _convert(replace(opt, default=None), p.strip(), sec, subkey, line, issues)
                for p in text.split(";")
            )
            if None in values or not values:
                continue
            axes.append((key, values))
        if command is None:
            _constraint(issues, section_lines.get("sweep", 0), "sweep.command is required")
        if not axes:
            _constraint(issues, section_lines.get("sweep", 0), "sweep needs at least one axis")
        if command is not None and axes:
            sweep = SweepSection(command=command, axes=tuple(sorted(axes)))

    out_v, _ = _section_values("output", raw, section_lines, issues, "output" in forced)
    outdir = out_v["dir"] if out_v else None

    if issues:
        issues.sort(key=lambda i: i.line if i.line else 10**9)
        raise ConfigError(issues)
    return ExperimentConfig(
        grid=grid, params=params, kernel=kernel, initial=initial,
        picard=picard, stepper=stepper, experiment=experiment,
        sweep=sweep, outdir=outdir,
    )


def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, tuple):
        return ", ".join(_fmt_value(x) for x in v)
    return str(v)


def serialize_config(cfg, include_output=True):
    """Canonical text form; re-parses to an equal config."""
    parts = []

    def emit(name, pairs):
        parts.append(f"[{name}]")
        for key, value in pairs:
            if value is None:
                continue
            parts.append(f"{key} = {_fmt_value(value)}")
        parts.append("")

    emit("grid", [("n", cfg.grid.n), ("L", cfg.grid.L)])
    emit("physics", [("alpha1", cfg.params.alpha1), ("alpha2", cfg.params.alpha2)])
    emit("kernel", [("variant", cfg.kernel.variant),
                    ("a", cfg.kernel.a if cfg.kernel.variant != "full" else None),
                    ("R", cfg.kernel.R)])
    ini = cfg.initial
    emit("initial", [("type", ini.type), ("sigma", ini.sigma), ("center", ini.center),
                     ("l2_norm", ini.l2_norm), ("h1_norm", ini.h1_norm),
                     ("amplitude", ini.amplitude), ("k", ini.k), ("path", ini.path)])
    if cfg.picard is not None:
        p = cfg.picard
        emit("picard", [("T", p.T), ("m", p.m), ("quad", p.quad), ("tol", p.tol),
                        ("max_iter", p.max_iter)])
    if cfg.stepper is not None:
        s = cfg.stepper
        emit("stepper", [("T", s.T), ("dt", s.dt), ("h1_cap", s.h1_cap),
                         ("dt_min", s.dt_min), ("snapshot_every", s.snapshot_every)])
    e = cfg.experiment
    emit("experiment", [("battery", e.battery), ("seed", e.seed), ("samples", e.samples),
                        ("pairs", e.pairs), ("scale", e.scale), ("a_list", e.a_list),
                        ("deltas", e.deltas), ("p", e.p), ("trials", e.trials)])
    if cfg.sweep is not None:
        pairs = [("command", cfg.sweep.command)]
        pairs += [(key, "; ".join(_fmt_value(v) for v in values))
                  for key, values in cfg.sweep.axes]
        emit("sweep", pairs)
    if include_output and cfg.outdir is not None:
        emit("output", [("dir", cfg.outdir)])
    return "\n".join(parts)


def config_hash(cfg):
    """SHA-256 hex digest of the canonical form without the output section."""
    text = serialize_config(cfg, include_output=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_initial(cfg):
    """Construct the initial datum described by the [initial] section."""
    ini, spec = cfg.initial, cfg.grid
    if ini.type == "gaussian":
        f = scaled_gaussian(spec, ini.sigma, center=ini.center,
                            l2_target=ini.l2_norm, h1_target=ini.h1_norm)
        if ini.l2_norm is None and ini.h1_norm is None and ini.amplitude != 1.0:
            f = f * ini.amplitude
        return f
    if ini.type == "plane_wave":
        g = make_grid(spec)
        kvec = 2.0 * np.pi / spec.L * np.asarray(ini.k, dtype=float)
        xg, yg, zg = np.meshgrid(g.x, g.x, g.x, indexing="ij")
        f = Field(spec, ini.amplitude * np.exp(1j * (kvec[0] * xg + kvec[1] * yg + kvec[2] * zg)))
        if ini.l2_norm is not None:
            f = f * (ini.l2_norm / l2_norm(f))
        elif ini.h1_norm is not None:
            f = f * (ini.h1_norm / h1_norm(f))
        return f
    field, _ = read_field(ini.path)
    if field.spec != spec:
        raise ConfigError([ConfigIssue(
            "constraint", 0,
            f"initial.path field is {field.spec.n}^3, L={field.spec.L}; "
            f"config grid is {spec.n}^3, L={spec.L}",
        )])
    return field
