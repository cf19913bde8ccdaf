"""Strict run configuration: one schema, one check table, one canonical form.

Format: `[section]` headers, `key = value` lines, `#` full-line comments,
blank lines ignored. SCHEMA is the only list of each section's keys, types
and defaults. Parsing is strict — unknown sections or keys, duplicate keys,
type errors and constraint violations are all collected with their line
numbers and raised together as ConfigError (no silent defaults for typos, no
last-wins). [grid], [physics], [kernel], [picard] and [stepper] are built
straight into the solvers' own validating GridSpec, PhysParams, KernelSpec,
PicardConfig and StepConfig; [initial] and [experiment] into records
generated from their SCHEMA keys, which the rows of CHECKS validate.

Given a command, parse_config also holds the config to what the command
needs: the CHECKS rows that serve it, its RUNS_ON section, and for solve and
picard a readable initial file on the config's grid. Each issue cites its
line, "override" for --set and --seed, or "config" where no line applies.
dependence_datum, verify's continuous-dependence datum, lives here beside
the row that holds experiment.deltas against it; the battery imports it
from here, so parsing a config never loads the battery.

serialize_config walks SECTION_ORDER and SCHEMA to produce a canonical form
(io.format_value, fixed section and key order) that re-parses to an equal
config; config_hash is the SHA-256 of that canonical form minus the
[output] section, so relocating output never changes the hash.
"""

import functools
import hashlib
import os
from dataclasses import dataclass, make_dataclass, replace

import numpy as np

from .grid import (GridSpec, gaussian_field, h1_norm, l2_norm, plane_wave, scaled_gaussian,
                   warn_if_cramped)
from .io import format_value, read_field
from .kernel import VARIANTS, KernelSpec, default_radius
from .nonlinear import PhysParams
from .picard import QUAD_RULES, PicardConfig
from .stepper import StepConfig

_REQUIRED = object()


@dataclass(frozen=True)
class _Opt:
    typ: str  # int | float | str | floats | ints
    default: object = _REQUIRED
    choices: tuple = ()


SCHEMA = {
    "grid": {"n": _Opt("int"), "L": _Opt("float")},
    "physics": {"alpha1": _Opt("float"), "alpha2": _Opt("float")},
    "kernel": {
        "variant": _Opt("str", "full", choices=VARIANTS),
        "a": _Opt("float", 0.0),
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
        "quad": _Opt("str", "simpson", choices=QUAD_RULES),
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

#: The section each command runs on.
RUNS_ON = {"solve": "stepper", "picard": "picard", "sweep": "sweep"}


@dataclass(frozen=True)
class ConfigIssue:
    kind: str  # syntax | unknown-key | duplicate | type | constraint | missing
    line: int  # 0 for a command-line override, None where no line applies
    message: str

    def __str__(self):
        where = "config" if self.line is None else f"line {self.line}" if self.line else "override"
        return f"{where}: [{self.kind}] {self.message}"


class ConfigError(Exception):
    """All parse/validation problems for one config, with line numbers."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("\n".join(str(i) for i in self.issues))


#: Sections left None unless the text or an override names them.
OPTIONAL_SECTIONS = ("picard", "stepper", "output")

#: ExperimentConfig fields whose name differs from their section's.
_FIELD = {"physics": "params", "output": "outdir"}

# __module__ makes the records picklable like every other config part
InitialSpec = make_dataclass("InitialSpec", list(SCHEMA["initial"]), frozen=True,
                             namespace={"__module__": __name__})
ExperimentSection = make_dataclass("ExperimentSection", list(SCHEMA["experiment"]),
                                   frozen=True, namespace={"__module__": __name__})


def dependence_datum(L):
    """The continuous-dependence datum of verify: a Gaussian of width 0.15
    and H1 norm 0.5 on a 16^3 grid of box length L."""
    return scaled_gaussian(GridSpec(16, L), 0.15, h1_target=0.5)


def _decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def _below_reach(values, grid):
    return grid is None or max(values) < default_radius(grid.L)


#: (section, key, predicate, message, commands) rows. A key's value, set or
#: default, must satisfy predicate(value, typed values of its section and the
#: sections built before it, by name), or "section.key message" is reported at
#: the key's line, else its section's header. A row serves the commands it
#: names, None for all; every default satisfies every row serving all.
CHECKS = (
    ("kernel", "a", lambda v, s: _below_reach((v,), s["grid"]),
     "must be below the kernel's reach sqrt(3) * grid.L", None),
    ("initial", "type", lambda v, s: v != "file" or s["path"], "= file needs initial.path", None),
    ("initial", "sigma", lambda v, s: v > 0, "must be positive", None),
    ("initial", "center", lambda v, s: len(v) == 3, "needs exactly 3 values", None),
    ("initial", "l2_norm", lambda v, s: s["h1_norm"] is None, "excludes initial.h1_norm", None),
    ("initial", "l2_norm", lambda v, s: v > 0, "must be positive", None),
    ("initial", "l2_norm", lambda v, s: np.isfinite(v), "must be finite", None),
    ("initial", "h1_norm", lambda v, s: v > 0, "must be positive", None),
    ("initial", "h1_norm", lambda v, s: np.isfinite(v), "must be finite", None),
    ("initial", "amplitude", lambda v, s: np.isfinite(v), "must be finite", None),
    ("initial", "k", lambda v, s: len(v) == 3, "needs exactly 3 integers", None),
    ("experiment", "seed", lambda v, s: v >= 0, "must be >= 0", None),
    ("experiment", "samples", lambda v, s: v >= 50, "must be >= 50", None),
    ("experiment", "pairs", lambda v, s: v >= 1, "must be >= 1", None),
    ("experiment", "a_list", lambda v, s: min(v) > 0, "entries must be positive", None),
    ("experiment", "a_list", lambda v, s: _decreasing(v), "must be strictly decreasing", None),
    ("experiment", "deltas", lambda v, s: min(v) > 0, "entries must be positive", None),
    ("experiment", "deltas", lambda v, s: _decreasing(v), "must be strictly decreasing", None),
    ("experiment", "p", lambda v, s: v > 1, "must be > 1", None),
    ("experiment", "p", lambda v, s: np.isfinite(v), "must be finite", None),
    ("experiment", "trials", lambda v, s: v >= 1, "must be >= 1", None),
    # each pending trial holds about 2.2 KB until the pool takes it
    ("experiment", "trials", lambda v, s: v <= 10000, "must be <= 10000", None),
    # at alpha2 = 0 verify's order studies have no quadrature error to fit,
    # and its truncation study holds truncated kernels to the full one
    ("physics", "alpha2", lambda v, s: v != 0, "must be nonzero for verify", ("verify",)),
    ("kernel", "variant", lambda v, s: v == "full", "must be full for verify", ("verify",)),
    ("experiment", "a_list", lambda v, s: _below_reach(v, s["grid"]),
     "entries must be below the kernel's reach sqrt(3) * grid.L", ("verify", "kernel-norms")),
    # continuous_dependence keeps each perturbation within half its datum
    ("experiment", "deltas", lambda v, s: s["grid"] is None
     or max(v) <= 0.5 * h1_norm(dependence_datum(s["grid"].L)),
     "entries must be at most half the H1 norm of verify's dependence datum", ("verify",)),
)


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
    picard: PicardConfig
    stepper: StepConfig
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


def _section_values(name, raw, section_lines, issues):
    """Typed values of one section with defaults filled in, and the source
    line of each key that the text or an override sets."""
    values, lines = {}, {}
    for key, opt in SCHEMA[name].items():
        if (name, key) in raw:
            text, lines[key] = raw[(name, key)]
            values[key] = _convert(opt, text, name, key, lines[key], issues)
        elif opt.default is _REQUIRED:
            values[key] = None
            issues.append(ConfigIssue("missing", section_lines.get(name),
                                      f"{name}.{key} is required"))
        else:
            values[key] = opt.default
    return values, lines


def _constraint(issues, line, message):
    issues.append(ConfigIssue("constraint", line, message))


#: How each section is built from its typed values and the sections before it.
_BUILD = {
    "grid": lambda v, built: GridSpec(**v),
    "physics": lambda v, built: PhysParams(**v),
    "kernel": lambda v, built: KernelSpec(**v),
    "initial": lambda v, built: InitialSpec(**v),
    "picard": lambda v, built: PicardConfig(kspec=built["kernel"], params=built["physics"], **v),
    "stepper": lambda v, built: StepConfig(kspec=built["kernel"], params=built["physics"], **v),
    "experiment": lambda v, built: ExperimentSection(**v),
    "output": lambda v, built: v["dir"],
}


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


def _parse_sweep(raw, header, issues):
    """The [sweep] section whose header is at line header, or None."""
    command, axes = None, []
    for (section, key), (text, line) in raw.items():
        if section != "sweep":
            continue
        if key == "command":
            if text in SWEEP_COMMANDS:
                command = text
            else:
                _constraint(issues, line,
                            f"sweep.command must be one of {', '.join(SWEEP_COMMANDS)}")
            continue
        sec, _, subkey = key.partition(".")
        if subkey not in (SCHEMA.get(sec) or {}):
            issues.append(ConfigIssue("unknown-key", line,
                                      f"unknown sweep axis {key!r}, expected section.key"))
            continue
        values = tuple(_convert(SCHEMA[sec][subkey], p.strip(), sec, subkey, line, issues)
                       for p in text.split(";"))
        if None not in values:
            axes.append((key, values))
    if command is None:
        _constraint(issues, header, "sweep.command is required")
    if not axes:
        _constraint(issues, header, "sweep needs at least one axis")
    if command is not None and axes:
        return SweepSection(command=command, axes=tuple(sorted(axes)))


def parse_config(text, overrides=(), command=None):
    """Parse (and fully validate) a config, for command if one is given (see
    CHECKS and RUNS_ON); raises ConfigError on problems."""
    issues = []
    raw, section_lines = _tokenize(text, issues)
    forced = apply_overrides(raw, overrides, issues)
    sweep = _parse_sweep(raw, section_lines["sweep"], issues) if "sweep" in section_lines else None
    runs = (command, sweep.command) if command == "sweep" and sweep else (command,)

    built = {}
    for name, build in _BUILD.items():
        built[name] = None
        required = any(opt.default is _REQUIRED for opt in SCHEMA[name].values())
        if name not in section_lines and name not in forced:
            if required:
                issues.append(ConfigIssue("missing", None, f"section [{name}] is required"))
            if required or name in OPTIONAL_SECTIONS:
                continue
        before = len(issues)
        values, lines = _section_values(name, raw, section_lines, issues)
        for section, key, ok, message, serves in CHECKS:
            if section == name and values[key] is not None \
                    and (serves is None or any(c in serves for c in runs)) \
                    and not ok(values[key], {**built, **values}):
                _constraint(issues, lines.get(key, section_lines.get(name)),
                            f"{name}.{key} {message}")
        if len(issues) > before:
            continue  # building would only repeat what is reported
        try:
            built[name] = build(values, built)
        except ValueError as e:
            # cite the section's last setting: an override, its last text line or header
            line = max(lines.values(), key=lambda l: l or 10**9,
                       default=section_lines.get(name))
            _constraint(issues, line, f"{name}: {e}")

    for runner in runs:
        need = RUNS_ON.get(runner)
        if need and need not in section_lines and need not in forced:
            over = "sweep over " if runner != command else ""
            issues.append(ConfigIssue("missing", None, f"{over}{runner} needs a [{need}] section"))
    if not issues:
        cfg = ExperimentConfig(sweep=sweep, **{_FIELD.get(name, name): section
                                               for name, section in built.items()})
        # solve and picard read an initial file before their run starts
        if cfg.initial.type == "file" and not {"solve", "picard"}.isdisjoint(runs):
            line = raw[("initial", "path")][1]
            try:
                build_initial(cfg)
            except ConfigError as e:
                issues += [replace(i, line=line) for i in e.issues]
            except (OSError, ValueError) as e:
                _constraint(issues, line, f"initial.path cannot be read: {e}")
    if issues:
        issues.sort(key=lambda i: i.line if i.line else 10**9)
        raise ConfigError(issues)
    return cfg


def serialize_config(cfg, include_output=True):
    """Canonical text form; re-parses to an equal config."""
    parts = []
    for name in SECTION_ORDER:
        section = getattr(cfg, _FIELD.get(name, name))
        if section is None or (name == "output" and not include_output):
            continue
        if name == "sweep":
            pairs = [("command", section.command)]
            pairs += [(key, "; ".join(format_value(v) for v in values))
                      for key, values in section.axes]
        elif name == "output":
            pairs = [("dir", section)]
        else:
            pairs = [(key, getattr(section, key)) for key in SCHEMA[name]
                     if not (name == "kernel" and key == "a" and section.variant == "full")]
        parts.append(f"[{name}]")
        parts += [f"{key} = {format_value(value)}" for key, value in pairs if value is not None]
        parts.append("")
    return "\n".join(parts)


def config_hash(cfg):
    """SHA-256 hex digest of the canonical form without the output section."""
    text = serialize_config(cfg, include_output=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)  # parse_config's check and the command share one read
def _read_initial(path, mtime_ns, size):
    return read_field(path)


def build_initial(cfg):
    """Construct the initial datum of the [initial] section: the file's
    field, or a unit-height Gaussian or plane wave scaled to the norm target
    if one is set, else by the amplitude. Raises ConfigError, naming the
    key, when the datum or its L2 or H1 norm is not finite."""
    ini, spec = cfg.initial, cfg.grid
    if ini.type == "file":
        stat = os.stat(ini.path)
        key, (f, _) = "path", _read_initial(ini.path, stat.st_mtime_ns, stat.st_size)
        if f.spec != spec:
            raise ConfigError([ConfigIssue("constraint", None,
                                           f"initial.path field is {f.spec.n}^3, L={f.spec.L}; "
                                           f"config grid is {spec.n}^3, L={spec.L}")])
    else:
        f = (warn_if_cramped(gaussian_field(spec, ini.sigma, center=ini.center))
             if ini.type == "gaussian" else plane_wave(spec, ini.k))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            if ini.l2_norm is not None:
                key, f = "l2_norm", f * (ini.l2_norm / l2_norm(f))
            elif ini.h1_norm is not None:
                key, f = "h1_norm", f * (ini.h1_norm / h1_norm(f))
            else:
                key, f = "amplitude", f * ini.amplitude
    with np.errstate(over="ignore", invalid="ignore"):  # finite values can overflow a norm
        norms = l2_norm(f), h1_norm(f)
    if not np.isfinite(norms).all():
        raise ConfigError([ConfigIssue("constraint", None,
                                       f"initial.{key} gives a datum that is not finite")])
    return f
