import json
import os
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from frnse.config import (SCHEMA, ConfigError, build_initial, config_hash,
                          parse_config, serialize_config)
from frnse.grid import l2_norm, plane_wave, scaled_gaussian
from frnse.io import write_field

TESTS = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(TESTS), "configs")
with open(os.path.join(TESTS, "data", "config_pins.json"), encoding="utf-8") as _fh:
    PINS = json.load(_fh)

MINIMAL = """
[grid]
n = 16
L = 1.6

[physics]
alpha1 = 1.0
alpha2 = 1.0
"""


def _kinds(err):
    return [i.kind for i in err.value.issues]


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.grid.n == 16
    assert cfg.params.alpha1 == 1.0
    assert cfg.kernel.variant == "full"
    assert cfg.kernel.a == 0.0  # the kernel's reach comes from the grid
    assert cfg.initial.type == "gaussian"
    assert cfg.picard is None
    assert cfg.stepper is None
    assert cfg.sweep is None


def test_constraint_violation_cites_key():
    bad = MINIMAL.replace("alpha1 = 1.0", "alpha1 = 0.0")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "constraint" in _kinds(err)
    assert any("alpha1" in i.message for i in err.value.issues)


@pytest.mark.parametrize("line, key", [
    ("p = 1", "experiment.p"),
    ("a_list = 0.4, -0.2", "experiment.a_list"),
    ("deltas = 0.01, 0.02", "experiment.deltas"),
    ("deltas = 0.01, 0.001, -0.0001", "experiment.deltas"),
    ("a_list = 0.1, 0.2, 0.4", "experiment.a_list"),
    # no pairs: every Lipschitz slope is NaN; no trials: every tail estimate 0
    ("pairs = 0", "experiment.pairs"),
    ("trials = 0", "experiment.trials"),
])
def test_bad_experiment_value_cites_line(line, key):
    # each of these crashed the command that reads it, after the run began
    text = MINIMAL + "\n[experiment]\n" + line + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (issue,) = err.value.issues
    assert issue.kind == "constraint"
    assert key in issue.message
    assert issue.line == text.splitlines().index(line) + 1


@pytest.mark.parametrize("key, value", [("l2_norm", "-1"), ("l2_norm", "0"),
                                        ("h1_norm", "-0.5")])
def test_norm_target_must_be_positive(key, value):
    # a negative target scaled the datum to its absolute value, zero to zero
    line = f"{key} = {value}"
    text = MINIMAL + "\n[initial]\n" + line + "\n"
    for source, overrides, where in ((text, (), text.splitlines().index(line) + 1),
                                     (MINIMAL, (f"initial.{key}={value}",), 0)):
        with pytest.raises(ConfigError) as err:
            parse_config(source, overrides)
        (issue,) = err.value.issues
        assert (issue.kind, issue.line) == ("constraint", where)
        assert issue.message == f"initial.{key} must be positive"


@pytest.mark.parametrize("key, value", [("l2_norm", "inf"), ("h1_norm", "inf"),
                                        ("amplitude", "inf"), ("amplitude", "-inf"),
                                        ("amplitude", "nan")])
def test_initial_scale_must_be_finite(key, value):
    # an infinite target or amplitude ran into the solver as a non-finite datum
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL, (f"initial.{key}={value}",))
    (issue,) = err.value.issues
    assert (issue.kind, issue.line, issue.message) == ("constraint", 0,
                                                       f"initial.{key} must be finite")


def test_constructor_error_cites_the_sections_last_setting():
    # KernelSpec rejects a truncation radius on the full kernel
    text = MINIMAL + "\n[kernel]\nvariant = full\na = 0.3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (issue,) = err.value.issues
    assert issue.kind == "constraint"
    assert issue.line == text.splitlines().index("a = 0.3") + 1
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[kernel]\nvariant = full\n", ("kernel.a=0.3",))
    (issue,) = err.value.issues
    assert issue.line == 0  # cited as the override


def test_command_rows_serve_only_their_command():
    text = MINIMAL.replace("alpha2 = 1.0", "alpha2 = 0.0")
    assert parse_config(text) == parse_config(text, command="kernel-norms")
    with pytest.raises(ConfigError) as err:
        parse_config(text, command="verify")
    (issue,) = err.value.issues
    assert "physics.alpha2" in issue.message
    assert issue.line == text.splitlines().index("alpha2 = 0.0") + 1
    # a missing section has no line to cite
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL, command="picard")
    (issue,) = err.value.issues
    assert (issue.line, str(issue)) == (None, "config: [missing] picard needs a [picard] section")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[grid]\nn = 32\n")
    assert "duplicate" in _kinds(err)


def test_unknown_section_and_key():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[grit]\nn = 8\n")
    assert "unknown-key" in _kinds(err)
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[kernel]\nradius_cut = 1.0\n")
    assert "unknown-key" in _kinds(err)


def test_type_error_and_missing_required():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("n = 16", "n = sixteen"))
    assert "type" in _kinds(err)
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nn = 16\nL = 1.6\n")
    assert "missing" in _kinds(err)
    assert any("physics" in i.message for i in err.value.issues)


def test_all_issues_reported_with_lines():
    text = "[grid]\nn = oops\nL = 1.6\nbogus = 1\n[physics]\nalpha1 = 1\nalpha2 = -3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    issues = list(err.value.issues)
    assert len(issues) >= 3
    assert issues == sorted(issues, key=lambda i: i.line or 10**9)


def test_syntax_error_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\nnot a key value pair\n")
    syn = [i for i in err.value.issues if i.kind == "syntax"]
    assert syn and syn[0].line > 1


def test_round_trip_and_hash():
    cfg = parse_config(MINIMAL)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert serialize_config(again) == text
    assert config_hash(again) == config_hash(cfg)


# Every SCHEMA key set, in canonical form. Each differs from its default
# except h1_norm (excluded by l2_norm).
EVERY_KEY = """[grid]
n = 12
L = 2.0

[physics]
alpha1 = 0.5
alpha2 = 0.25

[kernel]
variant = inner
a = 0.3

[initial]
type = plane_wave
sigma = 0.2
center = 0.9, 1.0, 1.1
l2_norm = 2.0
amplitude = 1.5
k = 0, 2, 1
path = start.field

[picard]
T = 0.125
m = 8
quad = trapezoid
tol = 1e-09
max_iter = 7

[stepper]
T = 0.25
dt = 0.005
h1_cap = 500.0
dt_min = 1e-07
snapshot_every = 3

[experiment]
seed = 5
samples = 80
pairs = 6
scale = quick
a_list = 0.8, 0.5
deltas = 0.1, 0.05
p = 3.0
trials = 9

[sweep]
command = picard
picard.m = 8; 16

[output]
dir = out
"""


def _other(opt, value):
    """A valid value of the option's type that differs from value."""
    choices = [c for c in opt.choices if c != value]
    if choices:
        return choices[-1]
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return tuple(2 * x for x in value)
    return 1.0 if value is None else 2 * value


def test_every_key_round_trips_and_moves_the_hash():
    cfg = parse_config(EVERY_KEY)
    assert serialize_config(cfg) == EVERY_KEY
    assert parse_config(serialize_config(cfg)) == cfg
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    for section, options in SCHEMA.items():
        if section in ("sweep", "output"):
            continue  # no typed record; output never enters the hash
        attr = "params" if section == "physics" else section
        for key, opt in options.items():
            record = getattr(cfg, attr)
            changed = replace(record, **{key: _other(opt, getattr(record, key))})
            moved = replace(cfg, **{attr: changed})
            assert config_hash(moved) != config_hash(cfg), f"{section}.{key}"


def test_every_shipped_config_is_pinned():
    assert {pin["config"] for pin in PINS.values()} == set(os.listdir(CONFIGS))


@pytest.mark.parametrize("name", sorted(PINS))
def test_shipped_config_canonical_form_and_hash_pinned(name):
    # run manifests record config_hash: a change to the canonical form
    # orphans every manifest written before it
    pin = PINS[name]
    with open(os.path.join(CONFIGS, pin["config"]), encoding="utf-8") as fh:
        cfg = parse_config(fh.read(), tuple(pin["overrides"]))
    assert serialize_config(cfg).splitlines() == pin["text"]
    assert config_hash(cfg) == pin["hash"]
    assert parse_config(serialize_config(cfg)) == cfg


def test_hash_ignores_output_section():
    cfg1 = parse_config(MINIMAL)
    cfg2 = parse_config(MINIMAL + "\n[output]\ndir = /tmp/elsewhere\n")
    assert cfg2.outdir == "/tmp/elsewhere"
    assert config_hash(cfg1) == config_hash(cfg2)
    assert serialize_config(cfg1) == serialize_config(cfg2, include_output=False)


def test_hash_sensitive_to_physics():
    cfg1 = parse_config(MINIMAL)
    cfg2 = parse_config(MINIMAL.replace("alpha2 = 1.0", "alpha2 = 0.5"))
    assert config_hash(cfg1) != config_hash(cfg2)


def test_overrides():
    cfg = parse_config(MINIMAL, overrides=("grid.n=8", "picard.T=0.125"))
    assert cfg.grid.n == 8
    # an override materializes the section it touches
    assert cfg.picard is not None
    assert cfg.picard.T == 0.125
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, overrides=("grid.n",))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, overrides=("nosuch.key=1",))


def test_sweep_parsing():
    text = MINIMAL + """
[stepper]
T = 0.1

[sweep]
command = solve
stepper.dt = 4e-3; 2e-3; 1e-3
"""
    cfg = parse_config(text)
    assert cfg.sweep.command == "solve"
    assert cfg.sweep.axes == (("stepper.dt", (4e-3, 2e-3, 1e-3)),)
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[sweep]\ncommand = solve\n")  # no axes
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[sweep]\nstepper.dt = 1e-3; 2e-3\n")
    with pytest.raises(ConfigError):
        parse_config(text.replace("command = solve", "command = dance"))


@pytest.mark.parametrize("a", ["2.7712812921102037", "4.0"])
def test_kernel_a_beyond_reach_cites_its_line(a):
    # the reach is sqrt(3) * grid.L = 2.7712812921102037 at L = 1.6; the key
    # is cited even when another kernel key follows it
    text = MINIMAL + f"\n[kernel]\na = {a}\nvariant = tail\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (issue,) = err.value.issues
    assert issue.kind == "constraint"
    assert "kernel.a" in issue.message and "reach" in issue.message
    assert issue.line == text.splitlines().index(f"a = {a}") + 1
    cfg = parse_config(text.replace(f"a = {a}", "a = 2.77"))
    assert cfg.kernel.a == 2.77


def test_kernel_R_is_an_unknown_key():
    # the kernel's reach is the box's; a config that still sets R names it
    text = MINIMAL + "\n[kernel]\nvariant = full\nR = auto\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (issue,) = err.value.issues
    assert issue.kind == "unknown-key"
    assert "kernel.R" in issue.message
    assert issue.line == text.splitlines().index("R = auto") + 1


def test_build_initial_gaussian_l2_target():
    text = MINIMAL + "\n[initial]\ntype = gaussian\nsigma = 0.12\nl2_norm = 1.0\n"
    cfg = parse_config(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = build_initial(cfg)
    assert l2_norm(f) == pytest.approx(1.0, rel=1e-12)


def test_build_initial_warns_on_undecayed_gaussian():
    # the off-centre datum of test_grid's six-face test: one cell toward the
    # index-(n-1) faces, which then sit 14 h from the peak
    h = 1.6 / 32
    c = 0.8 + h
    text = (MINIMAL.replace("n = 16", "n = 32")
            + f"\n[initial]\ntype = gaussian\nsigma = 0.12\ncenter = {c!r}, {c!r}, {c!r}\n"
            + "l2_norm = 1.0\n")
    cfg = parse_config(text)
    with pytest.warns(UserWarning):
        build_initial(cfg)


@pytest.mark.filterwarnings("ignore:initial bump")
def test_build_initial_scales_the_unit_shape_once():
    # a norm target scales the unit-height shape and the amplitude applies
    # only without one; the Gaussian is scaled_gaussian's, bit for bit
    for kind in ("gaussian", "plane_wave"):
        base = (f"initial.type={kind}", "initial.l2_norm=0.7")
        one, amp = (build_initial(parse_config(MINIMAL, base + extra))
                    for extra in ((), ("initial.amplitude=-3",)))
        assert np.array_equal(one.values, amp.values)
    cfg = parse_config(MINIMAL, ("initial.h1_norm=0.5",))
    want = scaled_gaussian(cfg.grid, 0.12, h1_target=0.5)
    assert np.array_equal(build_initial(cfg).values, want.values)
    cfg = parse_config(MINIMAL, ("initial.type=plane_wave", "initial.amplitude=2"))
    assert np.array_equal(build_initial(cfg).values, 2.0 * plane_wave(cfg.grid, (1, 0, 0)).values)


def test_build_initial_rejects_a_datum_that_overflows():
    # a finite norm target can scale the unit shape past float64: rejected,
    # naming the key, without an overflow warning
    cfg = parse_config(MINIMAL, ("initial.l2_norm=1e308",))
    with warnings.catch_warnings(), pytest.raises(ConfigError) as err:
        warnings.simplefilter("error", RuntimeWarning)
        build_initial(cfg)
    (issue,) = err.value.issues
    assert (issue.kind, issue.message) == ("constraint",
                                           "initial.l2_norm gives a datum that is not finite")


def test_build_initial_exclusive_targets():
    text = MINIMAL + "\n[initial]\nl2_norm = 1.0\nh1_norm = 1.0\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_build_initial_plane_wave():
    text = MINIMAL + "\n[initial]\ntype = plane_wave\nk = 1, 0, 0\nl2_norm = 2.0\n"
    cfg = parse_config(text)
    f = build_initial(cfg)
    assert l2_norm(f) == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(np.abs(f.values) - np.abs(f.values[0, 0, 0]))) < 1e-12


def test_build_initial_from_file(tmp_path, gspec16, rng):
    from frnse.grid import random_band_limited

    f = random_band_limited(gspec16, rng)
    path = tmp_path / "start.field"
    write_field(str(path), f, t=0.0)
    text = MINIMAL + f"\n[initial]\ntype = file\npath = {path}\n"
    cfg = parse_config(text)
    g = build_initial(cfg)
    assert np.array_equal(g.values, f.values)
    # grid mismatch between file and [grid] is an error
    text8 = text.replace("n = 16", "n = 8")
    with pytest.raises(ConfigError):
        build_initial(parse_config(text8))


def test_file_initial_requires_path():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[initial]\ntype = file\n")
