import json
import os

import numpy as np
import pytest

from frnse.grid import Field, random_band_limited
from frnse.io import (clear_incomplete, mark_incomplete, read_csv, read_field,
                      write_csv, write_field, write_manifest)


def test_field_round_trip_bit_exact(tmp_path, gspec8, rng):
    f = random_band_limited(gspec8, rng)
    path = str(tmp_path / "f.field")
    write_field(path, f, t=0.375)
    g, t = read_field(path)
    assert t == 0.375
    assert g.spec == gspec8
    assert np.array_equal(g.values, f.values)
    # the imaginary parts matter too: bit-compare raw buffers
    assert g.values.tobytes() == f.values.tobytes()


def test_field_round_trip_keeps_signed_zeros_and_non_finite(tmp_path, gspec8, rng):
    # rebuilding values as re + 1j*im turned -0.0 real parts into +0.0 and
    # 2+inf*j into nan+inf*j; the samples and the bytes on disk both survive
    vals = random_band_limited(gspec8, rng).values.copy()
    vals.real[0, 0, :4] = -0.0
    vals.imag[0, 0, :4] = (np.inf, -np.inf, np.nan, -0.0)
    vals[1, 1, 1] = complex(2.0, np.inf)
    path, again = str(tmp_path / "f.field"), str(tmp_path / "g.field")
    write_field(path, Field(gspec8, vals))
    g, _ = read_field(path)
    assert np.array_equal(g.values.view(np.uint64), vals.view(np.uint64))
    write_field(again, g)
    assert open(again, "rb").read() == open(path, "rb").read()


def test_float_field_round_trip(tmp_path, gspec8, rng):
    # a density or a potential is a float64 Field; its snapshot reads back
    # with the same values and zero imaginary parts
    f = Field(gspec8, rng.random((8, 8, 8)))
    path = str(tmp_path / "rho.field")
    write_field(path, f, t=0.5)
    g, t = read_field(path)
    assert t == 0.5 and g.spec == gspec8
    assert np.array_equal(g.values.real, f.values) and not np.any(g.values.imag)


def test_field_header_corruption_raises(tmp_path, gspec8, rng):
    f = random_band_limited(gspec8, rng)
    path = str(tmp_path / "f.field")
    write_field(path, f)
    blob = open(path, "rb").read()
    bad = str(tmp_path / "bad.field")
    with open(bad, "wb") as fh:
        fh.write(b"FRNSE-WRONG" + blob[11:])
    with pytest.raises(ValueError):
        read_field(bad)
    # the keys in another order: n, L and t are read by position
    header, payload = blob.split(b"\n", 1)
    magic, version, n, L, t = header.split()
    with open(bad, "wb") as fh:
        fh.write(b" ".join((magic, version, L, n, t)) + b"\n" + payload)
    with pytest.raises(ValueError, match="expected n= in header"):
        read_field(bad)


def test_field_payload_length_enforced(tmp_path, gspec8, rng):
    f = random_band_limited(gspec8, rng)
    path = str(tmp_path / "f.field")
    write_field(path, f)
    blob = open(path, "rb").read()
    trunc = str(tmp_path / "trunc.field")
    with open(trunc, "wb") as fh:
        fh.write(blob[:-16])
    with pytest.raises(ValueError):
        read_field(trunc)


def test_csv_round_trip_quoting(tmp_path):
    path = str(tmp_path / "t.csv")
    rows = [
        ["plain", 'with "quotes"', "with,comma", 1.5, 3, True],
        ["x", "y", "z", -0.1, 0, False],
    ]
    write_csv(path, ["a", "b", "c", "d", "e", "f"], rows)
    header, got = read_csv(path)
    assert header == ["a", "b", "c", "d", "e", "f"]
    assert got[0][:3] == ["plain", 'with "quotes"', "with,comma"]
    assert float(got[0][3]) == 1.5
    assert got[0][4] == "3"
    assert got[0][5] == "true"
    assert got[1][5] == "false"


def test_csv_floats_repr_exact(tmp_path):
    path = str(tmp_path / "f.csv")
    vals = [0.1, 1.0 / 3.0, 2.0**-52, 1e300]
    write_csv(path, ["v"], [[v] for v in vals])
    _, rows = read_csv(path)
    assert [float(r[0]) for r in rows] == vals


def test_csv_newline_cell_is_quoted(tmp_path):
    path = str(tmp_path / "n.csv")
    write_csv(path, ["a", "b"], [["line1\nline2", 1.5]])
    blob = open(path, "rb").read()
    assert b'"line1\nline2"' in blob
    assert read_csv(path) == (["a", "b"], [["line1\nline2", "1.5"]])


def test_csv_empty_raises(tmp_path):
    path = str(tmp_path / "e.csv")
    with open(path, "wb"):
        pass
    with pytest.raises(ValueError):
        read_csv(path)


def test_manifest_atomic_and_marker(tmp_path):
    run = str(tmp_path)
    mark_incomplete(run)
    assert os.path.exists(os.path.join(run, "INCOMPLETE"))
    path = os.path.join(run, "manifest.json")
    write_manifest(path, {"status": "ok", "files": ["a.csv"]})
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded["status"] == "ok"
    assert not os.path.exists(path + ".tmp")
    clear_incomplete(run)
    assert not os.path.exists(os.path.join(run, "INCOMPLETE"))
    clear_incomplete(run)  # idempotent
