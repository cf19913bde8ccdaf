"""On-disk formats: field snapshots, CSVs, manifests.

Field snapshot (binary): one ASCII header line

    FRNSE-FIELD v1 n=<int> L=<repr float> t=<repr float>\n

followed by n^3 C-order samples as little-endian float64 (re, im) pairs.
It round-trips bit-exactly (repr round-trips Python floats exactly).

CSVs are RFC-4180 style: comma separated, '"' quoting only where needed
(doubled inner quotes), '\n' line endings, '.' decimal separator, floats
written with repr so values round-trip. Manifests are JSON written via a
temp file + atomic rename.
"""

import csv
import json
import os

import numpy as np

from .grid import Field, GridSpec

FIELD_MAGIC = "FRNSE-FIELD"
FORMAT_VERSION = "v1"


def _parse_header(line):
    parts = line.split()
    if len(parts) != 5 or parts[0] != FIELD_MAGIC or parts[1] != FORMAT_VERSION:
        raise ValueError(f"bad {FIELD_MAGIC} header: {line!r}")
    out = {}
    for part, key in zip(parts[2:], ("n", "L", "t")):
        k, _, v = part.partition("=")
        if k != key:
            raise ValueError(f"expected {key}= in header, got {part!r}")
        out[key] = v
    return out


def write_field(path, field, t=0.0):
    """Write a field snapshot; t is the node time stored in the header."""
    n, L = field.spec.n, field.spec.L
    header = f"{FIELD_MAGIC} {FORMAT_VERSION} n={n} L={L!r} t={float(t)!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(field.values.astype("<c16").tobytes())


def read_field(path):
    """Read a snapshot back; returns (field, t)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").rstrip("\n")
        meta = _parse_header(header)
        n, L, t = int(meta["n"]), float(meta["L"]), float(meta["t"])
        payload = fh.read()
    expected = n**3 * 2 * 8
    if len(payload) != expected:
        raise ValueError(f"payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<c16").reshape(n, n, n)
    return Field(GridSpec(n, L), values), t


def format_value(value):
    """The canonical text of a CSV cell or config value: true/false, str of
    an int, repr of a float, a tuple's items joined by ", ", else str."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ", ".join(format_value(x) for x in value)
    return str(value)


def _cell(value):
    text = format_value(value)
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows):
    """RFC-4180-style CSV with '\n' line endings and repr-exact floats."""
    lines = [",".join(_cell(c) for c in header)]
    for row in rows:
        lines.append(",".join(_cell(c) for c in row))
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def read_csv(path):
    """Read a CSV back; returns (header, rows of strings). Blank lines are
    skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"empty CSV: {path}")
    return rows[0], rows[1:]


def write_manifest(path, manifest):
    """Write the run manifest atomically (temp file + rename)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


INCOMPLETE_MARKER = "INCOMPLETE"


def mark_incomplete(run_dir):
    with open(os.path.join(run_dir, INCOMPLETE_MARKER), "w", encoding="utf-8") as fh:
        fh.write("run in progress or aborted; outputs may be partial\n")


def clear_incomplete(run_dir):
    marker = os.path.join(run_dir, INCOMPLETE_MARKER)
    if os.path.exists(marker):
        os.remove(marker)
