import math
import re

import pytest

from frnse.svg import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, line_chart


def test_deterministic_bytes():
    series = [("l2", [0.0, 1.0, 2.0], [1.0, 0.5, 0.25])]
    a = line_chart(series, title="norms", xlabel="t", ylabel="value")
    b = line_chart(series, title="norms", xlabel="t", ylabel="value")
    assert a == b
    assert a.startswith("<svg")
    assert a.endswith("</svg>\n")


def test_markup_escaped():
    out = line_chart([("a<b> & c", [0, 1], [1, 2])], title="x < y & z")
    assert "a&lt;b&gt; &amp; c" in out
    assert "x &lt; y &amp; z" in out
    assert "<b>" not in out


def test_empty_series_raises():
    with pytest.raises(ValueError):
        line_chart([])
    with pytest.raises(ValueError):
        line_chart([("s", [], [])])


def _coordinates(out):
    """Every coordinate the chart draws: x, y, x1..y2 and polyline points."""
    attrs = re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', out)
    points = [c for p in re.findall(r'points="([^"]*)"', out) for c in re.split("[ ,]", p)]
    return [float(v) for v in attrs + points]


def test_multiple_series_and_degenerate_ranges():
    for series in (
        [("flat", [0.0, 1.0], [2.0, 2.0]), ("point", [0.5], [3.0])],
        [("constant", [3.0, 3.0], [2.0, 2.0])],  # one point: both ranges are empty
        [("zero", [0.0], [0.0])],
        [("huge-constant", [1e17, 1e17], [1.7e308, 1.7e308])],  # x +- 0.5 rounds away
        [("huge-span", [-1e308, 1e308], [-1e308, 1e308])],  # the widths overflow
        [("huge", [1e300, 1.5e300], [-1e308, 1.79e308])],
        [("subnormal", [0.0, 1e-323], [5e-324, 1e-323])],  # too narrow for tick steps
    ):
        out = line_chart(series)
        assert out.count("<polyline") == len(series)
        assert all(name in out for name, _, _ in series)
        coords = _coordinates(out)
        assert coords and all(math.isfinite(c) for c in coords), series
        # every point lies inside the plot area
        for path in re.findall(r'points="([^"]*)"', out):
            for point in path.split():
                x, y = map(float, point.split(","))
                assert MARGIN_L <= x <= WIDTH - MARGIN_R and MARGIN_T <= y <= HEIGHT - MARGIN_B
