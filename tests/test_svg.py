import pytest

from frnse.svg import line_chart


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


def test_multiple_series_and_degenerate_ranges():
    out = line_chart([
        ("flat", [0.0, 1.0], [2.0, 2.0]),
        ("point", [0.5], [3.0]),
    ])
    assert out.count("<polyline") >= 1
    assert "flat" in out and "point" in out
