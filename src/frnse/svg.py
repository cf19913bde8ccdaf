"""Hand-rolled SVG line charts: no dependencies, byte-deterministic output."""

import math
import sys

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 44


def _nice_ticks(lo, hi):
    raw = (hi - lo) / 5  # at most five steps
    if not sys.float_info.min <= raw < math.inf:  # the steps would underflow or overflow
        return []
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if (hi - lo) / (mult * mag) <= 5:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _fmt(v):
    return "%.6g" % v


def _half_axis(lo, hi, share):
    """Half the axis range of data from lo to hi, so that no float overflows:
    share of its width on each side, or half its magnitude (0.5 at 0) on each
    side of a single value."""
    lo, hi = lo / 2, hi / 2
    pad = share * (hi - lo) if hi > lo else abs(lo) * 0.5 or 0.25
    return lo - pad, hi + pad


def line_chart(series, title="", xlabel="", ylabel=""):
    """Render (name, xs, ys) series to an SVG string on linear axes.

    Nonfinite points are dropped. Output is a pure function of the inputs
    (fixed palette, fixed float formatting), so identical data gives
    identical bytes.
    """
    cleaned = []
    for name, xs, ys in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if math.isfinite(float(x)) and math.isfinite(float(y))
        ]
        if pts:
            cleaned.append((str(name), pts))
    if not cleaned:
        raise ValueError("nothing to plot")

    xs_all = [x for _, pts in cleaned for x, _ in pts]
    ys_all = [y for _, pts in cleaned for _, y in pts]
    x_lo, x_hi = _half_axis(min(xs_all), max(xs_all), 0.0)
    y_lo, y_hi = _half_axis(min(ys_all), max(ys_all), 0.05)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + (v / 2 - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return MARGIN_T + (y_hi - v / 2) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica,Arial,sans-serif">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.2f}" y="22" text-anchor="middle" '
            f'font-size="15" fill="#222222">{_escape(title)}</text>'
        )
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for v in _nice_ticks(2 * x_lo, 2 * x_hi):
        x = px(v)
        out.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_T + plot_h + 4}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 16}" text-anchor="middle" '
            f'font-size="11" fill="#222222">{_fmt(v)}</text>'
        )
    for v in _nice_ticks(2 * y_lo, 2 * y_hi):
        y = py(v)
        out.append(
            f'<line x1="{MARGIN_L - 4}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{MARGIN_L + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11" fill="#222222">{_fmt(v)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 8}" '
            f'text-anchor="middle" font-size="12" fill="#222222">{_escape(xlabel)}</text>'
        )
    if ylabel:
        yc = MARGIN_T + plot_h / 2
        out.append(
            f'<text x="16" y="{yc:.2f}" text-anchor="middle" font-size="12" '
            f'fill="#222222" transform="rotate(-90 16 {yc:.2f})">{_escape(ylabel)}</text>'
        )
    for i, (name, pts) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 14 + 16 * i
        lx = MARGIN_L + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{ly}" font-size="11" fill="#222222">'
            f"{_escape(name)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )
