"""Every CSV artifact, and hand-rolled deterministic SVG heatmaps and line curves.

Every number shown in a heatmap is recomputable from the pivot CSV emitted
alongside it; the SVG carries no state of its own. Output bytes depend only
on the input rows.
"""
from __future__ import annotations

from .labels import PARTIAL_KINDS

_CELL_W, _CELL_H = 56, 34
_LO_COLOR = (247, 251, 255)
_HI_COLOR = (8, 48, 107)

_SERIES_COLORS = {
    "sparse": "#7a49a5",
    "topclass": "#d62728",
    "pca": "#1f77b4",
    "soft": "#2ca02c",
    "hard": "#2ca02c",
}


def _cell_color(t: float) -> str:
    r, g, b = (round(lo + (hi - lo) * t) for lo, hi in zip(_LO_COLOR, _HI_COLOR))
    return f"#{r:02x}{g:02x}{b:02x}"


def _escape(text: str) -> str:
    """XML character data: escape &, < and >, as xml.sax.saxutils.escape does.

    saxutils itself is not imported: it pulls in urllib, http, email and ssl.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x, y, s, size=11, anchor="middle", fill="#000000") -> str:
    return (f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{fill}">{_escape(str(s))}</text>')


def _svg(width, height, parts) -> str:
    """An SVG document of `parts` on a white background."""
    return "\n".join([f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                      f'height="{height}" viewBox="0 0 {width} {height}">',
                      '<rect width="100%" height="100%" fill="#ffffff"/>', *parts,
                      "</svg>"]) + "\n"


def _format_value(value) -> str:
    if isinstance(value, float):  # includes numpy scalars, whose repr differs
        return repr(float(value))
    return str(value)


def rows_to_csv(rows, columns) -> str:
    """Header line, then one line per row dict with the `columns` values."""
    lines = [",".join(columns)]
    lines.extend(",".join(_format_value(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def matrix_to_csv(matrix) -> str:
    """One line per matrix row, no header."""
    return "\n".join(",".join(map(_format_value, row)) for row in matrix) + "\n"


def mean_by(rows, key, metric: str) -> dict:
    """{key(row): (mean, count)} of `metric` over ok rows that have a value, in key order."""
    groups: dict = {}
    for row in rows:
        if str(row.get("status", "ok")) == "ok" and str(row[metric]) != "":
            groups.setdefault(key(row), []).append(float(row[metric]))
    return {group: (sum(vals) / len(vals), len(vals)) for group, vals in sorted(groups.items())}


def render_heatmap(rows, metric: str) -> tuple[str, str]:
    """One n-by-k heatmap panel per kind; returns (svg, pivot_csv).

    Each cell is `mean_by`'s mean of `metric` per (kind, n, k), and the pivot
    CSV has one facet,n,k,value,count line per cell. The linear color scale is
    shared across panels, with its min/max printed in the footer.
    """
    if not rows:
        raise ValueError("no rows to pivot")
    for column in (metric, "kind", "n", "k"):
        if column not in rows[0]:
            raise ValueError(f"unknown column {column!r}")
    means = mean_by(rows, lambda row: (str(row["kind"]), int(row["n"]), int(row["k"])), metric)
    if not means:
        raise ValueError(f"no usable values for metric {metric!r}")
    facets = sorted({facet for facet, _, _ in means})
    ns = sorted({n for _, n, _ in means})
    ks = sorted({k for _, _, k in means})
    values = {cell: value for cell, (value, _) in means.items()}
    vmin, vmax = min(values.values()), max(values.values())
    span = vmax - vmin

    left, top = 60, 46
    panel_w = len(ks) * _CELL_W
    panel_h = len(ns) * _CELL_H
    gap = 40
    parts = []
    for pi, fval in enumerate(facets):
        x0 = left + pi * (panel_w + gap)
        parts.append(_text(x0 + panel_w / 2, top - 24, f"kind = {fval}", size=13))
        for ci, k in enumerate(ks):
            parts.append(_text(x0 + ci * _CELL_W + _CELL_W / 2, top - 8, k, size=10))
        for ri, n in enumerate(ns):
            if pi == 0:
                parts.append(_text(x0 - 8, top + ri * _CELL_H + _CELL_H / 2 + 4, n,
                                   size=10, anchor="end"))
            for ci, k in enumerate(ks):
                x = x0 + ci * _CELL_W
                y = top + ri * _CELL_H
                v = values.get((fval, n, k))
                if v is None:
                    parts.append(f'<rect x="{x}" y="{y}" width="{_CELL_W}" '
                                 f'height="{_CELL_H}" fill="#dddddd" stroke="#ffffff"/>')
                    continue
                t = 0.5 if span == 0 else (v - vmin) / span
                parts.append(f'<rect x="{x}" y="{y}" width="{_CELL_W}" '
                             f'height="{_CELL_H}" fill="{_cell_color(t)}" stroke="#ffffff"/>')
                text_fill = "#ffffff" if t > 0.6 else "#000000"
                parts.append(_text(x + _CELL_W / 2, y + _CELL_H / 2 + 4,
                                   f"{v:.3f}", size=9, fill=text_fill))
        if pi == 0:
            parts.append(_text(x0 - 34, top + panel_h / 2, "n", size=11))
        parts.append(_text(x0 + panel_w / 2, top + panel_h + 16, "k", size=11))
    parts.append(_text(left, top + panel_h + 40,
                       f"{metric}: min={vmin:.6g} max={vmax:.6g}, linear scale,"
                       f" cells averaged over reps", size=11, anchor="start"))
    svg = _svg(left + len(facets) * (panel_w + gap), top + panel_h + 58, parts)
    return svg, "facet,n,k,value,count\n" + matrix_to_csv(
        (*cell, value, count) for cell, (value, count) in means.items())


def _panel_curves(parts, x0, y0, w, h, title, values, marker, ylabel):
    """Draw one axes panel: each partial kind in {(kind, k_hat): y} as a curve over k_hat,
    any other kind as a horizontal reference line, and a marker (k_hat, y, label) if given."""
    series: dict = {}
    hlines = {}
    for (kind, k_hat), y in sorted(values.items()):
        if kind in {partial.value for partial in PARTIAL_KINDS}:
            series.setdefault(kind, []).append((k_hat, y))
        else:
            hlines[kind] = y
    if not series:
        raise ValueError(f"panel {title!r} has no partial kind to draw")
    xs = sorted({x for pts in series.values() for x, _ in pts})
    all_y = [y for pts in series.values() for _, y in pts] + list(hlines.values())
    ymin, ymax = min(all_y), max(all_y)
    if ymax == ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    pad = 0.06 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    xmin, xmax = min(xs), max(xs)
    xspan = (xmax - xmin) or 1.0

    def px(x):
        return x0 + (x - xmin) / xspan * w

    def py(y):
        return y0 + h - (y - ymin) / (ymax - ymin) * h

    parts.append(f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" '
                 f'fill="none" stroke="#808080"/>')
    parts.append(_text(x0 + w / 2, y0 - 8, title, size=12))
    parts.append(_text(x0 + w / 2, y0 + h + 30, "k_hat", size=11))
    parts.append(_text(x0 - 44, y0 + h / 2, ylabel, size=11))
    parts.append(_text(x0 - 6, py(ymin) + 4, f"{ymin:.3g}", size=9, anchor="end"))
    parts.append(_text(x0 - 6, py(ymax) + 4, f"{ymax:.3g}", size=9, anchor="end"))
    for x in xs:
        parts.append(_text(px(x), y0 + h + 14, x, size=9))
    for name, yval in sorted(hlines.items()):
        color = _SERIES_COLORS.get(name, "#555555")
        dash = ' stroke-dasharray="6,4"' if name == "hard" else ""
        parts.append(f'<line x1="{x0}" y1="{py(yval):.2f}" x2="{x0 + w}" '
                     f'y2="{py(yval):.2f}" stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(_text(x0 + w - 4, py(yval) - 4, name, size=9, anchor="end",
                           fill=color))
    for name, pts in sorted(series.items()):
        color = _SERIES_COLORS.get(name, "#555555")
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                         f'fill="{color}"/>')
        lx, ly = pts[-1]
        parts.append(_text(px(lx) + 4, py(ly), name, size=9, anchor="start",
                           fill=color))
    if marker is not None:
        mx, my, label = marker
        parts.append(f'<circle cx="{px(mx):.2f}" cy="{py(my):.2f}" r="5" '
                     f'fill="none" stroke="#000000" stroke-width="1.5"/>')
        parts.append(_text(px(mx), py(my) - 9, label, size=9))


def render_curve_panels(panels, ylabel: str) -> str:
    """Row of line-plot panels over k_hat, one per (title, {(kind, k_hat): y}, marker).

    `marker` is None or (k_hat, y, label). A panel with no partial kind raises ValueError.
    """
    if not panels:
        raise ValueError("no panels to render")
    w, h = 240, 190
    left, top, gap = 70, 40, 80
    parts = []
    for i, panel in enumerate(panels):
        _panel_curves(parts, left + i * (w + gap), top, w, h, *panel, ylabel)
    return _svg(left + len(panels) * (w + gap), top + h + 60, parts)
