"""Deterministic SVG arc diagrams for book embeddings.

Vertices sit evenly spaced on a horizontal spine in spine order; every
edge is a semicircular arc above it, stroked in its page's colour. Output
bytes depend only on the embedding and the rendering options.
"""

from __future__ import annotations

from .graphs import vertex_labels
from .layout import BookEmbedding, ValidationReport

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#005f73",
    "#9b2226",
]

STEP = 44
MARGIN = 36
LABEL_H = 34
LEGEND_ROW_H = 18
LEGEND_COL_W = 92


def page_color(i: int) -> str:
    if i < len(PALETTE):
        return PALETTE[i]
    return f"hsl({(i * 47) % 360},70%,42%)"


def _bad_edges(report: ValidationReport | None) -> set:
    return {e for v in report.violations for e in v.edges} if report else set()


def _arc(x1: float, x2: float, y: float, color: str, bad: bool) -> str:
    lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
    r = (hi - lo) / 2
    extra = ' stroke-dasharray="6,3" stroke-width="2.6" class="arc bad"' if bad else ' class="arc"'
    return (
        f'<path d="M {lo:.1f} {y:.1f} A {r:.1f} {r:.1f} 0 0 1 {hi:.1f} {y:.1f}"'
        f' fill="none" stroke="{color}"{extra}/>'
    )


def _spine_row(xs: list[float], y: float, labels: tuple[str, ...], rotate: bool) -> list[str]:
    out = [f'<line x1="{xs[0]:.1f}" y1="{y:.1f}" x2="{xs[-1]:.1f}" y2="{y:.1f}" class="spine-line"/>'] if len(xs) > 1 else []
    for x, lab in zip(xs, labels):
        out.append(f'<circle class="vx" cx="{x:.1f}" cy="{y:.1f}" r="3"/>')
        ty = y + 16
        if rotate:
            out.append(
                f'<text class="vlabel" x="{x:.1f}" y="{ty:.1f}"'
                f' transform="rotate(-45 {x:.1f} {ty:.1f})">{lab}</text>'
            )
        else:
            out.append(f'<text class="vlabel" x="{x:.1f}" y="{ty:.1f}">{lab}</text>')
    return out


def _legend(page_count: int, y: float, width: float) -> tuple[list[str], float]:
    cols = max(1, int((width - 2 * MARGIN) // LEGEND_COL_W))
    out = []
    for i in range(page_count):
        row, col = divmod(i, cols)
        x = MARGIN + col * LEGEND_COL_W
        ly = y + row * LEGEND_ROW_H
        out.append(
            f'<g class="legend-item">'
            f'<line x1="{x:.1f}" y1="{ly:.1f}" x2="{x + 22:.1f}" y2="{ly:.1f}"'
            f' stroke="{page_color(i)}" stroke-width="3"/>'
            f'<text x="{x + 27:.1f}" y="{ly + 4:.1f}">page {i}</text></g>'
        )
    rows = (page_count + cols - 1) // cols if page_count else 0
    return out, rows * LEGEND_ROW_H


def render_svg(
    emb: BookEmbedding,
    report: ValidationReport | None = None,
    split_pages: bool = False,
) -> str:
    """Render an embedding; violating edges (when a report says so) are
    stroked dashed and thicker so crossing pairs stand out."""
    g = emb.graph
    n = g.n
    labels = vertex_labels(g)
    spine_labels = tuple(labels[v] for v in emb.spine)
    rotate = n > 12
    xs = [MARGIN + STEP * i for i in range(n)]
    width = 2 * MARGIN + STEP * max(n - 1, 0)
    r_max = STEP * max(n - 1, 0) / 2
    bad = _bad_edges(report)
    pos = [0] * n if n else []
    for i, v in enumerate(emb.spine):
        pos[v] = i

    bands = range(emb.page_count) if split_pages and emb.page_count else [None]
    body: list[str] = []
    y = 0.0
    for band in bands:
        y += r_max + 18
        arcs = []
        for edge, page in zip(g.edges, emb.pages):
            if band is not None and page != band:
                continue
            x1, x2 = xs[pos[edge[0]]], xs[pos[edge[1]]]
            arcs.append(_arc(x1, x2, y, page_color(page), edge in bad))
        body.append('<g class="arcs">' + "".join(arcs) + "</g>")
        body.extend(_spine_row(xs, y, spine_labels, rotate))
        if band is not None:
            body.append(f'<text class="band-label" x="{MARGIN:.1f}" y="{y - r_max - 6:.1f}">page {band}</text>')
        y += LABEL_H

    y += 10
    legend, legend_h = _legend(emb.page_count, y, width)
    body.append('<g class="legend">' + "".join(legend) + "</g>")
    height = y + legend_h + MARGIN / 2

    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}"'
        f' viewBox="0 0 {width:.0f} {height:.0f}">\n'
        "<style>\n"
        "  path.arc { stroke-width: 1.6; }\n"
        "  circle.vx { fill: #111; }\n"
        "  line.spine-line { stroke: #999; stroke-width: 1; }\n"
        "  text { font: 10px sans-serif; fill: #222; }\n"
        "  text.vlabel { text-anchor: middle; }\n"
        "  text.band-label { font-weight: bold; }\n"
        "</style>\n"
    )
    return head + "\n".join(body) + "\n</svg>\n"
