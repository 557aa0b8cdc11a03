"""Conformation rendering as SVG: circles, the path polyline and dashed
bonds. Output is byte-stable for identical inputs."""

from __future__ import annotations

import zlib

from .folding import Conformation
from .grid import to_cartesian

# SVG units per grid unit.
_SCALE = 40.0


def _bead_color(bead: str) -> str:
    # Deterministic per-name hue; cosmetic only.
    hue = zlib.crc32(bead.encode("utf-8")) % 360
    return f"hsl({hue},60%,72%)"


def render_svg(c: Conformation) -> str:
    s = _SCALE
    pts = [to_cartesian(p) for p in c.path]
    if not pts:
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="10" height="10"></svg>\n'
        )
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    pad = 1.0
    minx, maxy = min(xs) - pad, max(ys) + pad
    width = (max(xs) - min(xs) + 2 * pad) * s
    height = (max(ys) - min(ys) + 2 * pad) * s

    # Each point's coordinates and each bead type's colour and label (with
    # &, < and > escaped), formatted once; SVG y grows downward.
    xy = [(f"{(x - minx) * s:.2f}", f"{(maxy - y) * s:.2f}") for x, y in pts]
    types = set(c.beads)
    colors = {bead: _bead_color(bead) for bead in types}
    labels = {
        bead: bead.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;") for bead in types
    }

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.2f}" height="{height:.2f}">',
    ]
    if len(pts) > 1:
        poly = " ".join(f"{x},{y}" for x, y in xy)
        lines.append(
            f'  <polyline points="{poly}" fill="none" stroke="#444444" stroke-width="{0.08 * s:.2f}"/>'
        )
    for i, j in sorted(c.bonds):
        (x1, y1), (x2, y2) = xy[i], xy[j]
        lines.append(
            f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="#cc3333" stroke-width="{0.06 * s:.2f}" '
            f'stroke-dasharray="{0.15 * s:.2f},{0.1 * s:.2f}"/>'
        )
    for (x, y), bead in zip(xy, c.beads):
        lines.append(
            f'  <circle cx="{x}" cy="{y}" r="{0.3 * s:.2f}" '
            f'fill="{colors[bead]}" stroke="#222222" stroke-width="{0.03 * s:.2f}"/>'
        )
    for (x, y), bead in zip(xy, c.beads):
        lines.append(
            f'  <text x="{x}" y="{y}" font-size="{0.25 * s:.2f}" '
            f'text-anchor="middle" dominant-baseline="central">{labels[bead]}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

