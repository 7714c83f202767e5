"""Deterministic SVG rendering of transport networks.

Each edge becomes one <line> whose stroke width scales with carried flow,
    width(e) = base_width * (w(e) / source_mass) ** alpha,
so trunks read thicker than leaf edges and the visual weight matches the
cost weight; base_width is 2% of the larger viewBox side.  Targets are dots,
the source is a contrasting square.  Output bytes depend only on the network
and alpha: numbers are rounded to 9 decimals, or to more when 1e-6 of the
larger viewBox side needs them, and emitted with repr (shortest round-trip
form); edges come in child-id order.

Networks in d > 2 are projected onto their first two coordinates.
"""
from __future__ import annotations

import math

from .network import TransportNetwork

EDGE_COLOR = "#2b4b77"
TARGET_COLOR = "#111111"
SOURCE_COLOR = "#b03a2e"
CANVAS_WIDTH = 800.0
MARGIN_FRACTION = 0.05


def render_svg(net: TransportNetwork, alpha: float) -> bytes:
    # SVG y points down; negate so networks render in math orientation.
    xs = [net.point(v)[0] for v in net.vertices()]
    ys = [-net.point(v)[1] for v in net.vertices()]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-12)
    pad = MARGIN_FRACTION * span
    vb_x, vb_y = lo_x - pad, lo_y - pad
    vb_w, vb_h = (hi_x - lo_x) + 2 * pad, (hi_y - lo_y) + 2 * pad

    base = 0.02 * max(vb_w, vb_h)
    dot = 0.45 * base
    # keep 1e-6 of the larger view side, and never fewer than 9 decimals
    decimals = max(9, 6 - math.floor(math.log10(max(vb_w, vb_h))))

    def fmt(x: float) -> str:
        return repr(round(x, decimals))

    def xy(v: int) -> tuple[float, float]:
        p = net.point(v)
        return p[0], -p[1]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt(vb_x)} {fmt(vb_y)} {fmt(vb_w)} {fmt(vb_h)}" '
        f'width="{fmt(CANVAS_WIDTH)}" height="{fmt(CANVAS_WIDTH * vb_h / vb_w)}">',
        f'<g stroke="{EDGE_COLOR}" stroke-linecap="round" fill="none">',
    ]
    m = net.source_mass
    for parent, child, weight in net.edges():
        x1, y1 = xy(parent)
        x2, y2 = xy(child)
        sw = base * (weight / m) ** alpha
        lines.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            f'stroke-width="{fmt(sw)}"/>')
    lines.append("</g>")

    lines.append(f'<g fill="{TARGET_COLOR}">')
    for v in net.terminals():
        cx, cy = xy(v)
        lines.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(dot)}"/>')
    lines.append("</g>")

    sx, sy = xy(net.root)
    half = 1.4 * dot
    lines.append(
        f'<rect x="{fmt(sx - half)}" y="{fmt(sy - half)}" '
        f'width="{fmt(2 * half)}" height="{fmt(2 * half)}" '
        f'fill="{SOURCE_COLOR}"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
