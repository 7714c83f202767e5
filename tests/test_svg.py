"""Unit tests for SVG rendering."""
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from branchflow.construct import build_small, build_star
from branchflow.instances import generate_points
from branchflow.measures import AtomicMeasure
from branchflow.optimize_global import global_optimize
from branchflow.svg import render_svg

NS = "{http://www.w3.org/2000/svg}"


def spot_net():
    tg = AtomicMeasure([[2.0, 1.0], [2.0, -1.0]], [0.5, 0.5])
    return build_small((0.0, 0.0), 1.0, tg, 0.5)


def test_render_is_valid_svg_with_expected_elements():
    net = spot_net()
    root = ET.fromstring(render_svg(net, 0.5))
    assert root.tag == f"{NS}svg"
    lines = root.findall(f".//{NS}line")
    circles = root.findall(f".//{NS}circle")
    rects = root.findall(f".//{NS}rect")
    assert len(lines) == net.n_edges()
    assert len(circles) == len(net.terminals())
    assert len(rects) == 1


def test_viewbox_covers_network_with_margin():
    net = spot_net()
    root = ET.fromstring(render_svg(net, 0.5))
    x, y, w, h = (float(t) for t in root.attrib["viewBox"].split())
    for v in net.vertices():
        px, py = float(net.point(v)[0]), -float(net.point(v)[1])
        assert x < px < x + w or np.isclose(px, x) or np.isclose(px, x + w)
        assert x + 1e-12 <= px + 0.051 * max(w, h)  # margin leaves headroom
        assert y <= py <= y + h


def test_y_axis_is_flipped():
    net = spot_net()
    root = ET.fromstring(render_svg(net, 0.5))
    cys = sorted(float(c.attrib["cy"]) for c in root.findall(f".//{NS}circle"))
    assert cys == [-1.0, 1.0]  # targets at y = +-1 render at cy = -+1


def test_stroke_width_follows_flow():
    tg = AtomicMeasure([[1.0, 0.0], [0.0, 1.0]], [0.75, 0.25])
    net = build_star((0.0, 0.0), 1.0, tg, 0.5)
    root = ET.fromstring(render_svg(net, 0.5))
    widths = sorted(float(l.attrib["stroke-width"]) for l in root.findall(f".//{NS}line"))
    assert widths[1] / widths[0] == pytest.approx((0.75 / 0.25) ** 0.5, rel=1e-6)
    # the exponent is alpha
    root = ET.fromstring(render_svg(net, 1.0))
    widths = sorted(float(l.attrib["stroke-width"]) for l in root.findall(f".//{NS}line"))
    assert widths[1] / widths[0] == pytest.approx(3.0, rel=1e-6)


def test_render_deterministic_bytes():
    net = spot_net()
    assert render_svg(net, 0.5) == render_svg(net, 0.5)


def test_render_projects_higher_dimensions():
    tg = AtomicMeasure([[1.0, 0.0, 3.0], [0.0, 1.0, -3.0]], [0.5, 0.5])
    net = build_star((0.0, 0.0, 0.0), 1.0, tg, 0.5)
    root = ET.fromstring(render_svg(net, 0.5))
    assert len(root.findall(f".//{NS}line")) == 2


def test_render_keeps_geometry_at_small_scales():
    # at 9 fixed decimals a 1e-8 view rounds every stroke width to 0 and
    # every coordinate to one significant digit
    s = 1e-8
    pts = generate_points("uniform-square", 6, None, 1) * s
    net = global_optimize(AtomicMeasure([[0.5 * s, 0.5 * s]], [1.0]),
                          AtomicMeasure(pts, np.full(6, 1.0 / 6)), 0.5)
    root = ET.fromstring(render_svg(net, 0.5))
    lines = root.findall(f".//{NS}line")
    assert lines and all(float(l.attrib["stroke-width"]) > 0 for l in lines)
    circles = root.findall(f".//{NS}circle")
    assert circles and all(float(c.attrib["r"]) > 0 for c in circles)
    drawn = {(l.attrib[f"x{k}"], l.attrib[f"y{k}"]) for l in lines for k in (1, 2)}
    assert len(drawn) == len({net.point(v)[:2] for v in net.vertices()})
