"""Raster classification agrees with exact evaluation; overlays are exact."""

import math
import re
from fractions import Fraction

import pytest

from tropreal.hyperfields import stv
from tropreal.polyhedra import union_equal
from tropreal.render import (
    REGION,
    RenderConfig,
    classify_node,
    conjunction_regions,
    node_valuation,
    render_region_svg,
    thin_piece_geometry,
)
from tropreal.scenarios import SCENARIO_NAMES, get_scenario
from tropreal.semialg import sa_outer_all
from tropreal.troppoly import trop_r, trop_sat


def test_node_valuation_is_exact_rationalization():
    sign, val = node_valuation(0.5)
    assert sign == 1
    assert abs(float(val) - (-math.log(0.5))) < 1e-9
    assert node_valuation(0.0) is None
    sign, val = node_valuation(-2.0)
    assert sign == -1


def _raster_nodes(svg, grid):
    """The (i, j) grid nodes that the SVG colors as region, read back from
    its column runs: node (i, j) has u = x0 + (i + 1/2) du and v = y0 + (j + 1/2) dv."""
    frame = re.search(r'<rect x="(\d+)" y="\d+" width="(\d+)" height="\d+" fill="none"', svg)
    margin, inner = float(frame[1]), float(frame[2])
    cw = inner / grid
    colored = set()
    for x, y, h in re.findall(
        rf'<rect x="([\d.]+)" y="([\d.]+)" width="[\d.]+" height="([\d.]+)" fill="{REGION}"/>', svg
    ):
        i = round((float(x) - margin) / cw)
        top = round((margin + inner - float(y)) / cw)
        colored.update((i, j) for j in range(top - round(float(h) / cw), top))
    return colored


def _node_satisfies(conditions, u, v):
    """The conjunction's trop_sat at the rationalized node; a node on an
    axis is never colored."""
    nu, nv = node_valuation(u), node_valuation(v)
    if nu is None or nv is None:
        return False
    point = (stv(*nu), stv(*nv))
    return all(trop_sat(F, point, rel) for F, rel in conditions)


def test_raster_colors_match_trop_sat_at_every_node():
    grid = 17
    filled = 0
    for name in SCENARIO_NAMES:
        scen = get_scenario(name)
        cfg = RenderConfig(grid=grid, window=scen.window)
        colored = _raster_nodes(render_region_svg(scen.conditions, cfg), grid)
        x0, x1, y0, y1 = (float(w) for w in cfg.window)
        du, dv = (x1 - x0) / grid, (y1 - y0) / grid
        regions = conjunction_regions(scen.conditions)
        want = set()
        for i in range(grid):
            u = x0 + (i + 0.5) * du
            for j in range(grid):
                v = y0 + (j + 0.5) * dv
                sat = _node_satisfies(scen.conditions, u, v)
                assert classify_node(regions, node_valuation(u), node_valuation(v)) == sat, (name, u, v)
                if sat:
                    want.add((i, j))
        assert colored == want, name
        filled += 0 < len(want) < grid * grid
    assert filled >= 3  # regions with interior, and nodes outside them


def test_circle_overlay_geometry():
    scen = get_scenario("circle")
    regions = conjunction_regions(scen.conditions)
    vmin, vmax = Fraction(-1), Fraction(6)
    points, segments = thin_piece_geometry(regions, vmin, vmax)
    # two axis points (1,0) and (0,1)
    assert any(abs(x - 1.0) < 1e-9 and abs(y) < 1e-9 for x, y in points)
    assert any(abs(x) < 1e-9 and abs(y - 1.0) < 1e-9 for x, y in points)
    # four half-segments meeting at (1,1), reaching to -1 on each branch
    assert len(segments) == 4
    ends = [p for seg in segments for p in seg]
    assert any(abs(x - 1.0) < 1e-6 and abs(y - 1.0) < 1e-6 for x, y in ends)
    assert any(abs(x + 1.0) < 1e-6 and abs(y - 1.0) < 1e-6 for x, y in ends)
    assert any(abs(x - 1.0) < 1e-6 and abs(y + 1.0) < 1e-6 for x, y in ends)


def test_svg_document_structure():
    scen = get_scenario("halfplane")
    cfg = RenderConfig(grid=12, window=scen.window)
    svg = render_region_svg(scen.conditions, cfg, title="halfplane")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "halfplane" in svg
    assert svg.count("<line") >= 2  # the axes


def test_render_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(grid=1)
    with pytest.raises(ValueError):
        RenderConfig(window=(1, 1, 0, 2))


def test_conjunction_regions_match_outer_regions():
    """The render overlay and the outer approximation share one region loop."""
    checked = 0
    for name in SCENARIO_NAMES:
        scen = get_scenario(name)
        S = scen.description
        if S is None or len(S.disjuncts) != 1:
            continue
        if tuple((trop_r(c.poly), c.rel) for c in S.disjuncts[0]) != scen.conditions:
            continue
        regions, outer = conjunction_regions(scen.conditions), sa_outer_all(S)
        assert regions.keys() == outer.keys()
        for sigma, region in regions.items():
            assert union_equal(region, outer[sigma]), (name, sigma)
        checked += 1
    assert checked == 5
