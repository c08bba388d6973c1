"""Raster classification agrees with exact evaluation; overlays are exact."""

import math
from fractions import Fraction

import pytest

from tropreal.hyperfields import stv
from tropreal.parsing import parse_polyk
from tropreal.polyhedra import union_equal
from tropreal.render import (
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


def test_classification_matches_trop_sat_on_grid():
    F = trop_r(parse_polyk("2x + 3y - 5"))
    conditions = [(F, "ge")]
    for u in (-2.3, -0.7, 0.4, 1.9):
        for v in (-1.1, 0.6, 2.8):
            su, Vu = node_valuation(u)
            sv, Vv = node_valuation(v)
            point = (stv(su, Vu), stv(sv, Vv))
            assert classify_node(conditions, u, v) == trop_sat(F, point, "ge")


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
