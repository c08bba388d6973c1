"""SVG rendering of two-variable tropical regions in multiplicative coordinates.

One call computes the exact region of the conjunction on each of the nine
orthants of the plane (``conjunction_regions``), and both layers read it.

The raster layer samples a grid over a multiplicative window.  Node
placement uses floating point (u, v) -> (-ln|u|, -ln|v|), but each node is
then fixed as an exact rational valuation and colored by whether the exact
region of its orthant contains it, so the colors agree with ``trop_sat``
at every sampled node by construction; the float map only decides *where*
the nodes are.  A node on an axis is left blank.

Regions of dimension below two (segments and isolated points, which a
raster cannot see) are drawn as an exact overlay: their endpoints are
computed rationally from the polyhedral pieces and only converted to
floats for the final line placement.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .hyperfields import as_rational
from .parsing import MAX_GRID
from .polyhedra import (
    Orthant,
    PolyUnion,
    Polyhedron,
    _interval,
    all_orthants,
    constraint,
    equality_normals,
    feasible_point,
    orthant_support,
    poly_dim,
    trop_conjunction,
)
from .troppoly import TropPoly

BACKGROUND = "#ffffff"
REGION = "#9ecae1"
AXES = "#444444"
OVERLAY = "#d7301f"
FRAME = "#222222"


@dataclass(frozen=True)
class RenderConfig:
    """Raster density and multiplicative window.

    ``grid`` is read by the integer rule, ``operator.index``, and
    ``window`` by ``as_rational``; a float is refused in both.
    """

    grid: int = 160
    window: tuple[Fraction, Fraction, Fraction, Fraction] = (
        Fraction(-3),
        Fraction(3),
        Fraction(-3),
        Fraction(3),
    )

    def __post_init__(self):
        object.__setattr__(self, "grid", operator.index(self.grid))
        if self.grid < 2:
            raise ValueError("grid must be at least 2")
        if self.grid > MAX_GRID:
            raise ValueError(f"grid must be at most MAX_GRID={MAX_GRID}")
        x0, x1, y0, y1 = map(as_rational, self.window)
        if x0 >= x1 or y0 >= y1:
            raise ValueError("window must be a nondegenerate rectangle")
        object.__setattr__(self, "window", (x0, x1, y0, y1))


def node_valuation(u: float) -> Optional[tuple[int, Fraction]]:
    """Sign and exact rational valuation of a float sample coordinate."""
    if u == 0.0:
        return None
    sign = 1 if u > 0 else -1
    return sign, Fraction(-math.log(abs(u))).limit_denominator(10**9)


def classify_node(
    regions: dict[Orthant, PolyUnion],
    nu: Optional[tuple[int, Fraction]],
    nv: Optional[tuple[int, Fraction]],
) -> bool:
    """Whether the sample node with these ``node_valuation``s lies in the
    exact region of its orthant; False on an axis."""
    if nu is None or nv is None:
        return False
    return regions[(nu[0], nv[0])].contains((nu[1], nv[1]))


def conjunction_regions(
    conditions: Sequence[tuple[TropPoly, str]]
) -> dict[Orthant, PolyUnion]:
    """Per-orthant exact region of the conjunction of tropical conditions."""
    return {sigma: trop_conjunction(conditions, sigma) for sigma in all_orthants(2)}


# -- exact overlay geometry ---------------------------------------------------


def _piece_box(P: Polyhedron, lo: Fraction, hi: Fraction) -> Polyhedron:
    cons = list(P.rows)
    for k in range(P.dim):
        unit = tuple(1 if i == k else 0 for i in range(P.dim))
        cons.append(constraint(unit, -hi, "<="))
        cons.append(constraint(unit, -lo, ">="))
    return Polyhedron(P.dim, tuple(cons))


def _segment_endpoints(
    P: Polyhedron, lo: Fraction, hi: Fraction
) -> Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Endpoints of a one-dimensional piece clipped to the valuation box."""
    clipped = _piece_box(P.closure(), lo, hi)
    x0 = feasible_point(clipped)
    if x0 is None:
        return None
    if P.dim == 1:
        direction: tuple[int, ...] = (1,)
    else:
        normals = equality_normals(clipped)
        normal = next((n for n in normals if any(n)), None)
        if normal is None:
            return None
        direction = (-normal[1], normal[0])
    # each row on the line x0 + t * direction is a row in t alone
    line = []
    for normal, cn, cd, _ in clipped.rows:
        a = sum(n * d for n, d in zip(normal, direction))
        b = sum(n * x for n, x in zip(normal, x0)) + Fraction(cn, cd)
        line.append(((a,), b.numerator, b.denominator, False))
    bounds = _interval(line, 0)
    if bounds is None or bounds[0] is None or bounds[3] is None:
        return None
    hn, hd, _, ln, ld, _ = bounds
    t_lo, t_hi = Fraction(ln, ld), Fraction(hn, hd)
    p1 = tuple(x + t_lo * d for x, d in zip(x0, direction))
    p2 = tuple(x + t_hi * d for x, d in zip(x0, direction))
    return p1, p2


def thin_piece_geometry(
    regions: dict[Orthant, PolyUnion], vmin: Fraction, vmax: Fraction
) -> tuple[list[tuple[float, float]], list[tuple[tuple[float, float], tuple[float, float]]]]:
    """Points and segments (multiplicative floats) of pieces of dimension < 2."""

    def mult(sigma_k: int, V: Fraction) -> float:
        return sigma_k * math.exp(-float(V))

    points: list[tuple[float, float]] = []
    segments: list[tuple[tuple[float, float], tuple[float, float]]] = []
    for sigma, region in regions.items():
        support = orthant_support(sigma)
        for piece in region.pieces:
            d = poly_dim(piece)
            if d < 0 or d >= 2:
                continue
            if len(support) == 0:
                points.append((0.0, 0.0))
                continue

            def to_xy(vals: Sequence[Fraction]) -> tuple[float, float]:
                it = iter(vals)
                coords = []
                for s in sigma:
                    coords.append(mult(s, next(it)) if s != 0 else 0.0)
                return (coords[0], coords[1])

            if d == 0:
                x0 = feasible_point(_piece_box(piece.closure(), vmin, vmax))
                if x0 is not None:
                    points.append(to_xy(x0))
            else:
                seg = _segment_endpoints(piece, vmin, vmax)
                if seg is not None:
                    segments.append((to_xy(seg[0]), to_xy(seg[1])))
    return points, segments


# -- the SVG document ----------------------------------------------------------


def render_region_svg(
    conditions: Sequence[tuple[TropPoly, str]],
    cfg: RenderConfig,
    title: str = "",
) -> str:
    size = 560
    margin = 30
    x0, x1, y0, y1 = cfg.window
    fx0, fx1, fy0, fy1 = (float(w) for w in cfg.window)
    inner = size - 2 * margin

    def px(u: float) -> float:
        return margin + (u - fx0) / (fx1 - fx0) * inner

    def py(v: float) -> float:
        return size - margin - (v - fy0) / (fy1 - fy0) * inner

    n = cfg.grid
    du = (fx1 - fx0) / n
    dv = (fy1 - fy0) / n
    regions = conjunction_regions(conditions)
    # each column and each row of nodes is rationalized once
    columns = [node_valuation(fx0 + (i + 0.5) * du) for i in range(n)]
    rows = [node_valuation(fy0 + (j + 0.5) * dv) for j in range(n)]
    cells = [[classify_node(regions, nu, nv) for nv in rows] for nu in columns]

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="{BACKGROUND}"/>',
    ]
    if title:
        out.append(
            f'<text x="{size/2:.1f}" y="18" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>'
        )
    cw = inner / n
    for i in range(n):
        j = 0
        while j < n:
            if not cells[i][j]:
                j += 1
                continue
            j0 = j
            while j < n and cells[i][j]:
                j += 1
            u = fx0 + i * du
            vtop = fy0 + j * dv
            out.append(
                f'<rect x="{px(u):.2f}" y="{py(vtop):.2f}" '
                f'width="{cw:.2f}" height="{cw * (j - j0):.2f}" '
                f'fill="{REGION}"/>'
            )
    # axes
    if fx0 < 0 < fx1:
        out.append(
            f'<line x1="{px(0):.2f}" y1="{py(fy0):.2f}" x2="{px(0):.2f}" '
            f'y2="{py(fy1):.2f}" stroke="{AXES}" stroke-width="1"/>'
        )
    if fy0 < 0 < fy1:
        out.append(
            f'<line x1="{px(fx0):.2f}" y1="{py(0):.2f}" x2="{px(fx1):.2f}" '
            f'y2="{py(0):.2f}" stroke="{AXES}" stroke-width="1"/>'
        )

    # thin pieces are invisible to the raster; draw them exactly
    mins = min(abs(fx0), abs(fx1), abs(fy0), abs(fy1), du, dv) / 2 or du / 2
    vmax = Fraction(-math.log(mins)).limit_denominator(10**6)
    maxs = max(abs(fx0), abs(fx1), abs(fy0), abs(fy1))
    vmin = Fraction(-math.log(maxs)).limit_denominator(10**6)
    points, segments = thin_piece_geometry(regions, vmin, vmax)
    for (ax, ay), (bx, by) in segments:
        out.append(
            f'<line x1="{px(ax):.2f}" y1="{py(ay):.2f}" x2="{px(bx):.2f}" '
            f'y2="{py(by):.2f}" stroke="{OVERLAY}" stroke-width="2.5"/>'
        )
    for (ux, uy) in points:
        out.append(
            f'<circle cx="{px(ux):.2f}" cy="{py(uy):.2f}" r="3.5" '
            f'fill="{OVERLAY}"/>'
        )

    out.append(
        f'<rect x="{margin}" y="{margin}" width="{inner}" height="{inner}" '
        f'fill="none" stroke="{FRAME}" stroke-width="1"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_figures(outdir: str, grid: int = 160) -> list[str]:
    """Render every built-in scenario; also dump their JSON descriptions."""
    from . import iojson
    from .scenarios import SCENARIO_NAMES, get_scenario

    scenarios = [get_scenario(name) for name in SCENARIO_NAMES]
    # every config is checked before the directory is made
    configs = [RenderConfig(grid=grid, window=scen.window) for scen in scenarios]
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name, scen, cfg in zip(SCENARIO_NAMES, scenarios, configs):
        label = {
            "circle": "disk: tropical inequality <= 0 (two segments)",
            "halfplane": "halfplane: X (+) Y (+) -1 >= 0",
            "cubic": "cubic region: isolated point and spurious segment",
            "rectangles": "Laurent pattern: product form < 0",
            "intersection_tight": "strip and conic, c = -2 (bounded)",
            "intersection_wide": "strip and conic, c = -1/2 (infinite rays)",
        }.get(name, name)
        svg = render_region_svg(scen.conditions, cfg, title=label)
        path = os.path.join(outdir, f"{name}.svg")
        with open(path, "w") as fh:
            fh.write(svg)
        written.append(path)
        if scen.description is not None:
            jpath = os.path.join(outdir, f"{name}.json")
            with open(jpath, "w") as fh:
                fh.write(iojson.dumps(iojson.description_to_json(scen.description)))
            written.append(jpath)
        else:
            jpath = os.path.join(outdir, f"{name}.trop.json")
            with open(jpath, "w") as fh:
                fh.write(iojson.dumps(iojson.troppoly_to_json(scen.conditions[0][0])))
            written.append(jpath)
    return written
