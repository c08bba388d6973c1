"""Exact polyhedral regions of tropical inequalities, and SVG pictures.

Within one orthant a tropical polynomial is a competition between affine
functions of the coordinate valuations; the region where a relation holds
is a finite union of rational polyhedra assembled from dominance cells.
The SVG renderer samples a multiplicative window but classifies every node
with the exact evaluator, so raster and set semantics can never disagree.
"""

import os
import tempfile
from fractions import Fraction

from tropreal import get_scenario, parse_polyk, trop_r, trop_region
from tropreal.polyhedra import orthant_str, poly_dim
from tropreal.render import RenderConfig, render_region_svg, write_figures

F = trop_r(parse_polyk("2x + 3y - 5"))
print("halfplane condition, region of >= 0 per orthant:")
for sigma in [(1, 1), (1, -1), (-1, -1), (0, 1)]:
    region = trop_region(F, sigma, "ge")
    print(f"  orthant {orthant_str(sigma)}: {len(region.pieces)} pieces")
    for P in region.pieces:
        cons = [
            f"{list(normal)}.V + {Fraction(cn, cd)} {'<' if strict else '<='} 0"
            for normal, cn, cd, strict in P.rows
        ]
        print(f"      dim {poly_dim(P)}: {' and '.join(cons) or 'everything'}")

print("\nthe disk gives one-dimensional pieces (invisible to any raster):")
circle = get_scenario("circle")
region = trop_region(circle.conditions[0][0], (1, 1), "le")
for P in region.pieces:
    print(f"  piece of dimension {poly_dim(P)}")

outdir = os.path.join(tempfile.gettempdir(), "tropreal_demo_figs")
written = write_figures(outdir, grid=80)
print(f"\nwrote {len(written)} figure artifacts:")
for path in written:
    print(f"  {path}")

cfg = RenderConfig(grid=60, window=circle.window)
svg = render_region_svg(circle.conditions, cfg, title="disk, exact overlay")
print(f"\nstandalone render: {len(svg)} bytes of SVG, "
      f"{svg.count('<line')} line elements (axes + exact segments)")
