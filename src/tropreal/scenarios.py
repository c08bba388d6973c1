"""Built-in worked scenarios used by the check suites, figures, and demos.

Each scenario bundles a semialgebraic description (when there is one), the
tropical conjunction used for figure rasterization and a default rendering
window in multiplicative coordinates.  The circle, halfplane and cubic also
carry a tuned candidate generator for inner sampling; the others leave
sampling to the default sampler.  Proposals only affect where candidates
are drawn; every candidate is verified exactly before it enters any cloud.

The scenarios:

* ``circle``        -- the disk (x-2)^2 + (y-2)^2 <= 1, whose signed
                       tropicalization is the single point (1, 1) while the
                       tropicalized inequality cuts out two line segments;
* ``halfplane``     -- 2x + 3y - 5 >= 0, tropicalizing to X (+) Y (+) -1 >= 0;
* ``cubic``         -- x^3 + 2y - x^2 - y^2 - 1 >= 0, whose tropicalization
                       adds an isolated point at (0, 1) and whose
                       tropicalized inequality also contains a spurious
                       one-dimensional segment carrying no actual points;
* ``rectangles``    -- a Laurent tropical polynomial (no algebraic set
                       attached) whose negative region is a rectangle
                       pattern across the four quadrants; coefficients are
                       exp(rational) stand-ins with the same dominance
                       order as the classical picture with constants 2, 4;
* ``intersection_tight`` / ``intersection_wide`` -- the intersection of
  the strip 1 - (x-y)^2 >= 0 with the conic region 2x^2 + 2x - xy + c*y^2
  >= 0 for c = -2 and c = -1/2.  Both c have signed value -1, so the
  tropicalized conic inequality is the same, yet the sets differ: the
  tight case is bounded (the description carries extra valid bound
  inequalities making the outer region bounded in the ray directions),
  while the wide case contains two infinite diagonal rays.  The ray
  endpoint parameter is -1/|c+1| as a signed value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .hyperfields import SignedTropVal, rt_inv, rt_neg, stv
from .parsing import parse_polyk
from .puiseux import PuiseuxSeries
from .semialg import SADescription, SignCondition, conjunction
from .troppoly import PolyK, TropPoly, trop_r

Proposal = Callable[[random.Random], tuple[PuiseuxSeries, ...]]


@dataclass
class Scenario:
    name: str
    nvars: int
    description: Optional[SADescription]
    conditions: tuple[tuple[TropPoly, str], ...]
    window: tuple[Fraction, Fraction, Fraction, Fraction]
    proposal: Optional[Proposal] = None
    params: dict = field(default_factory=dict)


def _grid(rng: random.Random, lo: float, hi: float, q: int = 4) -> Fraction:
    return Fraction(rng.randint(int(lo * q), int(hi * q)), q)


def _maybe_tail(rng: random.Random, s: PuiseuxSeries) -> PuiseuxSeries:
    if rng.random() < 0.3:
        e = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        c = _grid(rng, -2, 2)
        if c:
            return s + PuiseuxSeries.t_power(e, c)
    return s


def _const(v) -> PuiseuxSeries:
    return PuiseuxSeries.const(v)


# -- circle -----------------------------------------------------------------


def _circle_proposal(rng: random.Random):
    def coord():
        base = _const(2 + _grid(rng, -1, 1, 8))
        return _maybe_tail(rng, base)

    return (coord(), coord())


def _circle() -> Scenario:
    f = parse_polyk("(x-2)^2 + (y-2)^2 - 1")
    return Scenario(
        name="circle",
        nvars=2,
        description=conjunction(2, [SignCondition(f, "le")]),
        conditions=((trop_r(f), "le"),),
        window=(Fraction(-3, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(3, 2)),
        proposal=_circle_proposal,
        params={"poly": f},
    )


# -- halfplane ----------------------------------------------------------------


def _halfplane_proposal(rng: random.Random):
    def coord():
        r = rng.random()
        if r < 0.08:
            return PuiseuxSeries.zero()
        if r < 0.35:
            c = _grid(rng, -4, 4) or Fraction(1)
            return _maybe_tail(
                rng,
                PuiseuxSeries.t_power(Fraction(rng.randint(-2, 2), rng.randint(1, 2)), c),
            )
        return _maybe_tail(rng, _const(_grid(rng, -6, 6)))

    return (coord(), coord())


def _halfplane() -> Scenario:
    f = parse_polyk("2x + 3y - 5")
    return Scenario(
        name="halfplane",
        nvars=2,
        description=conjunction(2, [SignCondition(f, "ge")]),
        conditions=((trop_r(f), "ge"),),
        window=(Fraction(-3), Fraction(3), Fraction(-3), Fraction(3)),
        proposal=_halfplane_proposal,
        params={"poly": f},
    )


# -- cubic --------------------------------------------------------------------


def _cubic_proposal(rng: random.Random):
    r = rng.random()
    if r < 0.2:
        # large x, moderate y: the leading cube dominates
        x = PuiseuxSeries.t_power(
            Fraction(-rng.randint(1, 2)), Fraction(rng.randint(1, 3))
        )
        y = _const(_grid(rng, -3, 3))
        return (_maybe_tail(rng, x), _maybe_tail(rng, y))
    if r < 0.3:
        # near the isolated solution at x = 0
        return (PuiseuxSeries.zero(), _const(1))
    x = _const(_grid(rng, 1, 4, 8))
    y = _const(_grid(rng, -2, 4, 8))
    return (_maybe_tail(rng, x), _maybe_tail(rng, y))


def _cubic() -> Scenario:
    f = parse_polyk("x^3 + 2y - x^2 - y^2 - 1")
    return Scenario(
        name="cubic",
        nvars=2,
        description=conjunction(2, [SignCondition(f, "ge")]),
        conditions=((trop_r(f), "ge"),),
        window=(Fraction(-3), Fraction(3), Fraction(-3), Fraction(3)),
        proposal=_cubic_proposal,
        params={"poly": f, "segment_probe": (stv(1, 1), stv(1, 0))},
    )


# -- rectangles ---------------------------------------------------------------


def _rectangles() -> Scenario:
    # x*y*(-1 (+) A/x (+) B*x (+) C/y (+) D*y) with magnitudes e, e^-2, 1, e^-1:
    # expanded, a Laurent-free polynomial with one negative term
    F = TropPoly.from_terms(
        2,
        [
            ((1, 1), stv(-1, 0)),
            ((0, 1), stv(1, -1)),
            ((2, 1), stv(1, 2)),
            ((1, 0), stv(1, 0)),
            ((1, 2), stv(1, 1)),
        ],
    )
    return Scenario(
        name="rectangles",
        nvars=2,
        description=None,
        conditions=((F, "lt"),),
        window=(Fraction(-9), Fraction(9), Fraction(-4), Fraction(4)),
        params={
            "positive_quadrant_rectangle": {
                "v1": (Fraction(-2), Fraction(-1)),
                "v2": (Fraction(-1), Fraction(0)),
            }
        },
    )


# -- intersection family --------------------------------------------------------


def _intersection(c: Fraction, name: str, bounded_description: bool) -> Scenario:
    f = parse_polyk("1 - (x-y)^2")
    g = parse_polyk("2*x^2 + 2*x - x*y") + PolyK.from_terms(
        2, [((0, 2), PuiseuxSeries.const(c))]
    )
    conds = [SignCondition(f, "ge"), SignCondition(g, "ge")]
    if bounded_description:
        # valid on the set: |x - y| <= 1 and the conic inequality force
        # x^2 <= 7|x|, hence |x| <= 7 and |y| <= 8
        for bound in ["10 - x", "10 + x", "10 - y", "10 + y"]:
            conds.append(SignCondition(parse_polyk(bound, nvars=2), "ge"))
    return Scenario(
        name=name,
        nvars=2,
        description=conjunction(2, conds),
        conditions=tuple((trop_r(cond.poly), cond.rel) for cond in conds),
        window=(Fraction(-8), Fraction(8), Fraction(-8), Fraction(8)),
        params={
            "c": c,
            "ray_direction": (Fraction(-1), Fraction(-1)),
            "ray_orthants": ((1, 1), (-1, -1)),
        },
    )


_BUILDERS: dict[str, Callable[[], Scenario]] = {
    "circle": _circle,
    "halfplane": _halfplane,
    "cubic": _cubic,
    "rectangles": _rectangles,
    "intersection_tight": lambda: _intersection(
        Fraction(-2), "intersection_tight", bounded_description=True
    ),
    "intersection_wide": lambda: _intersection(
        Fraction(-1, 2), "intersection_wide", bounded_description=False
    ),
}

SCENARIO_NAMES = tuple(sorted(_BUILDERS))

_cache: dict[str, Scenario] = {}


def get_scenario(name: str) -> Scenario:
    if name not in _BUILDERS:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}")
    if name not in _cache:
        _cache[name] = _BUILDERS[name]()
    return _cache[name]


def vertex_parameter(c: Fraction) -> SignedTropVal:
    """The ray endpoint parameter -1/|c+1| as a signed value."""
    cplus1 = PuiseuxSeries.const(c + 1)
    if cplus1.is_zero():
        raise ZeroDivisionError("c = -1 has no finite vertex parameter")
    return rt_neg(rt_inv(cplus1.signed_trop()))
