"""Exact signed tropicalization over rational Puiseux series.

The package computes with three hyperfields (signs, magnitudes, signed
magnitudes), finite Puiseux series, tropical polynomials and their exact
polyhedral regions, and semialgebraic descriptions with certified outer
bounds and witnessed inner samples.  All set-level computation is exact
rational arithmetic; floating point appears only when rendering figures.
"""

from .hyperfields import (
    INF,
    Balanced,
    HyperValue,
    Point,
    SignedTropVal,
    hv_contains,
    hv_relation,
    rt_add,
    rt_inv,
    rt_mul,
    rt_neg,
    rt_pow,
    rt_sum,
    s_add,
    stv,
    t_add,
)
from .puiseux import PuiseuxSeries, SamplerConfig, ps_sample
from .troppoly import (
    PolyK,
    TropPoly,
    eval_k,
    laurent_sign,
    trop_eval,
    trop_family,
    trop_point,
    trop_r,
    trop_sat,
)
from .parsing import parse_polyk, parse_puiseux
from .polyhedra import (
    PolyUnion,
    Polyhedron,
    complement_of_union,
    enumerate_cells,
    open_poly_to_trop,
    trop_region,
)
from .semialg import (
    SADescription,
    SampleCloud,
    SignCondition,
    finite_basis,
    lift_inequality,
    sa_member,
    sa_outer,
    sa_sample_trop,
    sa_sandwich_check,
    witness_search,
)
from .scenarios import SCENARIO_NAMES, get_scenario

__version__ = "0.1.0"

__all__ = [
    "Balanced",
    "HyperValue",
    "INF",
    "Point",
    "PolyK",
    "PolyUnion",
    "Polyhedron",
    "PuiseuxSeries",
    "SADescription",
    "SCENARIO_NAMES",
    "SampleCloud",
    "SamplerConfig",
    "SignCondition",
    "SignedTropVal",
    "TropPoly",
    "complement_of_union",
    "enumerate_cells",
    "eval_k",
    "finite_basis",
    "get_scenario",
    "hv_contains",
    "hv_relation",
    "laurent_sign",
    "lift_inequality",
    "open_poly_to_trop",
    "parse_polyk",
    "parse_puiseux",
    "ps_sample",
    "rt_add",
    "rt_inv",
    "rt_mul",
    "rt_neg",
    "rt_pow",
    "rt_sum",
    "s_add",
    "sa_member",
    "sa_outer",
    "sa_sample_trop",
    "sa_sandwich_check",
    "stv",
    "t_add",
    "trop_eval",
    "trop_family",
    "trop_point",
    "trop_r",
    "trop_region",
    "trop_sat",
    "witness_search",
]
