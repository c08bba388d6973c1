"""JSON codecs for every exchange type, with canonical deterministic output.

Rationals travel as strings "p/q" (or "p"), the infinite valuation as
"inf".  Relations are emitted as symbols (">=", "<", ...).  ``dumps``
sorts keys and ends with a newline so identical data always produces
byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import ParseError
from .hyperfields import (
    INF,
    Balanced,
    HyperValue,
    Point,
    SignedTropVal,
    Val,
    as_val,
    stv,
)
from .polyhedra import (
    AffineForm,
    Constraint,
    Orthant,
    PolyUnion,
    Polyhedron,
    orthant_str,
    parse_orthant,
)
from .puiseux import PuiseuxSeries
from .semialg import SADescription, SampleCloud, SignCondition
from .troppoly import PolyK, TropPoint, TropPoly

REL_SYMBOL = {"gt": ">", "ge": ">=", "eq": "=", "le": "<=", "lt": "<", "ne": "!="}


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def frac_str(q: Fraction) -> str:
    return str(q)


def val_str(v: Val) -> str:
    return "inf" if v is INF else str(v)


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


# -- signed values and hypervalues -------------------------------------------


def stv_to_json(v: SignedTropVal) -> dict:
    return {"sign": v.sign, "val": val_str(v.val)}


def stv_from_json(d: dict) -> SignedTropVal:
    return stv(int(d["sign"]), as_val(d["val"]))


def hv_to_json(h: HyperValue) -> dict:
    if isinstance(h, Balanced):
        return {"kind": "balanced", "val": frac_str(h.val)}
    return {"kind": "point", **stv_to_json(h.value)}


def hv_from_json(d: dict) -> HyperValue:
    if d["kind"] == "balanced":
        return Balanced(parse_frac(d["val"]))
    if d["kind"] == "point":
        return Point(stv_from_json(d))
    raise ParseError(f"bad hypervalue kind {d.get('kind')!r}")


def point_to_json(p: TropPoint) -> list:
    return [stv_to_json(c) for c in p]


# -- series and polynomials ---------------------------------------------------


def series_to_json(s: PuiseuxSeries) -> dict:
    return {
        "terms": [{"exp": frac_str(e), "coeff": frac_str(c)} for e, c in s.terms]
    }


def series_from_json(d: dict) -> PuiseuxSeries:
    return PuiseuxSeries.from_terms(
        (parse_frac(t["exp"]), parse_frac(t["coeff"])) for t in d["terms"]
    )


def polyk_to_json(f: PolyK) -> dict:
    return {
        "nvars": f.nvars,
        "terms": [
            {"exps": list(exps), "coeff": series_to_json(c)} for exps, c in f.terms
        ],
    }


def polyk_from_json(d: dict) -> PolyK:
    return PolyK.from_terms(
        int(d["nvars"]),
        ((tuple(t["exps"]), series_from_json(t["coeff"])) for t in d["terms"]),
    )


def troppoly_to_json(F: TropPoly) -> dict:
    return {
        "nvars": F.nvars,
        "terms": [
            {"exps": list(exps), "coeff": stv_to_json(c)} for exps, c in F.terms
        ],
    }


def troppoly_from_json(d: dict) -> TropPoly:
    return TropPoly.from_terms(
        int(d["nvars"]),
        ((tuple(t["exps"]), stv_from_json(t["coeff"])) for t in d["terms"]),
    )


# -- polyhedra ----------------------------------------------------------------


def polyhedron_to_json(P: Polyhedron) -> dict:
    return {
        "dim": P.dim,
        "constraints": [
            {
                "normal": list(c.form.normal),
                "offset": frac_str(c.form.offset),
                "strict": c.strict,
            }
            for c in P.constraints
        ],
    }


def polyhedron_from_json(d: dict) -> Polyhedron:
    cons = tuple(
        Constraint(
            AffineForm(tuple(int(a) for a in c["normal"]), parse_frac(c["offset"])),
            bool(c["strict"]),
        )
        for c in d["constraints"]
    )
    return Polyhedron(int(d["dim"]), cons)


def union_to_json(U: PolyUnion) -> list:
    return [polyhedron_to_json(p) for p in U.pieces]


def union_from_json(data: list, dim: int) -> PolyUnion:
    return PolyUnion(dim, tuple(polyhedron_from_json(d) for d in data))


def regions_to_json(nvars: int, regions: dict[Orthant, PolyUnion]) -> dict:
    return {
        "nvars": nvars,
        "orthants": [
            {"sigma": orthant_str(sigma), "region": union_to_json(regions[sigma])}
            for sigma in sorted(regions)
        ],
    }


def regions_from_json(d: dict) -> dict[Orthant, PolyUnion]:
    out: dict[Orthant, PolyUnion] = {}
    for entry in d["orthants"]:
        sigma = parse_orthant(entry["sigma"])
        m = sum(1 for s in sigma if s != 0)
        out[sigma] = union_from_json(entry["region"], m)
    return out


# -- semialgebraic descriptions ------------------------------------------------


def description_to_json(S: SADescription) -> dict:
    return {
        "nvars": S.nvars,
        "disjuncts": [
            [
                {"poly": polyk_to_json(c.poly), "rel": REL_SYMBOL[c.rel]}
                for c in disj
            ]
            for disj in S.disjuncts
        ],
    }


def description_from_json(d: dict) -> SADescription:
    return SADescription(
        int(d["nvars"]),
        tuple(
            tuple(
                SignCondition(polyk_from_json(c["poly"]), c["rel"]) for c in disj
            )
            for disj in d["disjuncts"]
        ),
    )


def cloud_to_json(cloud: SampleCloud) -> dict:
    from .semialg import sorted_points

    items = []
    witnesses = dict(cloud.items())
    for z in sorted_points(witnesses):
        items.append(
            {
                "point": point_to_json(z),
                "witness": [series_to_json(c) for c in witnesses[z]],
            }
        )
    return {"count": len(items), "points": items}
