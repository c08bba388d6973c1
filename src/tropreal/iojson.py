"""JSON codecs for every exchange type, with canonical deterministic output.

Rationals travel as strings "p/q" (or "p"), the infinite valuation as
"inf".  Relations are emitted as symbols (">=", "<", ...).  ``dumps``
sorts keys and ends with a newline so identical data always produces
byte-identical files: its text is exactly that of
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, built in one pass.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .errors import ParseError
from .hyperfields import (
    INF,
    SignedTropVal,
    Val,
    as_val,
    normalize_rel,
    read_rational,
    stv,
)
from .parsing import MAX_EXPONENT, MAX_VARS
from .polyhedra import (
    IntRow,
    Orthant,
    PolyUnion,
    Polyhedron,
    orthant_str,
)
from .puiseux import PuiseuxSeries
from .semialg import SADescription, SampleCloud, SignCondition, sorted_points
from .troppoly import PolyK, TropPoint, TropPoly

REL_SYMBOL = {"gt": ">", "ge": ">=", "eq": "=", "le": "<=", "lt": "<", "ne": "!="}


def dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    The stdlib encodes with an indent in pure Python; this appends to one
    list.  Keys are strings; a scalar goes through ``json.dumps``, so a
    value JSON refuses is still refused.
    """
    out: list[str] = []
    _encode(obj, "\n", out)
    return "".join(out) + "\n"


def _encode(obj: Any, newline: str, out: list) -> None:
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        inner, sep = newline + "  ", "{"
        for key in sorted(obj):
            out += (sep, inner, _quote(key), ": ")
            _encode(obj[key], inner, out)
            sep = ","
        out.append(newline + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = newline + "  ", "["
        for item in obj:
            out += (sep, inner)
            _encode(item, inner, out)
            sep = ","
        out.append(newline + "]" if obj else "[]")
    elif type(obj) is int:
        out.append(repr(obj))
    else:
        out.append(json.dumps(obj))


def frac_str(q: Fraction) -> str:
    return str(q)


def val_str(v: Val) -> str:
    return "inf" if v is INF else str(v)


# -- signed values and hypervalues -------------------------------------------


def stv_to_json(v: SignedTropVal) -> dict:
    return {"sign": v.sign, "val": val_str(v.val)}


def stv_from_json(d: Any, path: str = "") -> SignedTropVal:
    """A signed value; ``path`` locates d in its file for error messages.

    ``sign`` must be the JSON integer -1, 0 or 1 (not a boolean, string or
    number); ``val`` is a rational read by :func:`_rational`, or "inf", and
    it is "inf" exactly when the sign is 0.
    """
    sign = _object(d, path).get("sign")
    if type(sign) is not int or sign not in (-1, 0, 1):
        got = "nothing" if "sign" not in d else sign if type(sign) is int else _JSON_KIND.get(type(sign))
        raise ParseError(f"{_at(path, 'sign')}: expected -1, 0 or 1, got {got}")
    val = _rational(d, "val", path, inf=True)
    if (sign == 0) != (val is INF):
        raise ParseError(
            f"{path or 'input'}: expected val 'inf' exactly when sign is 0, "
            f"got sign {sign} and val {val_str(val)!r}"
        )
    return stv(sign, val)


def point_to_json(p: TropPoint) -> list:
    return [stv_to_json(c) for c in p]


# -- series and polynomials ---------------------------------------------------


def series_to_json(s: PuiseuxSeries) -> dict:
    return {
        "terms": [{"exp": frac_str(e), "coeff": frac_str(c)} for e, c in s.terms]
    }


_JSON_KIND = {
    dict: "an object", list: "a list", str: "a string", bool: "a boolean",
    int: "an integer", float: "a number", type(None): "null",
}


def _at(path: str, field: str) -> str:
    return f"{path}.{field}" if path else field


def _key(d: dict, key: str, path: str) -> Any:
    """The required field ``key`` of the object d at ``path``; a missing key
    is a ParseError that names the object's path."""
    try:
        return d[key]
    except KeyError:
        raise ParseError(f"{path or 'input'}: missing key {key!r}") from None


def _rational(d: dict, field: str, path: str, inf: bool = False) -> Val:
    """The rational ``field`` of the object d at ``path``: a JSON integer, or
    a string read by :func:`read_rational` (with ``inf``, by :func:`as_val`).
    Anything else is a ParseError that names the JSON path of the field.
    """
    v = _key(d, field, path)
    if type(v) is int:
        return Fraction(v)
    if isinstance(v, str):
        try:
            return as_val(v) if inf else read_rational(v)
        except ParseError as exc:
            raise ParseError(f"{_at(path, field)}: {exc}") from None
    raise ParseError(f"{_at(path, field)}: expected a rational such as '-1/2', "
                     f"got {_JSON_KIND.get(type(v))}")


def _object(d: Any, path: str) -> dict:
    if not isinstance(d, dict):
        raise ParseError(f"{path or 'input'}: expected an object, got {_JSON_KIND.get(type(d))}")
    return d


def _objects(items: Any, where: str) -> list:
    """The list ``items`` at ``where``, checked to hold objects."""
    if not isinstance(items, list):
        raise ParseError(f"{where}: expected a list of objects, got {_JSON_KIND.get(type(items))}")
    for i, item in enumerate(items):
        _object(item, f"{where}[{i}]")
    return items


def _terms(d: Any, path: str) -> list:
    """The ``terms`` list of the object d at ``path``, checked to hold objects.

    A shape error is a ParseError that names the JSON path of the bad field.
    """
    return _objects(_key(_object(d, path), "terms", path), _at(path, "terms"))


def _width(d: dict, key: str, path: str) -> int:
    """The field ``key`` (``nvars`` or ``dim``) of the object d at ``path``:
    an integer within MAX_VARS."""
    n = _key(d, key, path)
    if type(n) is not int or not 0 <= n <= MAX_VARS:
        got = n if type(n) is int else _JSON_KIND.get(type(n))
        raise ParseError(f"{_at(path, key)}: expected an integer from 0 to {MAX_VARS}, got {got}")
    return n


def _exps(t: dict, nvars: int, where: str) -> tuple[int, ...]:
    exps = _key(t, "exps", where)
    if not (isinstance(exps, list) and len(exps) == nvars
            and all(type(e) is int for e in exps)):
        raise ParseError(f"{where}.exps: expected a list of nvars={nvars} integers")
    if any(abs(e) > MAX_EXPONENT for e in exps):
        raise ParseError(f"{where}.exps: an exponent is beyond MAX_EXPONENT={MAX_EXPONENT}")
    return tuple(exps)


def series_from_json(d: dict, path: str = "") -> PuiseuxSeries:
    """A series from JSON; ``path`` locates d in its file for error messages."""
    where = _at(path, "terms")
    return PuiseuxSeries.from_terms(
        (_rational(t, "exp", f"{where}[{i}]"), _rational(t, "coeff", f"{where}[{i}]"))
        for i, t in enumerate(_terms(d, path))
    )


def polyk_to_json(f: PolyK) -> dict:
    return {
        "nvars": f.nvars,
        "terms": [
            {"exps": list(exps), "coeff": series_to_json(c)} for exps, c in f.terms
        ],
    }


def polyk_from_json(d: dict, path: str = "") -> PolyK:
    """A PolyK from JSON; ``path`` locates d in its file for error messages."""
    terms = _terms(d, path)
    nvars = _width(d, "nvars", path)
    pairs = []
    for i, t in enumerate(terms):
        where = f"{_at(path, 'terms')}[{i}]"
        exps = _exps(t, nvars, where)
        pairs.append((exps, series_from_json(_key(t, "coeff", where), f"{where}.coeff")))
    return PolyK.from_terms(nvars, pairs)


def troppoly_to_json(F: TropPoly) -> dict:
    return {
        "nvars": F.nvars,
        "terms": [
            {"exps": list(exps), "coeff": stv_to_json(c)} for exps, c in F.terms
        ],
    }


def troppoly_from_json(d: dict) -> TropPoly:
    terms = _terms(d, "")
    nvars = _width(d, "nvars", "")
    return TropPoly.from_terms(
        nvars,
        (
            (_exps(t, nvars, f"terms[{i}]"),
             stv_from_json(_key(t, "coeff", f"terms[{i}]"), f"terms[{i}].coeff"))
            for i, t in enumerate(terms)
        ),
    )


# -- polyhedra ----------------------------------------------------------------


def polyhedron_to_json(P: Polyhedron) -> dict:
    # a row's offset cn/cd is in lowest terms with cd > 0, so this is
    # str(Fraction(cn, cd))
    return {
        "dim": P.dim,
        "constraints": [
            {
                "normal": list(normal),
                "offset": str(cn) if cd == 1 else f"{cn}/{cd}",
                "strict": strict,
            }
            for normal, cn, cd, strict in P.rows
        ],
    }


def _constraint(c: dict, dim: int, where: str) -> IntRow:
    normal, strict = _key(c, "normal", where), _key(c, "strict", where)
    if not (isinstance(normal, list) and len(normal) == dim
            and all(type(a) is int for a in normal)):
        raise ParseError(f"{where}.normal: expected a list of dim={dim} integers")
    offset = _rational(c, "offset", where)
    if type(strict) is not bool:
        raise ParseError(f"{where}.strict: expected a boolean, got {_JSON_KIND.get(type(strict))}")
    return (tuple(normal), offset.numerator, offset.denominator, strict)


def polyhedron_from_json(d: dict, path: str = "") -> Polyhedron:
    """A Polyhedron from JSON; ``path`` locates d in its file for error messages."""
    dim = _width(_object(d, path), "dim", path)
    where = _at(path, "constraints")
    return Polyhedron(dim, tuple(
        _constraint(c, dim, f"{where}[{i}]")
        for i, c in enumerate(_objects(_key(d, "constraints", path), where))
    ))


def union_to_json(U: PolyUnion) -> list:
    return [polyhedron_to_json(p) for p in U.pieces]


def union_from_json(data: list, dim: int) -> PolyUnion:
    """A union of polyhedra of dimension ``dim``; errors name the piece's index."""
    if not isinstance(data, list):
        got = _JSON_KIND.get(type(data))
        raise ParseError(f"input: expected a list of polyhedra, got {got}")
    pieces = []
    for i, d in enumerate(data):
        P = polyhedron_from_json(d, f"[{i}]")
        if P.dim != dim:
            raise ParseError(f"[{i}].dim: expected {dim}, got {P.dim}")
        pieces.append(P)
    return PolyUnion(dim, tuple(pieces))


def regions_to_json(nvars: int, regions: dict[Orthant, PolyUnion]) -> dict:
    return {
        "nvars": nvars,
        "orthants": [
            {"sigma": orthant_str(sigma), "region": union_to_json(regions[sigma])}
            for sigma in sorted(regions)
        ],
    }


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


def _rel(c: dict, where: str) -> str:
    rel = _key(c, "rel", where)
    if isinstance(rel, str):
        try:
            return normalize_rel(rel)
        except ValueError:
            pass
    raise ParseError(f"{where}.rel: expected a relation such as '>=' or 'ge', got {rel!r}")


def description_from_json(d: dict) -> SADescription:
    nvars = _width(_object(d, ""), "nvars", "")
    disjuncts = _key(d, "disjuncts", "")
    if not isinstance(disjuncts, list):
        got = _JSON_KIND.get(type(disjuncts))
        raise ParseError(f"disjuncts: expected a list of lists of objects, got {got}")
    out = []
    for i, disj in enumerate(disjuncts):
        conds = []
        for j, c in enumerate(_objects(disj, f"disjuncts[{i}]")):
            where = f"disjuncts[{i}][{j}]"
            poly = polyk_from_json(_key(c, "poly", where), f"{where}.poly")
            conds.append(SignCondition(poly, _rel(c, where)))
        out.append(tuple(conds))
    return SADescription(nvars, tuple(out))


def cloud_to_json(cloud: SampleCloud) -> dict:
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
