"""The slotted value types, how tropical points are built from valuations,
and the one rule for the exact numbers the library is handed."""

import copy
import dataclasses
import json
import pickle
from fractions import Fraction

import pytest

from tropreal import iojson
from tropreal.cli import main, parse_target
from tropreal.errors import DimensionMismatch, ParseError
from tropreal.hyperfields import (
    INF,
    RT_ZERO,
    Balanced,
    Point,
    SignedTropVal,
    ValPoint,
    ValUpSet,
    stv,
    val_add,
)
from tropreal.polyhedra import Polyhedron, constraint, embed_point, point_polyhedron
from tropreal.puiseux import PS_ONE, PuiseuxSeries
from tropreal.render import RenderConfig
from tropreal.scenarios import get_scenario
from tropreal.troppoly import PolyK, TropPoly

VALUES = [
    stv(1, "3/2"),
    RT_ZERO,
    Point(stv(-1, 2)),
    Balanced(Fraction(1, 3)),
    ValPoint(Fraction(2)),
    ValPoint(INF),
    ValUpSet(Fraction(-1)),
    PuiseuxSeries.from_terms([(0, 1), ("1/2", -3)]),
    Polyhedron(2, (constraint((1, -2), Fraction(1, 2)), constraint((0, 1), 3, ">"))),
    Polyhedron(1, (constraint((1,), 10, ">"),)),
]


def test_every_slotted_type_is_covered():
    assert {type(v) for v in VALUES} == {
        SignedTropVal, Point, Balanced, ValPoint, ValUpSet, PuiseuxSeries, Polyhedron,
    }


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_slotted_value_has_no_dict_and_frozen_fields(value):
    assert not hasattr(value, "__dict__")
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_copies_of_a_slotted_value_equal_it(value):
    copies = [
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
        dataclasses.replace(value),
    ]
    for c in copies:
        assert type(c) is type(value)
        assert c == value and hash(c) == hash(value) and repr(c) == repr(value)


def test_copies_keep_the_inf_singleton():
    # protocols 0 and 1 rebuild objects without calling __new__, so the
    # singleton must be pickled by name
    copies = [pickle.loads(pickle.dumps(RT_ZERO, protocol)) for protocol in range(6)]
    copies += [copy.copy(RT_ZERO), copy.deepcopy(RT_ZERO)]
    for c in copies:
        assert c.val is INF
        assert val_add(c.val, Fraction(1)) is INF and val_add(Fraction(1), c.val) is INF
    for protocol in range(6):
        assert pickle.loads(pickle.dumps(INF, protocol)) is INF
    assert copy.copy(INF) is INF and copy.deepcopy(INF) is INF


class _Half(Fraction):
    pass


def test_embed_point_shares_fractions_and_zero():
    V = (Fraction(1, 3), Fraction(-2))
    z = embed_point((1, 0, -1), V)
    assert z[0].val is V[0] and z[2].val is V[1]
    assert z[1] is RT_ZERO
    assert z == (stv(1, "1/3"), stv(0, "inf"), stv(-1, -2))


@pytest.mark.parametrize("v", [3, "3/4", _Half(1, 2)], ids=repr)
def test_embed_point_coerces_other_inputs_like_fraction(v):
    (x,) = embed_point((-1,), (v,))
    assert type(x.val) is Fraction
    assert x == SignedTropVal(-1, Fraction(v))


def test_embed_point_rejects_bad_shapes_and_signs():
    with pytest.raises(DimensionMismatch):
        embed_point((1, 0, -1), (Fraction(1),))
    with pytest.raises(DimensionMismatch):
        embed_point((0, 0), (Fraction(1),))
    with pytest.raises(ValueError):
        embed_point((2, 1), (Fraction(1), Fraction(0)))


def test_stv_coerces_once_and_still_rejects():
    half = Fraction(1, 2)
    assert stv(1, half).val is half
    assert stv(0, "inf").val is INF and stv(1, 2).val == Fraction(2)
    with pytest.raises(TypeError):
        stv(1, 0.5)
    with pytest.raises(ValueError):
        stv(0, 1)


@pytest.mark.parametrize("sign, want", [(True, 1), (False, 0), (-1, -1)], ids=repr)
def test_a_sign_is_read_as_an_integer_and_kept_as_an_int(sign, want):
    v = stv(sign, "inf" if want == 0 else 0)
    assert v.sign == want and type(v.sign) is int
    data = iojson.stv_to_json(v)
    assert type(data["sign"]) is int and data["sign"] == want
    assert iojson.stv_from_json(json.loads(iojson.dumps(data))) == v


@pytest.mark.parametrize("sign", [1.0, 0.0, "1"], ids=repr)
def test_a_sign_that_is_not_an_integer_is_refused(sign):
    # 1.0 once equalled stv(1, 0), and its JSON "sign": 1.0 was then refused on reading
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        stv(sign, 0)


@pytest.mark.parametrize("grid", [2.5, "160"], ids=repr)
def test_a_render_grid_that_is_not_an_integer_is_refused(grid):
    # 2.5 was accepted here and failed only when the raster was drawn
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        RenderConfig(grid=grid)


class _Twelve:
    def __index__(self):
        return 12


def test_a_render_grid_is_kept_as_an_int():
    cfg = RenderConfig(grid=_Twelve())
    assert cfg.grid == 12 and type(cfg.grid) is int


def test_zero_values_are_the_singleton():
    assert PuiseuxSeries.zero().signed_trop() is RT_ZERO
    assert PuiseuxSeries.from_terms([(1, -2)]).signed_trop() == stv(-1, 1)
    assert parse_target("((0,inf),(+,1))")[0] is RT_ZERO


# Each site reads one number x the caller hands it, and gives back the
# exact value it stored.
READERS = {
    "stv": lambda x: stv(1, x).val,
    "const": lambda x: PuiseuxSeries.const(x).terms[0][1],
    "t_power-exponent": lambda x: PuiseuxSeries.t_power(x).terms[0][0],
    "t_power-coefficient": lambda x: PuiseuxSeries.t_power(1, x).terms[0][1],
    "from_terms-exponent": lambda x: PuiseuxSeries.from_terms([(x, 1)]).terms[0][0],
    "from_terms-coefficient": lambda x: PuiseuxSeries.from_terms([(1, x)]).terms[0][1],
    "constraint": lambda x: Fraction(*constraint((1,), x)[1:3]),
    "point_polyhedron": lambda x: -Fraction(*point_polyhedron([x]).rows[0][1:3]),
    "embed_point": lambda x: embed_point((1,), [x])[0].val,
    "RenderConfig": lambda x: RenderConfig(window=(x, 10, 0, 1)).window[0],
}


@pytest.mark.parametrize("site", READERS)
@pytest.mark.parametrize("text", ["1_0", "1e3"])
def test_a_text_reads_the_same_on_every_python(site, text):
    # Fraction reads "1_0" as 10 from Python 3.11 on and refuses it before
    with pytest.raises(ParseError) as exc:
        READERS[site](text)
    assert str(exc.value) == f"expected a rational such as '-1/2', got {text!r}"


@pytest.mark.parametrize("site", READERS)
def test_a_float_is_refused(site):
    with pytest.raises(TypeError, match="not an exact rational: 0.5"):
        READERS[site](0.5)


@pytest.mark.parametrize("site", READERS)
@pytest.mark.parametrize("x, want", [
    (3, Fraction(3)), (Fraction(3, 2), Fraction(3, 2)), ("3/2", Fraction(3, 2)),
    ("-1.5", Fraction(-3, 2)), (True, Fraction(1)),
], ids=repr)
def test_exact_numbers_keep_their_value(site, x, want):
    got = READERS[site](x)
    assert got == want and type(got) is Fraction


INTEGER_READERS = {
    "PolyK.from_terms": lambda e: PolyK.from_terms(1, [((e,), PS_ONE)]),
    "TropPoly.from_terms": lambda e: TropPoly.from_terms(1, [((e,), stv(1, 0))]),
    "constraint": lambda e: constraint((e, 1), 0),
}


@pytest.mark.parametrize("site", INTEGER_READERS)
@pytest.mark.parametrize("e", [1.5, "2", Fraction(2)], ids=repr)
def test_an_exponent_or_normal_must_be_an_integer(site, e):
    # 1.5 was truncated to 1, and "2" read as 2
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        INTEGER_READERS[site](e)


def test_integer_exponents_and_normals_are_kept():
    assert PolyK.from_terms(1, [((True,), PS_ONE)]).terms == (((1,), PS_ONE),)
    assert TropPoly.from_terms(2, [([2, -1], stv(1, 0))]).terms == (((2, -1), stv(1, 0)),)
    assert constraint((2, -1), "1/2", ">=") == ((-2, 1), -1, 2, False)


@pytest.mark.parametrize("text", ["((+,inf),(+,0))", "((-,oo),(+,0))", "((0,1),(+,0))"])
def test_a_target_sign_is_zero_exactly_at_inf(text, tmp_path, capsys):
    with pytest.raises(ParseError, match="^--target: sign 0 requires valuation inf"):
        parse_target(text)
    desc = tmp_path / "halfplane.json"
    desc.write_text(iojson.dumps(iojson.description_to_json(get_scenario("halfplane").description)))
    assert main(["witness", str(desc), "--target", text]) == 2
    err = capsys.readouterr().err
    assert err == ("error: --target: sign 0 requires valuation inf, "
                   "and valuation inf requires sign 0\n")
