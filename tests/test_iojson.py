"""Round-trips and canonical formatting of the JSON codecs."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropreal import iojson
from tropreal.errors import ParseError
from tropreal.hyperfields import stv
from tropreal.parsing import parse_polyk
from tropreal.polyhedra import Polyhedron, constraint, orthant_support, trop_region
from tropreal.puiseux import PuiseuxSeries
from tropreal.scenarios import get_scenario
from tropreal.troppoly import trop_r


def test_signed_value_roundtrip():
    for v in [stv(1, Fraction(3, 2)), stv(-1, -2), stv(0, "inf")]:
        assert iojson.stv_from_json(iojson.stv_to_json(v)) == v
    assert iojson.stv_to_json(stv(0, "inf")) == {"sign": 0, "val": "inf"}
    assert iojson.stv_to_json(stv(-1, Fraction(1, 2))) == {"sign": -1, "val": "1/2"}


def test_series_roundtrip():
    s = PuiseuxSeries.from_terms([(Fraction(-1, 2), 3), (2, Fraction(-7, 4))])
    assert iojson.series_from_json(iojson.series_to_json(s)) == s


def test_polyk_and_troppoly_roundtrip():
    f = parse_polyk("(x-2)^2 + (y-2)^2 - 1")
    assert iojson.polyk_from_json(iojson.polyk_to_json(f)) == f
    F = trop_r(f)
    assert iojson.troppoly_from_json(iojson.troppoly_to_json(F)) == F


def test_polyhedron_and_regions_roundtrip():
    P = Polyhedron(
        2, (constraint((1, -2), Fraction(1, 3), "<"), constraint((0, 1), -1, "<="))
    )
    assert iojson.polyhedron_from_json(iojson.polyhedron_to_json(P)) == P
    F = trop_r(parse_polyk("x + y - 1"))
    regions = {(1, 1): trop_region(F, (1, 1), "ge"), (1, 0): trop_region(F, (1, 0), "ge")}
    blob = iojson.regions_to_json(2, regions)
    assert blob["nvars"] == 2
    assert [entry["sigma"] for entry in blob["orthants"]] == ["+0", "++"]
    for entry, sigma in zip(blob["orthants"], sorted(regions)):
        m = len(orthant_support(sigma))
        assert iojson.union_from_json(entry["region"], m) == regions[sigma]


def test_description_roundtrip_and_rel_symbols():
    S = get_scenario("intersection_tight").description
    blob = iojson.description_to_json(S)
    assert blob["disjuncts"][0][0]["rel"] == ">="
    assert iojson.description_from_json(blob) == S


def test_dumps_is_canonical():
    a = iojson.dumps({"b": 1, "a": [2, 3]})
    assert a == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert json.loads(a) == {"a": [2, 3], "b": 1}


_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=6) | st.sampled_from(
    ["", "\u2028", "\ud800", "\x00\x1f\x7f", "é\"\\/", "\U0001f600"])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
            | st.floats(allow_nan=False) | _TEXT)
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=25,
)


@given(_TREES)
def test_dumps_is_the_stdlib_call_byte_for_byte(obj):
    assert iojson.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("bad", [{"a": Fraction(1, 2)}, [{1, 2}], ({"b": object()},)])
def test_dumps_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError):
        iojson.dumps(bad)


@pytest.mark.parametrize("text", ["0", "-0", "007", "-12", "3/4", " 5 ", "-1/2", "1.5", "+3", "٣"])
def test_read_rational_reads_integers_as_fraction_does(text):
    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(ParseError, match="expected a rational"):
            iojson.read_rational(text, "x")
    else:
        assert iojson.read_rational(text, "x") == expected


@pytest.mark.parametrize("text", ["", "-", "--1", "1e3", "1/0", "9" * 5000])
def test_read_rational_refuses_what_fraction_refuses(text):
    with pytest.raises(ParseError, match=r"^x: expected a rational"):
        iojson.read_rational(text, "x")


# Fraction reads these from Python 3.11 on and refuses them before; they
# are refused on every Python, so that a file reads the same everywhere.
@pytest.mark.parametrize("text", ["1_0", "-1_000/3", "1/2_0", "1_0.5"])
def test_read_rational_refuses_underscores_on_every_python(text):
    with pytest.raises(ParseError, match=r"^x: expected a rational"):
        iojson.read_rational(text, "x")


def test_series_with_an_underscore_names_the_field():
    data = {"terms": [{"exp": "0", "coeff": "1"}, {"exp": "1_0", "coeff": "1"}]}
    with pytest.raises(ParseError, match=r"^s\.terms\[1\]\.exp: expected a rational"):
        iojson.series_from_json(data, "s")


@pytest.mark.parametrize("decode", [iojson.polyk_from_json, iojson.troppoly_from_json])
@pytest.mark.parametrize("nvars", ["2", -1, 65, 2.0, None])
def test_nvars_must_be_an_integer_within_the_variable_limit(decode, nvars):
    with pytest.raises(ParseError, match=r"^nvars: expected an integer from 0 to 64"):
        decode({"nvars": nvars, "terms": []})
    assert decode({"nvars": 64, "terms": []}).nvars == 64


@pytest.mark.parametrize("dim, got", [(65, "65"), (2**70, str(2**70)), (-1, "-1"), ("2", "a string")])
def test_dim_must_be_an_integer_within_the_variable_limit(dim, got):
    with pytest.raises(ParseError) as err:
        iojson.polyhedron_from_json({"dim": dim, "constraints": []}, "T[0]")
    assert str(err.value) == f"T[0].dim: expected an integer from 0 to 64, got {got}"
    assert iojson.polyhedron_from_json({"dim": 64, "constraints": []}).dim == 64
