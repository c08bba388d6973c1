"""The slotted value types, and how tropical points are built from valuations."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from tropreal.cli import parse_target
from tropreal.errors import DimensionMismatch
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
from tropreal.polyhedra import Polyhedron, constraint, embed_point
from tropreal.puiseux import PuiseuxSeries

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


@pytest.mark.parametrize("v", [3, "3/4", 0.5, _Half(1, 2)], ids=repr)
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


def test_zero_values_are_the_singleton():
    assert PuiseuxSeries.zero().signed_trop() is RT_ZERO
    assert PuiseuxSeries.from_terms([(1, -2)]).signed_trop() == stv(-1, 1)
    assert parse_target("((0,inf),(+,1))")[0] is RT_ZERO
