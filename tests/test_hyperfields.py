"""Arithmetic tables and axioms of the three hyperfields."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropreal.hyperfields import (
    HV_ZERO,
    INF,
    RELATIONS,
    SATISFIED_BY,
    Balanced,
    Point,
    RT_ONE,
    RT_ZERO,
    SignedTropVal,
    ValPoint,
    ValUpSet,
    hv_contains,
    hv_point,
    hv_relation,
    hv_scale,
    rt_add,
    rt_inv,
    rt_mul,
    rt_neg,
    rt_pow,
    rt_sum,
    s_add,
    s_add_sets,
    stv,
    t_add,
    t_add_sets,
)

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


@st.composite
def points(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return RT_ZERO
    sign = draw(st.sampled_from([-1, 1]))
    return stv(sign, draw(rationals))


@st.composite
def hypervalues(draw):
    if draw(st.booleans()):
        return Point(draw(points()))
    return Balanced(draw(rationals))


def test_mul_table():
    assert rt_mul(stv(1, 0), stv(1, 0)) == stv(1, 0)
    assert rt_mul(stv(-1, Fraction(1, 2)), stv(-1, Fraction(3, 2))) == stv(1, 2)
    assert rt_mul(stv(1, 3), RT_ZERO) == RT_ZERO


def test_neg_involution():
    assert rt_neg(stv(1, 2)) == stv(-1, 2)
    assert rt_neg(RT_ZERO) == RT_ZERO
    a = stv(-1, Fraction(5, 3))
    assert rt_neg(rt_neg(a)) == a


def test_add_table():
    assert rt_add(hv_point(1, 0), hv_point(-1, 1)) == hv_point(1, 0)
    assert rt_add(hv_point(1, 0), hv_point(-1, 0)) == Balanced(Fraction(0))
    assert rt_add(hv_point(1, 2), hv_point(1, 2)) == hv_point(1, 2)
    assert rt_add(Balanced(Fraction(0)), hv_point(1, -1)) == hv_point(1, -1)
    assert rt_add(Balanced(Fraction(0)), hv_point(1, 0)) == Balanced(Fraction(0))
    assert rt_add(Balanced(Fraction(1)), Balanced(Fraction(3))) == Balanced(Fraction(1))
    assert rt_add(HV_ZERO, hv_point(-1, 7)) == hv_point(-1, 7)


def test_sum_examples():
    assert rt_sum([stv(1, 0), stv(-1, 0), stv(1, 0)]) == Balanced(Fraction(0))
    assert rt_sum([]) == HV_ZERO
    assert rt_sum([stv(1, 1), stv(-1, 2), stv(1, 3)]) == hv_point(1, 1)
    assert rt_sum([RT_ZERO, RT_ZERO]) == HV_ZERO


def test_relations():
    assert hv_relation(hv_point(1, 0), "gt")
    assert hv_relation(Balanced(Fraction(5)), "ge")
    assert not hv_relation(Balanced(Fraction(5)), "gt")
    assert hv_relation(Balanced(Fraction(5)), "eq")
    assert hv_relation(Balanced(Fraction(5)), "le")
    assert hv_relation(HV_ZERO, "eq")
    assert hv_relation(HV_ZERO, "ge")
    assert not hv_relation(HV_ZERO, "ne")
    assert hv_relation(hv_point(-1, 2), "lt")
    assert not hv_relation(hv_point(-1, 2), "ge")
    assert hv_relation(hv_point(-1, 2), "ne")


def test_relation_aliases():
    assert hv_relation(hv_point(1, 0), ">") == hv_relation(hv_point(1, 0), "gt")
    with pytest.raises(ValueError):
        hv_relation(hv_point(1, 0), "gte")


_ALIASES = {
    "eq": ["eq", "=", "==", "=0"],
    "ge": ["ge", ">=", "≥", ">=0"],
    "gt": ["gt", ">", ">0"],
    "le": ["le", "<=", "≤", "<=0"],
    "lt": ["lt", "<", "<0"],
    "ne": ["ne", "!=", "≠", "!=0"],
}


def _relation_oracle(signs, rel):
    """A relation against zero, read off the signs of a value's members.

    == and != ask whether zero is a member; >= and <= whether some member
    has that sign; > and < whether every member has it.
    """
    return {
        "eq": 0 in signs,
        "ne": 0 not in signs,
        "ge": any(s >= 0 for s in signs),
        "le": any(s <= 0 for s in signs),
        "gt": all(s > 0 for s in signs),
        "lt": all(s < 0 for s in signs),
    }[rel]


def test_relation_table_exhaustive():
    cases = [
        (Balanced(Fraction(-2)), {-1, 0, 1}),
        (Balanced(Fraction(3, 2)), {-1, 0, 1}),
        (HV_ZERO, {0}),
        (hv_point(1, 0), {1}),
        (hv_point(1, Fraction(-7, 3)), {1}),
        (hv_point(-1, 0), {-1}),
        (hv_point(-1, 4), {-1}),
    ]
    for value, signs in cases:
        for rel, aliases in _ALIASES.items():
            expected = _relation_oracle(signs, rel)
            for alias in aliases:
                assert hv_relation(value, alias) is expected, (value, alias)
                assert hv_relation(value, f" {alias} ") is expected, (value, alias)
    # a balanced value satisfies exactly ==, >= and <=
    assert {r for r in _ALIASES if hv_relation(Balanced(Fraction(0)), r)} == {"eq", "ge", "le"}


def _members(h):
    """The members of h among zero and the points of sign +-1 at valuations
    v - 1, v, v + 1 around h's valuation v (0 for the zero point)."""
    v = h.val if isinstance(h, Balanced) else h.value.val
    v = Fraction(0) if v is INF else v
    pool = [RT_ZERO] + [stv(s, v + d) for s in (-1, 1) for d in (-1, 0, 1)]
    return [x for x in pool if hv_contains(h, x)]


_REAL_TESTS = {
    "eq": lambda r: r == 0, "ge": lambda r: r >= 0, "le": lambda r: r <= 0,
    "gt": lambda r: r > 0, "lt": lambda r: r < 0, "ne": lambda r: r != 0,
}


@given(st.one_of(hypervalues(), st.just(HV_ZERO)))
def test_relation_table_matches_the_set_definition(h):
    """A weak relation holds when some member satisfies it in the real order,
    zero included; a strict one when every member does."""
    assert set(SATISFIED_BY) == set(RELATIONS)
    reals = [x.sign * math.exp(-x.val) if x.sign else 0.0 for x in _members(h)]
    assert reals
    for rel in RELATIONS:
        holds = [_REAL_TESTS[rel](r) for r in reals]
        expected = any(holds) if rel in ("eq", "ge", "le") else all(holds)
        assert hv_relation(h, rel) is expected, (h, rel)


@given(hypervalues(), hypervalues())
def test_add_commutative(a, b):
    assert rt_add(a, b) == rt_add(b, a)


@given(hypervalues(), hypervalues(), hypervalues())
def test_add_associative_as_sets(a, b, c):
    assert rt_add(rt_add(a, b), c) == rt_add(a, rt_add(b, c))


@given(points())
def test_additive_inverse(p):
    s = rt_add(Point(p), Point(rt_neg(p)))
    assert hv_contains(s, RT_ZERO)


@given(points(), points(), points())
def test_distributivity(x, y, z):
    lhs = hv_scale(x, rt_add(Point(y), Point(z)))
    rhs = rt_add(Point(rt_mul(x, y)), Point(rt_mul(x, z)))
    assert lhs == rhs


@given(points(), points())
def test_forgetting_signs_commutes(a, b):
    if a.sign == 0 or b.sign == 0 or a.val == b.val:
        return
    s = rt_add(Point(a), Point(b))
    t = t_add(a.val, b.val)
    assert isinstance(s, Point) and isinstance(t, ValPoint)
    assert s.value.val == t.val


def test_sum_permutation_invariance():
    rng = random.Random(7)
    for _ in range(200):
        terms = [
            stv(rng.choice([-1, 1]), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 6))
        ]
        ref = rt_sum(terms)
        rng.shuffle(terms)
        assert rt_sum(terms) == ref


def test_sum_equals_fold():
    rng = random.Random(11)
    for _ in range(300):
        terms = [
            stv(rng.choice([-1, 1]), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 5))
        ]
        acc = HV_ZERO
        for t in terms:
            acc = rt_add(acc, Point(t))
        assert acc == rt_sum(terms)


def test_pow_and_inv():
    assert rt_pow(stv(-1, Fraction(1, 2)), 2) == stv(1, 1)
    assert rt_pow(stv(-1, 1), 3) == stv(-1, 3)
    assert rt_pow(RT_ZERO, 0) == RT_ONE
    assert rt_pow(RT_ZERO, 4) == RT_ZERO
    assert rt_inv(stv(-1, 3)) == stv(-1, -3)
    with pytest.raises(ZeroDivisionError):
        rt_inv(RT_ZERO)
    with pytest.raises(ZeroDivisionError):
        rt_pow(RT_ZERO, -1)


def test_tropical_magnitudes():
    assert t_add(1, 0) == ValPoint(Fraction(0))
    assert t_add(2, 2) == ValUpSet(Fraction(2))
    assert t_add(INF, 3) == ValPoint(Fraction(3))
    assert t_add(INF, INF) == ValPoint(INF)


@given(
    st.one_of(rationals, st.just(INF)),
    st.one_of(rationals, st.just(INF)),
    st.one_of(rationals, st.just(INF)),
)
def test_tropical_associativity(a, b, c):
    lhs = t_add_sets(t_add(a, b), ValPoint(c))
    rhs = t_add_sets(ValPoint(a), t_add(b, c))
    assert lhs == rhs


def test_sign_hyperfield():
    assert s_add(1, 1) == frozenset({1})
    assert s_add(-1, -1) == frozenset({-1})
    assert s_add(1, -1) == frozenset({-1, 0, 1})
    assert s_add(0, -1) == frozenset({-1})
    signs = [-1, 0, 1]
    for a in signs:
        for b in signs:
            assert s_add(a, b) == s_add(b, a)
            for c in signs:
                lhs = s_add_sets(s_add(a, b), frozenset({c}))
                rhs = s_add_sets(frozenset({a}), s_add(b, c))
                assert lhs == rhs


def test_signed_trop_val_invariants():
    with pytest.raises(ValueError):
        SignedTropVal(0, Fraction(1))
    with pytest.raises(ValueError):
        SignedTropVal(1, INF)
    with pytest.raises(ValueError):
        SignedTropVal(2, Fraction(0))
    with pytest.raises(ValueError):
        Balanced(INF)


def test_hv_scale_zero():
    assert hv_scale(RT_ZERO, Balanced(Fraction(3))) == HV_ZERO
    assert hv_scale(stv(-1, 1), Balanced(Fraction(3))) == Balanced(Fraction(4))
