"""The paper's group actions as metamorphic checks.

Real tropicalization commutes with the sign flip x_i -> -x_i and the torus
shift x_i -> t**a * x_i.  Moving a description, a Puiseux point and a
tropical point by the same map must leave membership and the outer
bound's point test unchanged: the moved set is described by the moved
conditions, and its tropical points are the moved tropical points.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from test_semialg import description_and_points

from tropreal.hyperfields import SignedTropVal, stv
from tropreal.puiseux import PuiseuxSeries
from tropreal.semialg import SADescription, SignCondition, outer_contains_point, sa_member
from tropreal.troppoly import PolyK, trop_point


def _move(S, poly_map):
    return SADescription(S.nvars, tuple(
        tuple(SignCondition(poly_map(c.poly), c.rel) for c in disj) for disj in S.disjuncts
    ))


def flip(S, i):
    """The image of S under x_i -> -x_i: a term of odd degree in x_i changes sign."""
    return _move(S, lambda f: PolyK(f.nvars, tuple(
        (e, -c if e[i] & 1 else c) for e, c in f.terms
    )))


def flip_point(p, i):
    return tuple(-c if k == i else c for k, c in enumerate(p))


def flip_trop(z, i):
    return tuple(SignedTropVal(-c.sign, c.val) if k == i else c for k, c in enumerate(z))


def shift(S, i, a):
    """The image of S under x_i -> t**a * x_i: the coefficient of x**e is
    scaled by t**(-a * e_i)."""
    return _move(S, lambda f: PolyK(f.nvars, tuple(
        (e, c * PuiseuxSeries.t_power(-a * e[i])) for e, c in f.terms
    )))


def shift_point(p, i, a):
    return tuple(c * PuiseuxSeries.t_power(a) if k == i else c for k, c in enumerate(p))


def shift_trop(z, i, a):
    """The valuation of coordinate i moves by +a; a zero coordinate stays zero."""
    return tuple(
        SignedTropVal(c.sign, c.val + a) if k == i and c.sign else c for k, c in enumerate(z)
    )


_TROP_COORD = st.one_of(
    st.just(stv(0, "inf")),
    st.builds(stv, st.sampled_from([-1, 1]),
              st.builds(Fraction, st.integers(-6, 6), st.integers(1, 2))),
)


@settings(max_examples=60, deadline=None)
@given(description_and_points(), st.data())
def test_membership_and_outer_bound_commute_with_flips_and_shifts(case, data):
    S, points = case
    n = S.nvars
    i = data.draw(st.integers(0, n - 1))
    a = data.draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2)))
    trop_points = [trop_point(p) for p in points]
    trop_points += data.draw(st.lists(st.tuples(*[_TROP_COORD] * n), min_size=1, max_size=6))
    flipped, shifted = flip(S, i), shift(S, i, a)
    for p in points:
        assert trop_point(flip_point(p, i)) == flip_trop(trop_point(p), i)
        assert trop_point(shift_point(p, i, a)) == shift_trop(trop_point(p), i, a)
        member = sa_member(S, p)
        assert sa_member(flipped, flip_point(p, i)) == member
        assert sa_member(shifted, shift_point(p, i, a)) == member
    for z in trop_points:
        inside = outer_contains_point(S, z)
        assert outer_contains_point(flipped, flip_trop(z, i)) == inside
        assert outer_contains_point(shifted, shift_trop(z, i, a)) == inside
