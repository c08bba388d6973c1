"""The paper's group actions as metamorphic checks.

Real tropicalization commutes with the sign flip x_i -> -x_i, the torus
shift x_i -> t**a * x_i and the permutations of the variables.  Moving a
description, a Puiseux point and a tropical point by the same map must
leave membership and the outer bound's point test unchanged: the moved set
is described by the moved conditions, and its tropical points are the
moved tropical points.  Likewise the region of a moved tropical polynomial
on the moved orthant is the moved region: a flip leaves it as it is, a
shift translates it, and a permutation reorders its coordinates.  The
value-group scaling t -> t**k, k > 0 rational, scales every valuation by
k, of the coefficients and of the point alike, so it scales the region by
k on every orthant; the outer bound of a moved description moves so
too, under each of the four maps.  A tropical polynomial satisfies a
relation at a point exactly when its moved image does at the moved point,
under each of the four maps.  With the same seed, the witness search for
a shifted target in the shifted set finds the shifted witness, or none
when there is none.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from test_semialg import description_and_points

from tropreal.checks import random_troppoly
from tropreal.errors import NegativeExponentAtZero
from tropreal.hyperfields import RELATIONS, SignedTropVal, stv
from tropreal.polyhedra import (
    Polyhedron,
    PolyUnion,
    all_orthants,
    constraint,
    trop_region,
    union_equal,
)
from tropreal.puiseux import PuiseuxSeries, SamplerConfig
from tropreal.semialg import (
    SADescription,
    SignCondition,
    outer_contains_point,
    sa_member,
    sa_outer_all,
    witness_search,
)
from tropreal.troppoly import PolyK, TropPoly, trop_point, trop_sat


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


# A witness draw pins its lead to the target, so a shift of the target's
# coordinate i by a shifts every exponent of the drawn coordinate i by a:
# with the same seed, the search for the shifted target draws the shifted
# candidates, and the shifted set holds exactly those.
@settings(max_examples=30, deadline=None)
@given(description_and_points(), st.data())
def test_witness_search_commutes_with_shifts(case, data):
    S, points = case
    i = data.draw(st.integers(0, S.nvars - 1))
    a = data.draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2)))
    cfg = SamplerConfig(seed=data.draw(st.integers(0, 2**32 - 1)))
    shifted = shift(S, i, a)
    for z in dict.fromkeys(trop_point(p) for p in points):
        w = witness_search(S, z, 20, cfg)
        moved = witness_search(shifted, shift_trop(z, i, a), 20, cfg)
        assert moved == (None if w is None else shift_point(w, i, a))


# -- trop_region ---------------------------------------------------------------


def _move_rows(U: PolyUnion, row_map) -> PolyUnion:
    """U with every row (normal, offset) replaced by row_map's."""
    return PolyUnion(U.dim, tuple(
        Polyhedron(U.dim, tuple(
            constraint(*row_map(n, Fraction(cn, cd)), "<" if strict else "<=")
            for n, cn, cd, strict in P.rows
        ))
        for P in U.pieces
    ))


def _region(F, sigma, rel):
    try:
        return trop_region(F, sigma, rel)
    except NegativeExponentAtZero:
        return NegativeExponentAtZero


def _flip_trop(F, i):
    return TropPoly(F.nvars, tuple(
        (e, SignedTropVal(-c.sign, c.val) if e[i] & 1 else c) for e, c in F.terms
    ))


def _shift_trop(F, i, a):
    """x_i -> t**a * x_i: the valuation of the coefficient of x**e moves by -a * e_i."""
    return TropPoly(F.nvars, tuple((e, SignedTropVal(c.sign, c.val - a * e[i])) for e, c in F.terms))


def _permute_trop(F, perm):
    """Variable k becomes variable perm[k]."""
    def move(e):
        out = [0] * len(e)
        for k, d in enumerate(e):
            out[perm[k]] = d
        return tuple(out)

    return TropPoly.from_terms(F.nvars, [(move(e), c) for e, c in F.terms])


def _scale_trop(F, k):
    """t -> t**k: every coefficient valuation is scaled by k."""
    return TropPoly(F.nvars, tuple((e, SignedTropVal(c.sign, c.val * k)) for e, c in F.terms))


_SCALINGS = (Fraction(2), Fraction(1, 2), Fraction(3))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_trop_region_commutes_with_flips_shifts_permutations_and_scalings(nvars, seed, data):
    F = random_troppoly(random.Random(seed), nvars, exp_lo=-1 if seed % 3 == 0 else 0, exp_hi=3)
    i = data.draw(st.integers(0, nvars - 1))
    a = data.draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2)))
    perm = data.draw(st.permutations(range(nvars)))
    flipped, shifted, permuted = _flip_trop(F, i), _shift_trop(F, i, a), _permute_trop(F, perm)
    scaled = [(k, _scale_trop(F, k)) for k in _SCALINGS]
    for sigma in all_orthants(nvars):
        support = [k for k, s in enumerate(sigma) if s]
        moved_sigma = [0] * nvars
        for k, s in enumerate(sigma):
            moved_sigma[perm[k]] = s
        moved_sigma = tuple(moved_sigma)
        # the moved region's coordinate q is the old region's coordinate order[q]
        order = [support.index(k) for k in sorted(support, key=perm.__getitem__)]
        for rel in RELATIONS:
            want = _region(F, sigma, rel)
            got_flipped = _region(flipped, tuple(-s if k == i else s for k, s in enumerate(sigma)), rel)
            got_shifted = _region(shifted, sigma, rel)
            got_permuted = _region(permuted, moved_sigma, rel)
            got_scaled = [(k, _region(G, sigma, rel)) for k, G in scaled]
            if want is NegativeExponentAtZero:
                assert got_flipped is got_shifted is got_permuted is NegativeExponentAtZero
                assert all(got is NegativeExponentAtZero for _, got in got_scaled)
                continue
            assert union_equal(got_flipped, want), (F, sigma, rel, i)
            if i in support:
                q = support.index(i)
                # V -> V + a e_q: a row n.V + c <= 0 becomes n.V + c - a n_q <= 0
                want_shifted = _move_rows(want, lambda n, c: (n, c - a * n[q]))
            else:
                want_shifted = want
            assert union_equal(got_shifted, want_shifted), (F, sigma, rel, i, a)
            want_permuted = _move_rows(want, lambda n, c: (tuple(n[o] for o in order), c))
            assert union_equal(got_permuted, want_permuted), (F, sigma, rel, perm)
            for k, got in got_scaled:
                # V -> k V: a row n.V + c <= 0 becomes n.V + k c <= 0
                want_scaled = _move_rows(want, lambda n, c: (n, c * k))
                assert union_equal(got, want_scaled), (F, sigma, rel, k)


# -- trop_sat ------------------------------------------------------------------


def _scale_point(z, k):
    return tuple(SignedTropVal(c.sign, c.val * k) if c.sign else c for c in z)


def _permute_point(z, perm):
    out = [None] * len(z)
    for k, c in enumerate(z):
        out[perm[k]] = c
    return tuple(out)


def _sat(F, z, rel):
    try:
        return trop_sat(F, z, rel)
    except NegativeExponentAtZero:
        return NegativeExponentAtZero


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_trop_sat_commutes_with_flips_shifts_permutations_and_scalings(nvars, seed, data):
    F = random_troppoly(random.Random(seed), nvars, exp_lo=-1 if seed % 3 == 0 else 0, exp_hi=3)
    i = data.draw(st.integers(0, nvars - 1))
    a = data.draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2)))
    perm = data.draw(st.permutations(range(nvars)))
    points = data.draw(st.lists(st.tuples(*[_TROP_COORD] * nvars), min_size=1, max_size=8))
    flipped, shifted, permuted = _flip_trop(F, i), _shift_trop(F, i, a), _permute_trop(F, perm)
    scaled = [(k, _scale_trop(F, k)) for k in _SCALINGS]
    for z in points:
        for rel in RELATIONS:
            want = _sat(F, z, rel)
            assert _sat(flipped, flip_trop(z, i), rel) == want, (F, z, rel, i)
            assert _sat(shifted, shift_trop(z, i, a), rel) == want, (F, z, rel, i, a)
            assert _sat(permuted, _permute_point(z, perm), rel) == want, (F, z, rel, perm)
            for k, G in scaled:
                assert _sat(G, _scale_point(z, k), rel) == want, (F, z, rel, k)


# -- sa_outer_all ----------------------------------------------------------------


def scale(S, k):
    """The image of S under t -> t**k: every exponent of every coefficient is scaled by k."""
    return _move(S, lambda f: PolyK(f.nvars, tuple(
        (e, PuiseuxSeries(tuple((x * k, c) for x, c in s.terms))) for e, s in f.terms
    )))


def permute(S, perm):
    """Variable k becomes variable perm[k]."""
    return _move(S, lambda f: PolyK.from_terms(
        f.nvars, [(_permute_point(e, perm), c) for e, c in f.terms]
    ))


@settings(max_examples=40, deadline=None)
@given(description_and_points(), st.data())
def test_outer_regions_commute_with_flips_shifts_permutations_and_scalings(case, data):
    S, _ = case
    i = data.draw(st.integers(0, S.nvars - 1))
    a = data.draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2)))
    perm = data.draw(st.permutations(range(S.nvars)))
    flipped, shifted = sa_outer_all(flip(S, i)), sa_outer_all(shift(S, i, a))
    permuted = sa_outer_all(permute(S, perm))
    scaled = [(k, sa_outer_all(scale(S, k))) for k in _SCALINGS]
    for sigma, want in sa_outer_all(S).items():
        support = [k for k, s in enumerate(sigma) if s]
        assert union_equal(flipped[flip_point(sigma, i)], want), (S, sigma, i)
        if i in support:
            q = support.index(i)
            want_shifted = _move_rows(want, lambda n, c: (n, c - a * n[q]))
        else:
            want_shifted = want
        assert union_equal(shifted[sigma], want_shifted), (S, sigma, i, a)
        order = [support.index(k) for k in sorted(support, key=perm.__getitem__)]
        want_permuted = _move_rows(want, lambda n, c: (tuple(n[o] for o in order), c))
        assert union_equal(permuted[_permute_point(sigma, perm)], want_permuted), (S, sigma, perm)
        for k, got in scaled:
            assert union_equal(got[sigma], _move_rows(want, lambda n, c: (n, c * k))), (S, sigma, k)
