"""Inner clouds, outer regions, sandwich, lifting, bases, witnesses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_puiseux import _outcome, _reference_vector

from tropreal import semialg
from tropreal.errors import (
    NegativeExponentAtZero,
    NoEpsilonFound,
    PreconditionFailed,
    ShapeMismatch,
)
from tropreal.hyperfields import stv
from tropreal.parsing import parse_polyk
from tropreal.polyhedra import (
    constraint,
    Polyhedron,
    point_polyhedron,
    poly_dim,
    union_equal,
    union_of,
    whole_space_union,
)
from tropreal.puiseux import PuiseuxSeries, SamplerConfig
from tropreal.scenarios import get_scenario, vertex_parameter
from tropreal.semialg import (
    SADescription,
    SampleCloud,
    SignCondition,
    _candidates,
    adjacency_connected,
    collect_samples,
    conjunction,
    finite_basis,
    inner_in_outer,
    lift_inequality,
    outer_excludes,
    point_orthant,
    sa_member,
    sa_outer,
    sa_outer_all,
    sa_sample_trop,
    sa_sandwich_check,
    split_ne,
    witness_search,
)
from tropreal.troppoly import PolyK, TropPoly, trop_point, trop_r

F2 = Fraction
const = PuiseuxSeries.const
t_pow = PuiseuxSeries.t_power


def H(dim, *cons):
    return Polyhedron(dim, tuple(constraint(n, o, r) for n, o, r in cons))


CIRCLE = get_scenario("circle")
HALFPLANE = get_scenario("halfplane")
CUBIC = get_scenario("cubic")
CFG = SamplerConfig(seed=20260810)


def test_sa_member_circle():
    S = CIRCLE.description
    assert sa_member(S, (const(2), const(2)))
    assert sa_member(S, (const(2) + t_pow(1), const(2)))
    assert not sa_member(S, (const(0), const(0)))


def test_split_ne():
    S = conjunction(1, [SignCondition(parse_polyk("x", nvars=1), "ne")])
    split = split_ne(S)
    assert len(split.disjuncts) == 2
    assert {d[0].rel for d in split.disjuncts} == {"gt", "lt"}


def test_circle_cloud_is_single_point():
    cloud = sa_sample_trop(CIRCLE.description, 2000, CFG, proposal=CIRCLE.proposal)
    assert len(cloud) >= 1
    assert cloud.points() == {(stv(1, 0), stv(1, 0))}
    assert cloud.verify()


def test_positive_halfline_cloud():
    S = conjunction(1, [SignCondition(parse_polyk("x", nvars=1), "gt")])
    cloud = sa_sample_trop(S, 300, CFG)
    assert len(cloud) > 3
    assert all(z[0].sign == 1 for z in cloud.points())


def test_empty_set_cloud():
    S = conjunction(1, [SignCondition(parse_polyk("1", nvars=1), "lt")])
    cloud = sa_sample_trop(S, 200, CFG)
    assert len(cloud) == 0


def test_circle_outer_positive_orthant():
    region = sa_outer(CIRCLE.description, (1, 1))
    seg_v = H(2, ((1, 0), 0, "<="), ((-1, 0), 0, "<="), ((0, -1), 0, "<="))
    seg_h = H(2, ((0, 1), 0, "<="), ((0, -1), 0, "<="), ((-1, 0), 0, "<="))
    assert union_equal(region, union_of(2, [seg_v, seg_h]))
    assert all(poly_dim(p) == 1 for p in region.pieces)


def test_halfplane_outer_positive_orthant():
    region = sa_outer(HALFPLANE.description, (1, 1))
    expected = union_of(2, [H(2, ((1, 0), 0, "<=")), H(2, ((0, 1), 0, "<="))])
    assert union_equal(region, expected)


def test_outer_whole_space_for_empty_conditions():
    S = conjunction(2, [])
    assert union_equal(sa_outer(S, (1, -1)), whole_space_union(2))


def test_inner_in_outer_scenarios():
    for scen in (CIRCLE, HALFPLANE, CUBIC):
        cloud = sa_sample_trop(scen.description, 1500, CFG, proposal=scen.proposal)
        assert len(cloud) > 0
        assert inner_in_outer(scen.description, cloud) == []


def test_sandwich_circle():
    report = sa_sandwich_check(CIRCLE.description, CFG, attempts=1500,
                               proposal=CIRCLE.proposal)
    assert report.inner_inside_outer
    assert report.flagged_pieces == []
    pos = [p for p in report.pieces if p.sigma == (1, 1)]
    assert pos and all(p.dim == 1 for p in pos)


def test_sandwich_halfplane_witnesses_fat_pieces():
    report = sa_sandwich_check(HALFPLANE.description, CFG, attempts=3000,
                               proposal=HALFPLANE.proposal)
    assert report.ok
    pos = [p for p in report.pieces if p.sigma == (1, 1)]
    assert pos and all(p.full_dimensional and p.witnessed for p in pos)


def test_sandwich_cubic_segment_is_thin():
    report = sa_sandwich_check(CUBIC.description, CFG, attempts=3000,
                               proposal=CUBIC.proposal)
    assert report.ok
    pos = [p for p in report.pieces if p.sigma == (1, 1)]
    dims = sorted(p.dim for p in pos)
    assert 1 in dims and 2 in dims  # the spurious segment and the fat region


def test_sandwich_report_serializes():
    report = sa_sandwich_check(CIRCLE.description, CFG, attempts=400,
                               proposal=CIRCLE.proposal)
    blob = report.to_json_dict()
    assert blob["ok"] and blob["inner_inside_outer"]
    assert all(set(p) >= {"orthant", "dim", "witnessed"} for p in blob["pieces"])
    assert "inner cloud" in report.text()


def test_sandwich_shape_mismatch():
    S = conjunction(1, [SignCondition(parse_polyk("x", nvars=1), "gt")])
    with pytest.raises(ShapeMismatch):
        sa_sandwich_check(S, CFG, attempts=10)


def test_lift_simple():
    F = TropPoly.from_terms(2, [((1, 0), stv(1, 0)), ((0, 0), stv(-1, 0))])
    res = lift_inequality(F, CIRCLE.description, (1, 1), CFG,
                          proposal=CIRCLE.proposal, n_samples=60)
    assert trop_r(res.poly) == F
    assert res.epsilon <= 1
    for p in (res.samples_checked,):
        assert p > 0


def test_lift_no_negative_terms():
    F = TropPoly.from_terms(2, [((0, 0), stv(1, 0))])
    res = lift_inequality(F, CIRCLE.description, (1, 1), CFG)
    assert res.poly == PolyK.from_terms(2, [((0, 0), const(1))])
    assert res.samples_checked == 0


def test_lift_precondition_failure():
    # -1 is never >= 0 on the outer region
    F = TropPoly.from_terms(2, [((0, 0), stv(-1, 0))])
    with pytest.raises(PreconditionFailed):
        lift_inequality(F, CIRCLE.description, (1, 1), CFG)
    with pytest.raises(PreconditionFailed):
        lift_inequality(F, CIRCLE.description, (1, -1), CFG)


def test_finite_basis_circle_point():
    T = union_of(2, [point_polyhedron((0, 0))])
    res = finite_basis(T, CIRCLE.description, (1, 1), CFG,
                       proposal=CIRCLE.proposal, n_samples=60)
    assert union_equal(res.region, T)
    assert len(res.polys) >= 4
    for f in res.polys:
        assert trop_r(f).nvars == 2


def test_finite_basis_whole_orthant():
    T = whole_space_union(2)
    res = finite_basis(T, CIRCLE.description, (1, 1), CFG,
                       proposal=CIRCLE.proposal, n_samples=30)
    assert res.polys == ()
    assert union_equal(res.region, T)


def test_finite_basis_halfspace_one_var():
    S = conjunction(1, [SignCondition(parse_polyk("x - 1", nvars=1), "ge")])

    def proposal(rng):
        c = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        if rng.random() < 0.3:
            return (t_pow(-rng.randint(1, 2), c),)
        return (const(1) + const(c) if rng.random() < 0.5 else const(c),)

    T = union_of(1, [H(1, ((1,), 0, "<="))])
    res = finite_basis(T, S, (1,), CFG, proposal=proposal, n_samples=40)
    assert union_equal(res.region, T)
    assert len(res.polys) == 1
    F = trop_r(res.polys[0])
    assert F == TropPoly.from_terms(1, [((1,), stv(1, 0)), ((0,), stv(-1, 0))])


def test_finite_basis_without_samples_fails_before_pruning(monkeypatch):
    # x <= -1 has no point in the positive orthant, so no sample exists
    S = conjunction(1, [SignCondition(parse_polyk("x + 1", nvars=1), "le")])

    # the whole space leaves nothing to cover and needs no sample
    res = finite_basis(whole_space_union(1), S, (1,), CFG, n_samples=10)
    assert res.polys == ()

    def no_prune(pieces):
        raise AssertionError("the cover was pruned")

    monkeypatch.setattr(semialg, "prune_covered_pieces", no_prune)
    T = union_of(1, [H(1, ((1,), 0, "<="))])
    with pytest.raises(NoEpsilonFound, match="no verification samples of the set were found"):
        finite_basis(T, S, (1,), CFG, n_samples=10)


def test_witness_search_positive_halfline():
    S = conjunction(1, [SignCondition(parse_polyk("x", nvars=1), "gt")])
    w = witness_search(S, (stv(1, 5),), 100, CFG)
    assert w is not None
    assert sa_member(S, w)
    assert trop_point(w) == (stv(1, 5),)


def test_witness_search_circle():
    z = (stv(1, 0), stv(1, 0))
    w = witness_search(CIRCLE.description, z, 3000, CFG)
    assert w is not None and trop_point(w) == z


def test_witness_excluded_by_outer():
    z = (stv(1, 1), stv(1, 1))
    assert outer_excludes(CIRCLE.description, z)
    assert witness_search(CIRCLE.description, z, 300, CFG) is None


def test_witness_absent_on_outer_segment():
    # on the outer segment but not in the tropicalization: search fails,
    # and the failure is inconclusive by the outer region alone
    z = (stv(1, 1), stv(1, 0))
    assert not outer_excludes(CIRCLE.description, z)
    assert witness_search(CIRCLE.description, z, 500, CFG) is None


def test_sa_outer_matches_direct_evaluation():
    # differential oracle: region membership == DNF of exact tropical checks
    import random

    from tropreal.errors import NegativeExponentAtZero
    from tropreal.polyhedra import embed_point, orthant_support
    from tropreal.puiseux import ps_sample
    from tropreal.troppoly import trop_sat

    def holds(cond, z):
        # a condition undefined at z does not hold there
        try:
            return trop_sat(trop_r(cond.poly), z, cond.rel)
        except NegativeExponentAtZero:
            return False

    rng = random.Random(777)
    cfg = SamplerConfig(max_terms=2, exponent_denominator_bound=2, seed=1)
    rels = ["gt", "ge", "eq", "le", "lt", "ne"]

    def rand_poly(nvars):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(-2, 3) for _ in range(nvars))
            terms[exps] = ps_sample(cfg, rng)
        f = PolyK.from_terms(nvars, list(terms.items()))
        return f if not f.is_zero() else PolyK.const(nvars, PuiseuxSeries.one())

    for _ in range(40):
        nvars = rng.randint(1, 2)
        S = SADescription(
            nvars,
            tuple(
                tuple(
                    SignCondition(rand_poly(nvars), rng.choice(rels))
                    for _ in range(rng.randint(0, 3))
                )
                for _ in range(rng.randint(1, 2))
            ),
        )
        sigma = tuple(rng.choice([-1, 0, 1]) for _ in range(nvars))
        region = sa_outer(S, sigma)
        m = len(orthant_support(sigma))
        for _ in range(20):
            V = tuple(F2(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(m))
            z = embed_point(sigma, V)
            direct = any(all(holds(c, z) for c in disj) for disj in S.disjuncts)
            assert region.contains(V) == direct


@pytest.mark.parametrize("order", [0, 1])
def test_undefined_disjunct_leaves_the_others(order):
    # S = {y > 0} OR {x^-1 y >= 0}: at x = 0 only the second disjunct is undefined
    first = (SignCondition(parse_polyk("y", nvars=2), "gt"),)
    laurent = (SignCondition(parse_polyk("x^(-1)*y", nvars=2), "ge"),)
    disjuncts = (first, laurent) if order == 0 else (laurent, first)
    S = SADescription(2, disjuncts)
    p = (PuiseuxSeries.zero(), const(1))
    assert sa_member(S, p)
    assert sa_outer_all(S)[(0, 1)].contains((F2(0),))
    cloud = SampleCloud(S)
    assert cloud.add_candidate(p)
    assert inner_in_outer(S, cloud) == []
    # on its own, the Laurent condition holds nowhere on orthant (0,+)
    assert not sa_member(SADescription(2, (laurent,)), p)
    assert sa_outer_all(conjunction(2, laurent + first))[(0, 1)].pieces == ()


def test_connectivity_of_scenarios():
    for scen in (CIRCLE, HALFPLANE, CUBIC):
        regions = sa_outer_all(scen.description)
        assert adjacency_connected(regions), scen.name


def test_cubic_outer_has_isolated_point_piece():
    regions = sa_outer_all(CUBIC.description)
    iso = regions[(0, 1)]
    assert union_equal(iso, union_of(1, [point_polyhedron((0,))]))


def test_vertex_parameter():
    assert vertex_parameter(F2(-2)) == stv(1, 0)
    assert vertex_parameter(F2(-1, 2)) == stv(-1, 0)
    with pytest.raises(ZeroDivisionError):
        vertex_parameter(F2(-1))


def _rationals(bound, max_denominator):
    return st.builds(
        Fraction,
        st.integers(-bound * max_denominator, bound * max_denominator),
        st.integers(1, max_denominator),
    )


_SERIES = st.lists(
    st.tuples(_rationals(2, 2), _rationals(3, 2)), min_size=1, max_size=2
).map(PuiseuxSeries.from_terms)


@st.composite
def description_and_points(draw):
    """1 to 3 disjuncts of Laurent conditions, and points with zero coordinates."""
    nvars = draw(st.integers(1, 2))
    coords = st.one_of(st.just(PuiseuxSeries.zero()), _SERIES)

    def condition():
        terms = st.tuples(st.tuples(*[st.integers(-2, 2)] * nvars), _SERIES)
        f = PolyK.from_terms(nvars, draw(st.lists(terms, min_size=1, max_size=4)))
        if f.is_zero():
            f = PolyK.const(nvars, const(1))
        return SignCondition(f, draw(st.sampled_from(["gt", "ge", "eq", "le", "lt", "ne"])))

    S = SADescription(nvars, tuple(
        tuple(condition() for _ in range(draw(st.integers(1, 3))))
        for _ in range(draw(st.integers(1, 3)))
    ))
    return S, draw(st.lists(st.tuples(*[coords] * nvars), min_size=1, max_size=6))


@settings(max_examples=100, deadline=None)
@given(description_and_points())
def test_sa_member_matches_dnf_of_conditions(case):
    S, points = case
    for p in points:
        expected = any(all(cond.holds_at(p) for cond in disj) for disj in S.disjuncts)
        assert sa_member(S, p) == expected
        assert sa_member(S, list(p)) == expected
        for disj in S.disjuncts:
            for cond in disj:
                kernel = cond.poly._lead_kernel
                try:
                    at_trop = kernel.score_at(trop_point(p))
                except NegativeExponentAtZero:
                    continue  # undefined at p: the condition does not hold
                assert kernel.score_leading(p) == at_trop


# -- the default candidate loop against the plain rejection loop ---------------

# Coefficients whose leading terms come from a tiny grid, so that dominant
# terms of conditions often tie at the sampled points.
_TINY_SERIES = st.lists(
    st.tuples(st.sampled_from([F2(-1), F2(0), F2(1, 2), F2(1)]), st.integers(-3, 3)),
    min_size=1, max_size=2,
).map(PuiseuxSeries.from_terms)

_EXPONENT_WINDOWS = [
    (F2(-2), F2(2)), (F2(0), F2(2)), (F2(-1), F2(0)), (F2(0), F2(0)),
    (F2(-1, 2), F2(1, 2)), (F2(1, 5), F2(1, 4)),  # no multiple of 1/2: the fallback
]
_COEFF_WINDOWS = [
    (F2(-4), F2(4)), (F2(0), F2(3)), (F2(-3), F2(0)), (F2(-1), F2(1)), (F2(1, 5), F2(1, 4)),
]


@st.composite
def sampled_descriptions(draw):
    """A description with 1 to 3 disjuncts of Laurent conditions, and a sampler config."""
    nvars = draw(st.integers(1, 3))

    def condition():
        terms = st.tuples(st.tuples(*[st.integers(-1, 2)] * nvars), _TINY_SERIES)
        f = PolyK.from_terms(nvars, draw(st.lists(terms, min_size=1, max_size=4)))
        if f.is_zero():
            f = PolyK.const(nvars, const(1))
        return SignCondition(f, draw(st.sampled_from(["gt", "ge", "eq", "le", "lt", "ne"])))

    S = SADescription(nvars, tuple(
        tuple(condition() for _ in range(draw(st.integers(1, 3))))
        for _ in range(draw(st.integers(1, 3)))
    ))
    cfg = SamplerConfig(
        max_terms=draw(st.integers(1, 4)),
        exponent_denominator_bound=draw(st.integers(1, 5)),
        exponent_range=draw(st.sampled_from(_EXPONENT_WINDOWS)),
        coeff_range=draw(st.sampled_from(_COEFF_WINDOWS)),
        seed=draw(st.integers(0, 2**32)),
    )
    return S, cfg


def _plain_vectors(S, cfg, rng, budget):
    """The vectors of the loop the candidate filter replaces, every one built.

    They come from the randint sampler that ps_sample replaced, so that a
    fault shared by ps_draw and the candidate filter still shows.
    """
    return [_reference_vector(rng, cfg, S.nvars, 0.1) for _ in range(budget)]


@settings(max_examples=200, deadline=None)
@given(sampled_descriptions())
def test_candidate_filter_matches_the_plain_rejection_loop(case):
    S, cfg = case
    rng, ref = random.Random(cfg.seed), random.Random(cfg.seed)
    candidates = _outcome(lambda: list(_candidates(S, cfg, rng, 80)))
    vectors = _outcome(_plain_vectors, S, cfg, ref, 80)
    assert rng.getstate() == ref.getstate()
    if isinstance(vectors, str):  # an empty grid: both raise at the same draw
        assert candidates == vectors
        return
    # the candidates are the plain loop's vectors, in order, minus some
    # non-members: the same points, and every member among them
    rest = iter(vectors)
    assert all(any(c == v for v in rest) for c in candidates)
    members = [p for p in vectors if sa_member(S, p)]
    assert [p for p in candidates if sa_member(S, p)] == members


def _plain_cloud(S, cfg, count):
    """The loop sa_sample_trop ran before the candidate filter."""
    rng = random.Random(cfg.seed)
    cloud = SampleCloud(S)
    for _ in range(count):
        cloud.add_candidate(_reference_vector(rng, cfg, S.nvars, 0.1))
    return list(cloud.items())


def _plain_collect(S, cfg, n, sigma, budget):
    """The loop collect_samples ran before the candidate filter."""
    rng = random.Random(cfg.seed)
    out = []
    for _ in range(budget):
        if len(out) >= n:
            break
        p = _reference_vector(rng, cfg, S.nvars, 0.1)
        if not sa_member(S, p):
            continue
        if sigma is not None and point_orthant(trop_point(p)) != sigma:
            continue
        out.append(p)
    return out


@settings(max_examples=60, deadline=None)
@given(sampled_descriptions(), st.integers(0, 4), st.booleans())
def test_sampling_entry_points_match_the_plain_loops(case, n, in_orthant):
    S, cfg = case
    expected = _outcome(lambda: _plain_cloud(S, cfg, 60))
    got = _outcome(lambda: list(sa_sample_trop(S, 60, cfg).items()))
    assert got == expected
    sigma = (1,) * S.nvars if in_orthant else None
    expected = _outcome(lambda: _plain_collect(S, cfg, n, sigma, 60))
    got = _outcome(lambda: collect_samples(S, cfg, n, sigma=sigma, max_attempts=60))
    assert got == expected
