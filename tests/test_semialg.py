"""Inner clouds, outer regions, sandwich, lifting, bases, witnesses."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_puiseux import _reference_lead, _reference_tail
from test_troppoly import _ZERO_INITIAL_FORM, _cleared, _reference_trop_eval

from tropreal import iojson, puiseux, semialg
from tropreal.errors import (
    NegativeExponentAtZero,
    NoEpsilonFound,
    PreconditionFailed,
    ShapeMismatch,
)
from tropreal.hyperfields import SATISFIED_BY, Balanced, hv_relation, stv
from tropreal.parsing import parse_polyk
from tropreal.polyhedra import (
    _outcome_conjunction,
    all_orthants,
    constraint,
    Polyhedron,
    PolyUnion,
    orthant_support,
    point_polyhedron,
    poly_dim,
    poly_is_empty,
    trop_conjunction,
    union_equal,
    union_of,
    union_prune,
    whole_space_union,
)
from tropreal.puiseux import (
    PS_ZERO, PuiseuxSeries, SamplerConfig, ps_build, ps_draw_tail, ps_lead_stream, ps_pin,
    ps_sample,
)
from tropreal.scenarios import get_scenario, vertex_parameter
from tropreal.semialg import (
    SADescription,
    SampleCloud,
    SignCondition,
    _candidates,
    _touches,
    adjacency_connected,
    collect_samples,
    conjunction,
    finite_basis,
    lift_inequality,
    outer_contains_point,
    point_orthant,
    point_valuations,
    sa_member,
    sa_outer,
    sa_outer_all,
    sa_sample_trop,
    sa_sandwich_check,
    witness_search,
)
from tropreal.troppoly import (
    PolyK, TropPoly, _SignKernel, _ValKernel, eval_k, laurent_sign, series_draws, trop_point,
    trop_r,
)

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


def test_circle_cloud_is_single_point():
    cloud = sa_sample_trop(CIRCLE.description, 2000, CFG, proposal=CIRCLE.proposal)
    assert len(cloud) >= 1
    assert cloud.points() == {(stv(1, 0), stv(1, 0))}
    for z, w in cloud.items():
        assert sa_member(CIRCLE.description, w) and trop_point(w) == z


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


def test_outer_regions_decide_each_piece_once(monkeypatch):
    # a conjunction starts from its first region, whose pieces are nonempty
    # already, and one disjunct's region is returned as it is, so no piece is
    # decided twice: 144 eliminations over the five scenarios with cold memos.
    # The connectivity walk takes those pieces as nonempty and decides no
    # piece's emptiness again.
    import tropreal.polyhedra as polyhedra

    calls = []
    feasible = polyhedra._feasible
    monkeypatch.setattr(polyhedra, "_feasible", lambda rows, n: calls.append(n) or feasible(rows, n))
    with_walk = {"circle": 10, "cubic": 9, "halfplane": 6, "intersection_tight": 121,
                 "intersection_wide": 23}
    outer_calls = 0
    for name, bound in with_walk.items():
        polyhedra._orthant_table.cache_clear()
        polyhedra._rows_empty.cache_clear()
        calls.clear()
        regions = sa_outer_all(get_scenario(name).description)
        outer_calls += len(calls)
        assert adjacency_connected(regions) == (not name.startswith("intersection")), name
        assert len(calls) <= bound, (name, len(calls))
    assert outer_calls <= 144


def _outside_outer_regions(S, cloud):
    """The cloud points that the polyhedral outer region of their orthant
    leaves out: the reference the point test and the sampler are held to."""
    regions = {}
    out = []
    for z in cloud.points():
        sigma = point_orthant(z)
        if sigma not in regions:
            regions[sigma] = sa_outer(S, sigma)
        if not regions[sigma].contains(point_valuations(z)):
            out.append(z)
    return out


def test_inner_in_outer_scenarios():
    for scen in (CIRCLE, HALFPLANE, CUBIC):
        cloud = sa_sample_trop(scen.description, 1500, CFG, proposal=scen.proposal)
        assert len(cloud) > 0
        assert _outside_outer_regions(scen.description, cloud) == []


def test_sandwich_circle():
    report = sa_sandwich_check(
        sa_sample_trop(CIRCLE.description, 1500, CFG, proposal=CIRCLE.proposal)
    )
    assert report.inner_inside_outer
    assert report.flagged_pieces == []
    pos = [p for p in report.pieces if p.sigma == (1, 1)]
    assert pos and all(p.dim == 1 for p in pos)


def test_sandwich_halfplane_witnesses_fat_pieces():
    report = sa_sandwich_check(
        sa_sample_trop(HALFPLANE.description, 3000, CFG, proposal=HALFPLANE.proposal)
    )
    assert report.ok
    pos = [p for p in report.pieces if p.sigma == (1, 1)]
    assert pos and all(p.full_dimensional and p.witnessed for p in pos)


def test_sandwich_cubic_segment_is_thin():
    report = sa_sandwich_check(
        sa_sample_trop(CUBIC.description, 3000, CFG, proposal=CUBIC.proposal)
    )
    assert report.ok
    pos = [p for p in report.pieces if p.sigma == (1, 1)]
    dims = sorted(p.dim for p in pos)
    assert 1 in dims and 2 in dims  # the spurious segment and the fat region


def test_sandwich_report_serializes():
    report = sa_sandwich_check(
        sa_sample_trop(CIRCLE.description, 400, CFG, proposal=CIRCLE.proposal)
    )
    assert report.ok and report.inner_inside_outer
    assert "inner cloud" in report.text()


def test_sandwich_takes_an_equation_as_written():
    f = CIRCLE.description.disjuncts[0][0].poly
    S = conjunction(2, [SignCondition(f, "eq")])
    report = sa_sandwich_check(sa_sample_trop(S, 300, CFG, proposal=CIRCLE.proposal))
    regions = sa_outer_all(S)
    assert [(p.sigma, p.index, p.dim) for p in report.pieces] == [
        (sigma, i, poly_dim(piece))
        for sigma, region in regions.items()
        for i, piece in enumerate(region.pieces)
    ]
    # the ties of f = 0 cover what f <= 0 and -f <= 0 cover together
    both = sa_outer_all(conjunction(2, [SignCondition(f, "le"), SignCondition(-f, "le")]))
    assert all(union_equal(regions[sigma], both[sigma]) for sigma in regions)


def test_sandwich_shape_mismatch(monkeypatch):
    # the shape is the description's: refused before the outer region is built
    def no_outer(S):
        raise AssertionError("the outer region was built")

    monkeypatch.setattr(semialg, "sa_outer_all", no_outer)
    x = parse_polyk("x", nvars=1)
    strict = conjunction(1, [SignCondition(x, "gt")])
    two = SADescription(1, ((SignCondition(x, "ge"),), (SignCondition(-x, "ge"),)))
    for S, message in [(strict, "relation gt is not a weak inequality"),
                       (two, "need a single conjunction")]:
        with pytest.raises(ShapeMismatch, match=message):
            sa_sandwich_check(SampleCloud(S))


def test_sandwich_builds_each_orthant_once(monkeypatch):
    # the containment and the coverage check read one outer region
    cloud = sa_sample_trop(HALFPLANE.description, 3000, CFG, proposal=HALFPLANE.proposal)
    calls = []
    outer = semialg.sa_outer
    monkeypatch.setattr(semialg, "sa_outer", lambda S, sigma: calls.append(sigma) or outer(S, sigma))
    report = sa_sandwich_check(cloud)
    assert sorted(calls) == sorted(all_orthants(2))
    assert report.ok and report.inner_count == len(cloud)


def test_lift_simple():
    F = TropPoly.from_terms(2, [((1, 0), stv(1, 0)), ((0, 0), stv(-1, 0))])
    samples = collect_samples(CIRCLE.description, CFG, 60, sigma=(1, 1),
                              proposal=CIRCLE.proposal)
    res = lift_inequality(F, CIRCLE.description, samples)
    assert trop_r(res.poly) == F
    assert res.epsilon <= 1
    for p in (res.samples_checked,):
        assert p > 0


def test_lift_no_negative_terms():
    F = TropPoly.from_terms(2, [((0, 0), stv(1, 0))])
    res = lift_inequality(F, CIRCLE.description, [])
    assert res.poly == PolyK.from_terms(2, [((0, 0), const(1))])
    assert res.samples_checked == 0


def test_lift_precondition_failure():
    # -1 is never >= 0 on the outer region, nor at any sampled point
    F = TropPoly.from_terms(2, [((0, 0), stv(-1, 0))])
    samples = collect_samples(CIRCLE.description, CFG, 60, sigma=(1, 1),
                              proposal=CIRCLE.proposal)
    with pytest.raises(PreconditionFailed):
        lift_inequality(F, CIRCLE.description, samples)


# the four polynomials that finite_basis(..., proposal=CIRCLE.proposal,
# n_samples=60) returned when it still took a proposal
_CIRCLE_POINT_BASIS = (
    '[{"nvars":2,"terms":[{"coeff":{"terms":[{"coeff":"-1","exp":"0"}]},"exps":[0,0]},'
    '{"coeff":{"terms":[{"coeff":"1","exp":"0"}]},"exps":[1,0]}]},'
    '{"nvars":2,"terms":[{"coeff":{"terms":[{"coeff":"1","exp":"0"}]},"exps":[-1,0]},'
    '{"coeff":{"terms":[{"coeff":"-1/3","exp":"0"}]},"exps":[0,0]}]},'
    '{"nvars":2,"terms":[{"coeff":{"terms":[{"coeff":"-1","exp":"0"}]},"exps":[0,0]},'
    '{"coeff":{"terms":[{"coeff":"1","exp":"0"}]},"exps":[0,1]}]},'
    '{"nvars":2,"terms":[{"coeff":{"terms":[{"coeff":"1","exp":"0"}]},"exps":[0,-1]},'
    '{"coeff":{"terms":[{"coeff":"-1/3","exp":"0"}]},"exps":[0,0]}]}]'
)


def test_finite_basis_circle_point():
    T = union_of(2, [point_polyhedron((0, 0))])
    samples = collect_samples(CIRCLE.description, CFG, 60, sigma=(1, 1),
                              proposal=CIRCLE.proposal)
    res = finite_basis(T, CIRCLE.description, samples)
    assert union_equal(res.region, T)
    assert len(res.polys) >= 4
    for f in res.polys:
        assert trop_r(f).nvars == 2
    got = [iojson.polyk_to_json(f) for f in res.polys]
    assert json.dumps(got, sort_keys=True, separators=(",", ":")) == _CIRCLE_POINT_BASIS


def test_finite_basis_whole_orthant():
    T = whole_space_union(2)
    samples = collect_samples(CIRCLE.description, CFG, 30, sigma=(1, 1),
                              proposal=CIRCLE.proposal)
    res = finite_basis(T, CIRCLE.description, samples)
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
    samples = collect_samples(S, CFG, 40, sigma=(1,), proposal=proposal)
    res = finite_basis(T, S, samples)
    assert union_equal(res.region, T)
    assert len(res.polys) == 1
    F = trop_r(res.polys[0])
    assert F == TropPoly.from_terms(1, [((1,), stv(1, 0)), ((0,), stv(-1, 0))])


def test_finite_basis_without_samples_fails_before_pruning(monkeypatch):
    # x <= -1 has no point in the positive orthant, so no sample exists
    S = conjunction(1, [SignCondition(parse_polyk("x + 1", nvars=1), "le")])
    samples = collect_samples(S, CFG, 10, sigma=(1,))
    assert samples == []

    # the whole space leaves nothing to cover and needs no sample
    res = finite_basis(whole_space_union(1), S, samples)
    assert res.polys == ()

    def no_prune(pieces):
        raise AssertionError("the cover was pruned")

    monkeypatch.setattr(semialg, "prune_covered_pieces", no_prune)
    T = union_of(1, [H(1, ((1,), 0, "<="))])
    with pytest.raises(NoEpsilonFound, match="no verification samples of the set were found"):
        finite_basis(T, S, samples)


@pytest.mark.parametrize("point", [(1, 1), (0, 1)])
def test_finite_basis_refuses_a_target_that_misses_a_sample(monkeypatch, point):
    # the circle's samples in the positive orthant tropicalize to (0, 0);
    # the target check refuses a target without it before the complement
    # is built, and names the target, not a lift that fails later
    samples = collect_samples(CIRCLE.description, SamplerConfig(seed=2), 40, sigma=(1, 1))
    assert samples

    def no_complement(T):
        raise AssertionError("the complement was built")

    monkeypatch.setattr(semialg, "complement_of_union", no_complement)
    T = union_of(2, [point_polyhedron(point)])
    with pytest.raises(PreconditionFailed) as exc:
        finite_basis(T, CIRCLE.description, samples)
    assert str(exc.value) == "the target does not contain the sampled tropicalization"


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
    assert not outer_contains_point(CIRCLE.description, z)
    assert witness_search(CIRCLE.description, z, 300, CFG) is None


def test_witness_absent_on_outer_segment():
    # on the outer segment but not in the tropicalization: search fails,
    # and the failure is inconclusive by the outer region alone
    z = (stv(1, 1), stv(1, 0))
    assert outer_contains_point(CIRCLE.description, z)
    assert witness_search(CIRCLE.description, z, 500, CFG) is None


def test_sa_outer_matches_direct_evaluation():
    # differential oracle: region membership == DNF of exact tropical checks
    import random

    from tropreal.errors import NegativeExponentAtZero
    from tropreal.polyhedra import embed_point, orthant_support
    from tropreal.puiseux import ps_sample
    from tropreal.troppoly import trop_eval, trop_sat

    def holds(cond, z):
        # a condition undefined at z does not hold there; one whose dominant
        # terms tie with opposite signs may hold, whatever its relation
        F = trop_r(cond.poly)
        try:
            return trop_sat(F, z, cond.rel) or isinstance(trop_eval(F, z), Balanced)
        except NegativeExponentAtZero:
            return False

    rng = random.Random(777)
    cfg = SamplerConfig(seed=1)
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
    assert _outside_outer_regions(S, cloud) == []
    # on its own, the Laurent condition holds nowhere on orthant (0,+)
    assert not sa_member(SADescription(2, (laurent,)), p)
    assert sa_outer_all(conjunction(2, laurent + first))[(0, 1)].pieces == ()


# -- the outer region and its connectivity against the plain constructions -----


def _connected_all_pairs(regions):
    """Reference: every edge between nonempty pieces, then a search of the graph."""
    pieces = [
        (piece, sigma)
        for sigma in sorted(regions)
        for piece in regions[sigma].pieces
        if not poly_is_empty(piece)
    ]
    if len(pieces) <= 1:
        return True
    adj = {i: set() for i in range(len(pieces))}
    for i, j in itertools.combinations(range(len(pieces)), 2):
        if _touches(*pieces[i], *pieces[j]):
            adj[i].add(j)
            adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for nxt in adj[stack.pop()] - seen:
            seen.add(nxt)
            stack.append(nxt)
    return len(seen) == len(pieces)


def _split_ne(S):
    """S with every != condition replaced by the two strict alternatives."""
    out = []
    for disj in S.disjuncts:
        expanded = [[]]
        for cond in disj:
            rels = ("gt", "lt") if cond.rel == "ne" else (cond.rel,)
            expanded = [e + [SignCondition(cond.poly, r)] for e in expanded for r in rels]
        out.extend(tuple(e) for e in expanded)
    return SADescription(S.nvars, tuple(out))


def _sa_outer_per_disjunct(S, sigma):
    """Reference: tropicalize each condition afresh, as written, with a
    balanced sum admitted, and prune the union after every disjunct."""
    m = len(orthant_support(sigma))
    out = PolyUnion(m, ())
    for disj in S.disjuncts:
        fresh = [
            (TropPoly.from_terms(S.nvars, ((e, c.signed_trop()) for e, c in cond.poly.terms)),
             SATISFIED_BY[cond.rel] | {None})
            for cond in disj
        ]
        out = union_prune(PolyUnion(m, out.pieces + _outcome_conjunction(fresh, sigma).pieces))
    return out


def _random_description(rng, nvars):
    """2 or 3 disjuncts of 1 or 2 conditions, with negative exponents and many !=."""
    cfg = SamplerConfig(seed=1)

    def poly():
        terms = {
            tuple(rng.randint(-1, 2) for _ in range(nvars)): ps_sample(cfg, rng)
            for _ in range(rng.randint(1, 3))
        }
        f = PolyK.from_terms(nvars, list(terms.items()))
        return f if not f.is_zero() else PolyK.const(nvars, PuiseuxSeries.one())

    rels = ["ne", "ne", "gt", "ge", "eq", "le", "lt"]
    return SADescription(nvars, tuple(
        tuple(SignCondition(poly(), rng.choice(rels)) for _ in range(rng.randint(1, 2)))
        for _ in range(rng.randint(2, 3))
    ))


def test_connectivity_of_scenarios():
    # the intersection families' outer pieces fall apart; the others hang together
    for name in ("circle", "halfplane", "cubic", "intersection_tight", "intersection_wide"):
        regions = sa_outer_all(get_scenario(name).description)
        connected = adjacency_connected(regions)
        assert connected == _connected_all_pairs(regions), name
        assert connected == (not name.startswith("intersection")), name


def test_connectivity_walk_matches_all_pairs_on_random_descriptions():
    rng = random.Random(2511)
    answers = []
    for k in range(60):
        regions = sa_outer_all(_random_description(rng, 1 + k % 3))
        answers.append(adjacency_connected(regions))
        assert answers[-1] == _connected_all_pairs(regions), k
    assert 5 <= sum(answers) <= 55  # both answers occur


def test_connectivity_of_no_piece_and_of_one_piece():
    assert adjacency_connected({})
    assert adjacency_connected({(1,): PolyUnion(1, ())})
    one = {(1, 1): union_of(2, [point_polyhedron((0, 0))]), (0, 1): PolyUnion(1, ())}
    assert adjacency_connected(one)
    assert _connected_all_pairs({}) and _connected_all_pairs(one)


def test_sa_outer_matches_a_prune_per_disjunct():
    rng = random.Random(2512)
    for k in range(60):
        S = _random_description(rng, 1 + k % 3)
        regions = sa_outer_all(S)
        split = sa_outer_all(_split_ne(S))
        for sigma, region in regions.items():
            assert region.pieces == _sa_outer_per_disjunct(S, sigma).pieces, (k, sigma)
            # a != as written covers what its two strict alternatives cover
            assert union_equal(region, split[sigma]), (k, sigma)


def _laurent_union():
    """x^(-1)*y - 1 > 0 and x - y != 0, or x + y - 1 <= 0."""
    c = lambda text, rel: SignCondition(parse_polyk(text, 2), rel)
    return SADescription(2, ((c("x^(-1)*y - 1", "gt"), c("x - y", "ne")),
                             (c("x + y - 1", "le"),)))


def test_outer_bound_holds_a_member_where_a_strict_condition_is_balanced():
    S = _laurent_union()
    # x^(-1)*y - 1 = 1/2 + ... > 0 although its two terms tie at valuation 0
    w = (PuiseuxSeries.from_terms([(-1, 2), (0, -3)]), PuiseuxSeries.from_terms([(-1, 3)]))
    z = trop_point(w)
    assert sa_member(S, w) and z == (stv(1, -1), stv(1, -1))
    assert outer_contains_point(S, z)
    cloud = SampleCloud(S)
    assert cloud.add_candidate(w)
    assert _outside_outer_regions(S, cloud) == []
    # the region of the strict condition itself stays strict
    F = trop_r(S.disjuncts[0][0].poly)
    assert not trop_conjunction([(F, "gt")], (1, 1)).contains((F2(-1), F2(-1)))


def test_outer_bound_holds_every_sampled_member_of_random_descriptions():
    rng = random.Random(77)
    for k in range(120):
        S = _random_description(rng, 1 + k % 3)
        cloud = sa_sample_trop(S, 300, SamplerConfig(seed=k))
        assert _outside_outer_regions(S, cloud) == [], k


def _random_tropical_point(rng, nvars):
    """Signs with a fifth of zero coordinates, valuations from a small grid
    so that dominant terms often tie."""
    return tuple(
        stv(0, "inf") if rng.random() < 0.2
        else stv(rng.choice((-1, 1)), F2(rng.randint(-4, 4), rng.randint(1, 2)))
        for _ in range(nvars)
    )


def test_point_test_is_membership_in_the_outer_region():
    # the region of the point's orthant is the reference; its pieces are
    # nonempty, as the piece readers take them
    rng = random.Random(5)
    for k in range(120):
        S = _random_description(rng, 1 + k % 3)
        regions = {}
        for _ in range(30):
            z = _random_tropical_point(rng, S.nvars)
            sigma = point_orthant(z)
            if sigma not in regions:
                regions[sigma] = sa_outer(S, sigma)
                assert not any(poly_is_empty(p) for p in regions[sigma].pieces), (k, sigma)
            inside = regions[sigma].contains(point_valuations(z))
            assert outer_contains_point(S, z) == inside, (k, z)


def test_point_queries_build_no_region(monkeypatch):
    import tropreal.polyhedra as polyhedra

    points = [(stv(1, 0), stv(1, 0)), (stv(1, 1), stv(1, 1)), CUBIC.params["segment_probe"],
              (stv(0, "inf"), stv(1, 0)), (stv(-1, -2), stv(1, 1)), (stv(1, -2), stv(1, -2))]
    cases = [
        (scen.description, z, sa_outer(scen.description, point_orthant(z)).contains(point_valuations(z)))
        for scen in (CIRCLE, HALFPLANE, CUBIC)
        for z in points
    ]
    assert {inside for _, _, inside in cases} == {True, False}

    def no_elimination(rows, n):
        raise AssertionError("a point query ran an elimination")

    polyhedra._orthant_table.cache_clear()
    polyhedra._rows_empty.cache_clear()
    monkeypatch.setattr(polyhedra, "_feasible", no_elimination)
    for S, z, inside in cases:
        assert outer_contains_point(S, z) == inside


def test_one_shadow_and_one_kernel_per_polynomial(monkeypatch):
    f = parse_polyk("x^(-1)*y - t*x + 2", nvars=2)
    F = trop_r(f)
    assert trop_r(f) is F
    S = SADescription(2, ((SignCondition(f, "ne"),), (SignCondition(f, "ge"),)))
    scored = []
    original = _ValKernel.outcome_at

    def spy(self, *args):
        scored.append(self)
        return original(self, *args)

    monkeypatch.setattr(_ValKernel, "outcome_at", spy)
    # the exact sign reads the polynomial's own integer form, not its shadow
    laurent_sign(f, (const(2), const(3)))
    laurent_sign(f, (const(2), PuiseuxSeries.from_terms([(0, -4), (1, 1)])))  # balanced
    assert not scored
    # the sampler's point test and the outer region tropicalize each
    # condition as written, once
    calls = []
    monkeypatch.setattr(semialg, "trop_r", lambda f: calls.append(f) or trop_r(f))
    list(_candidates(S, random.Random(1), 30))
    assert scored
    assert all(kernel is F._val_kernel for kernel in scored)
    sa_outer_all(S)
    assert calls == [f, f]
    assert all(G is F for conds in S._outer_conditions for G, _ in conds)


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
                kernel = trop_r(cond.poly)._val_kernel
                try:
                    outcome = kernel.outcome_at(trop_point(p))
                except NegativeExponentAtZero:
                    continue  # undefined at p: the condition does not hold
                if outcome is not None:
                    # dominant terms of one sign decide the exact sign
                    assert laurent_sign(cond.poly, p) == outcome


# -- the default candidate loop against the plain rejection loop ---------------

# Coefficients whose leading terms come from a tiny grid, so that dominant
# terms of conditions often tie at the sampled points.
_TINY_SERIES = st.lists(
    st.tuples(st.sampled_from([F2(-1), F2(0), F2(1, 2), F2(1)]), st.integers(-3, 3)),
    min_size=1, max_size=2,
).map(PuiseuxSeries.from_terms)

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
    return S, SamplerConfig(seed=draw(st.integers(0, 2**32)))


def _plain_lead_decision(S, leads):
    """Whether some disjunct survives at the leads' signed values.

    Decided by term-by-term hyperfield evaluation: a condition fails where
    it is undefined, or where its value is a point whose sign the relation
    rejects; a balanced value may hold.
    """
    z = tuple(
        stv(0, "inf") if lead is None else stv(1 if lead[1] > 0 else -1, lead[0])
        for lead in leads
    )
    for disj in S.disjuncts:
        for cond in disj:
            try:
                value = _reference_trop_eval(trop_r(cond.poly), z)
            except NegativeExponentAtZero:
                break
            if not isinstance(value, Balanced) and not hv_relation(value, cond.rel):
                break
        else:
            return True
    return False


def _plain_draws(S, rng, budget):
    """The default candidate loop written plainly, as (kept, vector) pairs.

    Per candidate, the zero flags and leads of the randint reference
    sampler, a decision on the leads with no memo, and then the tails, in
    coordinate order.  A dropped candidate's tails are drawn from a copy
    of rng, so that its vector can be tested but rng draws what the
    candidate filter draws.
    """
    for _ in range(budget):
        leads = [
            None if rng.random() < 0.1 else _reference_lead(rng) for _ in range(S.nvars)
        ]
        kept = _plain_lead_decision(S, leads)
        source = rng
        if not kept:
            source = random.Random()
            source.setstate(rng.getstate())
        yield kept, tuple(
            PS_ZERO if lead is None
            else PuiseuxSeries((lead, *_reference_tail(source, lead[0])))
            for lead in leads
        )


@settings(max_examples=200, deadline=None)
@given(sampled_descriptions())
def test_candidate_filter_matches_the_plain_rejection_loop(case):
    S, cfg = case
    rng, ref = random.Random(cfg.seed), random.Random(cfg.seed)
    candidates = list(_candidates(S, rng, 80))
    draws = list(_plain_draws(S, ref, 80))
    assert rng.getstate() == ref.getstate()
    # the members among the kept candidates, in order; and no dropped one is in S
    assert candidates == [p for kept, p in draws if kept and sa_member(S, p)]
    assert not any(sa_member(S, p) for kept, p in draws if not kept)


def test_candidate_filter_past_its_memo_bound_matches_the_plain_rejection_loop():
    # four variables give 19**4 lead keys, so 5,000 candidates draw more
    # distinct keys than the memo keeps, and the later ones are decided
    # each time they come
    S = conjunction(4, [
        SignCondition(parse_polyk("x1*x2 - x3*x4 - 1", nvars=4), "ge"),
        SignCondition(parse_polyk("x1 - x3", nvars=4), "gt"),
    ])
    rng, ref = random.Random(0), random.Random(0)
    candidates = list(_candidates(S, rng, 5000))
    draws = list(_plain_draws(S, ref, 5000))
    assert len({trop_point(p) for _, p in draws}) > semialg._DECIDED_BOUND
    assert rng.getstate() == ref.getstate()
    expected = [p for kept, p in draws if kept and sa_member(S, p)]
    assert 0 < len(expected) < sum(kept for kept, _ in draws)
    assert candidates == expected


def _plain_cloud(S, cfg, count):
    """The loop sa_sample_trop runs, written plainly."""
    rng = random.Random(cfg.seed)
    cloud = SampleCloud(S)
    for kept, p in _plain_draws(S, rng, count):
        if kept:
            cloud.add_candidate(p)
    return list(cloud.items())


def _plain_collect(S, cfg, n, sigma, budget):
    """The loop collect_samples runs, written plainly."""
    rng = random.Random(cfg.seed)
    out = []
    draws = _plain_draws(S, rng, budget)
    while len(out) < n:
        kept, p = next(draws, (None, None))
        if kept is None:
            break
        if not kept or not sa_member(S, p):
            continue
        if sigma is not None and point_orthant(trop_point(p)) != sigma:
            continue
        out.append(p)
    return out


@settings(max_examples=60, deadline=None)
@given(sampled_descriptions(), st.integers(0, 4), st.booleans())
def test_sampling_entry_points_match_the_plain_loops(case, n, in_orthant):
    S, cfg = case
    assert list(sa_sample_trop(S, 60, cfg).items()) == _plain_cloud(S, cfg, 60)
    sigma = (1,) * S.nvars if in_orthant else None
    expected = _plain_collect(S, cfg, n, sigma, 60)
    assert collect_samples(S, cfg, n, sigma=sigma, max_attempts=60) == expected


# -- the verdict: membership decided from the drawn integers -------------------


def _stretched(draws, a, b):
    """The draws with each term's k/q stretched by a positive factor and its
    ck/cq by another, both growing along the draw."""
    return [
        None if draw is None
        else [(k * (a + i), q * (a + i), ck * (b + i), cq * (b + i))
              for i, (k, q, ck, cq) in enumerate(draw)]
        for draw in draws
    ]


def _holds(S, p):
    """Membership condition by condition, each sign read by laurent_sign."""
    return any(all(cond.holds_at(p) for cond in disj) for disj in S.disjuncts)


@settings(max_examples=60, deadline=None)
@given(sampled_descriptions(), st.integers(1, 3), st.integers(1, 3))
def test_lead_verdict_agrees_with_sa_member_wherever_it_decides(case, a, b):
    # the walk decides every candidate from its drawn integers, with the
    # answer of sa_member on the built point and of the holds_at walk; the
    # leads come from the sampler's own stream, so some coefficients are not
    # in lowest terms (2/2, -4/2, ...), and stretching k/q or ck/cq by a
    # positive factor must not move the answer either
    S, cfg = case
    rng = random.Random(cfg.seed)
    for _, (leads, _) in zip(range(40), ps_lead_stream(rng, S.nvars, 0.1)):
        draws = [None if lead is None else ps_draw_tail(rng, lead) for lead in leads]
        p = tuple(PS_ZERO if draw is None else ps_build(draw) for draw in draws)
        member = _holds(S, p)
        assert sa_member(S, p) == member
        assert semialg._verdict(S, draws) is member
        assert semialg._verdict(S, series_draws(p)) is member
        assert semialg._verdict(S, _stretched(draws, a, b)) is member


# the cubic's segment probe, where -(y - 1)**2 cancels at a y lead of 1,
# and pins outside the grid's valuation window [-2, 2]
_PINNED_TARGETS = [
    pytest.param(CUBIC.description, (stv(1, 1), stv(1, 0)), id="cubic-probe"),
    pytest.param(CUBIC.description, (stv(1, "-7/3"), stv(-1, 3)), id="cubic-outside"),
    pytest.param(CIRCLE.description, (stv(1, 0), stv(1, 0)), id="circle-origin"),
    pytest.param(CIRCLE.description, (stv(-1, "5/2"), stv(1, -3)), id="circle-outside"),
    pytest.param(HALFPLANE.description, (stv(1, "-9/4"), stv(0, "inf")), id="halfplane-zero"),
]


@pytest.mark.parametrize("S, z", _PINNED_TARGETS)
def test_pinned_witness_draws_are_decided_on_their_integers(S, z):
    # witness_search moves each draw to z in integers (ps_pin) and puts the
    # pinned draws to the walk; the answer is that of the built series
    rng = random.Random(3)
    stream = ps_lead_stream(rng, 1, 0)
    pins = [None if c.sign == 0 else (*c.val.as_integer_ratio(), c.sign) for c in z]
    cancelled = members = 0
    for _ in range(150):
        draws = [
            None if pin is None else ps_pin(ps_draw_tail(rng, next(stream)[0][0]), pin)
            for pin in pins
        ]
        p = tuple(PS_ZERO if draw is None else ps_build(draw) for draw in draws)
        assert trop_point(p) == z
        member = _holds(S, p)
        assert semialg._verdict(S, draws) is member
        assert semialg._verdict(S, series_draws(p)) is member
        members += member
        cancelled += any(c.poly._sign_kernel.lead_sign(draws) is None
                         for disj in S.disjuncts for c in disj)
    if z == CUBIC.params["segment_probe"]:
        # the probe is not in trop(S): the tails refute every cancelled draw
        assert cancelled and not members


@pytest.mark.parametrize("text, coords, sign", _ZERO_INITIAL_FORM)
def test_cancelled_initial_forms_are_undecided_at_their_leads(text, coords, sign):
    # the leads leave the sign open, and the walk reads it from the tails
    f = parse_polyk(text)
    p = tuple(PuiseuxSeries.from_terms(c) for c in coords)
    draws = series_draws(p)
    assert f._sign_kernel.lead_sign(draws) is None
    assert laurent_sign(f, p) == sign
    for rel in ("gt", "lt", "eq"):
        S = conjunction(f.nvars, [SignCondition(f, rel)])
        assert semialg._verdict(S, draws) is (sign in SATISFIED_BY[rel])
        assert sa_member(S, p) == (sign in SATISFIED_BY[rel])


# -- monomial lifts: the walk against eval_k on the cleared polynomials --------

# lead exponents k/q in lowest terms, and coefficients ck/cq, some of them
# not in lowest terms, as the sampler draws them
_MONOMIAL_EXPONENTS = [(-1, 1), (-1, 2), (0, 1), (1, 2), (1, 1)]
_MONOMIAL_COEFFS = [(-2, 1), (-1, 1), (-1, 2), (1, 2), (1, 1), (2, 2), (3, 1)]


def _monomial_lift_case(rng):
    """A description and the leads of a monomial point: zero coordinates,
    Laurent conditions, and conditions whose initial form at the point
    cancels, since the lowest term of their value there is taken off."""
    nvars = rng.randint(1, 3)
    leads = [
        None if rng.random() < 0.2
        else (*rng.choice(_MONOMIAL_EXPONENTS), *rng.choice(_MONOMIAL_COEFFS))
        for _ in range(nvars)
    ]
    p = tuple(PS_ZERO if lead is None else ps_build([lead]) for lead in leads)
    cfg = SamplerConfig(seed=1)

    def condition():
        f = PolyK.from_terms(nvars, [
            (tuple(rng.randint(0, 2) for _ in range(nvars)), ps_sample(cfg, rng))
            for _ in range(rng.randint(1, 4))
        ])
        if rng.random() < 0.5:
            f = f - PolyK.const(nvars, PuiseuxSeries(eval_k(f, p).terms[:1]))
            if rng.random() < 0.5:
                f = f + PolyK.const(nvars, ps_sample(cfg, rng))
        f = f.shift(tuple(rng.randint(-2, 1) for _ in range(nvars)))
        return SignCondition(f if not f.is_zero() else PolyK.const(nvars, const(1)),
                             rng.choice(["gt", "ge", "eq", "le", "lt", "ne"]))

    S = SADescription(nvars, tuple(
        tuple(condition() for _ in range(rng.randint(1, 2))) for _ in range(rng.randint(1, 3))
    ))
    return S, leads, p


def _undefined(f, p):
    """Whether some term of f carries a negative exponent on a zero coordinate of p."""
    return any(d < 0 and c.is_zero() for exps, _ in f.terms for d, c in zip(exps, p))


def _eval_k_member(S, p):
    """Membership with each condition's sign read by eval_k from its cleared
    polynomial, cleared here; an undefined condition does not hold."""
    for disj in S.disjuncts:
        for cond in disj:
            if _undefined(cond.poly, p):
                break
            sign = eval_k(_cleared(cond.poly)[0], p).sign()
            # at a monomial point the honest Laurent value exists too
            assert eval_k(cond.poly, p).sign() == sign
            if sign not in SATISFIED_BY[cond.rel]:
                break
        else:
            return True
    return False


def test_monomial_lifts_are_decided_as_eval_k_decides():
    # a monomial lift is a point of one-term draws; the walk on them, and
    # sa_member on the built point, answer as eval_k does, which reads no
    # sign kernel
    rng = random.Random(1810)
    zeros = undefined = cancelled = members = 0
    for _ in range(300):
        S, leads, p = _monomial_lift_case(rng)
        draws = [None if lead is None else [lead] for lead in leads]
        member = _eval_k_member(S, p)
        assert semialg._verdict(S, draws) is member
        assert sa_member(S, p) is member
        conditions = [cond.poly for disj in S.disjuncts for cond in disj]
        zeros += None in leads
        undefined += any(_undefined(f, p) for f in conditions)
        cancelled += any(
            not _undefined(f, p) and f._sign_kernel.lead_sign(draws) is None for f in conditions
        )
        members += member
    assert min(zeros, undefined, cancelled, members, 300 - members) >= 20


@pytest.mark.parametrize("cancelled_first", [True, False], ids=["cancelled-first", "refuted-first"])
def test_verdict_reads_no_tails_in_a_disjunct_its_leads_refute(monkeypatch, cancelled_first):
    # the circle's initial form cancels at these leads, and -1 - x^2 > 0 is
    # refuted at them: in either order the disjunct fails on its leads, and
    # the cancelled condition's tails are never read
    (text, coords, sign), = [c.values for c in _ZERO_INITIAL_FORM if c.id == "circle-2t+2t2"]
    circle = SignCondition(parse_polyk(text), "gt")
    never = SignCondition(parse_polyk("-1 - x^2", 2), "gt")
    p = tuple(PuiseuxSeries.from_terms(c) for c in coords)
    reads = []
    read = _SignKernel._truncated_value
    monkeypatch.setattr(
        _SignKernel, "_truncated_value", lambda kernel, *args: reads.append(args) or read(kernel, *args)
    )
    # alone, the circle's sign lies in the tails
    assert sign == 1 and sa_member(conjunction(2, [circle]), p) and len(reads) == 1
    reads.clear()
    conditions = [circle, never] if cancelled_first else [never, circle]
    assert not sa_member(conjunction(2, conditions), p)
    assert not reads


def _count_calls(monkeypatch, name):
    """Count the calls that semialg makes to its own binding of ``name``."""
    calls = []
    fn = getattr(semialg, name)
    monkeypatch.setattr(semialg, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_candidate_loops_build_only_members(monkeypatch):
    builds = _count_calls(monkeypatch, "ps_build")
    members = _count_calls(monkeypatch, "sa_member")
    probe = CUBIC.params["segment_probe"]
    assert witness_search(CUBIC.description, probe, 200, SamplerConfig(0)) is None
    assert not builds and not members
    yielded = []
    add = SampleCloud._add_member
    monkeypatch.setattr(
        SampleCloud, "_add_member", lambda cloud, p: yielded.append(p) or add(cloud, p)
    )
    assert len(sa_sample_trop(CIRCLE.description, 3000, SamplerConfig(0)))
    assert not members
    # one series per nonzero coordinate of each candidate yielded, and no other
    assert len(builds) == sum(not c.is_zero() for p in yielded for c in p)


def test_witness_search_draws_every_lead_from_one_stream(monkeypatch):
    # one lead stream per search, resumed for each nonzero pin of every
    # attempt; an unfound search on the probe runs all 200 attempts
    streams = []
    stream = puiseux.ps_lead_stream
    for module in (puiseux, semialg):
        monkeypatch.setattr(
            module, "ps_lead_stream", lambda *args: streams.append(args) or stream(*args)
        )
    probe = CUBIC.params["segment_probe"]
    assert witness_search(CUBIC.description, probe, 200, SamplerConfig(0)) is None
    assert streams == [(streams[0][0], 1, 0)]
