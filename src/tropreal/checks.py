"""Named verification suites over the whole stack.

Each suite draws randomized instances from a seed, runs exact oracles, and
returns a :class:`CheckOutcome`.  Suites never loosen a tolerance: every
comparison is exact (set equality, rational arithmetic, sign tests), so a
suite either passes outright or reports a genuine discrepancy.

``SUITES`` is the one registry of named checks, the twelve acceptance
criteria among them.  It maps each public suite name to its function and
to the keyword of its main size, or None for a suite without one; every
size default is written once, in the function's signature.  ``run_suites``
runs named suites into a deterministic report: identical names, seed and
size give a byte-identical JSON report.  Wall-clock timings appear on the
human-readable rendering only, and no suite writes one into its details.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from typing import Callable, Optional

from . import iojson
from .errors import UnknownSuite
from .hyperfields import (
    Balanced,
    HV_ZERO,
    Point,
    RELATIONS,
    RT_ZERO,
    hv_contains,
    hv_scale,
    rt_add,
    rt_mul,
    rt_neg,
    rt_sum,
    s_add,
    s_add_sets,
    stv,
    t_add,
    t_add_sets,
    ValPoint,
)
from .polyhedra import (
    PolyUnion,
    Polyhedron,
    all_orthants,
    complement_of_union,
    constraint,
    embed_point,
    orthant_support,
    orthant_str,
    point_polyhedron,
    poly_dim,
    poly_has_recession_direction,
    poly_is_empty,
    poly_recession_contains,
    trop_region,
    union_equal,
    union_of,
    whole_space_union,
)
from .puiseux import PuiseuxSeries, SamplerConfig, ps_sample
from .records import MutableRecord
from .scenarios import get_scenario, vertex_parameter
from .semialg import (
    SignCondition,
    adjacency_connected,
    collect_samples,
    conjunction,
    finite_basis,
    lift_inequality,
    outer_contains_point,
    point_valuations,
    sa_outer,
    sa_outer_all,
    sa_sample_trop,
    sa_sandwich_check,
    witness_search,
)
from .troppoly import PolyK, TropPoly, laurent_sign, trop_point, trop_r, trop_sat

F2 = Fraction


class CheckOutcome(MutableRecord):
    _fields = ("name", "passed", "details")

    def __init__(self, name: str, passed: bool, details: Optional[list[str]] = None):
        self.name = name
        self.passed = passed
        self.details = [] if details is None else details

    def add(self, ok: bool, message: str) -> bool:
        self.details.append(("ok: " if ok else "FAIL: ") + message)
        if not ok:
            self.passed = False
        return ok


class RunReport(MutableRecord):
    _fields = ("command", "inputs_digest", "outcomes", "details", "elapsed")

    def __init__(self, command: str, inputs_digest: str, outcomes: dict[str, bool],
                 details: dict[str, list[str]], elapsed: dict[str, float]):
        self.command = command
        self.inputs_digest = inputs_digest
        self.outcomes = outcomes
        self.details = details
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return all(self.outcomes.values())

    def to_json(self) -> str:
        # timings are excluded on purpose: reports are byte-stable per seed
        payload = {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "outcomes": self.outcomes,
            "details": self.details,
            "passed": self.passed,
        }
        return iojson.dumps(payload)

    def text(self) -> str:
        lines = []
        for name, ok in self.outcomes.items():
            took = self.elapsed.get(name, 0.0)
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {name} ({took:.2f}s)")
            lines.extend("    " + d for d in self.details.get(name, []))
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------


def _rand_val(rng: random.Random) -> Fraction:
    return F2(rng.randint(-6, 6), 2)


def _rand_stv(rng: random.Random):
    if rng.random() < 0.05:
        return RT_ZERO
    return stv(rng.choice([-1, 1]), _rand_val(rng))


def _rand_hv(rng: random.Random):
    if rng.random() < 0.5:
        return Point(_rand_stv(rng))
    return Balanced(_rand_val(rng))


def random_troppoly(
    rng: random.Random,
    nvars: int,
    max_terms: int = 6,
    exp_lo: int = 0,
    exp_hi: int = 4,
) -> TropPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(exp_lo, exp_hi) for _ in range(nvars))
        terms[exps] = stv(rng.choice([-1, 1]), _rand_val(rng))
    return TropPoly.from_terms(nvars, list(terms.items()))


def random_closed_union(rng: random.Random, max_pieces=3, max_facets=6) -> PolyUnion:
    dim = rng.randint(1, 3)
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        cons = []
        for _ in range(rng.randint(1, max_facets)):
            n = tuple(rng.randint(-2, 2) for _ in range(dim))
            if not any(n):
                continue
            cons.append(constraint(n, F2(rng.randint(-2, 2), rng.randint(1, 2)), "<="))
        pieces.append(Polyhedron(dim, tuple(cons)))
    return PolyUnion(dim, tuple(pieces))


def random_open_polyhedron(rng: random.Random) -> Polyhedron:
    while True:
        dim = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(1, 5)):
            n = tuple(rng.randint(-2, 2) for _ in range(dim))
            if not any(n):
                continue
            cons.append(constraint(n, F2(rng.randint(-3, 3), rng.randint(1, 2)), "<"))
        P = Polyhedron(dim, tuple(cons))
        if cons and not poly_is_empty(P):
            return P


def _rand_point(rng: random.Random, dim: int, span=8, den=4):
    return tuple(F2(rng.randint(-span, span), rng.randint(1, den)) for _ in range(dim))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def check_hyperfield_axioms(seed: int, size: int = 10000) -> CheckOutcome:
    rng = random.Random(seed)
    out = CheckOutcome("hyperfield-axioms", True)

    bad = 0
    for _ in range(size):
        a, b, c = _rand_hv(rng), _rand_hv(rng), _rand_hv(rng)
        if rt_add(a, b) != rt_add(b, a):
            bad += 1
        if rt_add(rt_add(a, b), c) != rt_add(a, rt_add(b, c)):
            bad += 1
        x, y, z = _rand_stv(rng), _rand_stv(rng), _rand_stv(rng)
        if hv_scale(x, rt_add(Point(y), Point(z))) != rt_add(
            Point(rt_mul(x, y)), Point(rt_mul(x, z))
        ):
            bad += 1
        if not hv_contains(rt_add(Point(x), Point(rt_neg(x))), RT_ZERO):
            bad += 1
        terms = [_rand_stv(rng) for _ in range(rng.randint(0, 5))]
        folded = HV_ZERO
        for t in terms:
            folded = rt_add(folded, Point(t))
        if folded != rt_sum(terms):
            bad += 1
    out.add(bad == 0, f"signed tropical axioms on {size} draws ({bad} failures)")

    bad = 0
    for _ in range(1000):
        a, b, c = [
            _rand_val(rng) if rng.random() > 0.1 else "inf" for _ in range(3)
        ]
        lhs = t_add_sets(t_add(a, b), ValPoint(c))
        rhs = t_add_sets(ValPoint(a), t_add(b, c))
        if lhs != rhs:
            bad += 1
        sa, sb, sc = (rng.choice([-1, 0, 1]) for _ in range(3))
        if s_add(sa, sb) != s_add(sb, sa):
            bad += 1
        if s_add_sets(s_add(sa, sb), frozenset({sc})) != s_add_sets(
            frozenset({sa}), s_add(sb, sc)
        ):
            bad += 1
    out.add(bad == 0, f"magnitude/sign hyperfield axioms on 1000 draws ({bad} failures)")
    return out


def check_morphism(seed: int, size: int = 10000) -> CheckOutcome:
    out = CheckOutcome("morphism", True)
    cfg = SamplerConfig(seed=seed)
    rng = random.Random(seed)
    bad_mul = bad_add = 0
    for _ in range(size):
        a, b = ps_sample(cfg, rng), ps_sample(cfg, rng)
        if (a * b).signed_trop() != rt_mul(a.signed_trop(), b.signed_trop()):
            bad_mul += 1
        s = rt_add(Point(a.signed_trop()), Point(b.signed_trop()))
        if not hv_contains(s, (a + b).signed_trop()):
            bad_add += 1
    out.add(bad_mul == 0, f"multiplicativity on {size} pairs ({bad_mul} failures)")
    out.add(bad_add == 0, f"sum containment on {size} pairs ({bad_add} failures)")
    return out


def check_region_coherence(seed: int, size: int = 1000) -> CheckOutcome:
    out = CheckOutcome("region-coherence", True)
    rng = random.Random(seed)
    bad = 0
    for _ in range(size):
        nvars = rng.randint(1, 3)
        sigma = tuple(rng.choice([-1, 0, 1]) for _ in range(nvars))
        laurent = all(s != 0 for s in sigma)
        F = random_troppoly(rng, nvars, exp_lo=-2 if laurent else 0)
        rel = rng.choice(RELATIONS)
        region = trop_region(F, sigma, rel)
        m = len(orthant_support(sigma))
        for _ in range(5):
            V = _rand_point(rng, m, span=6, den=3)
            if region.contains(V) != trop_sat(F, embed_point(sigma, V), rel):
                bad += 1
    out.add(bad == 0, f"membership == evaluation on {size} instances ({bad} failures)")
    return out


def check_complement(seed: int, instances: int = 50) -> CheckOutcome:
    out = CheckOutcome("complement", True)
    rng = random.Random(seed)
    bad = 0
    open_ok = True
    for _ in range(instances):
        T = random_closed_union(rng)
        pieces = complement_of_union(T)
        U = PolyUnion(T.dim, tuple(pieces))
        open_ok = open_ok and all(p.is_open() for p in pieces)
        for _ in range(1000):
            x = _rand_point(rng, T.dim, span=9, den=4)
            if T.contains(x) == U.contains(x):
                bad += 1
    out.add(bad == 0, f"membership XOR on {instances}x1000 points ({bad} failures)")
    out.add(open_ok, "all complement pieces are open")
    return out


def check_fp_lemma(seed: int, instances: int = 50) -> CheckOutcome:
    from .polyhedra import open_poly_to_trop

    out = CheckOutcome("fp-lemma", True)
    rng = random.Random(seed)
    bad = 0
    for _ in range(instances):
        P = random_open_polyhedron(rng)
        F = open_poly_to_trop(P)
        sigma = tuple(1 for _ in range(P.dim))
        for _ in range(1000):
            X = _rand_point(rng, P.dim, span=8, den=3)
            V = tuple(-x for x in X)
            if P.contains(X) != trop_sat(F, embed_point(sigma, V), "gt"):
                bad += 1
    out.add(bad == 0, f"P == positive region on {instances}x1000 points ({bad} failures)")
    return out


def _random_box_description(rng: random.Random, dim: int):
    lows, highs, conds = [], [], []
    for k in range(dim):
        a = F2(rng.randint(1, 6), rng.randint(1, 2))
        b = a + F2(rng.randint(1, 6), rng.randint(1, 2))
        lows.append(a)
        highs.append(b)
        xk = PolyK.variable(dim, k)
        a_poly = PolyK.const(dim, PuiseuxSeries.const(a))
        b_poly = PolyK.const(dim, PuiseuxSeries.const(b))
        conds.append(SignCondition(xk - a_poly, "ge"))
        conds.append(SignCondition(b_poly - xk, "ge"))
    S = conjunction(dim, conds)

    def proposal(rng2: random.Random):
        coords = []
        for a, b in zip(lows, highs):
            q = rng2.randint(2, 8)
            c = a + (b - a) * F2(rng2.randint(0, q), q)
            s = PuiseuxSeries.const(c)
            if rng2.random() < 0.3:
                s = s + PuiseuxSeries.t_power(
                    F2(rng2.randint(1, 3), rng2.randint(1, 2)),
                    F2(rng2.randint(-1, 1)),
                )
            coords.append(s)
        return tuple(coords)

    return S, proposal


def check_lift(seed: int, pairs: int = 20) -> CheckOutcome:
    out = CheckOutcome("lift", True)
    rng = random.Random(seed)
    cfg = SamplerConfig(seed=seed)
    done = 0
    attempts = 0
    bad_trop = bad_fresh = 0
    while done < pairs and attempts < pairs * 200:
        attempts += 1
        dim = rng.randint(1, 2)
        S, proposal = _random_box_description(rng, dim)
        sigma = tuple(1 for _ in range(dim))
        F = random_troppoly(rng, dim, max_terms=4, exp_lo=0, exp_hi=3)
        origin = embed_point(sigma, tuple(F2(0) for _ in range(dim)))
        if not trop_sat(F, origin, "ge"):
            continue  # not a valid tropical inequality for a unit-magnitude box
        samples = collect_samples(S, cfg, 80, sigma=sigma, proposal=proposal)
        res = lift_inequality(F, S, samples, eps_budget=4000)
        if trop_r(res.poly) != F:
            bad_trop += 1
        fresh_cfg = SamplerConfig(seed=seed + 7919 + done)
        fresh = collect_samples(
            S, fresh_cfg, 500, sigma=sigma, proposal=proposal, max_attempts=20000,
        )
        if len(fresh) < 500 or any(laurent_sign(res.poly, p) < 0 for p in fresh):
            bad_fresh += 1
        done += 1
    out.add(done == pairs, f"generated {done}/{pairs} instances with valid precondition")
    out.add(bad_trop == 0, f"tropicalization preserved exactly ({bad_trop} failures)")
    out.add(
        bad_fresh == 0,
        f"nonnegative on 500 fresh samples per instance ({bad_fresh} failures)",
    )
    return out


def check_basis(seed: int) -> CheckOutcome:
    out = CheckOutcome("basis", True)
    cfg = SamplerConfig(seed=seed)
    circle = get_scenario("circle")
    T = union_of(2, [point_polyhedron((0, 0))])
    samples = collect_samples(
        circle.description, cfg, 80, sigma=(1, 1), proposal=circle.proposal
    )
    res = finite_basis(T, circle.description, samples)
    out.add(union_equal(res.region, T), f"disk: {len(res.polys)} polynomials cut the origin")

    T2 = whole_space_union(2)
    samples = collect_samples(
        circle.description, cfg, 40, sigma=(1, 1), proposal=circle.proposal
    )
    res2 = finite_basis(T2, circle.description, samples)
    out.add(
        len(res2.polys) == 0 and union_equal(res2.region, T2),
        "whole orthant needs an empty family",
    )

    from .parsing import parse_polyk

    S = conjunction(1, [SignCondition(parse_polyk("x - 1", nvars=1), "ge")])

    def proposal(rng2: random.Random):
        c = F2(rng2.randint(1, 12), rng2.randint(1, 3))
        if rng2.random() < 0.3:
            return (PuiseuxSeries.t_power(-rng2.randint(1, 2), c),)
        return (PuiseuxSeries.const(1) + PuiseuxSeries.const(c),)

    T3 = union_of(1, [Polyhedron(1, (constraint((1,), 0, "<="),))])
    samples = collect_samples(S, cfg, 40, sigma=(1,), proposal=proposal)
    res3 = finite_basis(T3, S, samples)
    out.add(
        len(res3.polys) == 1 and union_equal(res3.region, T3),
        "halfline target needs one inequality",
    )
    return out


def check_orthant_remark(seed: int, count: int = 100) -> CheckOutcome:
    out = CheckOutcome("orthant-remark", True)
    rng = random.Random(seed)
    counterexamples = 0
    triggered = 0
    for _ in range(count):
        F = random_troppoly(rng, 2, max_terms=6, exp_lo=0, exp_hi=4)
        regions = {
            sigma: trop_region(F, sigma, "lt") for sigma in all_orthants(2)
        }
        others_empty = all(
            regions[sigma].is_empty() for sigma in regions if sigma != (1, 1)
        )
        if others_empty:
            triggered += 1
            if not regions[(1, 1)].is_empty():
                counterexamples += 1
    out.add(
        counterexamples == 0,
        f"negative region confined to the open positive orthant is empty "
        f"({triggered}/{count} instances triggered, {counterexamples} counterexamples)",
    )
    return out


def check_sandwich(seed: int, attempts: int = 4000) -> CheckOutcome:
    out = CheckOutcome("sandwich", True)
    cfg = SamplerConfig(seed=seed)
    for name in ("circle", "halfplane", "cubic"):
        scen = get_scenario(name)
        report = sa_sandwich_check(
            sa_sample_trop(scen.description, attempts, cfg, proposal=scen.proposal)
        )
        out.add(report.inner_inside_outer, f"{name}: inner cloud inside outer region")
        out.add(
            not report.flagged_pieces,
            f"{name}: no unwitnessed full-dimensional outer piece",
        )
    return out


def check_connectivity(seed: int) -> CheckOutcome:
    out = CheckOutcome("connectivity", True)
    for name in ("circle", "halfplane", "cubic"):
        scen = get_scenario(name)
        regions = sa_outer_all(scen.description)
        out.add(adjacency_connected(regions), f"{name}: outer region pieces connected")
    return out


# -- scenario-anchored exact checks -------------------------------------------


def check_circle_exact(seed: int, attempts: int = 10000) -> CheckOutcome:
    out = CheckOutcome("circle-exact", True)
    scen = get_scenario("circle")
    cfg = SamplerConfig(seed=seed)
    cloud = sa_sample_trop(scen.description, attempts, cfg)
    out.add(
        cloud.points() == {(stv(1, 0), stv(1, 0))},
        f"cloud from {attempts} attempts is exactly the unit point "
        f"({len(cloud)} point)",
    )
    region = sa_outer(scen.description, (1, 1))
    seg_v = Polyhedron(
        2,
        (
            constraint((1, 0), 0, "<="),
            constraint((-1, 0), 0, "<="),
            constraint((0, -1), 0, "<="),
        ),
    )
    seg_h = Polyhedron(
        2,
        (
            constraint((0, 1), 0, "<="),
            constraint((0, -1), 0, "<="),
            constraint((-1, 0), 0, "<="),
        ),
    )
    out.add(
        union_equal(region, union_of(2, [seg_v, seg_h])),
        "outer region in the positive orthant equals the two segments",
    )
    out.add(
        all(poly_dim(p) == 1 for p in region.pieces),
        "every outer piece is one-dimensional",
    )
    return out


def check_halfplane_density(seed: int, n_members: int = 1000) -> CheckOutcome:
    out = CheckOutcome("halfplane-density", True)
    scen = get_scenario("halfplane")
    cfg = SamplerConfig(seed=seed)

    region = sa_outer(scen.description, (1, 1))
    expected = union_of(
        2,
        [
            Polyhedron(2, (constraint((1, 0), 0, "<="),)),
            Polyhedron(2, (constraint((0, 1), 0, "<="),)),
        ],
    )
    out.add(union_equal(region, expected), "region equals the two halfplanes exactly")

    members = collect_samples(
        scen.description, cfg, n_members, proposal=scen.proposal,
        max_attempts=n_members * 40,
    )
    ok = len(members) >= n_members
    out.add(ok, f"collected {len(members)}/{n_members} exact members")
    inside = sum(1 for p in members if outer_contains_point(scen.description, trop_point(p)))
    out.add(inside == len(members), f"{inside}/{len(members)} members land inside")

    rng = random.Random(seed + 1)
    targets = []
    while len(targets) < 100:
        V = _rand_point(rng, 2, span=6, den=2)
        if region.contains(V):
            z = embed_point((1, 1), V)
            if z not in targets:
                targets.append(z)
    found = 0
    for i, z in enumerate(targets):
        w = witness_search(scen.description, z, 1000, SamplerConfig(seed=seed + 100 + i))
        if w is not None and trop_point(w) == z:
            found += 1
    out.add(found == 100, f"witnesses for {found}/100 region points (budget 1000)")
    return out


def check_cubic_facts(seed: int, attempts: int = 10000) -> CheckOutcome:
    out = CheckOutcome("cubic-facts", True)
    scen = get_scenario("cubic")
    cfg = SamplerConfig(seed=seed)

    iso_witness = (PuiseuxSeries.zero(), PuiseuxSeries.const(1))
    cloud = sa_sample_trop(scen.description, 500, cfg, proposal=scen.proposal)
    added = cloud.add_candidate(iso_witness)
    iso_point = (stv(0, "inf"), stv(1, 0))
    out.add(
        added and iso_point in cloud.points(),
        "the isolated point has a verified witness in the inner cloud",
    )

    F = trop_r(scen.params["poly"])
    probe = scen.params["segment_probe"]
    out.add(
        trop_sat(F, probe, "ge"),
        "an interior point of the spurious segment satisfies the tropical inequality",
    )

    w = witness_search(scen.description, probe, attempts, cfg)
    out.add(w is None, f"no witness for the segment point in {attempts} attempts")

    region = sa_outer(scen.description, (1, 1))
    segment_dims = [
        poly_dim(p)
        for p in region.pieces
        if p.contains(point_valuations(probe))
    ]
    out.add(
        segment_dims != [] and all(d == 1 for d in segment_dims),
        f"the segment piece is one-dimensional (dims {segment_dims})",
    )
    return out


def check_intersection_recession(seed: int) -> CheckOutcome:
    out = CheckOutcome("intersection-recession", True)
    budgets = {}
    for name, expect_rays in (("intersection_tight", False), ("intersection_wide", True)):
        t0 = time.time()
        scen = get_scenario(name)
        regions = sa_outer_all(scen.description)
        ray_dir = scen.params["ray_direction"]
        neg_conditions = [
            [constraint((1, 0), 0, "<")],
            [constraint((0, 1), 0, "<")],
        ]
        has_negative = any(
            poly_has_recession_direction(piece, conds)
            for sigma, region in regions.items()
            if len(orthant_support(sigma)) == 2
            for piece in region.pieces
            for conds in neg_conditions
        )
        rays_present = all(
            any(
                poly_recession_contains(piece, ray_dir) for piece in regions[sigma].pieces
            )
            for sigma in scen.params["ray_orthants"]
        )
        budgets[name] = time.time() - t0
        if expect_rays:
            out.add(
                has_negative and rays_present,
                f"{name}: both infinite diagonal rays present (c={scen.params['c']})",
            )
        else:
            out.add(
                not has_negative,
                f"{name}: no outward recession in any orthant (c={scen.params['c']})",
            )
        a = vertex_parameter(scen.params["c"])
        out.add(
            a is not None,
            f"{name}: ray endpoint parameter -1/|c+1| = "
            f"{'+' if a.sign > 0 else '-'}e^({-a.val})",
        )
    for name, took in budgets.items():
        out.add(took < 5.0, f"{name}: computed in under 5s")
    return out


def check_rectangles(seed: int) -> CheckOutcome:
    out = CheckOutcome("rectangles", True)
    scen = get_scenario("rectangles")
    F, rel = scen.conditions[0]
    region = trop_region(F, (1, 1), rel)
    box = scen.params["positive_quadrant_rectangle"]
    (lo1, hi1), (lo2, hi2) = box["v1"], box["v2"]
    expected = union_of(
        2,
        [
            Polyhedron(
                2,
                (
                    constraint((-1, 0), lo1, "<"),
                    constraint((1, 0), -hi1, "<"),
                    constraint((0, -1), lo2, "<"),
                    constraint((0, 1), -hi2, "<"),
                ),
            )
        ],
    )
    out.add(
        union_equal(region, expected),
        "negative region in the positive quadrant is the open rectangle",
    )
    for sigma in ((-1, 1), (1, -1), (-1, -1)):
        r = trop_region(F, sigma, rel)
        out.add(not r.is_empty(), f"pattern continues in orthant {orthant_str(sigma)}")
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES: dict[str, tuple[Callable[..., CheckOutcome], Optional[str]]] = {
    "basis": (check_basis, None),
    "circle-exact": (check_circle_exact, "attempts"),
    "complement": (check_complement, "instances"),
    "connectivity": (check_connectivity, None),
    "cubic-facts": (check_cubic_facts, "attempts"),
    "fp-lemma": (check_fp_lemma, "instances"),
    "halfplane-density": (check_halfplane_density, "n_members"),
    "hyperfield-axioms": (check_hyperfield_axioms, "size"),
    "intersection-recession": (check_intersection_recession, None),
    "lift": (check_lift, "pairs"),
    "morphism": (check_morphism, "size"),
    "orthant-remark": (check_orthant_remark, "count"),
    "rectangles": (check_rectangles, None),
    "region-coherence": (check_region_coherence, "size"),
    "sandwich": (check_sandwich, "attempts"),
}

SUITE_NAMES = tuple(sorted(SUITES))


def run_suites(names: list[str], seed: int, size: Optional[int] = None) -> RunReport:
    for i, name in enumerate(names):
        if name not in SUITES:
            raise UnknownSuite(
                f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}"
            )
        if name in names[:i]:
            raise ValueError(f"suite {name!r} is named more than once")
    if size is not None and size < 1:
        raise ValueError(f"the suite size must be positive, not {size}")
    digest_src = json.dumps(
        {"suites": names, "seed": seed, "size": size}, sort_keys=True
    )
    digest = hashlib.sha256(digest_src.encode()).hexdigest()[:16]
    outcomes: dict[str, bool] = {}
    details: dict[str, list[str]] = {}
    elapsed: dict[str, float] = {}
    for name in names:
        check, main_size = SUITES[name]
        sizes = {main_size: size} if main_size and size is not None else {}
        t0 = time.time()
        outcome = check(seed, **sizes)
        elapsed[name] = time.time() - t0
        outcomes[name] = outcome.passed
        details[name] = outcome.details
    return RunReport(
        command=f"check {' '.join(names)}",
        inputs_digest=digest,
        outcomes=outcomes,
        details=details,
        elapsed=elapsed,
    )
