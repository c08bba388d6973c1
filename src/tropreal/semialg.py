"""Semialgebraic descriptions and their tropical inner/outer approximations.

A semialgebraic set is given in disjunctive normal form: a union of
conjunctions of polynomial sign conditions against zero.  Membership of an
exact Puiseux point is decided exactly.  Two approximations of the set's
signed tropicalization are computed:

* an *inner* approximation: a cloud of tropical points, each carrying a
  verified witness in the set (rejection sampling plus targeted witness
  search), hence certainly inside the tropicalization;
* an *outer* approximation: per orthant, the intersection over describing
  conditions of the exact polyhedral region of the tropicalized condition.
  Tropicalizing a valid inequality can only enlarge the set, so this is a
  certified superset.

A Laurent condition is undefined where a negative exponent meets a zero
coordinate, and an undefined condition does not hold.  The condition owns
that rule: ``SignCondition.holds_at`` is False at such a point, and
``trop_conjunction`` is empty on an orthant that sets such a coordinate to
zero.  Membership and the outer region are both assembled one disjunct at
a time, so another disjunct that holds there still counts, in any order.

The exact tropicalization in between is not computed in general (that
would need quantifier elimination over valued ordered fields); the
sandwich check instead verifies the structural facts that make the pair of
approximations informative: the inner cloud lies in the outer region, and
outer pieces of full dimension ought to be witnessed, since the difference
between the outer region and the tropicalization has empty interior for
conjunctions of weak inequalities.

The lifting construction turns a tropical polynomial that is nonnegative
on the outer region into an actual polynomial inequality valid on the set
(verified on samples), with the prescribed tropicalization; chaining it
with complements of polyhedral unions yields a finite family of valid
inequalities whose tropical regions intersect back to a given target set.

The default sampler decides each candidate as far as it can before any
series is built.  A candidate is drawn as integers (:func:`ps_draw`, the
random words of :func:`ps_sample`), and every condition is scored at the
leading signs and valuations of its coordinates: a condition whose
dominant terms share a sign that its relation rejects, or that is
undefined there, fails.  A candidate with such a condition in every
disjunct is dropped; the others are built and decided exactly by
``sa_member``, where ``laurent_sign`` settles a balanced condition from
its initial form, the sum of the dominant terms' leading coefficients,
and only when that sum cancels from the full series.  Seeded output is
the same as that of building and testing every candidate.

Sampling and search are embarrassingly parallel over seeds; all exact
checks are pure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    DimensionMismatch,
    NegativeExponentAtZero,
    NoEpsilonFound,
    NotClosedInput,
    PreconditionFailed,
    ShapeMismatch,
)
from .hyperfields import INF, SATISFIED_BY, SignedTropVal, normalize_rel
from .polyhedra import (
    Orthant,
    PolyUnion,
    Polyhedron,
    all_orthants,
    complement_of_union,
    limit_polyhedron,
    open_poly_to_trop,
    orthant_support,
    orthant_str,
    poly_dim,
    poly_is_empty,
    prune_covered_pieces,
    trop_conjunction,
    trop_region,
    union_equal,
    union_prune,
    union_subset,
    valuation_piece_to_log,
)
from .puiseux import PS_ZERO, PuiseuxSeries, SamplerConfig, ps_build, ps_draw, rand_below
from .troppoly import (
    PolyK,
    TropPoint,
    TropPoly,
    laurent_sign,
    trop_point,
    trop_r,
    trop_sat,
)

@dataclass(frozen=True)
class SignCondition:
    """poly rel 0 with rel one of >, >=, =, <=, <, != (canonical short names)."""

    poly: PolyK
    rel: str

    def __post_init__(self):
        object.__setattr__(self, "rel", normalize_rel(self.rel))
        if self.poly.is_zero():
            raise ValueError("sign conditions need a nonzero polynomial")

    def holds_at(self, p: Sequence[PuiseuxSeries]) -> bool:
        """Whether poly(p) rel 0; False where poly is undefined at p."""
        try:
            return laurent_sign(self.poly, p) in SATISFIED_BY[self.rel]
        except NegativeExponentAtZero:
            return False


@dataclass(frozen=True)
class SADescription:
    """Disjunctive normal form: a union of conjunctions of sign conditions."""

    nvars: int
    disjuncts: tuple[tuple[SignCondition, ...], ...]

    def __post_init__(self):
        if not self.disjuncts:
            raise ValueError("a description has at least one disjunct")
        for disj in self.disjuncts:
            for cond in disj:
                if cond.poly.nvars != self.nvars:
                    raise DimensionMismatch("condition nvars mismatch")


def conjunction(nvars: int, conditions: Iterable[SignCondition]) -> SADescription:
    return SADescription(nvars, (tuple(conditions),))


def sa_member(S: SADescription, p: Sequence[PuiseuxSeries]) -> bool:
    """Exact membership of a Puiseux point, by DNF evaluation of signs."""
    p = tuple(p)
    if len(p) != S.nvars:
        raise DimensionMismatch("point dimension does not match description")
    for disj in S.disjuncts:
        for cond in disj:
            if not cond.holds_at(p):
                break
        else:
            return True
    return False


def split_ne(S: SADescription) -> SADescription:
    """Replace every != condition by the two strict alternatives."""
    out: list[tuple[SignCondition, ...]] = []
    for disj in S.disjuncts:
        expanded: list[list[SignCondition]] = [[]]
        for cond in disj:
            if cond.rel != "ne":
                for e in expanded:
                    e.append(cond)
            else:
                expanded = [
                    e + [SignCondition(cond.poly, r)]
                    for e in expanded
                    for r in ("gt", "lt")
                ]
        out.extend(tuple(e) for e in expanded)
    return SADescription(S.nvars, tuple(out))


# ---------------------------------------------------------------------------
# Inner approximation: witnessed sample clouds
# ---------------------------------------------------------------------------


class SampleCloud:
    """Tropical points with verified witnesses inside a semialgebraic set."""

    def __init__(self, S: SADescription):
        self.description = S
        self._points: dict[TropPoint, tuple[PuiseuxSeries, ...]] = {}

    def add_candidate(self, p: Sequence[PuiseuxSeries]) -> bool:
        """Verify membership; record the tropical point on success."""
        p = tuple(p)
        if not sa_member(self.description, p):
            return False
        self._points.setdefault(trop_point(p), p)
        return True

    def points(self) -> set[TropPoint]:
        return set(self._points)

    def items(self):
        return self._points.items()

    def __len__(self) -> int:
        return len(self._points)

    def verify(self) -> bool:
        return all(
            sa_member(self.description, w) and trop_point(w) == z
            for z, w in self._points.items()
        )


_ZERO_PROB = 0.1  # the share of exactly zero candidate coordinates


def _candidates(
    S: SADescription,
    cfg: SamplerConfig,
    rng: random.Random,
    budget: int,
    proposal: Optional[Callable[[random.Random], tuple[PuiseuxSeries, ...]]] = None,
) -> Iterator[tuple[PuiseuxSeries, ...]]:
    """The candidates among `budget` draws that may lie in S.

    Every candidate of a proposal comes through.  A default candidate is
    drawn coordinate by coordinate: a coordinate is exactly zero with
    probability ``_ZERO_PROB`` (one ``rng.random()`` word), and otherwise
    a series drawn as integers first (:func:`ps_draw`, the random words of
    :func:`ps_sample`).  This loop is the library's one draw path.  The
    leading terms then decide most candidates: each condition is scored
    at the coordinates' leading signs and valuations by the integer loop of
    ``laurent_sign``, and a condition fails outright when a coordinate
    under a negative exponent is zero (it is undefined) or when its
    dominant terms share a sign that the relation rejects.  A candidate
    with such a condition in every disjunct is not in S and is dropped
    unbuilt; the series of the others are built, and membership is left to
    the caller's exact test.  A balanced condition, where dominant terms of
    opposite sign tie, is never decided here.
    """
    if proposal is not None:
        for _ in range(budget):
            yield proposal(rng)
        return
    nvars = S.nvars
    draw = ps_draw
    uniform = rng.random
    plan = [
        [(cond.poly._lead_kernel, SATISFIED_BY[cond.rel]) for cond in disj]
        for disj in S.disjuncts
    ]
    for _ in range(budget):
        draws = []
        signs = []
        nums = []
        dens = []
        for _ in range(nvars):
            if uniform() < _ZERO_PROB:
                draws.append(None)
                signs.append(0)
                nums.append(0)
                dens.append(1)
            else:
                d = draw(cfg, rng)
                k, q, ck, _ = d[0]
                draws.append(d)
                signs.append(1 if ck > 0 else -1)
                nums.append(k)
                dens.append(q)
        for disj in plan:
            for kern, holds in disj:
                if not all([signs[k] for k in kern.neg]):
                    break
                _, sign, balanced, _ = kern._score_scaled(signs, nums, dens)
                if not balanced and sign not in holds:
                    break
            else:
                yield tuple([PS_ZERO if d is None else ps_build(d) for d in draws])
                break


def sa_sample_trop(
    S: SADescription,
    count: int,
    cfg: SamplerConfig,
    proposal: Optional[Callable[[random.Random], tuple[PuiseuxSeries, ...]]] = None,
) -> SampleCloud:
    """Rejection-sample `count` candidate vectors and keep the verified ones.

    The optional proposal only biases where candidates come from; every
    candidate is still verified exactly, so the cloud is sound regardless.
    """
    rng = random.Random(cfg.seed)
    cloud = SampleCloud(S)
    for p in _candidates(S, cfg, rng, count, proposal):
        cloud.add_candidate(p)
    return cloud


# ---------------------------------------------------------------------------
# Outer approximation: tropicalized describing inequalities, per orthant
# ---------------------------------------------------------------------------


def sa_outer(S: SADescription, sigma: Orthant) -> PolyUnion:
    """Exact polyhedral superset of the sigma-part of the tropicalization.

    Union over disjuncts of the intersection over conditions of the region
    of the tropicalized condition; a disjunct with a condition undefined on
    sigma contributes nothing.  Orthants are never mixed; assembling a
    global picture is the caller's (reporting-level) concern.
    """
    if len(sigma) != S.nvars:
        raise DimensionMismatch("orthant length does not match description")
    m = len(orthant_support(sigma))
    out = PolyUnion(m, ())
    for disj in split_ne(S).disjuncts:
        acc = trop_conjunction(((trop_r(c.poly), c.rel) for c in disj), sigma)
        out = union_prune(PolyUnion(m, out.pieces + acc.pieces))
    return out


def sa_outer_all(S: SADescription) -> dict[Orthant, PolyUnion]:
    """sa_outer on every orthant."""
    return {sigma: sa_outer(S, sigma) for sigma in all_orthants(S.nvars)}


def point_orthant(z: TropPoint) -> Orthant:
    return tuple(c.sign for c in z)


def point_valuations(z: TropPoint) -> tuple[Fraction, ...]:
    return tuple(c.val for c in z if c.sign != 0)


def outer_contains_point(
    S: SADescription, z: TropPoint, cache: Optional[dict] = None
) -> bool:
    sigma = point_orthant(z)
    if cache is not None and sigma in cache:
        region = cache[sigma]
    else:
        region = sa_outer(S, sigma)
        if cache is not None:
            cache[sigma] = region
    return region.contains(point_valuations(z))


def inner_in_outer(S: SADescription, cloud: SampleCloud) -> list[TropPoint]:
    """The (expected-empty) list of cloud points escaping the outer region."""
    cache: dict = {}
    return [z for z in sorted_points(cloud.points()) if not outer_contains_point(S, z, cache)]


def sorted_points(points: Iterable[TropPoint]) -> list[TropPoint]:
    def key(z: TropPoint):
        return tuple(
            (c.sign, c.val is INF, c.val if c.val is not INF else Fraction(0))
            for c in z
        )

    return sorted(points, key=key)


# ---------------------------------------------------------------------------
# Sandwich check
# ---------------------------------------------------------------------------


@dataclass
class PieceRecord:
    sigma: Orthant
    index: int
    dim: int
    full_dimensional: bool
    witnessed: bool

    @property
    def flagged(self) -> bool:
        return self.full_dimensional and not self.witnessed


@dataclass
class SandwichReport:
    inner_count: int
    escaped: list[TropPoint]
    pieces: list[PieceRecord]

    @property
    def inner_inside_outer(self) -> bool:
        return not self.escaped

    @property
    def flagged_pieces(self) -> list[PieceRecord]:
        return [p for p in self.pieces if p.flagged]

    @property
    def ok(self) -> bool:
        return self.inner_inside_outer and not self.flagged_pieces

    def text(self) -> str:
        lines = [
            f"inner cloud: {self.inner_count} points, "
            f"{'all inside outer region' if self.inner_inside_outer else f'{len(self.escaped)} ESCAPED'}",
        ]
        for p in self.pieces:
            status = "witnessed" if p.witnessed else ("FLAGGED" if p.flagged else "thin")
            lines.append(
                f"orthant {orthant_str(p.sigma)} piece {p.index}: dim {p.dim} ({status})"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "inner_count": self.inner_count,
            "inner_inside_outer": self.inner_inside_outer,
            "escaped": len(self.escaped),
            "pieces": [
                {
                    "orthant": orthant_str(p.sigma),
                    "index": p.index,
                    "dim": p.dim,
                    "full_dimensional": p.full_dimensional,
                    "witnessed": p.witnessed,
                    "flagged": p.flagged,
                }
                for p in self.pieces
            ],
            "ok": self.ok,
        }


def _normalize_weak_conjunction(S: SADescription) -> SADescription:
    """Rewrite a single conjunction of weak conditions as {f_i <= 0} form."""
    if len(S.disjuncts) != 1:
        raise ShapeMismatch("need a single conjunction")
    out = []
    for cond in S.disjuncts[0]:
        if cond.rel == "le":
            out.append(cond)
        elif cond.rel == "ge":
            out.append(SignCondition(-cond.poly, "le"))
        elif cond.rel == "eq":
            out.append(SignCondition(cond.poly, "le"))
            out.append(SignCondition(-cond.poly, "le"))
        else:
            raise ShapeMismatch(f"relation {cond.rel} is not a weak inequality")
    return conjunction(S.nvars, out)


def sa_sandwich_check(
    S: SADescription,
    cfg: SamplerConfig,
    attempts: int = 4000,
    proposal: Optional[Callable] = None,
) -> SandwichReport:
    """Inner-in-outer containment and witness coverage of fat outer pieces.

    The input must be a single conjunction of weak conditions.  The outer
    region minus the tropicalization has empty interior for such sets, so
    every full-dimensional outer piece should contain an inner sample;
    persistently flagged pieces indicate a bug (or far too few samples).
    """
    weak = _normalize_weak_conjunction(S)
    cloud = sa_sample_trop(weak, attempts, cfg, proposal=proposal)
    escaped = inner_in_outer(weak, cloud)

    by_orthant: dict[Orthant, list[tuple[Fraction, ...]]] = {}
    for z in cloud.points():
        by_orthant.setdefault(point_orthant(z), []).append(point_valuations(z))

    records: list[PieceRecord] = []
    for sigma, region in sa_outer_all(weak).items():
        m = len(orthant_support(sigma))
        inner_here = by_orthant.get(sigma, [])
        for i, piece in enumerate(region.pieces):
            d = poly_dim(piece)
            witnessed = any(piece.contains(v) for v in inner_here)
            records.append(PieceRecord(sigma, i, d, d == m, witnessed))
    return SandwichReport(len(cloud), escaped, records)


# ---------------------------------------------------------------------------
# Lifting valid tropical inequalities to polynomial inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftResult:
    poly: PolyK
    epsilon: Fraction
    samples_checked: int
    certificate: str = "outer-region"  # or "inner-samples"


def _representative(c: SignedTropVal) -> PuiseuxSeries:
    """The canonical witness c.sign * t**c.val of a signed value."""
    return PuiseuxSeries.t_power(c.val, c.sign)


def collect_samples(
    S: SADescription,
    cfg: SamplerConfig,
    n: int,
    sigma: Optional[Orthant] = None,
    proposal: Optional[Callable] = None,
    max_attempts: Optional[int] = None,
) -> list[tuple[PuiseuxSeries, ...]]:
    """Up to n verified members of S (restricted to an orthant when given)."""
    rng = random.Random(cfg.seed)
    out: list[tuple[PuiseuxSeries, ...]] = []
    if n <= 0:
        return out
    budget = max_attempts if max_attempts is not None else max(200, 60 * n)
    for p in _candidates(S, cfg, rng, budget, proposal):
        if not sa_member(S, p):
            continue
        if sigma is not None and point_orthant(trop_point(p)) != sigma:
            continue
        out.append(p)
        if len(out) >= n:
            break
    return out


def lift_inequality(
    F: TropPoly,
    S: SADescription,
    sigma: Orthant,
    cfg: SamplerConfig,
    samples: Optional[Sequence[tuple[PuiseuxSeries, ...]]] = None,
    n_samples: int = 200,
    eps_budget: int = 1000,
    proposal: Optional[Callable] = None,
) -> LiftResult:
    """A polynomial f with trop(f) = F exactly and f >= 0 on samples of S.

    Requires the all-positive orthant and that F >= 0 is a valid tropical
    inequality for S.  Validity is certified at the strongest available
    level: if {F >= 0} covers the whole outer region, the certificate is
    "outer-region"; otherwise F must hold at every sampled tropical point
    of the set (an exact necessary condition, certificate "inner-samples";
    the outer region can strictly exceed the tropicalization, so a valid F
    need not cover it).  The positive part of F is realized by canonical
    monomial coefficients; the negative part is scaled by epsilon in
    {1, 1/2, 1/3, ...} (all of unit magnitude, so the tropicalization is
    unchanged) until every verification sample satisfies f >= 0 exactly.
    Verification is sample-based: success means "verified on N samples",
    not a proof over all of S.  When no samples are passed in, they are
    drawn only if a step needs them; a step that needs samples and has none
    raises NoEpsilonFound.
    """
    if any(s != 1 for s in sigma):
        raise PreconditionFailed("lifting works in the all-positive orthant")
    if F.nvars != S.nvars or len(sigma) != S.nvars:
        raise DimensionMismatch("dimension mismatch")

    pos = [(e, c) for e, c in F.terms if c.sign > 0]
    neg = [(e, c) for e, c in F.terms if c.sign < 0]
    covered = union_subset(sa_outer(S, sigma), trop_region(F, sigma, "ge"))
    if neg or not covered:
        if samples is None:
            samples = collect_samples(
                S, cfg, n_samples, sigma=sigma, proposal=proposal
            )
        if not samples:
            raise NoEpsilonFound("no verification samples of the set were found")

    if covered:
        certificate = "outer-region"
    elif all(trop_sat(F, trop_point(p), "ge") for p in samples):
        certificate = "inner-samples"
    else:
        raise PreconditionFailed(
            "the tropical inequality fails on sampled points of the set"
        )

    pos_poly = PolyK.from_terms(F.nvars, ((e, _representative(c)) for e, c in pos))
    neg_poly = PolyK.from_terms(F.nvars, ((e, _representative(c)) for e, c in neg))
    if not neg:
        return LiftResult(pos_poly, Fraction(1), 0, certificate)

    for k in range(1, eps_budget + 1):
        eps = Fraction(1, k)
        f_eps = pos_poly + neg_poly.scale(PuiseuxSeries.const(eps))
        if all(laurent_sign(f_eps, p) >= 0 for p in samples):
            if trop_r(f_eps) != F:
                raise AssertionError("lift lost the prescribed tropicalization")
            return LiftResult(f_eps, eps, len(samples), certificate)
    raise NoEpsilonFound(f"no epsilon in 1..1/{eps_budget} verified on samples")


# ---------------------------------------------------------------------------
# Finite tropical descriptions of polyhedral targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisResult:
    polys: tuple[PolyK, ...]
    region: PolyUnion  # intersection of the tropical regions, per construction == T


def basis_region(polys: Sequence[PolyK], sigma: Orthant) -> PolyUnion:
    return trop_conjunction(((trop_r(f), "ge") for f in polys), sigma)


def finite_basis(
    T: PolyUnion,
    S: SADescription,
    sigma: Orthant,
    cfg: SamplerConfig,
    samples: Optional[Sequence[tuple[PuiseuxSeries, ...]]] = None,
    n_samples: int = 200,
    proposal: Optional[Callable] = None,
) -> BasisResult:
    """Valid polynomial inequalities whose tropical regions intersect to T.

    T must be closed and contain the sampled tropicalization of the set in
    the given (all-positive) orthant.  The complement of T is covered by
    open polyhedra; each produces a tropical polynomial positive exactly on
    it, whose negation is lifted to a valid polynomial inequality on S.
    The returned family is verified: the intersection of the regions
    {trop(f_i) >= 0} equals T exactly.  Every such lift needs samples, so
    with none and a nonempty cover it raises NoEpsilonFound before pruning.
    """
    if any(s != 1 for s in sigma):
        raise PreconditionFailed("finite bases are built in the all-positive orthant")
    for piece in T.pieces:
        if not piece.is_closed_form():
            raise NotClosedInput("the target must be a closed union")

    if samples is None:
        samples = collect_samples(S, cfg, n_samples, sigma=sigma, proposal=proposal)
    for p in samples:
        z = trop_point(p)
        if point_orthant(z) == sigma and not T.contains(point_valuations(z)):
            raise PreconditionFailed(
                "the target does not contain the sampled tropicalization"
            )

    cover = complement_of_union(T)
    # every piece's lift has a negative constant term, so it needs samples
    if cover and not samples:
        raise NoEpsilonFound("no verification samples of the set were found")
    open_pieces = prune_covered_pieces(cover)

    polys: list[PolyK] = []
    for piece in open_pieces:
        F_p = open_poly_to_trop(valuation_piece_to_log(piece))
        lifted = lift_inequality(
            F_p.neg(), S, sigma, cfg, samples=samples, proposal=proposal
        )
        polys.append(lifted.poly)

    region = basis_region(polys, sigma)
    if not union_equal(region, T):
        raise AssertionError("basis verification failed: regions do not cut T")
    return BasisResult(tuple(polys), region)


# ---------------------------------------------------------------------------
# Witness search for prescribed tropical points
# ---------------------------------------------------------------------------


def witness_search(
    S: SADescription,
    z: TropPoint,
    budget: int,
    cfg: SamplerConfig,
) -> Optional[tuple[PuiseuxSeries, ...]]:
    """Search for a member of S tropicalizing exactly to z.

    Coordinates are sampled with the leading term pinned by z (exponent and
    sign fixed, magnitude random) and random higher-order tails, so every
    candidate tropicalizes to z by construction; only membership is tested.
    Returns the first witness, or None when the budget is exhausted --
    absence is a value, not an error, and is conclusive only when the outer
    region already excludes z.
    """
    if len(z) != S.nvars:
        raise DimensionMismatch("target point dimension mismatch")
    rng = random.Random(cfg.seed)
    lo, hi = cfg.coeff_range
    mag_hi = max(abs(lo), abs(hi), Fraction(1))
    for _ in range(budget):
        coords: list[PuiseuxSeries] = []
        for c in z:
            if c.sign == 0:
                coords.append(PS_ZERO)
                continue
            lead = Fraction(c.val)
            pairs = [(lead, c.sign * _positive_magnitude(rng, mag_hi, cfg))]
            for _ in range(rand_below(rng, cfg.max_terms)):
                step = _positive_magnitude(rng, Fraction(2), cfg)
                coeff = _signed_magnitude(rng, mag_hi, cfg)
                pairs.append((lead + step, coeff))
            coords.append(PuiseuxSeries.from_terms(pairs))
        p = tuple(coords)
        if sa_member(S, p):
            return p
    return None


def _positive_magnitude(rng: random.Random, hi: Fraction, cfg: SamplerConfig) -> Fraction:
    q = 1 + rand_below(rng, cfg.exponent_denominator_bound)
    num = 1 + rand_below(rng, max(1, int(hi * q)))
    return Fraction(num, q)


def _signed_magnitude(rng: random.Random, hi: Fraction, cfg: SamplerConfig) -> Fraction:
    return _positive_magnitude(rng, hi, cfg) * (-1, 1)[rand_below(rng, 2)]


def outer_excludes(S: SADescription, z: TropPoint) -> bool:
    """Whether the outer region already rules z out (making absence conclusive)."""
    return not outer_contains_point(S, z)


# ---------------------------------------------------------------------------
# Adjacency of outer pieces across orthants, and connectivity
# ---------------------------------------------------------------------------


def _is_face(sub: Orthant, sup: Orthant) -> bool:
    return all(s == 0 or s == t for s, t in zip(sub, sup))


def _restrict_drop(sup: Orthant, sub: Orthant) -> list[int]:
    """Positions inside support(sup) whose coordinates vanish in sub."""
    drop = []
    for pos, k in enumerate(orthant_support(sup)):
        if sub[k] == 0:
            drop.append(pos)
    return drop


def _touches(
    A: Polyhedron, sa: Orthant, B: Polyhedron, sb: Orthant
) -> bool:
    """Whether the closures of the two orthant pieces meet in a connecting way.

    Within one orthant this is the standard test closure(A) ∩ B or
    A ∩ closure(B) nonempty.  Across orthants, a piece can only reach a
    face orthant (some coordinates going to zero, i.e. valuations to +inf),
    and the reachable limit set is itself a polyhedron.
    """
    if sa == sb:
        return not poly_is_empty(A.closure().intersect(B)) or not poly_is_empty(
            A.intersect(B.closure())
        )
    if _is_face(sb, sa):
        L = limit_polyhedron(A, _restrict_drop(sa, sb))
        return L is not None and not poly_is_empty(L.intersect(B))
    if _is_face(sa, sb):
        L = limit_polyhedron(B, _restrict_drop(sb, sa))
        return L is not None and not poly_is_empty(L.intersect(A))
    return False


def adjacency_graph(
    regions: dict[Orthant, PolyUnion]
) -> tuple[list[tuple[Orthant, int]], set[tuple[int, int]]]:
    """Nodes are nonempty pieces (orthant, index); edges join touching pieces."""
    nodes: list[tuple[Orthant, int]] = []
    pieces: list[tuple[Polyhedron, Orthant]] = []
    for sigma in sorted(regions):
        for i, piece in enumerate(regions[sigma].pieces):
            if not poly_is_empty(piece):
                nodes.append((sigma, i))
                pieces.append((piece, sigma))
    edges: set[tuple[int, int]] = set()
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if _touches(pieces[i][0], pieces[i][1], pieces[j][0], pieces[j][1]):
                edges.add((i, j))
    return nodes, edges


def adjacency_connected(regions: dict[Orthant, PolyUnion]) -> bool:
    nodes, edges = adjacency_graph(regions)
    if len(nodes) <= 1:
        return True
    adj: dict[int, set[int]] = {i: set() for i in range(len(nodes))}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(nodes)
