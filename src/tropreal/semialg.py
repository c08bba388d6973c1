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
  certified superset.  Where dominant terms of opposite sign tie, the sum
  is balanced and the lower terms decide the sign, so any relation may
  hold there: the outer region of a condition admits a balanced sum
  beside the signs of ``SATISFIED_BY[rel]``.  Its rows are all weak, and
  only an equation keeps to the ties.  A description tropicalizes each
  condition as written, once, for all orthants and for the sampler: the
  outer region of a ``!=`` is the cells of its positive terms followed by
  those of its negative terms, so it needs no rewriting.  Whether the
  outer pieces are connected is decided by one walk over them, which
  takes them as nonempty, as the regions are built.

Whether one tropical point lies in the outer bound is decided at that
point alone, by ``outer_contains_point``, which the sampler also puts to
its candidates' leads: each condition is scored at the point's signs and
valuations, and holds there unless it is undefined or its dominant terms
share a sign its relation rejects.  That is membership in the region of
the point's orthant, read from the same ``_outer_conditions`` as
``sa_outer``, and no region is built.

A Laurent condition is undefined where a negative exponent meets a zero
coordinate, and an undefined condition does not hold.  The condition owns
that rule: ``SignCondition.holds_at`` is False at such a point, the
membership walk reads it from the mask of the condition's sign kernel,
and ``trop_conjunction`` is empty on an orthant that sets such a
coordinate to zero.  Membership and the outer region are both assembled
one disjunct at a time, so another disjunct that holds there still
counts, in any order.

The exact tropicalization in between is not computed in general (that
would need quantifier elimination over valued ordered fields); the
sandwich check instead verifies the structural facts that make the pair of
approximations informative: the inner cloud lies in the outer region, and
outer pieces of full dimension ought to be witnessed, since the difference
between the outer region and the tropicalization has empty interior for
conjunctions of weak inequalities.  It takes the inner cloud, already
drawn, and reads the description from it.  It reads containment from the
polyhedral regions it reports pieces of, not from the point test, so
the sampler's filter is checked against an independent method.

The lifting construction turns a tropical polynomial that is nonnegative
on the outer region into an actual polynomial inequality valid on the set
(verified on samples), with the prescribed tropicalization; chaining it
with complements of polyhedral unions yields a finite family of valid
inequalities whose tropical regions intersect back to a given target set.
Both work in the all-positive orthant and take their verification samples
from the caller; neither draws any, so only the samplers
(``sa_sample_trop`` and ``collect_samples``) choose how candidates are
drawn.

The default sampler decides each candidate from its drawn integers, and
builds a series only for a member or where an initial form cancels.  A
candidate's leads come first, all its coordinates' at once, from one
stream (:func:`ps_lead_stream`) that also gives their integer lead key.
First the lead signs and exponents: every condition is scored at the
leading signs and valuations of the coordinates, and a condition whose
dominant terms share a sign that its relation rejects, or that is
undefined there, fails.  A candidate with such a condition in every
disjunct is dropped with no tail drawn; a dict local to the sampling call
keeps each decision per lead key, up to a fixed bound.  The others get
their tails (:func:`ps_draw_tail`), between resumes of the stream,
whatever becomes of them, so the random words do not depend on the
verdict.  Then the lead coefficients: one three-valued walk over the
disjuncts (:func:`_verdict`) evaluates each condition's initial form, the
sum of the dominant terms' leading coefficients, at the drawn leads, in
integers; where it does not cancel it has the sign of the condition,
whatever the tails are.  The walk answers member, not a member, or
undecided.  A refuted candidate is dropped with no series built, a
member is built and kept, and only an undecided one is built and decided
by ``sa_member``, which is the same walk with the series at hand: it
reads a cancelled condition's sign from the lowest terms of the full
series.  A dropped candidate is outside the set whatever its tails are,
so dropping it loses no member.  The witness search takes whole draws
(:func:`ps_draw`), each with its lead pinned to the target, and judges
each by the same walk at the pinned leads.

Sampling and search are embarrassingly parallel over seeds; all exact
checks are pure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    DimensionMismatch,
    NegativeExponentAtZero,
    NoEpsilonFound,
    NotClosedInput,
    PreconditionFailed,
    ShapeMismatch,
)
from .hyperfields import INF, RT_ZERO, SATISFIED_BY, SignedTropVal, normalize_rel
from .polyhedra import (
    Orthant,
    PolyUnion,
    Polyhedron,
    _outcome_conjunction,
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
    union_subset,
    valuation_piece_to_log,
)
from .puiseux import (
    PS_ZERO,
    Lead,
    PuiseuxSeries,
    SamplerConfig,
    ps_build,
    ps_draw,
    ps_draw_tail,
    ps_lead_stream,
)
from .troppoly import (
    PolyK,
    TropPoint,
    TropPoly,
    _SignKernel,
    laurent_sign,
    series_leads,
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

    @cached_property
    def _outer_conditions(self) -> tuple[tuple[tuple[TropPoly, frozenset], ...], ...]:
        """The disjuncts as written, each condition as (shadow, the outcomes
        its tropicalization admits): those of its relation, and a balanced
        sum, where the condition may hold."""
        return tuple(
            tuple((trop_r(c.poly), SATISFIED_BY[c.rel] | {None}) for c in disj)
            for disj in self.disjuncts
        )

    @cached_property
    def _sign_conditions(self) -> tuple[tuple[tuple[_SignKernel, frozenset], ...], ...]:
        """The disjuncts as written, each condition as (the integer form of
        its cleared polynomial, the signs its relation accepts)."""
        return tuple([
            tuple([(c.poly._sign_kernel, SATISFIED_BY[c.rel]) for c in disj])
            for disj in self.disjuncts
        ])


def conjunction(nvars: int, conditions: Iterable[SignCondition]) -> SADescription:
    return SADescription(nvars, (tuple(conditions),))


def sa_member(S: SADescription, p: Sequence[PuiseuxSeries]) -> bool:
    """Exact membership of a Puiseux point, by DNF evaluation of signs.

    The walk of :func:`_verdict`, at the leads of p's coordinates
    (:func:`series_leads`) and with p itself to read a sign from where an
    initial form cancels, so every condition is decided.
    """
    p = tuple(p)
    if len(p) != S.nvars:
        raise DimensionMismatch("point dimension does not match description")
    return _verdict(S, series_leads(p), p)


def _verdict(
    S: SADescription,
    leads: Sequence[Optional[Lead]],
    p: Optional[tuple[PuiseuxSeries, ...]] = None,
) -> Optional[bool]:
    """Whether a point with these leads is in S: True, False, or None when
    that lies in tails that p does not give.

    The leads are those of :meth:`_SignKernel._initial`, (k, q, ck, cq) per
    coordinate or None for a zero coordinate.  The disjuncts are walked in
    order, and in each the conditions, in three steps.  A condition with a
    negative exponent on a zero coordinate is undefined there, and does not
    hold.  Otherwise its sign is that of its initial form at the leads
    (:meth:`_SignKernel.lead_sign`), whatever the tails are, unless that
    cancels; a disjunct with a decided sign its relation rejects fails.
    Only a disjunct that nothing refuted then reads the tails, for the
    conditions whose initial form cancelled, from the series p
    (:meth:`_SignKernel._truncated_value`); with no p, that disjunct is
    undecided.  So with p the answer is always True or False.
    """
    zeromask = 0
    bit = 1
    for lead in leads:
        if lead is None:
            zeromask |= bit
        bit <<= 1
    undecided = False
    for disj in S._sign_conditions:
        cancelled = []
        for kernel, ok in disj:
            if kernel.negmask & zeromask:
                break  # undefined at a zero coordinate
            sign = kernel.lead_sign(leads)
            if sign is None:
                cancelled.append((kernel, ok))
            elif sign not in ok:
                break
        else:
            if not cancelled:
                return True
            if p is None:
                undecided = True
            elif all(kernel._truncated_value(p).sign in ok for kernel, ok in cancelled):
                return True
    return None if undecided else False


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
        self._add_member(p)
        return True

    def _add_member(self, p: tuple[PuiseuxSeries, ...]) -> None:
        """Record the tropical point of p, a verified member."""
        self._points.setdefault(trop_point(p), p)

    def points(self) -> set[TropPoint]:
        return set(self._points)

    def items(self):
        return self._points.items()

    def __len__(self) -> int:
        return len(self._points)


_ZERO_PROB = 0.1  # the share of exactly zero candidate coordinates
_DECIDED_BOUND = 4096  # the most lead decisions one candidate loop remembers


def _candidates(
    S: SADescription,
    rng: random.Random,
    budget: int,
    proposal: Optional[Callable[[random.Random], tuple[PuiseuxSeries, ...]]] = None,
    sigma: Optional[Orthant] = None,
) -> Iterator[tuple[PuiseuxSeries, ...]]:
    """The members of S among `budget` draws, in the order they are drawn;
    with ``sigma``, only those in that orthant.

    A proposal's candidates are each tested by ``sa_member``.  A default
    candidate's leads come from :func:`ps_lead_stream`, one candidate per
    resume: each coordinate is exactly zero with probability
    ``_ZERO_PROB`` (one ``rng.random()`` word), and otherwise its lead is
    drawn.  The leads then decide nearly every candidate, in two steps and
    before any series is built.

    First their signs and exponents: the point of the leads' signed values
    is put to ``outer_contains_point``, where a condition fails when a
    coordinate under a negative exponent is zero (it is undefined) or when
    its dominant terms share a sign that the relation rejects.  A
    candidate outside the outer bound is dropped, and none of its tails is
    drawn.  That decision depends only on the leads' signs and reduced
    exponents, which the stream's integer lead key names, so a dict local
    to the call keeps it per key, up to ``_DECIDED_BOUND`` entries; later
    keys are decided each time.  The key also gives the leads' signs, so
    with ``sigma`` a candidate of another orthant is passed over once its
    tails are drawn.

    Then their coefficients.  Each nonzero coordinate's tail is drawn
    (:func:`ps_draw_tail`), in coordinate order and before the stream is
    resumed, so the random words come in the order of the plain loop,
    whatever becomes of the candidate.  The walk of :func:`_verdict` reads
    each condition's sign from its initial form at the drawn leads, which
    decides it whatever the tails are unless it cancels.  A refuted
    candidate is dropped with no series built; a member is built
    (:func:`ps_build`) and yielded; and only a candidate whose verdict
    rests on a cancelled initial form is built and decided by
    ``sa_member``, which reads the tails.

    :func:`ps_draw` is the lead and the tail in a row: ``witness_search``
    takes such draws and pins their leads, and only a scenario's proposal
    draws its own way.
    """
    if proposal is not None:
        for _ in range(budget):
            p = proposal(rng)
            if sa_member(S, p) and (sigma is None or tuple([c.sign() for c in p]) == sigma):
                yield p
        return
    draw_tail = ps_draw_tail
    # per lead key: 0 outside the outer bound, 1 inside it but in another
    # orthant than sigma (its tails are drawn, and nothing else), 2 judged
    decided: dict[int, int] = {}
    for _, (leads, key) in zip(range(budget), ps_lead_stream(rng, S.nvars, _ZERO_PROB)):
        step = decided.get(key)
        if step is None:
            z = tuple([
                RT_ZERO if lead is None
                else SignedTropVal(1 if lead[2] > 0 else -1, Fraction(lead[0], lead[1]))
                for lead in leads
            ])
            step = 0
            if outer_contains_point(S, z):
                step = 2 if sigma is None or point_orthant(z) == sigma else 1
            if len(decided) < _DECIDED_BOUND:
                decided[key] = step
        if not step:
            continue
        draws = [None if lead is None else draw_tail(rng, lead) for lead in leads]
        if step == 1:
            continue
        member = _verdict(S, leads)
        if member is False:
            continue
        p = tuple([PS_ZERO if draw is None else ps_build(draw) for draw in draws])
        if member or sa_member(S, p):
            yield p


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
    for p in _candidates(S, rng, count, proposal):
        cloud._add_member(tuple(p))
    return cloud


# ---------------------------------------------------------------------------
# Outer approximation: tropicalized describing inequalities, per orthant
# ---------------------------------------------------------------------------


def sa_outer(S: SADescription, sigma: Orthant) -> PolyUnion:
    """Exact polyhedral superset of the sigma-part of the tropicalization.

    Union over disjuncts of the intersection over conditions of the region
    of the tropicalized condition, where a balanced sum satisfies every
    relation: ``trop_region``'s region for the outcomes
    ``SATISFIED_BY[rel] | {None}``, with no strict row.  A strict condition
    can hold where its dominant terms tie, so ``trop_region(F, sigma, "gt")``
    itself would leave out members.  A disjunct with a condition undefined on
    sigma contributes nothing.  A single disjunct's region is returned as it
    is.  Several are joined keeping the first copy of each piece; a
    conjunction's pieces are nonempty already, so no piece is decided again.
    Orthants are never mixed; assembling a global picture is the caller's
    (reporting-level) concern.
    """
    if len(sigma) != S.nvars:
        raise DimensionMismatch("orthant length does not match description")
    regions = [_outcome_conjunction(conditions, sigma) for conditions in S._outer_conditions]
    if len(regions) == 1:
        return regions[0]
    first: dict[tuple, Polyhedron] = {}
    for region in regions:
        for p in region.pieces:
            first.setdefault(tuple(sorted(p.rows)), p)
    return PolyUnion(len(orthant_support(sigma)), tuple(first.values()))


def sa_outer_all(S: SADescription) -> dict[Orthant, PolyUnion]:
    """sa_outer on every orthant."""
    return {sigma: sa_outer(S, sigma) for sigma in all_orthants(S.nvars)}


def point_orthant(z: TropPoint) -> Orthant:
    return tuple(c.sign for c in z)


def point_valuations(z: TropPoint) -> tuple[Fraction, ...]:
    return tuple(c.val for c in z if c.sign != 0)


def outer_contains_point(S: SADescription, z: TropPoint) -> bool:
    """Whether the outer bound holds z, decided at z alone and with no region
    built: some disjunct has every condition defined at z, with its outcome
    there (the sign of the dominant terms, or None where opposite signs tie)
    among those its tropicalization admits."""
    if len(z) != S.nvars:
        raise DimensionMismatch("point dimension does not match description")
    for disj in S._outer_conditions:
        for F, ok in disj:
            try:
                outcome = F._val_kernel.outcome_at(z)
            except NegativeExponentAtZero:
                break
            if outcome not in ok:
                break
        else:
            return True
    return False


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


def sa_sandwich_check(cloud: SampleCloud) -> SandwichReport:
    """Inner-in-outer containment and witness coverage of fat outer pieces.

    The inner approximation is the cloud, and its description is the set.
    That description must be a single conjunction of weak conditions
    (``le``, ``ge`` or ``eq``), and it is taken as written.  The outer
    region minus the tropicalization has empty interior for such sets, so
    every full-dimensional outer piece should contain a cloud point;
    persistently flagged pieces indicate a bug (or far too few samples).
    The outer region is computed once, on every orthant, and both checks
    read it.
    """
    S = cloud.description
    if len(S.disjuncts) != 1:
        raise ShapeMismatch("need a single conjunction")
    for cond in S.disjuncts[0]:
        if cond.rel not in ("le", "ge", "eq"):
            raise ShapeMismatch(f"relation {cond.rel} is not a weak inequality")
    regions = sa_outer_all(S)
    escaped = [
        z
        for z in sorted_points(cloud.points())
        if not regions[point_orthant(z)].contains(point_valuations(z))
    ]

    by_orthant: dict[Orthant, list[tuple[Fraction, ...]]] = {}
    for z in cloud.points():
        by_orthant.setdefault(point_orthant(z), []).append(point_valuations(z))

    records: list[PieceRecord] = []
    for sigma, region in regions.items():
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
    """Up to n verified members of S (restricted to an orthant when given).

    The members come from the candidate loop (:func:`_candidates`), which
    decides a default candidate from its drawn leads and builds series only
    for members and for candidates whose initial form cancels.  The orthant
    is decided there too, from the lead key, before the lead coefficients
    are read.  An orthant of another length than S has variables is
    refused before any draw: no sample could ever lie in it.
    """
    if sigma is not None and len(sigma) != S.nvars:
        raise DimensionMismatch("orthant length does not match description")
    rng = random.Random(cfg.seed)
    out: list[tuple[PuiseuxSeries, ...]] = []
    if n <= 0:
        return out
    budget = max_attempts if max_attempts is not None else max(200, 60 * n)
    for p in _candidates(S, rng, budget, proposal, sigma):
        out.append(p)
        if len(out) >= n:
            break
    return out


def check_lift_width(F: TropPoly, S: SADescription) -> None:
    """Raise DimensionMismatch unless F and S have the same number of
    variables; a caller that draws samples for ``lift_inequality`` asks
    first, so a wrong width is refused before any draw."""
    if F.nvars != S.nvars:
        raise DimensionMismatch(f"F has {F.nvars} variable(s) and the description has {S.nvars}")


def lift_inequality(
    F: TropPoly,
    S: SADescription,
    samples: Sequence[tuple[PuiseuxSeries, ...]],
    eps_budget: int = 1000,
) -> LiftResult:
    """A polynomial f with trop(f) = F exactly and f >= 0 on samples of S.

    Works in the all-positive orthant and requires that F >= 0 is a valid
    tropical inequality for S there.  Validity is certified at the
    strongest available level: if {F >= 0} covers the whole outer region,
    the certificate is "outer-region"; otherwise F must hold at every
    sampled tropical point of the set (an exact necessary condition,
    certificate "inner-samples"; the outer region can strictly exceed the
    tropicalization, so a valid F need not cover it).  The positive part
    of F is realized by canonical monomial coefficients; the negative part
    is scaled by epsilon in {1, 1/2, 1/3, ...} (all of unit magnitude, so
    the tropicalization is unchanged) until every verification sample
    satisfies f >= 0 exactly.  Verification is sample-based: success means
    "verified on N samples", not a proof over all of S.  Epsilon is chosen
    from the given samples only, so a part of S that they miss is not
    covered and f can be negative there: ``tropreal check lift --seed 1
    --count 100`` reports ``FAIL: nonnegative on 500 fresh samples per
    instance (1 failures)``.  Only an F with a negative term reads the
    samples (one without is positive on the whole orthant), and such an F
    with none raises NoEpsilonFound.
    """
    check_lift_width(F, S)
    sigma = (1,) * S.nvars

    pos = [(e, c) for e, c in F.terms if c.sign > 0]
    neg = [(e, c) for e, c in F.terms if c.sign < 0]
    if neg and not samples:
        raise NoEpsilonFound("no verification samples of the set were found")
    covered = union_subset(sa_outer(S, sigma), trop_region(F, sigma, "ge"))

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
    samples: Sequence[tuple[PuiseuxSeries, ...]],
) -> BasisResult:
    """Valid polynomial inequalities whose tropical regions intersect to T.

    Works in the all-positive orthant.  T must be closed and contain the
    tropicalization of the samples in that orthant.  The complement of T
    is covered by open polyhedra; each produces a tropical polynomial
    positive exactly on it, whose negation is lifted to a valid polynomial
    inequality on S.  The returned family is verified: the intersection of
    the regions {trop(f_i) >= 0} equals T exactly.  Every such lift needs
    samples, so with none and a nonempty cover it raises NoEpsilonFound
    before pruning.  A target of the wrong dimension raises
    DimensionMismatch.
    """
    sigma = (1,) * S.nvars
    if T.dim != S.nvars:
        raise DimensionMismatch("target dimension does not match the orthant support")
    for piece in T.pieces:
        if not piece.is_closed_form():
            raise NotClosedInput("the target must be a closed union")

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
        polys.append(lift_inequality(F_p.neg(), S, samples).poly)

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

    Each nonzero coordinate c of z is a draw of the default sampler, seeded
    by ``cfg``, with its lead pinned to c (``ps_build(ps_draw(rng),
    lead=c)``); a zero coordinate is zero and draws nothing.  Every
    candidate tropicalizes to z by construction; only membership is
    tested, as in the candidate loop: the pinned leads, as integers, go
    to the walk of :func:`_verdict`, which decides a condition from its
    initial form unless that cancels.  A refuted draw builds no series; a
    member is built and returned; and only a draw whose verdict rests on
    a cancelled initial form is built and decided by ``sa_member``.
    Returns the first witness, or None when the budget is exhausted --
    absence is a value, not an error, and is conclusive only when the
    outer region already excludes z.
    """
    if len(z) != S.nvars:
        raise DimensionMismatch(
            f"the target has {len(z)} coordinate(s) and the description has {S.nvars} variable(s)"
        )
    rng = random.Random(cfg.seed)
    # each nonzero target coordinate as (numerator, denominator, sign)
    pins = [None if c.sign == 0 else (*c.val.as_integer_ratio(), c.sign) for c in z]
    for _ in range(budget):
        draws = [None if pin is None else ps_draw(rng) for pin in pins]
        leads = [
            None if pin is None else (pin[0], pin[1], pin[2] * abs(draw[0][2]), draw[0][3])
            for pin, draw in zip(pins, draws)
        ]
        member = _verdict(S, leads)
        if member is False:
            continue
        p = tuple([PS_ZERO if draw is None else ps_build(draw, c) for c, draw in zip(z, draws)])
        if member or sa_member(S, p):
            return p
    return None


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


def adjacency_connected(regions: dict[Orthant, PolyUnion]) -> bool:
    """Whether the pieces, joined where they touch, form one cluster.

    The pieces must be nonempty, as ``sa_outer_all`` and ``trop_region``
    return them; an empty piece would count as a cluster of its own.  A
    walk: the reached set grows from the first piece (orthants in sorted
    order), and each piece reached is tested with ``_touches`` only
    against the pieces not reached yet.  No piece, or one, is connected.
    """
    unreached = [(piece, sigma) for sigma in sorted(regions) for piece in regions[sigma].pieces]
    stack, unreached = unreached[:1], unreached[1:]
    while stack and unreached:
        A, sa = stack.pop()
        rest = []
        for B, sb in unreached:
            (stack if _touches(A, sa, B, sb) else rest).append((B, sb))
        unreached = rest
    return not unreached
