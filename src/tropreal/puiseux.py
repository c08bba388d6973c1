"""Finite real Puiseux series with rational data, and their signed values.

A series here is a finite sum of terms c * t**e with rational coefficients
c and rational exponents e, kept in a unique normal form (strictly
increasing exponents, no zero coefficients).  Finite series are closed
under ring operations and integer powers, so all arithmetic is exact; no
truncation bookkeeping is ever needed.  Division is deliberately absent --
inverting a general series needs an infinite tail -- except for the exact
special case of a single-term series.

The parameter t is an infinitesimal: the series are ordered by their
leading (smallest-exponent) term, positive series being those with a
positive leading coefficient.  The valuation of a series is its leading
exponent (+inf for zero), its magnitude is e**(-valuation), and its signed
value is the pair (sign of leading coefficient, valuation), an element of
the signed tropical hyperfield of :mod:`tropreal.hyperfields`.

The sampler draws series from a bounded rational grid, stratified over
leading exponents so that signed values of samples spread across the whole
configured valuation window rather than clustering at generic values.
Sampler state is confined to an explicitly passed generator; use
independent seeds for concurrent sampling.  A draw has two steps:
:func:`ps_draw` takes the random integers of one series in one frame, and
:func:`ps_build` turns them into a series; :func:`ps_sample` is the two
in a row.  :func:`ps_draw` is itself two draws in a row: the lead
(:func:`ps_draw_lead`: its exponent, then its coefficient) and the tail
(:func:`ps_draw_tail`: the number of terms, the exponents above the lead,
then their coefficients).  Every bounded draw is ``randrange(n)`` written
out: ``getrandbits(n.bit_length())`` until the result is below n, the same
words that ``randint`` of a plain :class:`random.Random` asks for, so a
seed gives the same series on every supported Python.  The integers a
draw needs are fixed once per :class:`SamplerConfig`, as a private plan;
the grid window of a denominator is computed the first time that
denominator is drawn, so memory depends on the denominators drawn and
never on how wide the ranges are.  Only the exponents and coefficients
that are kept become Fractions, through a memo of at most 256 entries.

``witness_search`` builds its draws with the lead pinned to a signed
value c (``ps_build(draw, lead=c)``), so that they tropicalize to c.

The split lets a caller decide a candidate before any series exists, and
before its tails are drawn.  The default candidate loop of
:mod:`tropreal.semialg` draws each coordinate's lead, rejects a candidate
that its leads already put outside the set, and draws tails only for the
other candidates; those are built and tested exactly, where
``laurent_sign`` decides a sign from the initial form, and only when that
cancels from the lowest terms of the full series.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Union

from .errors import PuiseuxDivisionError
from .hyperfields import INF, RT_ZERO, SignedTropVal, Val

_RatLike = Union[int, str, Fraction]


def _frac(x: _RatLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, slots=True)
class PuiseuxSeries:
    """A finite formal sum of c * t**e terms in normal form."""

    terms: tuple[tuple[Fraction, Fraction], ...]  # (exponent, coefficient), exponents increasing

    @staticmethod
    def from_terms(pairs: Iterable[tuple[_RatLike, _RatLike]]) -> "PuiseuxSeries":
        """Build a series from (exponent, coefficient) pairs, normalizing."""
        acc: dict[Fraction, Fraction] = {}
        for e, c in pairs:
            e, c = _frac(e), _frac(c)
            acc[e] = acc[e] + c if e in acc else c
        norm = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        return PuiseuxSeries(norm)

    @staticmethod
    def zero() -> "PuiseuxSeries":
        return PuiseuxSeries(())

    @staticmethod
    def const(c: _RatLike) -> "PuiseuxSeries":
        c = _frac(c)
        return PuiseuxSeries(((Fraction(0), c),) if c != 0 else ())

    @staticmethod
    def one() -> "PuiseuxSeries":
        return PuiseuxSeries.const(1)

    @staticmethod
    def t_power(e: _RatLike, c: _RatLike = 1) -> "PuiseuxSeries":
        c = _frac(c)
        if c == 0:
            return PuiseuxSeries(())
        return PuiseuxSeries(((_frac(e), c),))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def val(self) -> Val:
        return self.terms[0][0] if self.terms else INF

    def sign(self) -> int:
        if not self.terms:
            return 0
        c = self.terms[0][1]
        return 1 if c > 0 else -1

    def signed_trop(self) -> SignedTropVal:
        """The signed value: (sign of leading coefficient, leading exponent)."""
        if not self.terms:
            return RT_ZERO
        e, c = self.terms[0]
        return SignedTropVal(1 if c > 0 else -1, e)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return PuiseuxSeries.from_terms(self.terms + other.terms)

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return PuiseuxSeries.from_terms(
            (e1 + e2, c1 * c2) for e1, c1 in self.terms for e2, c2 in other.terms
        )

    def scale(self, c: _RatLike) -> "PuiseuxSeries":
        c = _frac(c)
        if c == 0:
            return PuiseuxSeries(())
        return PuiseuxSeries(tuple((e, c * k) for e, k in self.terms))

    def __pow__(self, k: int) -> "PuiseuxSeries":
        if not isinstance(k, int):
            raise ValueError("series powers must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        out = PuiseuxSeries.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def inverse(self) -> "PuiseuxSeries":
        """Exact inverse, available only for single-term series."""
        if not self.is_monomial():
            raise PuiseuxDivisionError(
                "only monomial series have a finite exact inverse"
            )
        e, c = self.terms[0]
        return PuiseuxSeries(((-e, 1 / c),))

    # -- order -------------------------------------------------------------

    def cmp(self, other: "PuiseuxSeries") -> int:
        """-1, 0, or 1: the unique field order (positive = positive leading coefficient)."""
        return (self - other).sign()

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __repr__(self) -> str:
        return f"PuiseuxSeries({self.text()})"

    def text(self) -> str:
        """Human-readable form like '2 - 1/3*t^(1/2) + t^2'."""
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            neg = c < 0
            mag = -c if neg else c
            if e == 0:
                body = str(mag)
            else:
                exp = str(e) if e.denominator == 1 and e >= 0 else f"({e})"
                tpart = "t" if e == 1 else f"t^{exp}"
                body = tpart if mag == 1 else f"{mag}*{tpart}"
            if i == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)


PS_ZERO = PuiseuxSeries.zero()
PS_ONE = PuiseuxSeries.one()


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    """Bounds and seed for the stratified series sampler.

    Exponents are drawn from the rational grid of the given range with
    denominators up to ``exponent_denominator_bound``; coefficients come
    from the analogous grid of ``coeff_range`` minus zero.

    The integers a draw needs (the term and denominator bounds with their
    bit lengths, and the grid windows of both ranges) are fixed here as a
    private plan; a window is computed the first time its denominator is
    drawn.  The plan is not a field, so equality, hashing and the repr see
    only the fields above.
    """

    max_terms: int = 3
    exponent_denominator_bound: int = 2
    exponent_range: tuple[Fraction, Fraction] = (Fraction(-2), Fraction(2))
    coeff_range: tuple[Fraction, Fraction] = (Fraction(-4), Fraction(4))
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.max_terms, int) or self.max_terms < 1:
            raise ValueError("max_terms must be a positive integer")
        dbound = self.exponent_denominator_bound
        if not isinstance(dbound, int) or dbound < 1:
            raise ValueError("exponent_denominator_bound must be a positive integer")
        lo, hi = self.exponent_range
        object.__setattr__(self, "exponent_range", (_frac(lo), _frac(hi)))
        lo, hi = self.coeff_range
        object.__setattr__(self, "coeff_range", (_frac(lo), _frac(hi)))
        if self.exponent_range[0] > self.exponent_range[1]:
            raise ValueError("empty exponent range")
        if self.coeff_range[0] > self.coeff_range[1]:
            raise ValueError("empty coefficient range")
        object.__setattr__(self, "_plan", (
            self.max_terms, self.max_terms.bit_length(), dbound, dbound.bit_length(),
            _GridWindows(self.exponent_range, dbound), _GridWindows(self.coeff_range, dbound),
        ))


class _GridWindows(dict):
    """The grid windows of one rational range, by denominator, built on first use.

    The window of q is (q', lo, n, n.bit_length()): the grid points of the
    range are k/q' for k = lo, ..., lo + n - 1.  q' is q, or the denominator
    bound when no multiple of 1/q lies in the range; when none of 1/bound
    does either, the lookup raises ValueError.
    """

    def __init__(self, bounds: tuple[Fraction, Fraction], dbound: int):
        super().__init__()
        lo, hi = bounds
        self.lo_n, self.lo_d = lo.numerator, lo.denominator
        self.hi_n, self.hi_d = hi.numerator, hi.denominator
        self.dbound = dbound

    def __missing__(self, q: int) -> tuple[int, int, int, int]:
        lo = -(-self.lo_n * q // self.lo_d)
        n = self.hi_n * q // self.hi_d - lo + 1
        if n > 0:
            window = (q, lo, n, n.bit_length())
        elif q != self.dbound:
            window = self[self.dbound]
        else:
            raise ValueError("rational grid is empty in the configured range")
        self[q] = window
        return window


@lru_cache(maxsize=256)
def _fraction(k: int, q: int) -> Fraction:
    return Fraction(k, q)


SeriesDraw = list[tuple[int, int, int, int]]  # (k, q, ck, cq) per term: t**(k/q) * ck/cq


def ps_draw_lead(cfg: SamplerConfig, rng: random.Random) -> tuple[int, int, int, int]:
    """The lead (k, q, ck, cq) of one draw: t**(k/q) * ck/cq, with k/q in lowest terms.

    The exponent is drawn uniformly from the configured rational grid
    (valuation stratification), then its nonzero coefficient from the
    coefficient grid.  A grid draw takes a denominator q <= the bound,
    reads the window of q from the plan, and then takes a numerator k with
    k/q in the window; a coefficient draw is repeated, at most 64 times,
    until it is nonzero.  Every draw below n is ``randrange(n)`` written
    out: ``getrandbits(n.bit_length())`` until the result is below n.
    """
    getrandbits = rng.getrandbits
    _, _, dbound, dbound_bits, exp_windows, coeff_windows = cfg._plan
    q = getrandbits(dbound_bits)
    while q >= dbound:
        q = getrandbits(dbound_bits)
    q, lo, n, bits = exp_windows[q + 1]
    k = getrandbits(bits)
    while k >= n:
        k = getrandbits(bits)
    k += lo
    g = gcd(k, q)
    for _ in range(64):
        cq = getrandbits(dbound_bits)
        while cq >= dbound:
            cq = getrandbits(dbound_bits)
        cq, lo, n, bits = coeff_windows[cq + 1]
        ck = getrandbits(bits)
        while ck >= n:
            ck = getrandbits(bits)
        ck += lo
        if ck:
            return k // g, q // g, ck, cq
    raise ValueError("coefficient range contains only zero")


def ps_draw_tail(
    cfg: SamplerConfig, rng: random.Random, lead: tuple[int, int, int, int]
) -> SeriesDraw:
    """The draw of a series with the given lead: ``lead``, then one
    (k, q, ck, cq) per tail term, exponents increasing.

    The number of terms is drawn first; further exponents, when any, are
    drawn from the exponent grid, keeping distinct ones above the lead's,
    at most four tries per term; then each kept exponent, in increasing
    order, gets a nonzero coefficient.  The grid draws are those of
    :func:`ps_draw_lead`.
    """
    getrandbits = rng.getrandbits
    max_terms, terms_bits, dbound, dbound_bits, exp_windows, coeff_windows = cfg._plan
    extra = getrandbits(terms_bits)
    while extra >= max_terms:
        extra = getrandbits(terms_bits)
    if not extra:
        return [lead]
    lead_k, lead_q, _, _ = lead
    exps: list[tuple[int, int]] = []
    for _ in range(4 * extra):
        q = getrandbits(dbound_bits)
        while q >= dbound:
            q = getrandbits(dbound_bits)
        q, lo, n, bits = exp_windows[q + 1]
        k = getrandbits(bits)
        while k >= n:
            k = getrandbits(bits)
        k += lo
        if k * lead_q <= lead_k * q:
            continue
        g = gcd(k, q)
        e = (k // g, q // g)
        if e not in exps:
            exps.append(e)
            if len(exps) == extra:
                break
    # order the tail before it gets coefficients
    if len(exps) > 1:
        common = lcm(*(q for _, q in exps))
        exps.sort(key=lambda e: e[0] * (common // e[1]))
    terms = [lead]
    for k, q in exps:
        for _ in range(64):
            cq = getrandbits(dbound_bits)
            while cq >= dbound:
                cq = getrandbits(dbound_bits)
            cq, lo, n, bits = coeff_windows[cq + 1]
            ck = getrandbits(bits)
            while ck >= n:
                ck = getrandbits(bits)
            ck += lo
            if ck:
                break
        else:
            raise ValueError("coefficient range contains only zero")
        terms.append((k, q, ck, cq))
    return terms


def ps_draw(cfg: SamplerConfig, rng: random.Random) -> SeriesDraw:
    """The integers of one :func:`ps_sample` draw, before any series is built.

    The lead first (:func:`ps_draw_lead`: its exponent, then its
    coefficient), then the tail (:func:`ps_draw_tail`: the number of
    terms, the exponents above the lead, then their coefficients).  The
    lead coefficient does not depend on the number of terms or on the
    tail, so a series has the distribution it had when the number of terms
    was drawn first.  Returns one (k, q, ck, cq) per term, the lead first
    and exponents increasing: the exponent k/q in lowest terms and the
    coefficient ck/cq with ck nonzero.
    """
    return ps_draw_tail(cfg, rng, ps_draw_lead(cfg, rng))


def ps_build(draw: SeriesDraw, lead: Optional[SignedTropVal] = None) -> PuiseuxSeries:
    """The series of a :func:`ps_draw`; exponents and coefficients become Fractions here.

    With ``lead``, a nonzero signed value c, every exponent is shifted by
    c's valuation minus the drawn lead exponent and the lead coefficient
    takes c's sign, so the series tropicalizes to c; the gaps between
    exponents, the lead's magnitude and the tail coefficients stay as drawn.
    """
    # distinct increasing exponents and nonzero coefficients: already in normal form
    if lead is None:
        return PuiseuxSeries(tuple(
            [(_fraction(k, q), _fraction(ck, cq)) for k, q, ck, cq in draw]
        ))
    k0, q0, ck0, cq0 = draw[0]
    shift = lead.val - _fraction(k0, q0)
    return PuiseuxSeries((
        (lead.val, _fraction(lead.sign * abs(ck0), cq0)),
        *[(_fraction(k, q) + shift, _fraction(ck, cq)) for k, q, ck, cq in draw[1:]],
    ))


def ps_sample(cfg: SamplerConfig, rng: Optional[random.Random] = None) -> PuiseuxSeries:
    """Draw one nonzero series; deterministic for a fixed config when rng is None.

    This is ``ps_build(ps_draw(cfg, rng))``; see :func:`ps_draw` for the
    distribution and the random words a draw consumes.
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    return ps_build(ps_draw(cfg, rng))
