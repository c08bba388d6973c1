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
in a row.  Every bounded draw is ``randrange`` written out, the loop of
:func:`rand_below`: it asks ``getrandbits`` for the same words that
``randint`` and ``choice`` of a plain :class:`random.Random` ask for, so
a seed gives the same series on every supported Python.  The integers a
draw needs are fixed once per :class:`SamplerConfig`, as a private plan;
the grid window of a denominator is computed the first time that
denominator is drawn, so memory depends on the denominators drawn and
never on how wide the ranges are.  Only the exponents and coefficients
that are kept become Fractions, through a memo of at most 256 entries.

The split lets a caller decide a candidate before any series exists.
The default candidate loop of :mod:`tropreal.semialg` reads the leading
terms off the integers of each coordinate's draw and rejects a candidate
that its leading terms already put outside the set; only the other
candidates are built and tested exactly, where ``laurent_sign`` decides
a sign from the leading terms, then from the initial form, and only when
that cancels from the full series.
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
            acc[e] = acc.get(e, Fraction(0)) + c
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


def ps_cmp(a: PuiseuxSeries, b: PuiseuxSeries) -> int:
    return a.cmp(b)


def signed_trop(a: PuiseuxSeries) -> SignedTropVal:
    return a.signed_trop()


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


def rand_below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for n > 0, as a plain :class:`random.Random` draws it.

    ``randrange`` calls ``getrandbits(n.bit_length())`` until the result is
    below n; so does this, without the argument checks, so both consume the
    same words and return the same int.  ``randint(a, b)`` is
    ``a + rand_below(rng, b - a + 1)`` and ``choice(seq)`` is
    ``seq[rand_below(rng, len(seq))]``.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


@lru_cache(maxsize=256)
def _fraction(k: int, q: int) -> Fraction:
    return Fraction(k, q)


SeriesDraw = list[tuple[int, int, int, int]]  # (k, q, ck, cq) per term: t**(k/q) * ck/cq


def ps_draw(cfg: SamplerConfig, rng: random.Random) -> SeriesDraw:
    """The integers of one :func:`ps_sample` draw, before any series is built.

    The number of terms is drawn first.  The leading exponent is drawn
    uniformly from the configured rational grid (valuation stratification);
    further exponents, when any, are drawn from the same grid above the
    leading one; then each kept exponent, in increasing order, gets a
    nonzero coefficient from the coefficient grid.  A grid draw takes a
    denominator q <= the bound, reads the window of q from the plan, and
    then takes a numerator k with k/q in the window.

    Every draw below n is ``randrange(n)`` written out:
    ``getrandbits(n.bit_length())`` until the result is below n, so a draw
    takes the same ``getrandbits`` words as :func:`rand_below` and the
    ``randint`` sampler before it.  Returns one (k, q, ck, cq) per term,
    the lead first and exponents increasing: the exponent k/q in lowest
    terms and the coefficient ck/cq with ck nonzero.
    """
    getrandbits = rng.getrandbits
    max_terms, terms_bits, dbound, dbound_bits, exp_windows, coeff_windows = cfg._plan
    extra = getrandbits(terms_bits)
    while extra >= max_terms:
        extra = getrandbits(terms_bits)
    # The first pass draws the lead; each later pass keeps a draw above it.
    exps: list[tuple[int, int]] = []
    lead_k = lead_q = 0
    for _ in range(1 + 4 * extra):
        q = getrandbits(dbound_bits)
        while q >= dbound:
            q = getrandbits(dbound_bits)
        q, lo, n, bits = exp_windows[q + 1]
        k = getrandbits(bits)
        while k >= n:
            k = getrandbits(bits)
        k += lo
        if not lead_q:
            lead_k, lead_q = k, q
        elif k * lead_q <= lead_k * q:
            continue
        g = gcd(k, q)
        e = (k // g, q // g)
        if e not in exps:
            exps.append(e)
            if len(exps) > extra:
                break
    # The lead is first and least; order the rest before they get coefficients.
    if len(exps) > 2:
        common = lcm(*(q for _, q in exps))
        exps.sort(key=lambda e: e[0] * (common // e[1]))
    terms = []
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


def ps_build(draw: SeriesDraw) -> PuiseuxSeries:
    """The series of a :func:`ps_draw`; exponents and coefficients become Fractions here."""
    # distinct increasing exponents and nonzero coefficients: already in normal form
    return PuiseuxSeries(tuple(
        [(_fraction(k, q), _fraction(ck, cq)) for k, q, ck, cq in draw]
    ))


def ps_sample(cfg: SamplerConfig, rng: Optional[random.Random] = None) -> PuiseuxSeries:
    """Draw one nonzero series; deterministic for a fixed config when rng is None.

    This is ``ps_build(ps_draw(cfg, rng))``; see :func:`ps_draw` for the
    distribution and the random words a draw consumes.
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    return ps_build(ps_draw(cfg, rng))
