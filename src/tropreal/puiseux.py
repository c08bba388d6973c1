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

The sampler draws series from a fixed rational grid, stratified over
leading exponents so that signed values of samples spread across the whole
valuation window rather than clustering at generic values.  The grid is:

- exponents k/q with q <= 2, in [-2, 2];
- nonzero coefficients k/q with q <= 2, in [-4, 4];
- at most 3 terms per series.

So every sample has a valuation in [-2, 2], and sampling cannot reach a
set whose tropical points all lie outside that box (the candidate loops of
:mod:`tropreal.semialg` add zero coordinates, of valuation +inf).  Only the
seed is settable (:class:`SamplerConfig`).  Sampler state is confined to
an explicitly passed generator; use independent seeds for concurrent
sampling.  A draw has two steps: the
random integers of one series are drawn, and :func:`ps_build` turns them
into a series.  The integers come in two draws in a row: the lead
(:func:`ps_lead_stream`: its exponent, then its coefficient) and the tail
(:func:`ps_draw_tail`: the number of terms, the exponents above the lead,
then their coefficients).  Every bounded draw is ``randrange(n)`` written
out: ``getrandbits(n.bit_length())`` until the result is below n, the same
words that ``randint`` of a plain :class:`random.Random` asks for, so a
seed gives the same series on every supported Python.  The integers a
draw needs are fixed once, at import, as a private plan.  Its exponent
windows are lead tables: the raw numerator draws of a denominator's
window, each as its exponent in lowest terms with its code, the
exponent's index among the grid's 9 exponents, so no draw reduces a
fraction and exponents compare by their codes.  Only the exponents and
coefficients that are kept become Fractions, through a memo of at most
256 entries.

Leads are drawn in one place, :func:`ps_lead_stream`: a generator that
draws the leads of one candidate vector per resume, its grid's rejection
loops inline, with no call per coordinate.  A coordinate may be zero,
decided by one ``rng.random()`` word before its lead.  With each vector
comes its integer lead key, one digit per coordinate in base
``LEAD_BASE`` = 19: 0 for a zero coordinate, else 2*code + 1 for a
positive lead and 2*code + 2 for a negative one.  Equal keys mean equal
signed lead values.  The stream draws only when it is resumed, so a
caller draws each lead's tail before the next resume.  ``ps_sample`` and
``witness_search`` resume one-coordinate streams, and the witness search
pins each lead to a signed value c (``ps_build(draw, lead=c)``), so that
the draw tropicalizes to c.

The split lets a caller decide a candidate before any series exists, and
before its tails are drawn.  The default candidate loop of
:mod:`tropreal.semialg` takes a candidate's leads and key from the
stream, rejects a candidate that the signs and exponents of its leads
already put outside the set, and draws tails only for the other
candidates, between resumes.  Those are then decided on their drawn
integers, and only members are built here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Iterable, Iterator, Optional

from .errors import PuiseuxDivisionError
from .hyperfields import INF, RT_ZERO, SignedTropVal, Val, as_rational
from .records import Record


class PuiseuxSeries(Record):
    """A finite formal sum of c * t**e terms in normal form."""

    __slots__ = _fields = ("terms",)
    terms: tuple[tuple[Fraction, Fraction], ...]  # (exponent, coefficient), exponents increasing

    def __init__(self, terms: tuple[tuple[Fraction, Fraction], ...]):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_terms(pairs: Iterable[tuple]) -> "PuiseuxSeries":
        """Build a series from (exponent, coefficient) pairs, normalizing."""
        acc: dict[Fraction, Fraction] = {}
        for e, c in pairs:
            if type(e) is not Fraction or type(c) is not Fraction:
                e, c = as_rational(e), as_rational(c)
            acc[e] = acc[e] + c if e in acc else c
        norm = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        return PuiseuxSeries(norm)

    @staticmethod
    def zero() -> "PuiseuxSeries":
        return PuiseuxSeries(())

    @staticmethod
    def const(c) -> "PuiseuxSeries":
        c = as_rational(c)
        return PuiseuxSeries(((Fraction(0), c),) if c != 0 else ())

    @staticmethod
    def one() -> "PuiseuxSeries":
        return PuiseuxSeries.const(1)

    @staticmethod
    def t_power(e, c=1) -> "PuiseuxSeries":
        c = as_rational(c)
        if c == 0:
            return PuiseuxSeries(())
        return PuiseuxSeries(((as_rational(e), c),))

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

    def scale(self, c) -> "PuiseuxSeries":
        c = as_rational(c)
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


class SamplerConfig(Record):
    """The seed of the stratified series sampler, read by the integer rule,
    ``operator.index``: None, a float or a text is refused, so a seed never
    falls back to the operating system's entropy.

    The grid it draws from is fixed: see the module docstring.
    """

    _fields = ("seed",)
    seed: int

    def __init__(self, seed: int = 0):
        object.__setattr__(self, "seed", index(seed))


def _window(q: int, bound: int) -> tuple[int, int, int, int]:
    """The window (q, lo, n, n.bit_length()) of [-bound, bound] for the
    denominator q: the grid points are k/q for k = lo, ..., lo + n - 1."""
    n = 2 * bound * q + 1
    return q, -bound * q, n, n.bit_length()


_EXPONENT_WINDOWS = (_window(1, 2), _window(2, 2))  # exponents in [-2, 2]

# The grid's distinct exponents, increasing; an exponent's code is its index here.
_LEAD_EXPONENTS = tuple(sorted({
    Fraction(lo + i, q) for q, lo, n, _ in _EXPONENT_WINDOWS for i in range(n)
}))
_LEAD_CODES = {(e.numerator, e.denominator): code for code, e in enumerate(_LEAD_EXPONENTS)}

# The digits of a lead key: 0 for a zero coordinate, 2*code + 1 for a
# positive lead and 2*code + 2 for a negative one.
LEAD_BASE = 2 * len(_LEAD_EXPONENTS) + 1


def _lead_table(
    window: tuple[int, int, int, int],
) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """An exponent window as the sampler reads it, (n, n.bit_length(), table):
    the raw draw i < n is the grid point (lo + i)/q, and table[i] is it as
    (k, q, code), in lowest terms."""
    q, lo, n, bits = window
    table = tuple(
        (e.numerator, e.denominator, _LEAD_CODES[e.numerator, e.denominator])
        for e in (Fraction(lo + i, q) for i in range(n))
    )
    return n, bits, table


# The sampler's plan: the bound on the number of terms and the bound on
# denominators, each with its bit length, then the exponent windows of the
# denominators 1 and 2, as lead tables, and their coefficient windows.
_PLAN = (
    3, (3).bit_length(), 2, (2).bit_length(),
    tuple(_lead_table(w) for w in _EXPONENT_WINDOWS),
    (_window(1, 4), _window(2, 4)),  # coefficients in [-4, 4]
)


@lru_cache(maxsize=256)
def _fraction(k: int, q: int) -> Fraction:
    return Fraction(k, q)


SeriesDraw = list[tuple[int, int, int, int]]  # (k, q, ck, cq) per term: t**(k/q) * ck/cq
Lead = tuple[int, int, int, int]  # (k, q, ck, cq): t**(k/q) * ck/cq, k/q in lowest terms


def ps_lead_stream(
    rng: random.Random, nvars: int, zero_prob: float
) -> Iterator[tuple[list[Optional[Lead]], int]]:
    """The leads of candidates with nvars coordinates, one candidate per resume,
    each with its integer lead key.

    Coordinate by coordinate, a coordinate is zero (None) when
    ``rng.random() < zero_prob``, a word that is drawn only when zero_prob
    is positive; otherwise its lead is drawn.  The exponent is drawn
    uniformly from the rational exponent grid (valuation stratification),
    then its nonzero coefficient from the coefficient grid.  A grid draw
    takes a denominator q <= 2 and then a raw numerator i below the size n
    of q's window; an exponent is read from the window's lead table, in
    lowest terms, and a coefficient draw is repeated until it is nonzero.
    Every draw below n is ``randrange(n)`` written out:
    ``getrandbits(n.bit_length())`` until the result is below n.

    The key has one digit per coordinate, the first the most significant,
    in base ``LEAD_BASE``: 0 for a zero coordinate, else 2*code + 1 for a
    positive lead and 2*code + 2 for a negative one, where code is the
    lead exponent's index among the grid's exponents.  Two candidates have
    the same key exactly when their leads have the same signs and
    exponents.  Only the words of the candidates resumed for are drawn, so
    a caller may draw tails between resumes.
    """
    getrandbits = rng.getrandbits
    uniform = rng.random
    _, _, dbound, dbound_bits, exp_windows, coeff_windows = _PLAN
    base = LEAD_BASE
    coords = range(nvars)
    while True:
        leads: list[Optional[Lead]] = []
        key = 0
        for _ in coords:
            if zero_prob and uniform() < zero_prob:
                leads.append(None)
                key *= base
                continue
            q = getrandbits(dbound_bits)
            while q >= dbound:
                q = getrandbits(dbound_bits)
            n, bits, table = exp_windows[q]
            k = getrandbits(bits)
            while k >= n:
                k = getrandbits(bits)
            k, q, code = table[k]
            ck = 0
            while not ck:
                cq = getrandbits(dbound_bits)
                while cq >= dbound:
                    cq = getrandbits(dbound_bits)
                cq, lo, n, bits = coeff_windows[cq]
                ck = getrandbits(bits)
                while ck >= n:
                    ck = getrandbits(bits)
                ck += lo
            leads.append((k, q, ck, cq))
            key = key * base + 2 * code + (1 if ck > 0 else 2)
        yield leads, key


def ps_draw_tail(rng: random.Random, lead: Lead) -> SeriesDraw:
    """The draw of a series with the given lead: ``lead``, then one
    (k, q, ck, cq) per tail term, exponents increasing.

    The number of terms is drawn first; further exponents, when any, are
    drawn from the exponent grid, keeping distinct ones above the lead's,
    at most four tries per term; then each kept exponent, in increasing
    order, gets a nonzero coefficient.  The grid draws are those of
    :func:`ps_lead_stream`, and exponents are compared by their codes.
    """
    getrandbits = rng.getrandbits
    max_terms, terms_bits, dbound, dbound_bits, exp_windows, coeff_windows = _PLAN
    extra = getrandbits(terms_bits)
    while extra >= max_terms:
        extra = getrandbits(terms_bits)
    if not extra:
        return [lead]
    lead_code = _LEAD_CODES[lead[0], lead[1]]
    exps: list[tuple[int, int, int]] = []
    for _ in range(4 * extra):
        q = getrandbits(dbound_bits)
        while q >= dbound:
            q = getrandbits(dbound_bits)
        n, bits, table = exp_windows[q]
        k = getrandbits(bits)
        while k >= n:
            k = getrandbits(bits)
        e = table[k]
        if e[2] > lead_code and e not in exps:
            exps.append(e)
            if len(exps) == extra:
                break
    # order the tail before it gets coefficients
    exps.sort(key=lambda e: e[2])
    terms = [lead]
    for k, q, _ in exps:
        ck = 0
        while not ck:
            cq = getrandbits(dbound_bits)
            while cq >= dbound:
                cq = getrandbits(dbound_bits)
            cq, lo, n, bits = coeff_windows[cq]
            ck = getrandbits(bits)
            while ck >= n:
                ck = getrandbits(bits)
            ck += lo
        terms.append((k, q, ck, cq))
    return terms


def ps_build(draw: SeriesDraw, lead: Optional[SignedTropVal] = None) -> PuiseuxSeries:
    """The series of a draw (:func:`ps_draw_tail`); exponents and
    coefficients become Fractions here.

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

    The lead of a one-coordinate :func:`ps_lead_stream`, then its tail
    (:func:`ps_draw_tail`).  The lead does not depend on the number of
    terms or on the tail, so a series has the distribution it had when the
    number of terms was drawn first.
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    (lead,), _ = next(ps_lead_stream(rng, 1, 0))
    return ps_build(ps_draw_tail(rng, lead))
