"""Laurent polynomials with Puiseux coefficients and their tropical shadows.

:class:`PolyK` is a polynomial (integer exponents, possibly negative) in
n variables whose coefficients are finite Puiseux series; it is stored
expanded and normalized, with pairwise distinct exponent vectors and no
zero coefficients.  :class:`TropPoly` is its shadow over the signed
tropical hyperfield: same exponent vectors, coefficients replaced by their
signed values.  ``trop_r`` performs that replacement.

Evaluation conventions at zero coordinates: a factor x**0 contributes one
and x**d with d > 0 contributes zero (the term is skipped).  One rule
decides undefinedness, on both sides and in every evaluator: a polynomial
is undefined at a point, and raises
:class:`~tropreal.errors.NegativeExponentAtZero`, when some term carries a
negative exponent on a coordinate that is zero there, whatever the other
coordinates of that term are and whatever the variable order.

Exact evaluation of a Laurent polynomial at Puiseux points avoids series
division: signs and signed values are computed through the cleared
polynomial g = f * x**m (sign-preserving even powers for signs, an exact
quotient of signed values for valuations).  ``eval_k`` returns the honest
series value and therefore supports negative exponents only where the
inverse stays finite, i.e. at monomial coordinates; no library path calls
it, and it stays as the reference that the integer kernels are tested
against.

``laurent_sign`` never builds that value.  It reads the sign of g(p) from
the Puiseux-level kernel, which evaluates g in plain integers, on p's
integer form: each coordinate as its terms (k, q, ck, cq), for
(ck/cq) * t**(k/q), lead first (``series_draws``), the form in which the
samplers draw a candidate, so they ask the same kernel before any series
is built.  Exponents are brought to one common denominator D, so
t**(1/D) becomes the integer exponent 1, and every coefficient is
multiplied by a positive integer so that no denominators are left.
Scaling a series by a positive constant keeps its sign, and renaming
exponents e -> D*e keeps their order, so the sign of g(p) is the sign of
the integer sum at its lowest exponent with a nonzero coefficient.  That
lowest term is found in two steps.  First the initial form: the terms of
g are scored at the leads, and the dominant terms' leading coefficients
are summed.  The sum is the coefficient of the lowest power of t in
g(p), up to a positive factor, so when it is nonzero it decides, whatever
the tails are; it is nonzero whenever the dominant terms share one sign.
Only when it cancels are the lowest terms computed from the tails:
powers are taken by squaring on series truncated above a bound, and the
bound doubles until a nonzero coefficient shows.  ``signed_trop_of_value``
reads the signed value of g(p) from that same lowest term: its sign, and
its exponent.

``trop_eval`` works in integers in the same way.  Each :class:`TropPoly`
keeps its coefficient valuations as numerators over one common
denominator D; per call the nonzero coordinates of the point are brought
to one denominator D', so the valuation of a term is the integer
v * D' + D * sum d_k x_k over D * D'.  Every term carries two bit sets,
made once with the kernel: the variables it raises to an odd power and
those it raises to any nonzero power.  A point's signs are read first,
into the bit sets of its negative and of its zero coordinates, and they
pick the orthant's *plan*: the terms alive there (a term that meets a zero
coordinate is dead), each with its coefficient sign flipped by the parity
of its odd bits among the negative coordinates, and the sign they share
when they all carry one (0 when none is alive).  Plans are built once per
orthant and kept in one bounded cache.  In the signed tropical
hyperfield a sum of terms of one sign has that sign (Jell, Scheiderer and
Yu), so ``trop_sat`` and the outer bound's point test decide a shared-sign
orthant from the signs alone; on any other orthant only the alive terms
are scored.  Only the smallest score and the signs tied at it are kept,
and one rational is built per ``trop_eval`` call; ``trop_sat`` builds
none, since the sign outcome alone decides a relation.  The variables
under a negative exponent are one more bit set of the kernel, and a point
is undefined exactly when it meets the zero coordinates.
``polyhedra``'s orthant tables read the same bits, and take each
orthant's positive and negative terms from its plan.

Everything is immutable; evaluation over shared polynomials is safe from
concurrent contexts.  Each :class:`PolyK` has one shadow, built by the
first ``trop_r`` and returned by every later one, and that shadow keeps
its integer form the first time it is evaluated: one :class:`_ValKernel`
per polynomial, read by ``trop_eval``, the sampler and
``polyhedra.trop_region`` alike.  The exact side does not read the
shadow: the integer form of g is cached on the :class:`PolyK` the first
time a sign or a signed value is asked for.  No polyhedral notion lives
here: the rows, the dominance cells of a kernel on an orthant and the
table that keeps them are in ``polyhedra``, beside ``trop_region``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import index
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, NegativeExponentAtZero
from .hyperfields import (
    HV_ZERO,
    RT_ZERO,
    Balanced,
    HyperValue,
    Point,
    SignedTropVal,
    rt_inv,
    rt_mul,
    rt_pow,
    satisfied_by,
)
from .puiseux import PS_ONE, Lead, PuiseuxSeries, SeriesDraw
from .records import Record

Exps = tuple[int, ...]
TropPoint = tuple[SignedTropVal, ...]
# a kernel term's nonzero exponents as (variable, degree) pairs
Pairs = tuple[tuple[int, int], ...]
# an orthant's alive terms as (pairs, sign on the orthant, valuation
# numerator), and its plan (``_ValKernel.plan``): the shared sign, or None
Alive = tuple[tuple[Pairs, int, int], ...]
Plan = tuple[Optional[int], Alive]


class PolyK(Record):
    """An expanded Laurent polynomial with Puiseux-series coefficients."""

    _fields = ("nvars", "terms")
    nvars: int
    terms: tuple[tuple[Exps, PuiseuxSeries], ...]

    def __init__(self, nvars: int, terms: tuple[tuple[Exps, PuiseuxSeries], ...]):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_terms(
        nvars: int, pairs: Iterable[tuple[Sequence[int], PuiseuxSeries]]
    ) -> "PolyK":
        acc: dict[Exps, PuiseuxSeries] = {}
        for exps, coeff in pairs:
            exps = tuple(map(index, exps))
            if len(exps) != nvars:
                raise DimensionMismatch(f"exponent vector {exps} vs nvars {nvars}")
            # a PuiseuxSeries is in normal form: the first coefficient is kept as it is
            acc[exps] = acc[exps] + coeff if exps in acc else coeff
        terms = tuple(sorted((e, c) for e, c in acc.items() if not c.is_zero()))
        return PolyK(nvars, terms)

    @staticmethod
    def zero(nvars: int) -> "PolyK":
        return PolyK(nvars, ())

    @staticmethod
    def const(nvars: int, c: PuiseuxSeries) -> "PolyK":
        return PolyK.from_terms(nvars, [((0,) * nvars, c)])

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], coeff: PuiseuxSeries) -> "PolyK":
        return PolyK.from_terms(nvars, [(tuple(exps), coeff)])

    @staticmethod
    def variable(nvars: int, k: int) -> "PolyK":
        exps = tuple(1 if i == k else 0 for i in range(nvars))
        return PolyK.from_terms(nvars, [(exps, PS_ONE)])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolyK") -> "PolyK":
        self._check(other)
        return PolyK.from_terms(self.nvars, self.terms + other.terms)

    def __neg__(self) -> "PolyK":
        return PolyK(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "PolyK") -> "PolyK":
        return self + (-other)

    def __mul__(self, other: "PolyK") -> "PolyK":
        """The product in one pass: each coefficient series is built once.

        Products of terms are summed per exponent vector and t-exponent, and
        only the sums become series.
        """
        self._check(other)
        acc: dict[Exps, dict[Fraction, Fraction]] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple([a + b for a, b in zip(e1, e2)])
                row = acc.get(e)
                if row is None:
                    row = acc[e] = {}
                for t1, a1 in c1.terms:
                    for t2, a2 in c2.terms:
                        t = t1 + t2
                        row[t] = row.get(t, 0) + a1 * a2
        terms = []
        for e, row in acc.items():
            coeff = tuple(sorted([(t, a) for t, a in row.items() if a]))
            if coeff:
                terms.append((e, PuiseuxSeries(coeff)))
        terms.sort()
        return PolyK(self.nvars, tuple(terms))

    def __pow__(self, k: int) -> "PolyK":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = PolyK.const(self.nvars, PS_ONE)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, c: PuiseuxSeries) -> "PolyK":
        return PolyK.from_terms(self.nvars, ((e, k * c) for e, k in self.terms))

    def shift(self, m: Sequence[int]) -> "PolyK":
        """Multiply by the monomial x**m (exponent shift)."""
        m = tuple(m)
        return PolyK(
            self.nvars,
            tuple(sorted((tuple(a + b for a, b in zip(e, m)), c) for e, c in self.terms)),
        )

    def min_exponents(self) -> Exps:
        """Componentwise minimum exponent over all terms (0 for the zero polynomial)."""
        if not self.terms:
            return (0,) * self.nvars
        return tuple(
            min(e[k] for e, _ in self.terms) for k in range(self.nvars)
        )

    def _check(self, other: "PolyK") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"nvars {self.nvars} vs {other.nvars}")

    @cached_property
    def _clearing(self) -> tuple["PolyK", Exps]:
        return _cleared(self)

    @cached_property
    def _sign_kernel(self) -> "_SignKernel":
        return _SignKernel.of(self)

    @cached_property
    def _trop(self) -> "TropPoly":
        return TropPoly.from_terms(
            self.nvars, ((exps, coeff.signed_trop()) for exps, coeff in self.terms)
        )


class TropPoly(Record):
    """A polynomial over the signed tropical hyperfield."""

    _fields = ("nvars", "terms")
    nvars: int
    terms: tuple[tuple[Exps, SignedTropVal], ...]

    def __init__(self, nvars: int, terms: tuple[tuple[Exps, SignedTropVal], ...]):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_terms(
        nvars: int, pairs: Iterable[tuple[Sequence[int], SignedTropVal]]
    ) -> "TropPoly":
        seen: dict[Exps, SignedTropVal] = {}
        for exps, coeff in pairs:
            exps = tuple(map(index, exps))
            if len(exps) != nvars:
                raise DimensionMismatch(f"exponent vector {exps} vs nvars {nvars}")
            if coeff.sign == 0:
                continue
            if exps in seen:
                raise ValueError(f"duplicate exponent vector {exps}")
            seen[exps] = coeff
        return TropPoly(nvars, tuple(sorted(seen.items())))

    def neg(self) -> "TropPoly":
        from .hyperfields import rt_neg

        return TropPoly(self.nvars, tuple((e, rt_neg(c)) for e, c in self.terms))

    @cached_property
    def _val_kernel(self) -> "_ValKernel":
        return _ValKernel.of(self)

    def text(self) -> str:
        """Rendering like 'X^2 (+) Y^2 (+) -X (+) -Y (+) 1'."""
        if not self.terms:
            return "0"
        names = _var_names(self.nvars)
        parts = []
        for exps, coeff in sorted(
            self.terms, key=lambda t: (-sum(t[0]), tuple(-e for e in t[0]))
        ):
            factors = []
            for name, d in zip(names, exps):
                if d == 1:
                    factors.append(name)
                elif d != 0:
                    factors.append(f"{name}^{d if d > 0 else f'({d})'}")
            sign = "-" if coeff.sign < 0 else ""
            if coeff.val == 0:
                coeff_part = "" if factors else "1"
            else:
                coeff_part = f"e^({-coeff.val})"
            body = "*".join(([coeff_part] if coeff_part else []) + factors)
            parts.append(sign + (body or "1"))
        return " (+) ".join(parts)


def _var_names(nvars: int) -> list[str]:
    if nvars <= 3:
        return ["X", "Y", "Z"][:nvars]
    return [f"X{i+1}" for i in range(nvars)]


def trop_r(f: PolyK) -> TropPoly:
    """Every coefficient by its signed value (zero terms drop out); built once per f."""
    return f._trop


class _ValKernel(Record):
    """A tropical polynomial in integer form.

    Each term is (pairs, odd, live, sign, v): its nonzero exponents as
    (variable, degree) pairs in variable order; the bit sets of the
    variables it carries to an odd power (``odd``) and to a nonzero power
    (``live``); its coefficient sign; and its coefficient valuation times
    ``den``, the least common denominator of the coefficient valuations.
    A term with a positive power of a zero coordinate vanishes there, so
    it is alive at a point exactly when ``live`` misses the point's zero
    coordinates, and its sign there is its coefficient sign, flipped when
    ``odd`` meets the point's negative coordinates in an odd number of
    bits.  Both depend on the point's orthant alone, and :meth:`plan`
    keeps them per orthant.  ``negmask`` has bit k set when variable k
    carries a negative exponent in some term, zero coefficients included:
    the polynomial is undefined wherever one of them is zero.  Terms with
    a zero coefficient never count otherwise and are left out of
    ``terms``.

    A kernel is built once per :class:`TropPoly` and compared by identity:
    ``polyhedra._orthant_table`` and the plan cache key their memos by the
    kernel, and hashing one costs an ``id``, not a walk over its terms.
    """

    __slots__ = _fields = ("den", "negmask", "terms")
    den: int
    negmask: int
    terms: tuple[tuple[Pairs, int, int, int, int], ...]
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, den: int, negmask: int, terms: tuple[tuple[Pairs, int, int, int, int], ...]):
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "negmask", negmask)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def of(F: "TropPoly") -> "_ValKernel":
        den = lcm(*(c.val.denominator for _, c in F.terms if c.sign))
        negmask = 0
        terms = []
        for exps, c in F.terms:
            pairs = tuple((k, d) for k, d in enumerate(exps) if d)
            odd = live = 0
            for k, d in pairs:
                live |= 1 << k
                if d & 1:
                    odd |= 1 << k
                if d < 0:
                    negmask |= 1 << k
            if c.sign:
                terms.append((pairs, odd, live, c.sign, c.val.numerator * (den // c.val.denominator)))
        return _ValKernel(den, negmask, tuple(terms))

    # callers ask for one orthant's plan many times in a row: 64 plans hold
    # the 27 orthants of a 3-variable polynomial with room to spare
    @lru_cache(maxsize=64)
    def plan(self, negmask: int, zeromask: int) -> Plan:
        """The plan of the orthant with negative coordinates ``negmask`` and
        zero coordinates ``zeromask``: (shared, alive).

        ``alive`` holds the terms that count there, in kernel order, each as
        (pairs, sign, v) with its sign on the orthant: its coefficient sign,
        flipped when ``odd`` meets ``negmask`` in an odd number of bits.
        ``shared`` is that sign when every alive term carries it, 0 when no
        term is alive, and None when both signs occur.  A sum of terms of
        one sign has that sign whatever the valuations, so only a plan with
        ``shared`` None needs the point's valuations.  Plans are kept per
        (kernel, negmask, zeromask) in one bounded cache, so neither mask is
        packed into a fixed width.
        """
        alive = []
        signs = 0  # bit 0: a positive alive term, bit 1: a negative one
        for pairs, odd, live, sign, v in self.terms:
            if live & zeromask:
                continue  # a positive power of a zero coordinate kills the term
            if (odd & negmask).bit_count() & 1:
                sign = -sign
            alive.append((pairs, sign, v))
            signs |= 1 if sign > 0 else 2
        shared = (0, 1, -1, None)[signs]
        return shared, tuple(alive)

    def _plan_at(self, p: TropPoint) -> Plan:
        """The plan of p's orthant, read from the signs of p alone.  Raises
        NegativeExponentAtZero where the polynomial is undefined at p."""
        negmask = zeromask = 0
        bit = 1
        for c in p:
            s = c.sign
            if s < 0:
                negmask |= bit
            elif not s:
                zeromask |= bit
            bit <<= 1
        if self.negmask & zeromask:
            raise NegativeExponentAtZero("negative exponent at a zero coordinate")
        return self.plan(negmask, zeromask)

    def outcome_at(self, p: TropPoint) -> Optional[int]:
        """The sign outcome of the terms at p: the sign of the dominant
        terms, 0 when no term is alive, or None when opposite signs tie.
        When the alive terms share a sign, no valuation is read.  Raises
        NegativeExponentAtZero where the polynomial is undefined at p."""
        shared, alive = self._plan_at(p)
        if shared is not None:
            return shared
        _, sign, balanced, _ = self._score(alive, p)
        return None if balanced else sign

    def _score(self, alive: Alive, p: TropPoint) -> tuple[Optional[int], int, bool, int]:
        """Score the alive terms of p's plan in integers.

        Returns the minimal score, its sign, whether opposite signs tie
        there, and D', the least common denominator of the valuations of
        the nonzero coordinates.  The minimal score over ``den * D'`` is the
        valuation of the sum; it is None, with sign 0, when no term is
        alive.  One pass over the coordinates reads the valuations as
        numerators over a running common denominator that widens when a new
        denominator does not divide it; a zero coordinate reads as 0, and
        no alive term raises it.
        """
        xs = []
        dp = 1
        for c in p:
            if c.sign:
                n, d = c.val.as_integer_ratio()
                if d != dp:
                    if dp % d:
                        # widen the running denominator and rescale what was read
                        f = d // gcd(dp, d)
                        for i in range(len(xs)):
                            xs[i] *= f
                        dp *= f
                    n *= dp // d
                xs.append(n)
            else:
                xs.append(0)
        den = self.den
        best = None
        best_sign = 0
        balanced = False
        for pairs, sign, v in alive:
            dot = 0
            for k, d in pairs:
                dot += d * xs[k]
            score = v * dp + den * dot
            if best is None or score < best:
                best, best_sign, balanced = score, sign, False
            elif score == best and not balanced:
                balanced = sign != best_sign
        return best, best_sign, balanced, dp

    def value_at(self, p: TropPoint) -> HyperValue:
        """The hyperfield sum of the terms at p.  Raises
        NegativeExponentAtZero where the polynomial is undefined at p."""
        best, sign, balanced, dp = self._score(self._plan_at(p)[1], p)
        if best is None:
            return HV_ZERO
        val = Fraction(best, self.den * dp)
        return Balanced(val) if balanced else Point(SignedTropVal(sign, val))


def trop_eval(F: TropPoly, p: TropPoint) -> HyperValue:
    """The multivalued value F(p), always a point or a balanced interval."""
    if len(p) != F.nvars:
        raise DimensionMismatch(f"point dim {len(p)} vs nvars {F.nvars}")
    return F._val_kernel.value_at(p)


def trop_sat(F: TropPoly, p: TropPoint, rel: str) -> bool:
    """Whether F(p) satisfies the given relation against zero.

    Decided from the sign outcome alone (``_ValKernel.outcome_at``): the
    sign the alive terms share on p's orthant, read from p's signs with no
    valuation, or else the sign of the dominant terms, or balanced when
    opposite signs tie; the value F(p) is never built.  The relation is
    read by ``satisfied_by``, after the point is checked.
    """
    if len(p) != F.nvars:
        raise DimensionMismatch(f"point dim {len(p)} vs nvars {F.nvars}")
    return F._val_kernel.outcome_at(p) in satisfied_by(rel)


def eval_k(f: PolyK, p: Sequence[PuiseuxSeries]) -> PuiseuxSeries:
    """Exact polynomial evaluation at a Puiseux point.

    Negative exponents are evaluated through exact monomial inversion and
    therefore require the corresponding coordinate to be a nonzero monomial
    series; a zero coordinate raises if any term has a negative exponent
    on it.
    """
    p = tuple(p)
    _check_laurent_point(f, p)
    powers: dict[tuple[int, int], PuiseuxSeries] = {}
    pairs: list[tuple[Fraction, Fraction]] = []
    for exps, coeff in f.terms:
        term = coeff
        for i, d in enumerate(exps):
            if d == 0:
                continue
            c = p[i]
            if c.is_zero():
                break  # a positive power of a zero coordinate kills the term
            power = powers.get((i, d))
            if power is None:
                power = powers[(i, d)] = c ** d
            term = term * power
        else:
            pairs.extend(term.terms)
    return PuiseuxSeries.from_terms(pairs)


def _cleared(f: PolyK) -> tuple[PolyK, Exps]:
    """f * x**m with m the smallest even shift making all exponents nonnegative."""
    mins = f.min_exponents()
    m = tuple((-mn + 1) // 2 * 2 if mn < 0 else 0 for mn in mins)
    return (f.shift(m) if any(m) else f), m


def _check_laurent_point(f: PolyK, p: tuple[PuiseuxSeries, ...]) -> None:
    if len(p) != f.nvars:
        raise DimensionMismatch(f"point dim {len(p)} vs nvars {f.nvars}")
    # the clearing shift is nonzero exactly where f has a negative exponent
    for mk, c in zip(f._clearing[1], p):
        if mk and c.is_zero():
            raise NegativeExponentAtZero("negative exponent at a zero coordinate")


IntSeries = dict[int, int]  # exponent numerator over a shared denominator -> coefficient


def _int_mul(a: IntSeries, b: IntSeries, top: int) -> IntSeries:
    """a * b without the exponents above ``top``; a and b have none below 0."""
    out: IntSeries = {}
    for ea, ca in a.items():
        room = top - ea
        for eb, cb in b.items():
            if eb <= room:
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
    return out


def _int_pow(x: IntSeries, d: int, top: int) -> IntSeries:
    """x**d, d >= 1, without the exponents above ``top``, by squaring; x has
    none below 0."""
    base = {e: c for e, c in x.items() if e <= top}
    out = None
    while True:
        if d & 1:
            out = base if out is None else _int_mul(out, base, top)
        d >>= 1
        if not d:
            return out
        base = _int_mul(base, base, top)


class _SignKernel(NamedTuple):
    """The cleared polynomial g = f * x**m of a Laurent f in integer form.

    Each term is (pairs, coefficient): its nonzero exponents as (variable,
    degree) pairs in variable order, and its coefficient series as
    (exponent numerator, integer coefficient) pairs: exponents
    over the common denominator ``den``, coefficients multiplied by one
    positive integer shared by all of g.  ``maxdeg`` is the largest degree
    of each variable in g.  ``negmask`` has bit k set when f carries a
    negative exponent on variable k: f is undefined wherever one of them
    is zero.
    """

    den: int
    maxdeg: Exps
    terms: tuple[tuple[Pairs, tuple[tuple[int, int], ...]], ...]
    negmask: int

    @staticmethod
    def of(f: PolyK) -> "_SignKernel":
        g, m = f._clearing
        den = scale = 1
        for _, coeff in g.terms:
            for e, c in coeff.terms:
                den = lcm(den, e.denominator)
                scale = lcm(scale, c.denominator)
        terms = tuple([
            (
                tuple([(k, d) for k, d in enumerate(exps) if d]),
                tuple([
                    (
                        e.numerator * (den // e.denominator),
                        c.numerator * (scale // c.denominator),
                    )
                    for e, c in coeff.terms
                ]),
            )
            for exps, coeff in g.terms
        ])
        maxdeg = tuple([
            max([exps[k] for exps, _ in g.terms], default=0) for k in range(f.nvars)
        ])
        negmask = 0
        for k, mk in enumerate(m):
            if mk:
                negmask |= 1 << k
        return _SignKernel(den, maxdeg, terms, negmask)

    def lead_sign(self, leads: Sequence[Optional[Lead]]) -> Optional[int]:
        """The sign of g at every point with these leads, whatever the
        tails: the sign of the initial form (:meth:`_initial`), 0 when no
        term survives the zero coordinates, or None when the initial form
        cancels and the sign lies in the tails."""
        initial, best, _ = self._initial(leads)
        if initial:
            return 1 if initial > 0 else -1
        return 0 if best is None else None

    def _initial(self, leads: Sequence[Optional[Lead]]) -> tuple[int, Optional[int], int]:
        """(c, w, d): the initial form of g at a point with these leads is a
        positive multiple of c * t**(w / d), and c is 0 when it cancels (w
        is None when no term survives).

        Each coordinate's lead is given in integers, as (k, q, ck, cq) for
        the leading term (ck/cq) * t**(k/q), or None for a zero coordinate
        (:func:`series_draws` reads them from built series; the samplers
        pass the leads they drew).  The terms of g are scored at the leading
        exponents, over the common denominator ``den * D'``, where D' is a
        common denominator of the lead exponents.  With
        K = prod cq_k**maxdeg_k, K times a term's leading coefficient
        c * prod (ck_k / cq_k)**e_k is the integer
        c * prod ck_k**e_k * (K / prod cq_k**e_k).  Over the dominant terms
        these sum to a positive multiple of the coefficient of t**w in
        g(p), w the least score, and no lower power of t has a nonzero
        coefficient; so when the sum is nonzero, its sign at w is the
        signed value of g(p), whatever the tails of p are.  Every rescaling
        here is by a positive factor, so ck/cq need not be in lowest terms.
        """
        den = self.den
        dp = 1  # D', a common denominator of the lead exponents
        for lead in leads:
            if lead is not None and dp % lead[1]:
                dp *= lead[1] // gcd(dp, lead[1])
        # per variable of g: (den times the lead exponent as a numerator
        # over dp, ck, cq), or None when the coordinate is zero or the
        # variable not in g; K = prod cq**maxdeg
        coords: list[tuple[int, int, int] | None] = []
        K = 1
        for lead, md in zip(leads, self.maxdeg):
            if md and lead is not None:
                k, q, ck, cq = lead
                if cq != 1:
                    K *= cq ** md
                coords.append((den * k * (dp // q), ck, cq))
            else:
                coords.append(None)
        best = None
        initial = 0
        for pairs, coeff in self.terms:
            score, value = coeff[0]
            score *= dp
            scale = 1  # prod cq_k**e_k, which divides K
            for k, d in pairs:
                x = coords[k]
                if x is None:  # a positive power of a zero coordinate
                    break
                v, n, b = x
                score += d * v
                value *= n ** d
                if b != 1:
                    scale *= b ** d
            else:
                if K != 1:
                    value *= K // scale
                if best is None or score < best:
                    best, initial = score, value
                elif score == best:
                    initial += value
        return initial, best, den * dp

    def _truncated_value(
        self, leads: Sequence[Optional[Lead]], draws: Sequence[Optional[SeriesDraw]]
    ) -> SignedTropVal:
        """Signed value of g(p), read from the lowest term of K * g(p) for an
        integer K > 0.

        Each coordinate of p is its lead, as for :meth:`_initial`, and its
        drawn terms in the same form, the first in the place of the lead: the
        other terms lie as far above the lead as above that first term, so
        a witness draw whose lead is pinned is read with no shifted copy.

        Write x_k = X_k / b_k, where the integer b_k > 0 clears the
        coefficient denominators of x_k.  Multiplied by prod b_k**maxdeg_k,
        the term c * x**e becomes c * prod b_k**(maxdeg_k - e_k) * X_k**e_k:
        integers only, and the same positive factor for every term.  K is a
        positive rational, of valuation 0, so K * g(p) has the signed value
        of g(p).

        Only the lowest terms of g(p) are computed.  Each X_k is
        t**v_k * U_k with U_k free of negative exponents, so a term's
        exponents are at least its score, and every coefficient of g(p) at
        or below w + delta, w the least score, is exact when each U_k**e_k
        (taken by squaring) drops its exponents above delta.  delta doubles,
        from the least rise above w that g(p) can take, until the lowest of
        those coefficients is nonzero, or until w + delta reaches the
        largest exponent g(p) can have, where g(p) is zero.  That lowest
        exponent is over the common denominator of g's and p's exponents.
        """
        den = self.den
        for lead, draw, md in zip(leads, draws, self.maxdeg):
            if md and lead is not None:
                den = lcm(den, lead[1], *[term[1] for term in draw])
        # per variable of g: (v_k, U_k, the top exponent of U_k, b_k), or
        # None when x_k is zero or not in g; K = prod b_k**maxdeg_k
        coords: list[tuple[int, IntSeries, int, int] | None] = []
        K = 1
        for lead, draw, md in zip(leads, draws, self.maxdeg):
            if not md or lead is None:
                coords.append(None)
                continue
            k, q, ck, cq = lead
            b = lcm(cq, *[term[3] for term in draw[1:]])
            if b != 1:
                K *= b ** md
            # U_k: the lead at 0, then the other terms above the first one
            k0, q0, _, _ = draw[0]
            first = k0 * (den // q0)
            x = {0: ck * (b // cq)}
            for tk, tq, tck, tcq in draw[1:]:
                x[tk * (den // tq) - first] = tck * (b // tcq)
            coords.append((k * (den // q), x, max(x), b))

        stretch = den // self.den
        # the terms that survive at p: their pairs, and their scaled
        # coefficient times t**(e . v) as (exponent, coefficient) pairs
        live = []
        lowest = highest = None
        for pairs, coeff in self.terms:
            scale = 1  # prod b_k**e_k, which divides K
            shift = reach = 0
            for k, d in pairs:
                x = coords[k]
                if x is None:  # a positive power of a zero coordinate
                    break
                v, _, top, b = x
                shift += d * v
                reach += d * top
                if b != 1:
                    scale *= b ** d
            else:
                factor = K // scale
                acc = [(e * stretch + shift, c * factor) for e, c in coeff]
                live.append((pairs, acc))
                lo, hi = acc[0][0], acc[-1][0] + reach
                if lowest is None or lo < lowest:
                    lowest = lo
                if highest is None or hi > highest:
                    highest = hi
        if lowest is None:
            return RT_ZERO
        # the first rise above w that g(p) can take: a gap of some U_k, or
        # one from w to an exponent of a term's coefficient
        rises = [e - lowest for _, acc in live for e, _ in acc if e > lowest]
        rises += [min(e for e in x[1] if e) for x in coords if x is not None and len(x[1]) > 1]
        delta = min(rises, default=1)
        while True:
            limit = lowest + delta
            powers: dict[tuple[int, int], IntSeries] = {}
            total: IntSeries = {}
            for pairs, acc in live:
                # the product of the U_k**e_k, truncated at delta
                prod = None
                for k, d in pairs:
                    power = powers.get((k, d))
                    if power is None:
                        power = powers[(k, d)] = _int_pow(coords[k][1], d, delta)
                    prod = power if prod is None else _int_mul(prod, power, delta)
                if prod is None:
                    prod = {0: 1}
                for base, c in acc:
                    if base > limit:
                        break
                    room = limit - base
                    for e, v in prod.items():
                        if e <= room:
                            total[base + e] = total.get(base + e, 0) + c * v
            first = min((e for e, v in total.items() if v), default=None)
            if first is not None:
                return SignedTropVal(1 if total[first] > 0 else -1, Fraction(first, den))
            if limit >= highest:
                return RT_ZERO
            delta *= 2


def laurent_sign(f: PolyK, p: Sequence[PuiseuxSeries]) -> int:
    """Exact sign of f(p) for Laurent f.

    f(p) and g(p) = f(p) * p**m have the same sign because every entry of m
    is even, and the sign of g(p) is that of its lowest term.  It is read
    from p's integer form (:func:`series_draws`) in the order the samplers
    read it: the leads first, which give the sign of the initial form
    (:meth:`_SignKernel.lead_sign`) when the dominant terms' leading
    coefficients do not cancel, with no signed value built; and only where
    they cancel, the lowest terms of the truncated integer kernel
    (:meth:`_SignKernel._truncated_value`), which read the tails.  Every
    rescaling there multiplies g(p) by a positive constant or stretches
    the exponent scale, and neither changes the sign of the lowest term.
    When no term survives, f(p) is zero.
    """
    if type(p) is not tuple:
        p = tuple(p)
    _check_laurent_point(f, p)
    kernel = f._sign_kernel
    leads, draws = series_draws(p)
    sign = kernel.lead_sign(leads)
    return kernel._truncated_value(leads, draws).sign if sign is None else sign


def series_draws(
    p: Sequence[PuiseuxSeries],
) -> tuple[list[Optional[Lead]], list[Optional[SeriesDraw]]]:
    """The integer form of a Puiseux point that the sign kernel reads: per
    coordinate its lead (k, q, ck, cq), for (ck/cq) * t**(k/q), and its
    terms in that form, lead first; None for a zero coordinate."""
    draws: list[Optional[SeriesDraw]] = [
        [(*e.as_integer_ratio(), *a.as_integer_ratio()) for e, a in c.terms] if c.terms else None
        for c in p
    ]
    return [None if draw is None else draw[0] for draw in draws], draws


def signed_trop_of_value(f: PolyK, p: Sequence[PuiseuxSeries]) -> SignedTropVal:
    """Signed value of f(p), exact also for Laurent f at non-monomial coordinates.

    Uses f(p) = g(p) / x**m with g polynomial; the signed value of the
    quotient is the quotient of signed values.  The signed value of g(p) is
    read from p's integer form (:func:`series_draws`): from its initial form
    when that does not cancel, else from its lowest terms by the truncated
    integer kernel (:meth:`_SignKernel._truncated_value`), so no power of a
    coordinate is built in full.
    """
    p = tuple(p)
    _check_laurent_point(f, p)
    kernel = f._sign_kernel
    leads, draws = series_draws(p)
    initial, best, den = kernel._initial(leads)
    if initial:
        out = SignedTropVal(1 if initial > 0 else -1, Fraction(best, den))
    else:
        out = kernel._truncated_value(leads, draws)
    for mk, c in zip(f._clearing[1], p):
        if mk:
            out = rt_mul(out, rt_pow(rt_inv(c.signed_trop()), mk))
    return out


def trop_point(p: Sequence[PuiseuxSeries]) -> TropPoint:
    """Componentwise signed values of a Puiseux point."""
    return tuple(c.signed_trop() for c in p)


def trop_family(fs: Sequence[PolyK], p: Sequence[PuiseuxSeries]) -> TropPoint:
    """Signed values of (f_1(p), ..., f_m(p)): the finite-family tropicalization at p."""
    return tuple(signed_trop_of_value(f, p) for f in fs)
