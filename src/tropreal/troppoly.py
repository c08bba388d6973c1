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
inverse stays finite, i.e. at monomial coordinates.

``laurent_sign`` never builds that value.  It decides from leading terms
first: the signed valuation is a morphism onto the signed tropical
hyperfield, so the sign of f(p) is that of trop(f) at trop(p) whenever the
dominant terms there share one sign (and 0 when no term survives).  The
terms of trop(f) are scored at the leading terms of the coordinates by the
same integer loop as ``trop_eval`` below.  A balanced sum, where dominant
terms of opposite sign tie, is decided next by the initial form: the sum,
in integers, of the dominant terms' leading coefficients at the leading
coefficients of the coordinates.  It is the coefficient of the lowest
power of t in f(p), up to a positive factor, so its sign is that of f(p)
unless it cancels.  Only then does the sign go to the Puiseux-level
kernel, which evaluates g in plain integers: exponents are brought to one
common denominator D, so t**(1/D) becomes the integer exponent 1, and
every coefficient is multiplied by a positive integer so that no
denominators are left.  Scaling a series by a
positive constant keeps its sign, and renaming exponents e -> D*e keeps
their order, so the sign of g(p) is the sign of the integer sum at its
lowest exponent with a nonzero coefficient.

``trop_eval`` works in integers in the same way.  Each :class:`TropPoly`
keeps its coefficient valuations as numerators over one common
denominator D; per call the nonzero coordinates of the point are brought
to one denominator D', so the valuation of a term is the integer
v * D' + D * sum d_k x_k over D * D'.  Its sign is the coefficient sign,
flipped once for every odd power of a negative coordinate.  Only the
smallest score and the signs tied at it are kept, and one rational is
built per call; ``trop_sat`` builds none, since the sign outcome alone
decides a relation.  The variables under a negative exponent are kept
with the kernel and checked once per call; in the loop a zero coordinate
only kills terms.

Everything is immutable; evaluation over shared polynomials is safe from
concurrent contexts.  The integer forms of trop(f) and of g are cached
on each :class:`PolyK` the first time a sign (and, for g, a balanced sign)
is asked for, and that of a tropical polynomial on each :class:`TropPoly`
the first time it is evaluated.  What a kernel restricts to on one orthant
support (its surviving terms, the difference rows from which
``polyhedra.trop_region`` assembles dominance cells, and the cells decided
so far) is not stored on the polynomial: ``_orthant_table`` keeps the
tables of the last 16 (kernel, support) pairs asked for.  The orthants of
one support differ only in which terms are positive, so they share one
table, and every caller that walks the orthants (``semialg.sa_outer_all``,
``region --orthant all``, the ``regions`` benchmark) reads each cell from
it after the first orthant that decides it.  Rows and cells are built as a
relation first needs them; two threads that build the same one build equal
ones, so the race is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, NegativeExponentAtZero
from .hyperfields import (
    HV_ZERO,
    Balanced,
    HyperValue,
    Point,
    SignedTropVal,
    outcome_relation,
    rt_inv,
    rt_mul,
    rt_pow,
)
from .puiseux import PS_ONE, PuiseuxSeries

Exps = tuple[int, ...]
TropPoint = tuple[SignedTropVal, ...]
DiffRow = tuple[Exps, int, int]  # normal, offset numerator, offset denominator
# a row (normal, offset numerator, offset denominator > 0, strict) means
# normal . x + cn/cd <= 0, or < 0 when strict; the offset is in lowest terms
IntRow = tuple[Exps, int, int, bool]


@dataclass(frozen=True)
class PolyK:
    """An expanded Laurent polynomial with Puiseux-series coefficients."""

    nvars: int
    terms: tuple[tuple[Exps, PuiseuxSeries], ...]

    @staticmethod
    def from_terms(
        nvars: int, pairs: Iterable[tuple[Sequence[int], PuiseuxSeries]]
    ) -> "PolyK":
        acc: dict[Exps, PuiseuxSeries] = {}
        for exps, coeff in pairs:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DimensionMismatch(f"exponent vector {exps} vs nvars {nvars}")
            acc[exps] = acc.get(exps, PuiseuxSeries.zero()) + coeff
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
    def _lead_kernel(self) -> "_ValKernel":
        return _ValKernel.of(trop_r(self))


@dataclass(frozen=True)
class TropPoly:
    """A polynomial over the signed tropical hyperfield."""

    nvars: int
    terms: tuple[tuple[Exps, SignedTropVal], ...]

    @staticmethod
    def from_terms(
        nvars: int, pairs: Iterable[tuple[Sequence[int], SignedTropVal]]
    ) -> "TropPoly":
        seen: dict[Exps, SignedTropVal] = {}
        for exps, coeff in pairs:
            exps = tuple(int(e) for e in exps)
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
    """Replace every coefficient by its signed value (terms mapping to zero drop out)."""
    return TropPoly.from_terms(
        f.nvars, ((exps, coeff.signed_trop()) for exps, coeff in f.terms)
    )


class _ValKernel(NamedTuple):
    """A tropical polynomial in integer form.

    Each term is (its nonzero exponents as (variable, degree) pairs in
    variable order, coefficient sign, coefficient valuation times ``den``);
    ``den`` is the least common denominator of the coefficient valuations.
    ``neg`` lists the variables that carry a negative exponent in some
    term, zero coefficients included: the polynomial is undefined wherever
    one of them is zero.  Terms with a zero coefficient never count
    otherwise and are left out of ``terms``.
    """

    den: int
    neg: tuple[int, ...]
    terms: tuple[tuple[tuple[tuple[int, int], ...], int, int], ...]

    @staticmethod
    def of(F: "TropPoly") -> "_ValKernel":
        den = lcm(*(c.val.denominator for _, c in F.terms if c.sign))
        neg = tuple(
            k for k in range(F.nvars) if any(exps[k] < 0 for exps, _ in F.terms)
        )
        terms = tuple(
            (
                tuple((k, d) for k, d in enumerate(exps) if d),
                c.sign,
                c.val.numerator * (den // c.val.denominator),
            )
            for exps, c in F.terms
            if c.sign
        )
        return _ValKernel(den, neg, terms)

    def check_defined(self, signs: Sequence[int]) -> None:
        """Raise unless every variable under a negative exponent is nonzero."""
        for k in self.neg:
            if not signs[k]:
                raise NegativeExponentAtZero("negative exponent at a zero coordinate")

    def _score(
        self, signs: list[int], xs: list[int], dp: int
    ) -> tuple[Optional[int], int, bool, int]:
        """The scoring loop shared by both front ends.

        ``signs`` are the coordinate signs and ``xs`` the valuations of the
        nonzero coordinates as numerators over ``dp``.  The caller has
        checked that the point is defined.
        """
        den = self.den
        best = None
        best_sign = 0
        balanced = False
        for pairs, sign, v in self.terms:
            dot = 0
            for k, d in pairs:
                s = signs[k]
                if not s:
                    break  # a positive power of a zero coordinate kills the term
                dot += d * xs[k]
                if s < 0 and d & 1:
                    sign = -sign
            else:
                score = v * dp + den * dot
                if best is None or score < best:
                    best, best_sign, balanced = score, sign, False
                elif score == best and sign != best_sign:
                    balanced = True
        return best, best_sign, balanced, dp

    def _score_scaled(
        self, signs: list[int], nums: list[int], dens: list[int]
    ) -> tuple[Optional[int], int, bool, int]:
        """``_score`` at valuations nums[k] / dens[k] (0 / 1 at a zero coordinate)."""
        dp = lcm(*dens)
        xs = nums if dp == 1 else [k * (dp // d) for k, d in zip(nums, dens)]
        return self._score(signs, xs, dp)

    def score_at(self, p: TropPoint) -> tuple[Optional[int], int, bool, int]:
        """Score the terms at p in integers.

        Each coordinate's sign and valuation are read in one pass, the
        valuations as numerators over a running common denominator that
        widens when a new denominator does not divide it.  Returns
        the minimal score, its sign, whether opposite signs tie there, and
        D', the least common denominator of the valuations of the nonzero
        coordinates.  The minimal score over ``den * D'`` is the valuation
        of the sum; it is None, with sign 0, when no term survives.  Raises
        NegativeExponentAtZero where the polynomial is undefined at p.
        """
        signs = []
        xs = []
        dp = 1
        for c in p:
            s = c.sign
            signs.append(s)
            if s:
                n, d = c.val.as_integer_ratio()
                if dp % d:
                    # widen the running denominator and rescale what was read
                    f = d // gcd(dp, d)
                    xs = [x * f for x in xs]
                    dp *= f
                xs.append(n * (dp // d))
            else:
                xs.append(0)
        self.check_defined(signs)
        return self._score(signs, xs, dp)

    def score_leading(
        self, p: Sequence[PuiseuxSeries]
    ) -> tuple[Optional[int], int, bool, int]:
        """``score_at`` at the signed values of a Puiseux point.

        They are read from each coordinate's leading term, without building
        the point's :class:`SignedTropVal`s.  Definedness is not checked
        here: ``laurent_sign`` has checked it on the Laurent polynomial.
        """
        signs = []
        nums = []
        dens = []
        for c in p:
            if c.terms:
                e, a = c.terms[0]
                signs.append(1 if a.numerator > 0 else -1)
                nums.append(e.numerator)
                dens.append(e.denominator)
            else:
                signs.append(0)
                nums.append(0)
                dens.append(1)
        return self._score_scaled(signs, nums, dens)

    def value_at(self, p: TropPoint) -> HyperValue:
        """The hyperfield sum of the terms at p."""
        best, sign, balanced, dp = self.score_at(p)
        if best is None:
            return HV_ZERO
        val = Fraction(best, self.den * dp)
        return Balanced(val) if balanced else Point(SignedTropVal(sign, val))


class _OrthantTable:
    """The terms of a kernel that survive on one orthant support, their
    dominance rows, and every dominance cell decided on the support.

    Term i survives unless it has a positive power of a coordinate outside
    the support.  Its affine value is L_i(V) = e_i . V + v_i / D on the
    support valuations V, with e_i its support exponents, v_i its valuation
    numerator and D the kernel's common denominator; none of this depends
    on the orthant's signs.  The signs only pick which terms are positive
    and which negative: term i's sign on an orthant is its coefficient
    sign, flipped once per odd power of a negative coordinate, and
    ``split`` keeps the answer per orthant.  The kernel must be defined on
    the orthants asked for.

    ``cells`` and ``ties`` hold the cells that ``polyhedra.trop_region``
    has decided, each a piece or None when it is empty.  Term i's cell
    {L_i - L_j <= 0 for every j} is keyed by (i, strict), where bit j of
    ``strict`` makes row j strict; an equation's tie of a positive term i
    with a negative term j adds L_j - L_i <= 0 to i's cell with no strict
    row, and is keyed by (i, j).  Rows and cells are built the first time a
    relation needs them; two threads that build the same one build equal
    ones, so the race is harmless.
    """

    __slots__ = ("_coef_signs", "_odd", "_exps", "_vals", "_den", "_rows", "_splits",
                 "cells", "ties")

    def __init__(self, kernel: _ValKernel, support: tuple[int, ...]) -> None:
        place = {k: i for i, k in enumerate(support)}
        m = len(place)
        coef_signs: list[int] = []
        odd: list[int] = []
        exps: list[Exps] = []
        vals: list[int] = []
        for pairs, sign, v in kernel.terms:
            e = [0] * m
            bits = 0
            for k, d in pairs:
                p = place.get(k)
                if p is None:
                    break  # a positive power of a zero coordinate kills the term
                e[p] = d
                if d & 1:
                    bits |= 1 << k
            else:
                coef_signs.append(sign)
                odd.append(bits)
                exps.append(tuple(e))
                vals.append(v)
        self._coef_signs = coef_signs
        self._odd = odd  # bit k: an odd power of coordinate k
        self._exps = exps
        self._vals = vals
        self._den = kernel.den
        self._rows: list[Optional[tuple[Optional[IntRow], ...]]] = [None] * len(vals)
        self._splits: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...], int, int]] = {}
        self.cells: dict[tuple[int, int], object] = {}
        self.ties: dict[tuple[int, int], object] = {}

    def split(self, sigma: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        """The terms positive and negative on the orthant sigma, as index
        tuples and as bit sets."""
        out = self._splits.get(sigma)
        if out is None:
            negative = 0
            for k, s in enumerate(sigma):
                if s < 0:
                    negative |= 1 << k
            pos: list[int] = []
            neg: list[int] = []
            for i, (sign, odd) in enumerate(zip(self._coef_signs, self._odd)):
                if (odd & negative).bit_count() & 1:
                    sign = -sign
                (pos if sign > 0 else neg).append(i)
            out = self._splits[sigma] = (
                tuple(pos), tuple(neg), sum(1 << i for i in pos), sum(1 << i for i in neg)
            )
        return out

    def rows(self, i: int) -> tuple[Optional[IntRow], ...]:
        """L_i - L_j <= 0 for every surviving term j, None at j == i.

        The row is (e_i - e_j, (v_i - v_j) / g, D / g, False), with g the
        gcd of v_i - v_j and D, so the offset is in lowest terms.
        """
        out = self._rows[i]
        if out is None:
            ei, vi, den = self._exps[i], self._vals[i], self._den
            built: list[Optional[IntRow]] = []
            for j, (ej, vj) in enumerate(zip(self._exps, self._vals)):
                if j == i:
                    built.append(None)
                    continue
                dv = vi - vj
                g = gcd(dv, den)
                built.append((tuple([a - b for a, b in zip(ei, ej)]), dv // g, den // g, False))
            out = self._rows[i] = tuple(built)
        return out

    def dominance(self, i: int, strict: int) -> list[IntRow]:
        """The rows of term i's cell: L_i - L_j <= 0 for every other term
        j, and < 0 where bit j of ``strict`` is set."""
        rows = self.rows(i)
        if not strict:
            return [r for r in rows if r is not None]
        return [
            (r[0], r[1], r[2], True) if strict >> j & 1 else r
            for j, r in enumerate(rows)
            if r is not None
        ]


# Every caller that walks the orthants asks for each support's table once
# per orthant and relation: 16 tables hold the 8 supports of a 3-variable
# polynomial, so a relation-outer loop over all its orthants builds each once.
@lru_cache(maxsize=16)
def _orthant_table(kernel: _ValKernel, support: tuple[int, ...]) -> _OrthantTable:
    """The table of ``kernel`` on the orthant support ``support``."""
    return _OrthantTable(kernel, support)


def _check_point(F: TropPoly, p: TropPoint) -> None:
    if len(p) != F.nvars:
        raise DimensionMismatch(f"point dim {len(p)} vs nvars {F.nvars}")


def trop_eval(F: TropPoly, p: TropPoint) -> HyperValue:
    """The multivalued value F(p), always a point or a balanced interval."""
    _check_point(F, p)
    return F._val_kernel.value_at(p)


def trop_sat(F: TropPoly, p: TropPoint, rel: str) -> bool:
    """Whether F(p) satisfies the given relation against zero.

    Decided from the sign outcome of the integer scoring alone (the sign
    of the dominant terms, or balanced when opposite signs tie); the value
    F(p) is never built.
    """
    _check_point(F, p)
    _, sign, balanced, _ = F._val_kernel.score_at(p)
    return outcome_relation(None if balanced else sign, rel)


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


def _int_mul(a: IntSeries, b: IntSeries) -> IntSeries:
    out: IntSeries = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return out


class _SignKernel(NamedTuple):
    """The cleared polynomial g = f * x**m of a Laurent f in integer form.

    Each term is (exponent vector, coefficient), the coefficient series
    given as (exponent numerator, integer coefficient) pairs: exponents
    over the common denominator ``den``, coefficients multiplied by one
    positive integer shared by all of g.  ``maxdeg`` is the largest degree
    of each variable in g.
    """

    den: int
    maxdeg: Exps
    terms: tuple[tuple[Exps, tuple[tuple[int, int], ...]], ...]

    @staticmethod
    def of(f: PolyK) -> "_SignKernel":
        g, _ = f._clearing
        den = scale = 1
        for _, coeff in g.terms:
            for e, c in coeff.terms:
                den = lcm(den, e.denominator)
                scale = lcm(scale, c.denominator)
        terms = tuple(
            (
                exps,
                tuple(
                    (
                        e.numerator * (den // e.denominator),
                        c.numerator * (scale // c.denominator),
                    )
                    for e, c in coeff.terms
                ),
            )
            for exps, coeff in g.terms
        )
        maxdeg = tuple(
            max((exps[k] for exps, _ in g.terms), default=0) for k in range(f.nvars)
        )
        return _SignKernel(den, maxdeg, terms)

    def sign_at(self, p: tuple[PuiseuxSeries, ...]) -> int:
        """Sign of g(p), computed as the sign of K * g(p) for an integer K > 0.

        Write x_k = X_k / b_k, where the integer b_k > 0 clears the
        coefficient denominators of x_k.  Multiplied by prod b_k**maxdeg_k,
        the term c * x**e becomes c * prod b_k**(maxdeg_k - e_k) * X_k**e_k:
        integers only, and the same positive factor for every term.
        """
        den = self.den
        for c, md in zip(p, self.maxdeg):
            if md:
                for e, _ in c.terms:
                    den = lcm(den, e.denominator)
        # rows[k][d] = X_k**d and bpows[k][d] = b_k**(maxdeg_k - d); rows[k]
        # is None when x_k is zero or not in g, bpows[k] when b_k = 1
        rows: list[list[IntSeries] | None] = []
        bpows: list[list[int] | None] = []
        for c, md in zip(p, self.maxdeg):
            if not md or c.is_zero():
                rows.append(None)
                bpows.append(None)
                continue
            b = 1
            for _, a in c.terms:
                b = lcm(b, a.denominator)
            x = {
                e.numerator * (den // e.denominator): a.numerator * (b // a.denominator)
                for e, a in c.terms
            }
            row = [{0: 1}, x]
            for _ in range(md - 1):
                row.append(_int_mul(row[-1], x))
            rows.append(row)
            bpows.append([b ** (md - d) for d in range(md + 1)] if b != 1 else None)

        stretch = den // self.den
        total: IntSeries = {}
        for exps, coeff in self.terms:
            factor = 1
            powers = []
            for d, row, bp in zip(exps, rows, bpows):
                if d:
                    if row is None:  # a positive power of a zero coordinate
                        break
                    powers.append(row[d])
                if bp is not None:
                    factor *= bp[d]
            else:
                acc = {e * stretch: c * factor for e, c in coeff}
                for power in powers:
                    acc = _int_mul(acc, power)
                for e, v in acc.items():
                    total[e] = total.get(e, 0) + v
        lowest = min((e for e, v in total.items() if v), default=None)
        if lowest is None:
            return 0
        return 1 if total[lowest] > 0 else -1

    def initial_sign(self, p: tuple[PuiseuxSeries, ...]) -> int:
        """Sign of the initial form of g at p, or 0 when it cancels.

        The terms of g are scored at the leading exponents of p, over the
        common denominator ``den * D'``, where D' clears the leading
        exponents.  The dominant terms' leading coefficients, taken at the
        leading coefficients a_k = n_k / b_k of the coordinates and
        multiplied by prod b_k**maxdeg_k as in ``sign_at``, sum to a
        positive multiple of the coefficient of t**w in g(p), w the least
        score; when that sum is nonzero, its sign is the sign of g(p).
        """
        dp = 1
        for c, md in zip(p, self.maxdeg):
            if md and c.terms:
                dp = lcm(dp, c.terms[0][0].denominator)
        # per variable of g: (scaled leading exponent, n_k, b_k, maxdeg_k),
        # or None when the coordinate is zero or the variable not in g
        leads: list[tuple[int, int, int, int] | None] = []
        for c, md in zip(p, self.maxdeg):
            if md and c.terms:
                e, a = c.terms[0]
                leads.append((e.numerator * (dp // e.denominator), a.numerator, a.denominator, md))
            else:
                leads.append(None)
        den = self.den
        best = None
        total = 0
        for exps, coeff in self.terms:
            score, value = coeff[0]
            score *= dp
            for d, lead in zip(exps, leads):
                if lead is None:
                    if d:  # a positive power of a zero coordinate
                        break
                    continue
                v, n, b, md = lead
                if d:
                    score += den * d * v
                    value *= n ** d
                if b != 1:
                    value *= b ** (md - d)
            else:
                if best is None or score < best:
                    best, total = score, value
                elif score == best:
                    total += value
        return (total > 0) - (total < 0)


def laurent_sign(f: PolyK, p: Sequence[PuiseuxSeries]) -> int:
    """Exact sign of f(p) for Laurent f, decided at the first level that settles it.

    First from leading terms: the leading term of each term of f(p) is the
    term of trop(f) at trop(p), so when the dominant ones all have one
    sign, f(p) has it too, and when no term survives, f(p) is zero.  When
    dominant terms of opposite sign tie, from the initial form: the sum of
    their leading coefficients is the coefficient of the lowest power of t
    in f(p), up to a positive factor (:meth:`_SignKernel.initial_sign`).
    Only when that sum cancels is the sign computed at the Puiseux level:
    f(p) and g(p) = f(p) * p**m have the same sign because every entry of m
    is even, and g is evaluated by the integer kernel of
    :class:`_SignKernel`, where each rescaling multiplies g(p) by a
    positive constant or stretches the exponent scale, and neither changes
    the sign of the leading term.
    """
    if type(p) is not tuple:
        p = tuple(p)
    _check_laurent_point(f, p)
    _, sign, balanced, _ = f._lead_kernel.score_leading(p)
    if not balanced:
        return sign
    kernel = f._sign_kernel
    return kernel.initial_sign(p) or kernel.sign_at(p)


def signed_trop_of_value(f: PolyK, p: Sequence[PuiseuxSeries]) -> SignedTropVal:
    """Signed value of f(p), exact also for Laurent f at non-monomial coordinates.

    Uses f(p) = g(p) / x**m with g polynomial; the signed value of the
    quotient is the quotient of signed values.
    """
    p = tuple(p)
    _check_laurent_point(f, p)
    g, m = f._clearing
    out = eval_k(g, p).signed_trop()
    for mk, c in zip(m, p):
        if mk:
            out = rt_mul(out, rt_pow(rt_inv(c.signed_trop()), mk))
    return out


def trop_point(p: Sequence[PuiseuxSeries]) -> TropPoint:
    """Componentwise signed values of a Puiseux point."""
    return tuple(c.signed_trop() for c in p)


def trop_family(fs: Sequence[PolyK], p: Sequence[PuiseuxSeries]) -> TropPoint:
    """Signed values of (f_1(p), ..., f_m(p)): the finite-family tropicalization at p."""
    return tuple(signed_trop_of_value(f, p) for f in fs)
