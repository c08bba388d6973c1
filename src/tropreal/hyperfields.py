"""Exact arithmetic for the sign, tropical, and signed tropical hyperfields.

A hyperfield is a field-like structure whose addition may be multivalued.
Three concrete hyperfields are implemented here, all over exact rational
data:

* the *sign hyperfield* on {-1, 0, +1}, where adding opposite signs is
  indeterminate and yields the whole set;
* the *tropical hyperfield* of magnitudes, kept in valuation coordinates:
  a magnitude is e**(-v) for v in Q ∪ {+inf}, with v = +inf playing the
  role of zero.  Smaller valuation means larger magnitude.  Adding two
  distinct magnitudes keeps the dominant (smaller-valuation) one; adding a
  magnitude to itself yields every magnitude up to that bound;
* the *signed tropical hyperfield* combining both: an element is a pair
  (sign, valuation) standing for the real number sign * e**(-v).  Dominance
  decides sums of unequal magnitudes; equal magnitudes with equal signs are
  absorbing; equal magnitudes with opposite signs yield the *balanced*
  interval of everything of that magnitude or smaller.

The multivalued sum of signed tropical elements is therefore always either
a single point or a balanced interval, and :class:`HyperValue` captures
exactly these two cases.  Balanced intervals are stored by their valuation
bound alone; the member set {p : p.val >= v} ∪ {0} is implicit.

Valuations never leave Q ∪ {+inf}; the transcendental e**(-v) appears only
in rendering code.  All values are immutable and slotted (no per-instance
``__dict__``), and all operations are pure, so everything here is safe to
share across threads.  A ``Fraction`` valuation is kept, not copied, so
the points of :func:`tropreal.polyhedra.embed_point` share the caller's
``Fraction`` objects; that is safe because they are immutable.

Relations against zero follow the region conventions used by the rest of
the package: a value is == 0 when it is balanced or the zero point, >= 0
when it is balanced or a point of sign 0/+, and > 0 only when it is a
positive point.  The relations <= 0 and < 0 mean >= 0 and > 0 of the
negated value, and != 0 is the complement of == 0.  So a balanced
interval satisfies exactly ==, >= and <=, and a point satisfies a
relation according to its sign alone.  ``SATISFIED_BY`` maps each
relation to the outcomes that satisfy it (-1, 0, 1, and None for a
balanced interval), and it is the single definition of that rule:
``hv_relation`` and ``trop_sat`` read it directly,
``SignCondition.holds_at``, ``sa_member`` and the sampler's verdicts read
it on exact signs, and ``trop_region`` reads its strictness and its cells
from it.  ``satisfied_by`` looks a canonical relation name
up as it is; only an alias, or a name with surrounding whitespace, goes
through ``normalize_rel``.

Every module reads a caller's numbers by one rule: an integer is what
``operator.index`` takes; a rational (``as_rational``) is a ``Fraction``,
an integer or a ``read_rational`` text, and a float is a TypeError; a
valuation (``as_val``) may also be ``INF`` or one of ``INF_SPELLINGS``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Union

from .errors import ParseError
from .records import Record


class _PlusInfinity:
    """The valuation of zero; compares greater than every rational."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self) -> str:
        # pickled and copied by name, so every protocol gives back INF itself
        return "INF"

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, _PlusInfinity)

    def __hash__(self) -> int:
        return hash("tropreal-inf")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, _PlusInfinity)

    def __gt__(self, other) -> bool:
        if isinstance(other, _PlusInfinity):
            return False
        return True

    def __ge__(self, other) -> bool:
        return True


INF = _PlusInfinity()

# the strings that read as INF wherever a valuation is read from text
INF_SPELLINGS = ("inf", "+inf", "oo")

Val = Union[Fraction, _PlusInfinity]


def read_rational(text: str, where: str = "") -> Fraction:
    """The rational a text such as "-1/2" names; else a ParseError naming ``where``.

    Exponent notation is refused: ``Fraction`` would expand it at a cost
    that grows faster than the exponent.  Underscores are refused too:
    ``Fraction`` accepts "1_0" from Python 3.11 on and refuses it before,
    and a text must read the same on every Python.
    """
    try:
        if "e" not in text.lower() and "_" not in text:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    prefix = f"{where}: " if where else ""
    raise ParseError(f"{prefix}expected a rational such as '-1/2', got {text!r}")


def as_rational(x) -> Fraction:
    """The exact rational x stands for: a ``Fraction`` (a subclass as a plain
    one), an integer, or a text :func:`read_rational` reads; else a TypeError."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        return read_rational(x)
    try:
        return Fraction(x if isinstance(x, Fraction) else operator.index(x))
    except TypeError:
        raise TypeError(f"not an exact rational: {x!r}") from None


def as_val(v) -> Val:
    """The valuation v stands for: INF, an ``INF_SPELLINGS`` text, or :func:`as_rational`'s."""
    if v is INF or (isinstance(v, str) and v.strip() in INF_SPELLINGS):
        return INF
    return as_rational(v)


def val_add(a: Val, b: Val) -> Val:
    if a is INF or b is INF:
        return INF
    return a + b


class SignedTropVal(Record):
    """An element of the signed tropical hyperfield: sign * e**(-val).

    Invariant: sign == 0 exactly when val is +inf (the zero element).
    The sign is read by the integer rule, ``operator.index``, and kept as
    an int: a bool becomes 0 or 1, and a float is a TypeError.
    """

    __slots__ = _fields = ("sign", "val")
    sign: int
    val: Val

    def __init__(self, sign: int, val: Val):
        if type(sign) is not int:
            sign = operator.index(sign)
        if type(val) is not Fraction and val is not INF:
            val = as_val(val)
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {sign}")
        if (sign == 0) != (val is INF):
            raise ValueError("sign 0 requires valuation inf, and valuation inf requires sign 0")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "val", val)

    # the base's comparison and hash, spelled out: tropical points are
    # compared and hashed often enough (in lists, sets and dicts of points)
    # for the inline tuples to pay
    def __eq__(self, other):
        if other.__class__ is SignedTropVal:
            return (self.sign, self.val) == (other.sign, other.val)
        return NotImplemented

    def __hash__(self):
        return hash((self.sign, self.val))

    def is_zero(self) -> bool:
        return self.sign == 0

    def __repr__(self) -> str:
        return f"({'+' if self.sign > 0 else '-' if self.sign < 0 else '0'},{self.val})"


RT_ZERO = SignedTropVal(0, INF)
RT_ONE = SignedTropVal(1, Fraction(0))


def stv(sign: int, val) -> SignedTropVal:
    """``SignedTropVal(sign, val)``, whose valuation is read by :func:`as_val`."""
    return SignedTropVal(sign, val)


def rt_mul(a: SignedTropVal, b: SignedTropVal) -> SignedTropVal:
    if a.sign == 0 or b.sign == 0:
        return RT_ZERO
    return SignedTropVal(a.sign * b.sign, val_add(a.val, b.val))


def rt_neg(a: SignedTropVal) -> SignedTropVal:
    if a.sign == 0:
        return a
    return SignedTropVal(-a.sign, a.val)


def rt_inv(a: SignedTropVal) -> SignedTropVal:
    """Multiplicative inverse; undefined for zero."""
    if a.sign == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return SignedTropVal(a.sign, -a.val)


def rt_pow(a: SignedTropVal, d: int) -> SignedTropVal:
    """a**d with the convention a**0 = 1 (also for a = 0)."""
    if d == 0:
        return RT_ONE
    if a.sign == 0:
        if d < 0:
            raise ZeroDivisionError("negative power of zero")
        return RT_ZERO
    sign = a.sign if d % 2 else 1
    return SignedTropVal(sign, a.val * d)


class Point(Record):
    """A single-valued hyperfield sum."""

    __slots__ = _fields = ("value",)
    value: SignedTropVal

    def __init__(self, value: SignedTropVal):
        object.__setattr__(self, "value", value)

    def __repr__(self) -> str:
        return f"Point{self.value!r}"


class Balanced(Record):
    """The interval [-e**(-val), e**(-val)]: all points of valuation >= val, and zero."""

    __slots__ = _fields = ("val",)
    val: Fraction

    def __init__(self, val: Fraction):
        v = as_val(val)
        if v is INF:
            raise ValueError("a balanced interval has a finite valuation bound")
        object.__setattr__(self, "val", v)

    def __repr__(self) -> str:
        return f"Balanced({self.val})"


HyperValue = Union[Point, Balanced]

HV_ZERO = Point(RT_ZERO)


def hv_point(sign: int, val) -> HyperValue:
    return Point(stv(sign, val))


def rt_add(a: HyperValue, b: HyperValue) -> HyperValue:
    """Set-lifted signed tropical addition; closed on points and balanced intervals."""
    if isinstance(a, Balanced) and isinstance(b, Balanced):
        return Balanced(min(a.val, b.val))
    if isinstance(a, Balanced):
        a, b = b, a
    if isinstance(b, Balanced):
        # a point strictly dominating the interval survives; otherwise it is absorbed
        if a.value.val < b.val:
            return a
        return b
    p, q = a.value, b.value
    if p.val < q.val:
        return a
    if q.val < p.val:
        return b
    if p.val is INF:
        return HV_ZERO
    if p.sign == q.sign:
        return a
    return Balanced(p.val)


def rt_sum(terms: Iterable[SignedTropVal]) -> HyperValue:
    """n-ary sum: dominant-valuation terms decide; mixed signs at the minimum balance."""
    m: Val = INF
    signs: set[int] = set()
    for t in terms:
        if t.sign == 0:
            continue
        if t.val < m:
            m = t.val
            signs = {t.sign}
        elif t.val == m and m is not INF:
            signs.add(t.sign)
    if m is INF:
        return HV_ZERO
    if len(signs) == 1:
        return Point(SignedTropVal(signs.pop(), m))
    return Balanced(m)


def hv_scale(x: SignedTropVal, h: HyperValue) -> HyperValue:
    """The set {x * w : w in h}, again a HyperValue."""
    if x.sign == 0:
        return HV_ZERO
    if isinstance(h, Balanced):
        return Balanced(h.val + x.val)
    return Point(rt_mul(x, h.value))


def hv_contains(h: HyperValue, p: SignedTropVal) -> bool:
    if isinstance(h, Point):
        return h.value == p
    return p.val >= h.val


_REL_ALIASES = {
    "eq": "eq", "=": "eq", "==": "eq", "=0": "eq",
    "ge": "ge", ">=": "ge", "≥": "ge", ">=0": "ge",
    "gt": "gt", ">": "gt", ">0": "gt",
    "le": "le", "<=": "le", "≤": "le", "<=0": "le",
    "lt": "lt", "<": "lt", "<0": "lt",
    "ne": "ne", "!=": "ne", "≠": "ne", "!=0": "ne",
}

RELATIONS = ("eq", "ge", "gt", "le", "lt", "ne")


def normalize_rel(rel: str) -> str:
    try:
        return _REL_ALIASES[rel.strip()]
    except KeyError:
        raise ValueError(f"unknown relation {rel!r}") from None


# the outcomes satisfying each relation: the sign of a point value, or None
# for a balanced interval, which satisfies exactly eq, ge and le
SATISFIED_BY = {
    "eq": frozenset({0, None}),
    "ge": frozenset({0, 1, None}),
    "gt": frozenset({1}),
    "le": frozenset({-1, 0, None}),
    "lt": frozenset({-1}),
    "ne": frozenset({-1, 1}),
}


def satisfied_by(rel: str) -> frozenset:
    """``SATISFIED_BY`` of the relation: one lookup for a canonical name,
    ``normalize_rel`` for an alias (which raises for an unknown one)."""
    return SATISFIED_BY.get(rel) or SATISFIED_BY[normalize_rel(rel)]


def hv_relation(h: HyperValue, rel: str) -> bool:
    """Compare a hyperfield sum against zero (see the module docstring)."""
    return (None if isinstance(h, Balanced) else h.value.sign) in satisfied_by(rel)


# ---------------------------------------------------------------------------
# The tropical hyperfield of magnitudes, in valuation coordinates.
# ---------------------------------------------------------------------------


class ValPoint(Record):
    """A single magnitude, as a valuation in Q ∪ {+inf}."""

    __slots__ = _fields = ("val",)
    val: Val

    def __init__(self, val: Val):
        object.__setattr__(self, "val", as_val(val))

    def __repr__(self) -> str:
        return f"val({self.val})"


class ValUpSet(Record):
    """All magnitudes of valuation >= low, including zero (val = +inf)."""

    __slots__ = _fields = ("low",)
    low: Fraction

    def __init__(self, low: Fraction):
        v = as_val(low)
        if v is INF:
            raise ValueError("an up-set has a finite lower valuation bound")
        object.__setattr__(self, "low", v)

    def __repr__(self) -> str:
        return f"val[{self.low}, inf]"


TropSum = Union[ValPoint, ValUpSet]


def t_add(a: Val, b: Val) -> TropSum:
    """Tropical addition of magnitudes: distinct valuations keep the smaller;
    equal finite valuations yield the whole up-set [v, +inf]."""
    a, b = as_val(a), as_val(b)
    if a < b:
        return ValPoint(a)
    if b < a:
        return ValPoint(b)
    if a is INF:
        return ValPoint(INF)
    return ValUpSet(a)


def t_add_sets(a: TropSum, b: TropSum) -> TropSum:
    """Set-lifted tropical addition; closed on points and up-sets."""
    if isinstance(a, ValUpSet) and isinstance(b, ValUpSet):
        return ValUpSet(min(a.low, b.low))
    if isinstance(a, ValUpSet):
        a, b = b, a
    if isinstance(b, ValUpSet):
        if a.val < b.low:
            return a
        return b
    return t_add(a.val, b.val)


# ---------------------------------------------------------------------------
# The sign hyperfield.
# ---------------------------------------------------------------------------

S_ALL = frozenset({-1, 0, 1})


def s_add(a: int, b: int) -> frozenset[int]:
    """Sign addition: zero is neutral, equal signs absorb, opposite signs blur."""
    if a == 0:
        return frozenset({b})
    if b == 0:
        return frozenset({a})
    if a == b:
        return frozenset({a})
    return S_ALL


def s_add_sets(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    out: set[int] = set()
    for x in a:
        for y in b:
            out |= s_add(x, y)
    return frozenset(out)
