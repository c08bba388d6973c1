"""Exact rational polyhedra in valuation coordinates, and tropical regions.

Polyhedra are stored in H-representation, and a polyhedron is its integer
rows: each row (normal, cn, cd, strict) means ``normal . x + cn/cd <= 0``,
or ``< 0`` when strict, with the offset in lowest terms and ``cd > 0``.
Membership, intersection, closure, the elimination and the JSON writer read
the rows directly.

Emptiness, inclusion, dimension, recession, and projection are all decided
by Fourier-Motzkin elimination with strictness tracking: a derived
inequality is strict precisely when one of its parents is.  This is exact
over the rationals and, since the data is rational, the answers agree with
the answers over the reals.  Points, intervals and dimensions come from one
engine.  One elimination loop (``_fm_core``) and one row normalization: a
step pairs every upper bound of a variable with every lower one, equality
pairs included.  One bound rule (``_interval``), the tightest upper and
lower bound of a variable in rows of it alone: it decides a feasibility
question's last variable (a one-variable system before any normalization)
instead of deriving constant rows, picks ``feasible_point``'s values and
clips the renderer's segments.  One equation step (``_substitute``): it
decides a tie of two terms on its hyperplane L_i = L_j, in one variable
fewer than its cell, and ``poly_dim`` counts independent implicit
equations with it.  Emptiness is memoized by the rows and the dimension in
a bounded LRU memo of at most 256 systems (``_rows_empty``):
``poly_is_empty`` keys it by the rows as they are, and ``union_prune`` by
the sorted rows that are also its duplicate key.
The memo is exact, since the immutable rows fully determine the answer and
the elimination's answer does not depend on their order.  The orthant
tables of ``trop_region`` keep every answer they decide, so they call the
elimination directly.

The module also hosts the two bridges between polyhedra and tropical
polynomials:

* ``trop_region`` turns a tropical polynomial, an orthant, and a relation
  against zero into the exact region of valuation vectors satisfying it,
  assembled from dominance cells of the polynomial's terms.  The cells
  come from one table per orthant support (``_OrthantTable``; the last
  16 are kept), shared by every orthant and relation on that support: it
  holds the surviving terms, the integer rows of their pairwise
  differences, each term's cell shape and each cell once it is decided, so
  ``trop_region`` only picks the cells that the orthant's signs and the
  relation select.  A term's shape is decided once per support: full when
  its cell with every row strict is nonempty, empty when its closed cell
  is, thin otherwise.  A full or empty shape decides every strict variant
  of the cell, so only a thin term's strict variants are eliminated one by
  one, and the tie of two terms is decided once for both orders.  Every
  relation, ``ne`` included, is read from ``hyperfields.SATISFIED_BY``;
* ``open_poly_to_trop`` goes the other way for open polyhedra, producing a
  polynomial that is positive exactly on the polyhedron.  Its input is
  read in log-magnitude coordinates X, where the tropical point with
  valuations -X corresponds to X (see the function docstring).

Every cover question is answered by one subtraction, ``_subtract``, the
region-difference rule of Baotić: a piece that misses the subtracted
polyhedron q is kept whole, each other piece w becomes w ∩ ¬q_j for every
row q_j of q (the row negated, its strictness flipped), and ``union_prune``
drops the empty and duplicate results.  The complement of a closed union
(``complement_of_union``) folds it over the union's pieces from the whole
space, which is De Morgan's expansion; ``piece_minus_union_is_empty`` folds
it over a union from one piece and asks whether anything is left, and
``union_subset``, ``union_equal`` and ``prune_covered_pieces`` rest on that.
``enumerate_cells``, the sign-vector search over a hyperplane arrangement
of forms (normal, cn, cd) with ``cd > 0``, and its helper ``_form_rows``
have no library caller; they stay (and stay exported) only because the
tracer in ``perfbench/tracer.py`` binds ``enumerate_cells`` by name, and
go when the benchmark drops that layer.

Everything is immutable and pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import index
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    EmptyPolyhedron,
    NegativeExponentAtZero,
    NotClosedInput,
    ShapeMismatch,
)
from .hyperfields import RT_ZERO, SignedTropVal, as_rational, normalize_rel, satisfied_by, stv
from .records import Record
from .troppoly import TropPoint, TropPoly

# a row (normal, offset numerator, offset denominator > 0, strict) means
# normal . x + cn/cd <= 0, or < 0 when strict; the offset is in lowest terms
IntRow = tuple[tuple[int, ...], int, int, bool]


def constraint(normal: Sequence[int], offset, rel: str = "<=") -> IntRow:
    """The row of an inequality ``normal . x + offset rel 0``.

    ``rel`` is any spelling ``normalize_rel`` reads as le, lt, ge or gt;
    an equation or a disequation is not a single row.  The offset is read
    by ``as_rational``.
    """
    normal = tuple(map(index, normal))
    offset = as_rational(offset)
    rel = normalize_rel(rel)
    if rel in ("eq", "ne"):
        raise ValueError(f"not an inequality: {rel!r}")
    if rel in ("ge", "gt"):
        normal, offset = tuple(-a for a in normal), -offset
    return (normal, offset.numerator, offset.denominator, rel in ("lt", "gt"))


def _scale_point(x: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Represent a rational point as integers over a common denominator."""
    fr = [v if type(v) is Fraction else as_rational(v) for v in x]
    den = 1
    for v in fr:
        den = den * v.denominator // gcd(den, v.denominator)
    return tuple(v.numerator * (den // v.denominator) for v in fr), den


class Polyhedron(Record):
    """A finite intersection of rational halfspaces, possibly with strict facets.

    ``rows`` holds one ``IntRow`` per halfspace.  The constructor reads
    ``dim`` and the rows' integers by ``operator.index``, and checks that
    each normal has ``dim`` entries, each offset is in lowest terms with a
    positive denominator and each ``strict`` is a bool; ``_from_rows``
    skips the check for rows the library derived itself.
    """

    __slots__ = _fields = ("dim", "rows")
    dim: int
    rows: tuple[IntRow, ...]

    def __init__(self, dim: int, rows: tuple[IntRow, ...]):
        dim = index(dim)
        checked = []
        for normal, cn, cd, strict in rows:
            normal, cn, cd = tuple(map(index, normal)), index(cn), index(cd)
            if len(normal) != dim:
                raise DimensionMismatch("constraint dimension mismatch")
            if cd <= 0 or gcd(cn, cd) != 1:
                raise ValueError(f"offset {cn}/{cd} is not in lowest terms")
            if type(strict) is not bool:
                raise TypeError(f"strict must be a bool, not {type(strict).__name__}")
            checked.append((normal, cn, cd, strict))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", tuple(checked))

    def contains(self, x: Sequence[Fraction]) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch("point dimension does not match polyhedron")
        xi, den = _scale_point(x)
        return self._contains_scaled(xi, den)

    def _contains_scaled(self, xi: tuple[int, ...], den: int) -> bool:
        # integer-only test of normal.x/den + off_n/off_d (<|<=) 0
        for normal, off_n, off_d, strict in self.rows:
            dot = 0
            for a, p in zip(normal, xi):
                if a:
                    dot += a * p
            v = dot * off_d + off_n * den
            if v > 0 or (strict and v == 0):
                return False
        return True

    def closure(self) -> "Polyhedron":
        return _from_rows(self.dim, [(n, cn, cd, False) for n, cn, cd, _ in self.rows])

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if self.dim != other.dim:
            raise DimensionMismatch("cannot intersect different dimensions")
        return _from_rows(self.dim, self.rows + other.rows)

    def is_open(self) -> bool:
        return all(r[3] for r in self.rows)

    def is_closed_form(self) -> bool:
        return not any(r[3] for r in self.rows)


def whole_space(dim: int) -> Polyhedron:
    return _from_rows(dim, ())


def point_polyhedron(coords: Sequence[Fraction]) -> Polyhedron:
    """The single point {coords} as a closed polyhedron."""
    coords = tuple(map(as_rational, coords))
    n = len(coords)
    cons = []
    for k, v in enumerate(coords):
        unit = tuple(1 if i == k else 0 for i in range(n))
        cons.append(constraint(unit, -v, "<="))
        cons.append(constraint(unit, -v, ">="))
    return Polyhedron(n, tuple(cons))


# ---------------------------------------------------------------------------
# Fourier-Motzkin core
# ---------------------------------------------------------------------------


def _from_rows(dim: int, rows: Sequence[IntRow]) -> Polyhedron:
    """The polyhedron of rows the library derived, without the constructor's check."""
    P = object.__new__(Polyhedron)
    object.__setattr__(P, "dim", dim)
    object.__setattr__(P, "rows", tuple(rows))
    return P


def _normalize_rows(rows: Iterable[IntRow]) -> Optional[list[IntRow]]:
    """Primitive-direction dedup keeping the strongest constraint.

    Returns None when a constant constraint is violated (infeasible).
    """
    best: dict[tuple[int, ...], tuple[int, int, bool]] = {}
    for normal, cn, cd, strict in rows:
        g = gcd(*normal)
        if not g:  # a zero normal: the row is a constant
            if cn > 0 or (strict and cn == 0):
                return None
            continue
        if g > 1:
            normal = tuple([a // g for a in normal])
            cd *= g
        gg = gcd(cn, cd)
        if gg > 1:
            cn //= gg
            cd //= gg
        prev = best.get(normal)
        if prev is None:
            best[normal] = (cn, cd, strict)
            continue
        pn, pd, ps = prev
        diff = cn * pd - pn * cd  # sign of (new offset - old offset)
        if diff > 0 or (diff == 0 and strict and not ps):
            best[normal] = (cn, cd, strict)
    return [(n, cn, cd, s) for n, (cn, cd, s) in best.items()]


def _eliminate_var(rows: list[IntRow], k: int) -> Optional[list[IntRow]]:
    """Eliminate x_k by pairing every row bounding it from above with every
    row bounding it from below; the result is normalized.

    An equality pair f <= 0, -f <= 0 pinning x_k is paired like any other
    rows: its derived rows are the substitution's, plus rows the others
    imply.  The one caller that knows an equation in advance, a tie of two
    terms, substitutes it first (``_substitute``).
    """
    uppers, lowers, others = [], [], []
    for r in rows:
        a = r[0][k]
        (uppers if a > 0 else lowers if a < 0 else others).append(r)
    if not uppers or not lowers:
        return _normalize_rows(others)
    out = list(others)
    for nu, un, ud, su in uppers:
        a = nu[k]
        for nl, ln, ld, sl in lowers:
            b = -nl[k]
            normal = tuple([b * u + a * l for u, l in zip(nu, nl)])
            out.append((normal, b * un * ld + a * ln * ud, ud * ld, su or sl))
    return _normalize_rows(out)


def _substitute(rows: Iterable[IntRow], eq: IntRow, k: int) -> list[IntRow]:
    """The rows on the hyperplane of ``eq`` (its row as an equation, with a
    nonzero coefficient of x_k), x_k substituted out and its coordinate
    dropped; the rows are not normalized."""
    n, cn, cd, _ = eq
    a = n[k]
    sa = 1 if a > 0 else -1
    aa = abs(a)
    out = []
    for m, dn, dd, t in rows:
        mk = m[k]
        if mk == 0:
            out.append((m[:k] + m[k + 1:], dn, dd, t))
            continue
        normal = [aa * mi - sa * mk * ni for mi, ni in zip(m, n)]
        del normal[k]
        out.append((tuple(normal), aa * dn * cd - sa * mk * cn * dd, dd * cd, t))
    return out


def _interval(rows: Iterable[IntRow], k: int) -> Optional[tuple]:
    """The tightest upper and lower bound of x_k over rows in the one
    variable x_k (every other coefficient zero), or None when the rows have
    no common point.

    The answer is (hn, hd, hs, ln, ld, ls): x_k <= hn/hd, strictly when hs,
    and x_k >= ln/ld, strictly when ls, with hd, ld > 0 and not reduced;
    hn is None when no row bounds x_k from above, and ln when none bounds
    it from below.  The bounds meet when the lower one is below the upper
    one, or equal to it with neither strict.  A row with a zero normal is a
    constant and decides itself.
    """
    hn = hd = ln = ld = None
    hs = ls = False
    for normal, cn, cd, strict in rows:
        a = normal[k]
        if a > 0:  # x_k <= -cn / (a cd)
            n, d = -cn, a * cd
            if hn is None or n * hd < hn * d:
                hn, hd, hs = n, d, strict
            elif strict and n * hd == hn * d:
                hs = True
        elif a < 0:  # x_k >= cn / (-a cd)
            n, d = cn, -a * cd
            if ln is None or n * ld > ln * d:
                ln, ld, ls = n, d, strict
            elif strict and n * ld == ln * d:
                ls = True
        elif cn > 0 or (strict and cn == 0):
            return None
    if hn is not None and ln is not None:
        gap = hn * ld - ln * hd  # the sign of upper minus lower
        if gap < 0 or (gap == 0 and (hs or ls)):
            return None
    return hn, hd, hs, ln, ld, ls


def _fm_core(
    rows: Sequence[IntRow],
    targets: Iterable[int],
    stages: Optional[list[tuple[int, list[IntRow]]]] = None,
) -> Optional[list[IntRow]]:
    """Eliminate the target variables; None means the system is infeasible.

    Each step eliminates the cheapest target still present in some row,
    ties going to the lowest index.  For every remaining target one pass
    over the rows counts those bounding it from above and from below; the
    cost is their product, the number of rows eliminating it derives,
    or -1 when the target is bounded on one side only.  Such a target's
    rows are dropped directly: the rest of a normalized system is
    normalized already.  When ``stages`` is given, it receives each
    eliminated variable with the system it was eliminated from.

    A full elimination (every variable a target, no ``stages``) only asks
    whether the system is feasible, so it decides its last variable from
    that variable's tightest bounds (``_interval``, the rule that also
    chooses ``feasible_point``'s values) and returns ``[]`` or None,
    instead of building and normalizing the constant rows; a system of one
    variable is decided so before any normalization.
    """
    remaining = sorted(targets)
    full = stages is None and bool(rows) and len(remaining) == len(rows[0][0])
    if full and len(remaining) == 1:
        return None if _interval(rows, remaining[0]) is None else []
    cur = _normalize_rows(rows)
    while cur is not None:
        best = best_cost = None
        # no step brings back a variable that is absent from every row
        present = []
        for k in remaining:
            u = d = 0
            for r in cur:
                a = r[0][k]
                if a > 0:
                    u += 1
                elif a < 0:
                    d += 1
            if u or d:
                present.append(k)
                cost = u * d if u and d else -1
                if best is None or cost < best_cost:
                    best, best_cost = k, cost
        if best is None:
            return cur
        if full and len(present) == 1:
            # every other variable is eliminated: the rows bound best alone
            return None if _interval(cur, best) is None else []
        remaining = present
        remaining.remove(best)
        if stages is not None:
            stages.append((best, cur))
        if best_cost < 0:
            cur = [r for r in cur if not r[0][best]]
        else:
            cur = _eliminate_var(cur, best)
    return None


def _feasible(rows: Sequence[IntRow], nvars: int) -> bool:
    return _fm_core(rows, range(nvars)) is not None


def feasible_point(P: Polyhedron) -> Optional[tuple[Fraction, ...]]:
    """A rational point of P, or None when P is empty.

    Runs the elimination while recording each stage, then back-substitutes,
    last stage first: given the values already chosen, a stage's rows that
    hold its variable are rows in it alone, and the value is the midpoint
    of their ``_interval``, hi - 1 with only an upper bound, lo + 1 with
    only a lower one, and 0 with neither.  The point is checked against the
    whole normalized system.  The drawn figures read only that the point
    lies in P: a segment's clipped endpoints are the same from any of its
    points.
    """
    rows, nvars = P.rows, P.dim
    stages: list[tuple[int, list[IntRow]]] = []
    if _fm_core(rows, range(nvars), stages) is None:
        return None
    assign = [Fraction(0)] * nvars
    for k, system in reversed(stages):
        line = []
        for normal, cn, cd, strict in system:
            a = normal[k]
            if a:
                rest = sum(
                    normal[j] * assign[j] for j in range(nvars) if j != k and normal[j]
                ) + Fraction(cn, cd)
                line.append(((a,), rest.numerator, rest.denominator, strict))
        bounds = _interval(line, 0)
        if bounds is None:
            return None
        hn, hd, _, ln, ld, _ = bounds
        if hn is None:
            assign[k] = Fraction(0) if ln is None else Fraction(ln, ld) + 1
        elif ln is None:
            assign[k] = Fraction(hn, hd) - 1
        else:
            assign[k] = (Fraction(ln, ld) + Fraction(hn, hd)) / 2
    point = tuple(assign)
    # the first stage holds the whole normalized system; with no stage it is empty
    if stages and not _from_rows(nvars, stages[0][1]).contains(point):
        return None
    return point


# The orthant tables decide their shapes, cells and ties without this memo
# and keep every answer, so it serves the pieces of union_prune (through
# union_intersect, _subtract and piece_minus_union_is_empty) and
# poly_is_empty's callers.  Over one round of the regions benchmark (seed 1)
# it answered 96 of 166 union_prune lookups and 12 of 36 poly_is_empty
# lookups from memory, and without it the round made 2,812 eliminations
# instead of 2,704 (outer-intersection_tight 204 instead of 121).  When the
# tables still asked it, it answered 7 of their 1,175 tie lookups and 0 of
# their 12 thin-cell lookups.  A memo this small evicts a system within
# about ten later regions, so it shares work inside one operation, not
# across a long run.
@lru_cache(maxsize=256)
def _rows_empty(rows: tuple[IntRow, ...], nvars: int) -> bool:
    return not _feasible(rows, nvars)


def poly_is_empty(P: Polyhedron) -> bool:
    """Whether P has no point, decided by Fourier-Motzkin elimination.

    The answer is memoized by P's integer rows and dimension in a bounded
    LRU memo.  The memo is exact: the rows are immutable tuples of integers
    and booleans, and with the dimension they fully determine the system,
    so equal keys always have equal answers.
    """
    return _rows_empty(P.rows, P.dim)


def equality_normals(P: Polyhedron) -> list[tuple[int, ...]]:
    """Normals of the non-strict constraints that hold with equality on all of P."""
    rows = list(P.rows)
    return [
        normal
        for normal, cn, cd, strict in P.rows
        if not strict and not _feasible(rows + [(normal, cn, cd, True)], P.dim)
    ]


def poly_dim(P: Polyhedron) -> int:
    """Dimension of the affine hull; -1 for the empty polyhedron.

    The implicit equations (``equality_normals``) are substituted out one
    at a time with the elimination's equation step (``_substitute``); an
    equation whose normal the earlier steps have made zero depends on them
    and is skipped.  The dimension is P.dim less the equations substituted.
    """
    if poly_is_empty(P):
        return -1
    dim = P.dim
    eqs = [(normal, 0, 1, False) for normal in equality_normals(P)]
    while eqs:
        eq = eqs.pop()
        k = next((k for k, a in enumerate(eq[0]) if a), None)
        if k is not None:
            eqs = _substitute(eqs, eq, k)
            dim -= 1
    return dim


def poly_recession_contains(P: Polyhedron, d: Sequence[Fraction]) -> bool:
    """Whether d is a recession direction of the closure of nonempty P."""
    d = tuple(map(as_rational, d))
    return all(sum(a * di for a, di in zip(r[0], d)) <= 0 for r in P.rows)


def poly_has_recession_direction(P: Polyhedron, open_conditions: Sequence[IntRow]) -> bool:
    """Whether the recession cone of P meets all the given homogeneous rows."""
    rows: list[IntRow] = [(normal, 0, 1, False) for normal, _, _, _ in P.rows]
    rows += Polyhedron(P.dim, tuple(open_conditions)).rows
    return _feasible(rows, P.dim)


# ---------------------------------------------------------------------------
# Unions of polyhedra
# ---------------------------------------------------------------------------


class PolyUnion(Record):
    """A finite union of polyhedra of a common ambient dimension."""

    _fields = ("dim", "pieces")
    dim: int
    pieces: tuple[Polyhedron, ...]

    def __init__(self, dim: int, pieces: tuple[Polyhedron, ...]):
        for p in pieces:
            if p.dim != dim:
                raise DimensionMismatch("piece dimension mismatch")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pieces", pieces)

    def contains(self, x: Sequence[Fraction]) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch("point dimension does not match union")
        xi, den = _scale_point(x)
        return any(p._contains_scaled(xi, den) for p in self.pieces)

    def is_empty(self) -> bool:
        return all(poly_is_empty(p) for p in self.pieces)


def union_of(dim: int, pieces: Iterable[Polyhedron]) -> PolyUnion:
    return union_prune(PolyUnion(dim, tuple(pieces)))


def _from_pieces(dim: int, pieces: Sequence[Polyhedron]) -> PolyUnion:
    """The union of pieces the library built in ``dim``, without the
    constructor's check."""
    U = object.__new__(PolyUnion)
    object.__setattr__(U, "dim", dim)
    object.__setattr__(U, "pieces", tuple(pieces))
    return U


def whole_space_union(dim: int) -> PolyUnion:
    return _from_pieces(dim, (whole_space(dim),))


def empty_union(dim: int) -> PolyUnion:
    return _from_pieces(dim, ())


def union_prune(U: PolyUnion) -> PolyUnion:
    """Drop empty and syntactically duplicate pieces."""
    seen = set()
    out = []
    for p in U.pieces:
        # one sorted key per piece serves both tests: emptiness does not
        # depend on the order of the rows
        key = tuple(sorted(p.rows))
        if key in seen or _rows_empty(key, U.dim):
            continue
        seen.add(key)
        out.append(p)
    return PolyUnion(U.dim, tuple(out))


def union_intersect(A: PolyUnion, B: PolyUnion) -> PolyUnion:
    if A.dim != B.dim:
        raise DimensionMismatch("cannot intersect different dimensions")
    return union_prune(
        PolyUnion(A.dim, tuple(p.intersect(q) for p in A.pieces for q in B.pieces))
    )


def _subtract(pieces: Sequence[Polyhedron], q: Polyhedron) -> tuple[Polyhedron, ...]:
    """Nonempty, distinct pieces whose union is (∪ pieces) ∖ q.

    A piece w with w ∩ q empty is kept whole.  Every other piece becomes
    w ∩ ¬q_j for each row q_j of q, where ¬q_j is the row negated with its
    strictness flipped; these overlap, and their union is w ∖ q.  The kept
    pieces, then the cut ones in row order, go through ``union_prune``.
    """
    dim = q.dim
    negated = [((tuple(-a for a in n), -cn, cd, not s),) for n, cn, cd, s in q.rows]
    kept, cut = [], []
    for w in pieces:
        if poly_is_empty(w.intersect(q)):
            kept.append(w)
        else:
            cut += [_from_rows(dim, w.rows + row) for row in negated]
    return union_prune(PolyUnion(dim, tuple(kept + cut))).pieces


def piece_minus_union_is_empty(p: Polyhedron, pieces: Sequence[Polyhedron]) -> bool:
    """Whether p ∖ (∪ pieces) is empty, by exact subtraction.

    ``_subtract`` takes each piece in turn from what is left of p; the
    answer is whether nothing is left.
    """
    left = union_prune(PolyUnion(p.dim, (p,))).pieces
    for q in pieces:
        if not left:
            break
        left = _subtract(left, q)
    return not left


def union_subset(A: PolyUnion, B: PolyUnion) -> bool:
    return all(piece_minus_union_is_empty(p, B.pieces) for p in A.pieces)


def union_equal(A: PolyUnion, B: PolyUnion) -> bool:
    return union_subset(A, B) and union_subset(B, A)


# ---------------------------------------------------------------------------
# Complements of closed unions, and hyperplane-arrangement cells
# ---------------------------------------------------------------------------

# No library path calls _form_rows or enumerate_cells; they are kept only
# because perfbench/tracer.py binds enumerate_cells by name.

DiffRow = tuple[tuple[int, ...], int, int]  # normal, offset numerator, offset denominator


def _form_rows(form: DiffRow, sign: int) -> list[IntRow]:
    normal, cn, cd = form
    neg = tuple(-a for a in normal)
    if sign < 0:
        return [(normal, cn, cd, True)]
    if sign > 0:
        return [(neg, -cn, cd, True)]
    return [(normal, cn, cd, False), (neg, -cn, cd, False)]


def enumerate_cells(forms: Sequence[DiffRow], dim: int) -> list[tuple[int, ...]]:
    """Sign vectors of the nonempty relatively open cells of the arrangement.

    Recursive sign-vector search with emptiness pruning.  Witness points
    found along the way certify feasibility of most branches for free, so
    the exact elimination only runs on genuinely new or infeasible cells.
    """
    results: list[tuple[int, ...]] = []
    signs: list[int] = []

    def sign_of(form: DiffRow, x: tuple[Fraction, ...]) -> int:
        normal, cn, cd = form
        v = sum(a * xi for a, xi in zip(normal, x)) * cd + cn
        return 1 if v > 0 else -1 if v < 0 else 0

    def rec(i: int, rows: list[IntRow], candidates: list[tuple[Fraction, ...]]) -> None:
        if i == len(forms):
            results.append(tuple(signs))
            return
        form = forms[i]
        for s in (-1, 0, 1):
            rows2 = rows + _form_rows(form, s)
            cand2 = [x for x in candidates if sign_of(form, x) == s]
            if not cand2:
                w = feasible_point(_from_rows(dim, rows2))
                if w is None:
                    continue
                cand2 = [w]
            signs.append(s)
            rec(i + 1, rows2, cand2)
            signs.pop()

    rec(0, [], [])
    return results


def complement_of_union(T: PolyUnion) -> list[Polyhedron]:
    """Open polyhedra whose union is exactly the complement of the closed union T.

    The complement of the union of the pieces p is, by De Morgan, the
    intersection over p of the union of the open halfspaces that negate p's
    rows.  It is expanded by subtracting one piece at a time from the whole
    space with ``_subtract``: a partial piece that misses p is kept whole,
    and the others are cut by p's negated rows, which are strict because p
    is closed.  No returned piece is empty or repeats an earlier one's rows.
    """
    for p in T.pieces:
        if not p.is_closed_form():
            raise NotClosedInput("complement requires non-strict constraints")
    acc = (whole_space(T.dim),)
    for p in T.pieces:
        acc = _subtract(acc, p)
    return list(acc)


def prune_covered_pieces(pieces: Sequence[Polyhedron]) -> list[Polyhedron]:
    """Greedy removal of pieces covered by the union of the remaining ones.

    One forward pass suffices: a removal only shrinks the union of the
    others, so a piece found uncovered stays uncovered.  The kept list is
    the one a pass restarted after every removal would keep.
    """
    kept = list(pieces)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        if others and piece_minus_union_is_empty(kept[i], others):
            del kept[i]
        else:
            i += 1
    return kept


# ---------------------------------------------------------------------------
# Orthants
# ---------------------------------------------------------------------------

Orthant = tuple[int, ...]


def orthant_support(sigma: Orthant) -> tuple[int, ...]:
    return tuple([k for k, s in enumerate(sigma) if s != 0])


def all_orthants(n: int) -> list[Orthant]:
    out: list[Orthant] = [()]
    for _ in range(n):
        out = [o + (s,) for o in out for s in (-1, 0, 1)]
    return out


def embed_point(sigma: Orthant, V: Sequence[Fraction]) -> TropPoint:
    """The tropical point with signs sigma and the given support valuations.

    The point shares the ``Fraction`` objects of V; any other valuation is
    read as ``SignedTropVal`` reads it.  Zero coordinates are ``RT_ZERO``.
    """
    if len(V) != sum(1 for s in sigma if s != 0):
        raise DimensionMismatch("valuation vector does not match orthant support")
    coords: list[SignedTropVal] = []
    it = iter(V)
    for s in sigma:
        if s == 0:
            coords.append(RT_ZERO)
        else:
            coords.append(SignedTropVal(s, next(it)))
    return tuple(coords)


def orthant_str(sigma: Orthant) -> str:
    return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in sigma)


def parse_orthant(text: str) -> Orthant:
    mapping = {"+": 1, "-": -1, "0": 0}
    try:
        return tuple(mapping[ch] for ch in text.strip())
    except KeyError:
        raise ValueError(f"bad orthant string {text!r}") from None


# ---------------------------------------------------------------------------
# Tropical regions of an orthant
# ---------------------------------------------------------------------------


class _OrthantTable:
    """The terms of a valuation kernel that survive on one orthant support,
    their dominance rows, the shape of each term's dominance cell, and every
    cell decided on the support.

    The kernel is a tropical polynomial's integer form
    (``TropPoly._val_kernel``).  Term i survives unless it has a positive
    power of a coordinate outside the support.  Its affine value is
    L_i(V) = e_i . V + v_i / D on the support valuations V, with e_i its
    support exponents, v_i its valuation numerator and D the kernel's common
    denominator; none of this depends on the orthant's signs.  The signs
    only pick which terms are positive and which negative: ``split`` reads
    them from the kernel's plan of the orthant (``_ValKernel.plan``), whose
    alive terms are the table's, in the same order, and keeps the answer
    per orthant.  The kernel must be defined on the orthants asked for.

    Term i's closed cell C_i is {L_i - L_j <= 0 for every j}, and a relation
    asks for it with the rows to some terms strict.  Its *shape* is decided
    once per support (``shape``): full when the cell with every row strict
    is nonempty, empty when C_i is, thin otherwise.  The cell with every
    row strict lies in every variant and every variant lies in C_i, so only
    a thin term's strict variants need an elimination of their own.  In the
    terms of the regular subdivision of the Newton polytope (Maclagan and
    Sturmfels, section 3.1), C_i has interior when the lifted point
    (e_i, v_i / D) is a vertex of the lower hull of the lifted points, and
    is thin when it lies on that hull but is no vertex, as x does in
    1 + x + x^2 with every valuation 0.

    ``_cells`` holds term i's cell keyed by (i, strict), where bit j of
    ``strict`` makes row j strict: its piece, or None when it is empty.
    ``_ties`` holds an equation's tie of a positive term i with a negative
    term j, keyed by (i, j): C_i cut by L_j - L_i <= 0, which is
    C_i ∩ C_j, as None when it is empty, else its id and its piece.  A tie
    is empty when either term's shape is, the tie (j, i) of another
    orthant reads the emptiness of (i, j), and any other tie is decided on
    the hyperplane L_i = L_j, in one variable fewer (``_tie``); its piece
    keeps its own rows.
    Different pairs of terms can give the same rows, and one orthant lists
    such a piece once: ``_tie_ids`` maps a tie's sorted rows, built once
    when the tie is decided, to the number i * n + j of the first pair
    that gave them (n terms), so ``tie_cells`` compares ints.  Rows,
    shapes, cells and ids are built the first time a relation needs them;
    two threads that build the same one build equal ones, and the first id
    stored for some rows is the one both read, so the race is harmless.
    """

    __slots__ = ("_m", "defined", "_kernel", "_exps", "_vals", "_den",
                 "_rows", "_shapes", "_splits", "_cells", "_ties", "_tie_ids")

    def __init__(self, kernel, support: tuple[int, ...]) -> None:
        place = {k: i for i, k in enumerate(support)}
        m = self._m = len(place)
        # the bits of the coordinates outside the support: they are zero
        zeromask = ~sum(1 << k for k in support)
        self.defined = not kernel.negmask & zeromask
        self._kernel = kernel
        exps: list[tuple[int, ...]] = []
        vals: list[int] = []
        for pairs, _, live, _, v in kernel.terms:
            if live & zeromask:
                continue  # a positive power of a zero coordinate kills the term
            e = [0] * m
            for k, d in pairs:
                e[place[k]] = d
            exps.append(tuple(e))
            vals.append(v)
        self._exps = exps
        self._vals = vals
        self._den = kernel.den
        self._rows: list[Optional[tuple[Optional[IntRow], ...]]] = [None] * len(vals)
        self._shapes: list[Optional[str]] = [None] * len(vals)
        self._splits: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...], int, int]] = {}
        self._cells: dict[tuple[int, int], Optional[Polyhedron]] = {}
        self._ties: dict[tuple[int, int], object] = {}
        self._tie_ids: dict[tuple[IntRow, ...], int] = {}

    def split(self, sigma: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        """The terms positive and negative on the orthant sigma, as index
        tuples and as bit sets.  An entry of sigma other than -1, 0 and 1
        raises ValueError."""
        out = self._splits.get(sigma)
        if out is None:
            negative = zero = 0
            for k, s in enumerate(sigma):
                if s not in (-1, 0, 1):
                    raise ValueError(f"orthant entry {s!r} is not -1, 0 or 1")
                if s < 0:
                    negative |= 1 << k
                elif not s:
                    zero |= 1 << k
            # the plan lists the alive terms in kernel order, which is the table's
            _, alive = self._kernel.plan(negative, zero)
            pos = [i for i, (_, sign, _) in enumerate(alive) if sign > 0]
            neg = [i for i, (_, sign, _) in enumerate(alive) if sign < 0]
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

    def shape(self, i: int) -> str:
        """Term i's shape on the support: ``_FULL``, ``_THIN`` or ``_EMPTY``.

        One elimination decides a full term, two any other."""
        shape = self._shapes[i]
        if shape is None:
            closed = [r for r in self.rows(i) if r is not None]
            m = self._m
            if _feasible([(n, cn, cd, True) for n, cn, cd, _ in closed], m):
                shape = _FULL
            elif _feasible(closed, m):
                shape = _THIN
            else:
                shape = _EMPTY
            self._shapes[i] = shape
        return shape

    def term_cells(self, terms: Sequence[int], strict: int, out: list[Polyhedron]) -> None:
        """Append to ``out`` the nonempty cells of the given terms, with the
        rows to the terms in the bit set ``strict`` strict, deciding the new
        ones."""
        cells = self._cells
        for i in terms:
            cell = cells.get((i, strict), _UNDECIDED)
            if cell is _UNDECIDED:
                cell = cells[(i, strict)] = self._term_cell(i, strict)
            if cell is not None:
                out.append(cell)

    def _term_cell(self, i: int, strict: int) -> Optional[Polyhedron]:
        """Term i's cell with the rows to ``strict`` strict, or None when it
        is empty; only a thin term's strict variant is eliminated."""
        shape = self.shape(i)
        if shape is _EMPTY:
            return None
        rows = [
            (r[0], r[1], r[2], True) if strict >> j & 1 else r
            for j, r in enumerate(self.rows(i))
            if r is not None
        ]
        m = self._m
        if shape is _THIN and strict and not _feasible(rows, m):
            return None
        return _from_rows(m, rows)

    def tie_cells(self, pos: Sequence[int], neg: Sequence[int], out: list[Polyhedron]) -> None:
        """Append to ``out`` the distinct nonempty ties of a positive term
        with a negative one, deciding the new ones; different pairs of terms
        can give the same rows, and the same tie id."""
        seen = set()
        ties = self._ties
        for i in pos:
            for j in neg:
                tie = ties.get((i, j), _UNDECIDED)
                if tie is _UNDECIDED:
                    tie = ties[(i, j)] = self._tie(i, j)
                if tie is not None and tie[0] not in seen:
                    seen.add(tie[0])
                    out.append(tie[1])

    def _tie(self, i: int, j: int):
        """C_i cut by L_j - L_i <= 0: None when it is empty, else (the id of
        its sorted rows, its piece).

        The tie lies on the hyperplane L_i = L_j, C_i's row to j taken as an
        equation.  It is decided on that hyperplane: the equation gives the
        first support coordinate where e_i and e_j differ in terms of the
        others (``_substitute``), so one elimination decides C_i's other
        rows in m - 1 variables.  The piece keeps the tie's own m-variable
        rows."""
        other = self._ties.get((j, i), _UNDECIDED)
        if other is None or self.shape(i) is _EMPTY or self.shape(j) is _EMPTY:
            return None
        cell = self.rows(i)
        m = self._m
        if other is _UNDECIDED:
            eq = cell[j]
            # surviving terms have distinct support exponents, so some k exists
            k = next(k for k, a in enumerate(eq[0]) if a)
            rest = [r for r in cell if r is not None and r is not eq]
            if not _feasible(_substitute(rest, eq, k), m - 1):
                return None
        rows = [r for r in cell if r is not None]
        rows.append(self.rows(j)[i])
        tie_id = self._tie_ids.setdefault(tuple(sorted(rows)), i * len(self._vals) + j)
        return tie_id, _from_rows(m, rows)


_UNDECIDED = object()
# a term's cell shape on a support (``_OrthantTable.shape``)
_FULL, _THIN, _EMPTY = "full", "thin", "empty"


# Every caller that walks the orthants asks for each support's table once
# per orthant and relation: 16 tables hold the 8 supports of a 3-variable
# polynomial, so a relation-outer loop over all its orthants builds each once.
@lru_cache(maxsize=16)
def _orthant_table(kernel, support: tuple[int, ...]) -> _OrthantTable:
    """The table of ``kernel`` on the orthant support ``support``."""
    return _OrthantTable(kernel, support)


def trop_region(F: TropPoly, sigma: Orthant, rel: str) -> PolyUnion:
    """The exact set of support valuations V with F(embed(sigma, V)) rel 0.

    The region is assembled from dominance cells: term i dominates where its
    affine value L_i(V) = exps_i . V + val_i is minimal.  A relation holds
    where ``hyperfields.SATISFIED_BY`` accepts the sum: the sign of the
    dominating terms, or balanced where dominating terms of both signs
    tie.  So the region of ``ne`` is the pieces of ``gt`` followed by
    those of ``lt``: a disequation needs no rewriting into two conditions.

    The region is a selection from the table of F's integer valuation
    kernel on the orthant's support (``_orthant_table``): the signs only
    pick which cells count and which rows are strict, so every orthant and
    relation of one support shares the table's rows, its terms' shapes and
    the cells it has decided.  Each cell is built once.  A term's shape
    (full, thin or empty) is decided once, by one elimination for a full
    term and two for any other, and it decides every strict variant of a
    full or empty term's cell; only a thin term's strict variants are
    eliminated one by one.  An equation's tie of two terms is decided once
    for both orders, and not at all when either shape is empty.  Term cells
    go into the union as they are: two distinct terms never give the same
    rows, since the normals of term i's cell sum to
    n * e_i - (e_1 + ... + e_n) and the surviving terms' support exponents
    are distinct.  An equation's ties keep the duplicate test, because
    different pairs of terms can give the same rows.  Terms whose
    coefficient is zero never count, as in ``trop_eval``.
    """
    return _outcome_region(F, sigma, satisfied_by(rel))


def _outcome_region(F: TropPoly, sigma: Orthant, ok: frozenset) -> PolyUnion:
    """``trop_region`` for the set ``ok`` of outcomes that satisfy: signs
    -1, 0, 1, and None for a balanced sum."""
    if len(sigma) != F.nvars:
        raise DimensionMismatch("orthant length does not match polynomial")
    sigma = tuple(sigma)
    support = orthant_support(sigma)
    m = len(support)
    table = _orthant_table(F._val_kernel, support)
    if not table.defined:
        raise NegativeExponentAtZero("negative exponent at a zero coordinate")
    pos, neg, pos_bits, neg_bits = table.split(sigma)

    if not pos and not neg:
        # the polynomial evaluates to zero on this orthant
        return whole_space_union(m) if 0 in ok else empty_union(m)

    # a dominance row against a term of the opposite sign is strict exactly
    # when a balanced sum fails the relation
    mixed_strict = None not in ok
    pieces: list[Polyhedron] = []
    if 1 in ok:
        table.term_cells(pos, neg_bits if mixed_strict else 0, pieces)
    if -1 in ok:
        table.term_cells(neg, pos_bits if mixed_strict else 0, pieces)
    if None in ok and 1 not in ok and -1 not in ok:
        # only a balanced sum satisfies the relation: the ties of a positive
        # and a negative dominant term
        table.tie_cells(pos, neg, pieces)
    return _from_pieces(m, pieces)


def trop_conjunction(
    conditions: Iterable[tuple[TropPoly, str]], sigma: Orthant
) -> PolyUnion:
    """The intersection of the regions of the conditions on one orthant.

    Regions are computed one at a time, and none after the intersection
    becomes empty.  A condition with a negative exponent on a coordinate
    the orthant sets to zero is undefined there and holds nowhere, so the
    intersection is then empty.
    """
    return _outcome_conjunction(
        ((F, satisfied_by(rel)) for F, rel in conditions), sigma
    )


def _outcome_conjunction(
    conditions: Iterable[tuple[TropPoly, frozenset]], sigma: Orthant
) -> PolyUnion:
    """``trop_conjunction`` for conditions given as (F, the outcomes that
    satisfy), as in ``_outcome_region``."""
    m = len(orthant_support(sigma))
    acc = None
    for F, ok in conditions:
        try:
            region = _outcome_region(F, sigma, ok)
        except NegativeExponentAtZero:
            return empty_union(m)
        # a region's pieces are nonempty and distinct: the first is the start
        acc = region if acc is None else union_intersect(acc, region)
        if not acc.pieces:
            break
    return whole_space_union(m) if acc is None else acc


# ---------------------------------------------------------------------------
# Open polyhedron -> positive region of a tropical polynomial
# ---------------------------------------------------------------------------


def open_poly_to_trop(P: Polyhedron) -> TropPoly:
    """A polynomial positive exactly on the open polyhedron P.

    P is read in log-magnitude coordinates: writing its constraints as
    alpha . X + C < 0, the result is 1 (+) (+)_i (-A_i) x^alpha_i with A_i
    the positive value of valuation -C_i, so that for every rational X,

        X in P  <=>  the polynomial is positive at the point with
                     coordinate valuations -X_k and all signs +.

    Equivalently, in valuation coordinates V = -X the positive region of
    the result in the all-positive orthant is {beta . V + D < 0 for all i}
    for the constraints rewritten as beta = -alpha, D = C.
    """
    if not P.is_open():
        raise ShapeMismatch("input polyhedron must have strict constraints only")
    if poly_is_empty(P):
        raise EmptyPolyhedron("no polynomial represents an empty open region")
    # the strongest row per primitive normal; P is nonempty, so this is not None
    strongest = _normalize_rows(P.rows)
    terms: list[tuple[tuple[int, ...], SignedTropVal]] = [
        ((0,) * P.dim, stv(1, 0))
    ]
    for normal, cn, cd, _ in sorted(strongest):
        terms.append((normal, stv(-1, Fraction(-cn, cd))))
    return TropPoly.from_terms(P.dim, terms)


def valuation_piece_to_log(P: Polyhedron) -> Polyhedron:
    """Reinterpret a valuation-coordinate polyhedron in log coordinates X = -V."""
    return _from_rows(
        P.dim, [(tuple([-a for a in n]), cn, cd, strict) for n, cn, cd, strict in P.rows]
    )


# ---------------------------------------------------------------------------
# Limits toward zero coordinates (for orthant-face adjacency)
# ---------------------------------------------------------------------------


def limit_polyhedron(P: Polyhedron, drop: Sequence[int]) -> Optional[Polyhedron]:
    """Limit set of the closure of P as the dropped coordinates go to +inf.

    Returns a polyhedron in the remaining coordinates (in their original
    order), or None when no point of P escapes to +inf in all dropped
    coordinates simultaneously.
    """
    drop_set = set(drop)
    keep = [k for k in range(P.dim) if k not in drop_set]
    if not drop_set:
        return P.closure()
    n = P.dim
    nu = n  # auxiliary lower bound for the dropped coordinates
    rows: list[IntRow] = [
        (normal + (0,), cn, cd, False) for normal, cn, cd, _ in P.rows
    ]
    for k in drop_set:
        normal = tuple((1 if i == nu else -1 if i == k else 0) for i in range(n + 1))
        rows.append((normal, 0, 1, False))
    projected = _fm_core(rows, drop_set)
    if projected is None:
        return None
    out: list[IntRow] = []
    for normal, cn, cd, strict in projected:
        lam = normal[nu]
        if lam > 0:
            return None
        if lam < 0:
            continue
        out.append((tuple(normal[k] for k in keep), cn, cd, strict))
    return _from_rows(len(keep), out)
