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
the answers over the reals.  Feasibility, projection and point-finding share
one elimination loop (``_fm_core``) and one row normalization.  Emptiness
is memoized by the rows and the dimension in a bounded LRU memo of at most
256 systems (``_rows_empty``): ``poly_is_empty`` keys it by the rows as they
are, and ``union_prune`` and the cells of ``trop_region`` by the sorted rows
that are also their duplicate key.  The memo is exact, since the immutable
rows fully determine the answer and the elimination's answer does not
depend on their order.

The module also hosts the two bridges between polyhedra and tropical
polynomials:

* ``trop_region`` turns a tropical polynomial, an orthant, and a relation
  against zero into the exact region of valuation vectors satisfying it,
  assembled from dominance cells of the polynomial's terms.  The cells
  come from one table per orthant support (``troppoly._orthant_table``),
  shared by every orthant and relation on that support: it holds the
  surviving terms, the integer rows of their pairwise differences, and
  each cell once it is decided, so ``trop_region`` only picks the cells
  that the orthant's signs and the relation select;
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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    EmptyPolyhedron,
    NegativeExponentAtZero,
    NotClosedInput,
    ShapeMismatch,
)
from .hyperfields import RT_ZERO, SATISFIED_BY, SignedTropVal, normalize_rel, stv
from .troppoly import DiffRow, IntRow, TropPoint, TropPoly, _orthant_table


def constraint(normal: Sequence[int], offset, rel: str = "<=") -> IntRow:
    """The row of an inequality ``normal . x + offset rel 0``.

    ``rel`` is any spelling ``normalize_rel`` reads as le, lt, ge or gt;
    an equation or a disequation is not a single row.
    """
    normal = tuple(int(a) for a in normal)
    offset = Fraction(offset)
    rel = normalize_rel(rel)
    if rel in ("eq", "ne"):
        raise ValueError(f"not an inequality: {rel!r}")
    if rel in ("ge", "gt"):
        normal, offset = tuple(-a for a in normal), -offset
    return (normal, offset.numerator, offset.denominator, rel in ("lt", "gt"))


def _scale_point(x: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Represent a rational point as integers over a common denominator."""
    fr = [v if isinstance(v, Fraction) else Fraction(v) for v in x]
    den = 1
    for v in fr:
        den = den * v.denominator // gcd(den, v.denominator)
    return tuple(v.numerator * (den // v.denominator) for v in fr), den


@dataclass(frozen=True, slots=True)
class Polyhedron:
    """A finite intersection of rational halfspaces, possibly with strict facets.

    ``rows`` holds one ``IntRow`` per halfspace.  The constructor checks
    that each normal has ``dim`` entries and each offset is in lowest terms
    with a positive denominator; ``_from_rows`` skips the check for rows the
    library derived itself.
    """

    dim: int
    rows: tuple[IntRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for normal, cn, cd, _ in self.rows:
            if len(normal) != self.dim:
                raise DimensionMismatch("constraint dimension mismatch")
            if cd <= 0 or gcd(cn, cd) != 1:
                raise ValueError(f"offset {cn}/{cd} is not in lowest terms")

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
    coords = tuple(Fraction(c) for c in coords)
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


def _primitive(normal: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The normal divided by the gcd g of its entries, and g (0 for a zero normal)."""
    g = gcd(*normal)
    if g > 1:
        return tuple(a // g for a in normal), g
    return normal, g


def _normalize_rows(rows: Iterable[IntRow]) -> Optional[list[IntRow]]:
    """Primitive-direction dedup keeping the strongest constraint.

    Returns None when a constant constraint is violated (infeasible).
    """
    best: dict[tuple[int, ...], tuple[int, int, bool]] = {}
    for normal, cn, cd, strict in rows:
        if not any(normal):
            if cn > 0 or (strict and cn == 0):
                return None
            continue
        normal, g = _primitive(normal)
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
    # an equality pair f <= 0, -f <= 0 pinning x_k allows direct substitution,
    # which is linear instead of quadratic in the number of rows
    nonstrict = {(n, cn, cd) for n, cn, cd, s in rows if not s}
    eq = None
    for n, cn, cd, s in rows:
        if not s and n[k] != 0:
            if (tuple(-a for a in n), -cn, cd) in nonstrict:
                eq = (n, cn, cd)
                break
    if eq is not None:
        n, cn, cd = eq
        a = n[k]
        sa = 1 if a > 0 else -1
        aa = abs(a)
        out = []
        for m, dn, dd, t in rows:
            mk = m[k]
            if mk == 0:
                out.append((m, dn, dd, t))
                continue
            normal = tuple(aa * mi - sa * mk * ni for mi, ni in zip(m, n))
            out.append((normal, aa * dn * cd - sa * mk * cn * dd, dd * cd, t))
        return _normalize_rows(out)

    uppers = [r for r in rows if r[0][k] > 0]
    lowers = [r for r in rows if r[0][k] < 0]
    others = [r for r in rows if r[0][k] == 0]
    if not uppers or not lowers:
        return _normalize_rows(others)
    out = list(others)
    for nu, un, ud, su in uppers:
        a = nu[k]
        for nl, ln, ld, sl in lowers:
            b = -nl[k]
            normal = tuple(b * u + a * l for u, l in zip(nu, nl))
            out.append((normal, b * un * ld + a * ln * ud, ud * ld, su or sl))
    return _normalize_rows(out)


def _fm_core(
    rows: Iterable[IntRow],
    targets: Iterable[int],
    stages: Optional[list[tuple[int, list[IntRow]]]] = None,
) -> Optional[list[IntRow]]:
    """Eliminate the target variables; None means the system is infeasible.

    Each step eliminates the cheapest target still present in some row,
    ties going to the lowest index.  One pass over the rows counts, for
    every remaining target, the rows bounding it from above and from below;
    the cost is their product, the number of rows eliminating it derives,
    or -1 when the target is bounded on one side only.  Such a target's
    rows are dropped directly: the rest of a normalized system is
    normalized already.  When ``stages`` is given, it receives each
    eliminated variable with the system it was eliminated from.
    """
    cur = _normalize_rows(rows)
    remaining = sorted(targets)
    while cur is not None:
        ups = [0] * len(remaining)
        downs = [0] * len(remaining)
        for normal, _, _, _ in cur:
            for i, k in enumerate(remaining):
                a = normal[k]
                if a > 0:
                    ups[i] += 1
                elif a < 0:
                    downs[i] += 1
        best = best_cost = None
        # no step brings back a variable that is absent from every row
        present = []
        for k, u, d in zip(remaining, ups, downs):
            if u or d:
                present.append(k)
                cost = u * d if u and d else -1
                if best is None or cost < best_cost:
                    best, best_cost = k, cost
        if best is None:
            return cur
        remaining = present
        remaining.remove(best)
        if stages is not None:
            stages.append((best, cur))
        if best_cost < 0:
            cur = [r for r in cur if not r[0][best]]
        else:
            cur = _eliminate_var(cur, best)
    return None


def _feasible(rows: Iterable[IntRow], nvars: int) -> bool:
    return _fm_core(rows, range(nvars)) is not None


def _solve_feasible(rows: Iterable[IntRow], nvars: int) -> Optional[tuple[Fraction, ...]]:
    """An exact rational point satisfying the rows, or None when infeasible.

    Runs the elimination while recording each stage, then back-substitutes
    a value inside the allowed interval for every eliminated variable.
    """
    stages: list[tuple[int, list[IntRow]]] = []
    if _fm_core(rows, range(nvars), stages) is None:
        return None
    assign = [Fraction(0)] * nvars
    for k, system in reversed(stages):
        lo = hi = None
        lo_strict = hi_strict = False
        for normal, cn, cd, strict in system:
            a = normal[k]
            if a == 0:
                continue
            rest = sum(
                normal[j] * assign[j] for j in range(nvars) if j != k and normal[j]
            ) + Fraction(cn, cd)
            bound = -rest / a
            if a > 0:
                if hi is None or bound < hi:
                    hi, hi_strict = bound, strict
                elif bound == hi:
                    hi_strict = hi_strict or strict
            else:
                if lo is None or bound > lo:
                    lo, lo_strict = bound, strict
                elif bound == lo:
                    lo_strict = lo_strict or strict
        if lo is None and hi is None:
            value = Fraction(0)
        elif lo is None:
            value = hi - 1
        elif hi is None:
            value = lo + 1
        elif lo < hi:
            value = (lo + hi) / 2
        elif lo == hi and not (lo_strict or hi_strict):
            value = lo
        else:
            return None
        assign[k] = value
    point = tuple(assign)
    # the first stage holds the whole normalized system; with no stage it is empty
    for normal, cn, cd, strict in stages[0][1] if stages else ():
        v = sum(a * x for a, x in zip(normal, point)) * cd + cn
        if v > 0 or (strict and v == 0):
            return None
    return point


def feasible_point(P: Polyhedron) -> Optional[tuple[Fraction, ...]]:
    """A rational point of P, or None when P is empty."""
    return _solve_feasible(P.rows, P.dim)


# The orthant tables keep each dominance cell they decide, so this memo
# serves what they do not keep: a cell decided again after its table was
# evicted, the pieces of union_prune (through union_intersect, _subtract and
# piece_minus_union_is_empty), and poly_is_empty's callers.  Over one round
# of the regions benchmark (seed 5) it answered 680 of 7,176 lookups from
# memory; before the tables kept their cells, 18,069 of 24,579.  A memo this
# small evicts a system within about ten later regions, so it shares work
# inside one operation, not across a long run.
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


def _rank(normals: list[tuple[int, ...]], dim: int) -> int:
    mat = [[Fraction(a) for a in n] for n in normals]
    rank = 0
    col = 0
    while col < dim and rank < len(mat):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / pv
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def equality_normals(P: Polyhedron) -> list[tuple[int, ...]]:
    """Normals of the non-strict constraints that hold with equality on all of P."""
    rows = list(P.rows)
    return [
        normal
        for normal, cn, cd, strict in P.rows
        if not strict and not _feasible(rows + [(normal, cn, cd, True)], P.dim)
    ]


def poly_dim(P: Polyhedron) -> int:
    """Dimension of the affine hull; -1 for the empty polyhedron."""
    if poly_is_empty(P):
        return -1
    return P.dim - _rank(equality_normals(P), P.dim)


def poly_recession_contains(P: Polyhedron, d: Sequence[Fraction]) -> bool:
    """Whether d is a recession direction of the closure of nonempty P."""
    d = tuple(Fraction(v) for v in d)
    return all(sum(a * di for a, di in zip(r[0], d)) <= 0 for r in P.rows)


def poly_has_recession_direction(P: Polyhedron, open_conditions: Sequence[IntRow]) -> bool:
    """Whether the recession cone of P meets all the given homogeneous rows."""
    rows: list[IntRow] = [(normal, 0, 1, False) for normal, _, _, _ in P.rows]
    rows += Polyhedron(P.dim, tuple(open_conditions)).rows
    return _feasible(rows, P.dim)


# ---------------------------------------------------------------------------
# Unions of polyhedra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyUnion:
    """A finite union of polyhedra of a common ambient dimension."""

    dim: int
    pieces: tuple[Polyhedron, ...]

    def __post_init__(self):
        for p in self.pieces:
            if p.dim != self.dim:
                raise DimensionMismatch("piece dimension mismatch")

    def contains(self, x: Sequence[Fraction]) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch("point dimension does not match union")
        xi, den = _scale_point(x)
        return any(p._contains_scaled(xi, den) for p in self.pieces)

    def is_empty(self) -> bool:
        return all(poly_is_empty(p) for p in self.pieces)


def union_of(dim: int, pieces: Iterable[Polyhedron]) -> PolyUnion:
    return union_prune(PolyUnion(dim, tuple(pieces)))


def whole_space_union(dim: int) -> PolyUnion:
    return PolyUnion(dim, (whole_space(dim),))


def empty_union(dim: int) -> PolyUnion:
    return PolyUnion(dim, ())


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
                w = _solve_feasible(rows2, dim)
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
    return tuple(k for k, s in enumerate(sigma) if s != 0)


def all_orthants(n: int) -> list[Orthant]:
    out: list[Orthant] = [()]
    for _ in range(n):
        out = [o + (s,) for o in out for s in (-1, 0, 1)]
    return out


def embed_point(sigma: Orthant, V: Sequence[Fraction]) -> TropPoint:
    """The tropical point with signs sigma and the given support valuations.

    The point shares the ``Fraction`` objects of V; any other valuation
    goes through ``Fraction``.  Zero coordinates are ``RT_ZERO``.
    """
    if len(V) != sum(1 for s in sigma if s != 0):
        raise DimensionMismatch("valuation vector does not match orthant support")
    coords: list[SignedTropVal] = []
    it = iter(V)
    for s in sigma:
        if s == 0:
            coords.append(RT_ZERO)
        else:
            v = next(it)
            coords.append(SignedTropVal(s, v if type(v) is Fraction else Fraction(v)))
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


def trop_region(F: TropPoly, sigma: Orthant, rel: str) -> PolyUnion:
    """The exact set of support valuations V with F(embed(sigma, V)) rel 0.

    The region is assembled from dominance cells: term i dominates where its
    affine value L_i(V) = exps_i . V + val_i is minimal.  A relation holds
    where ``hyperfields.SATISFIED_BY`` accepts the sum: the sign of the
    dominating terms, or balanced where dominating terms of both signs
    tie.

    The region is a selection from the table of F's integer valuation
    kernel on the orthant's support (``troppoly._orthant_table``): the
    signs only pick which cells count and which rows are strict, so every
    orthant and relation of one support shares the table's rows and the
    cells it has decided: each cell is built, and found empty or not,
    once.  Term cells go into the union as they are: two distinct terms
    never give the same rows, since the normals of term i's cell sum to
    n * e_i - (e_1 + ... + e_n) and the surviving terms' support exponents
    are distinct.  An equation's ties keep the duplicate test, because
    different pairs of terms can give the same rows.  Terms whose
    coefficient is zero never count, as in ``trop_eval``.
    """
    ok = SATISFIED_BY[normalize_rel(rel)]
    if len(sigma) != F.nvars:
        raise DimensionMismatch("orthant length does not match polynomial")
    kernel = F._val_kernel
    kernel.check_defined(sigma)
    sigma = tuple(sigma)
    support = orthant_support(sigma)
    m = len(support)
    table = _orthant_table(kernel, support)
    pos, neg, pos_bits, neg_bits = table.split(sigma)

    if not pos and not neg:
        # the polynomial evaluates to zero on this orthant
        return whole_space_union(m) if 0 in ok else empty_union(m)

    # a dominance row against a term of the opposite sign is strict exactly
    # when a balanced sum fails the relation
    mixed_strict = None not in ok
    pieces: list[Polyhedron] = []
    if 1 in ok:
        _term_cells(table, m, pos, neg_bits if mixed_strict else 0, pieces)
    if -1 in ok:
        _term_cells(table, m, neg, pos_bits if mixed_strict else 0, pieces)
    if None in ok and 1 not in ok and -1 not in ok:
        # only a balanced sum satisfies the relation: the ties of a positive
        # and a negative dominant term
        seen = set()
        ties = table.ties
        for i in pos if neg else ():
            for j in neg:
                tie = ties.get((i, j), _UNDECIDED)
                if tie is _UNDECIDED:
                    rows = table.dominance(i, 0)
                    rows.append(table.rows(j)[i])
                    key = tuple(sorted(rows))
                    tie = ties[(i, j)] = None if _rows_empty(key, m) else (key, _from_rows(m, rows))
                if tie is not None and tie[0] not in seen:
                    seen.add(tie[0])
                    pieces.append(tie[1])
    return PolyUnion(m, tuple(pieces))


_UNDECIDED = object()


def _term_cells(table, m: int, terms: Sequence[int], strict: int, out: list) -> None:
    """Append to ``out`` the nonempty cells of the given terms, with the rows
    to the terms in the bit set ``strict`` strict, deciding the new ones."""
    cells = table.cells
    for i in terms:
        P = cells.get((i, strict), _UNDECIDED)
        if P is _UNDECIDED:
            rows = table.dominance(i, strict)
            P = cells[(i, strict)] = (
                None if _rows_empty(tuple(sorted(rows)), m) else _from_rows(m, rows)
            )
        if P is not None:
            out.append(P)


def trop_conjunction(
    conditions: Iterable[tuple[TropPoly, str]], sigma: Orthant
) -> PolyUnion:
    """The intersection of the regions of the conditions on one orthant.

    Regions are computed one at a time, and none after the intersection
    becomes empty.  A condition with a negative exponent on a coordinate
    the orthant sets to zero is undefined there and holds nowhere, so the
    intersection is then empty.
    """
    m = len(orthant_support(sigma))
    acc = whole_space_union(m)
    for F, rel in conditions:
        try:
            region = trop_region(F, sigma, rel)
        except NegativeExponentAtZero:
            return empty_union(m)
        acc = union_intersect(acc, region)
        if not acc.pieces:
            break
    return acc


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
