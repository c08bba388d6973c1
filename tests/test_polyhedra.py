"""Fourier-Motzkin engine, cells, complements, and tropical regions."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tropreal import iojson
from tropreal.checks import random_closed_union
from tropreal.errors import (
    DimensionMismatch,
    EmptyPolyhedron,
    NegativeExponentAtZero,
    NotClosedInput,
    ShapeMismatch,
)
from tropreal.hyperfields import _REL_ALIASES, RELATIONS, normalize_rel, stv
from tropreal.polyhedra import (
    PolyUnion,
    Polyhedron,
    _feasible,
    _from_rows,
    _orthant_table,
    _rows_empty,
    all_orthants,
    complement_of_union,
    constraint,
    embed_point,
    empty_union,
    enumerate_cells,
    limit_polyhedron,
    open_poly_to_trop,
    orthant_support,
    parse_orthant,
    piece_minus_union_is_empty,
    point_polyhedron,
    poly_dim,
    poly_has_recession_direction,
    poly_is_empty,
    poly_recession_contains,
    prune_covered_pieces,
    trop_conjunction,
    trop_region,
    union_equal,
    union_of,
    union_subset,
    valuation_piece_to_log,
    whole_space,
    whole_space_union,
)
from tropreal.semialg import SADescription, SignCondition, sa_outer
from tropreal.troppoly import TropPoly, trop_sat

F2 = Fraction


def H(dim, *cons):
    return Polyhedron(dim, tuple(constraint(n, o, r) for n, o, r in cons))


def negated(row):
    """The row's complement: normal and offset negated, strictness flipped."""
    normal, cn, cd, strict = row
    return (tuple(-a for a in normal), -cn, cd, not strict)


def reversed_side(row):
    """The other side of the row's hyperplane, with the same strictness."""
    normal, cn, cd, strict = row
    return (tuple(-a for a in normal), -cn, cd, strict)


def form(normal, offset):
    """The arrangement form normal . x + offset as (normal, cn, cd)."""
    offset = F2(offset)
    return (tuple(normal), offset.numerator, offset.denominator)


def form_value(f, x):
    normal, cn, cd = f
    return sum(a * xi for a, xi in zip(normal, x)) + F2(cn, cd)


def single(P):
    """The one-piece union of P."""
    return PolyUnion(P.dim, (P,))


def test_contains_examples():
    P = H(2, ((1, 0), 0, "<="), ((0, 1), 0, "<="))
    assert P.contains((-1, -1))
    Q = H(1, ((1,), 0, "<"))
    assert not Q.contains((0,))
    R = H(1, ((1,), 0, "<="))
    assert R.contains((0,))


def test_emptiness_examples():
    assert poly_is_empty(H(1, ((1,), 0, "<"), ((1,), -1, ">")))
    assert not poly_is_empty(H(1, ((1,), 0, "<="), ((1,), 0, ">=")))
    assert poly_is_empty(H(1, ((1,), 0, "<"), ((-1,), 0, "<")))
    assert not poly_is_empty(whole_space(3))


def test_strictness_is_tracked_through_elimination():
    # x < y and y < x + 1 and x, y integers-free: feasible; but x < y, y < x empty
    assert not poly_is_empty(H(2, ((1, -1), 0, "<"), ((-1, 1), -1, "<")))
    assert poly_is_empty(H(2, ((1, -1), 0, "<"), ((-1, 1), 0, "<")))
    # closure of the same pair is the diagonal, nonempty
    assert not poly_is_empty(H(2, ((1, -1), 0, "<="), ((-1, 1), 0, "<=")))


def test_enumerate_cells_examples():
    one_form = [form((1,), 0)]
    assert sorted(enumerate_cells(one_form, 1)) == [(-1,), (0,), (1,)]

    forms = [form((1,), 0), form((1,), -1)]
    cells = sorted(enumerate_cells(forms, 1))
    assert cells == [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1)]

    assert enumerate_cells([], 2) == [()]


def test_cells_partition_space():
    rng = random.Random(3)
    for _ in range(10):
        dim = rng.randint(1, 3)
        forms = [
            form(
                tuple(rng.randint(-2, 2) for _ in range(dim)),
                F2(rng.randint(-2, 2), rng.randint(1, 2)),
            )
            for _ in range(rng.randint(1, 4))
        ]
        forms = [f for f in forms if any(f[0])]
        cells = enumerate_cells(forms, dim)
        for _ in range(50):
            x = tuple(F2(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(dim))
            signs = tuple(
                1 if form_value(f, x) > 0 else -1 if form_value(f, x) < 0 else 0 for f in forms
            )
            assert signs in cells
            # the point lies in exactly the cell with its sign vector
            assert sum(1 for c in cells if c == signs) == 1


def test_complement_halfline():
    T = union_of(1, [H(1, ((1,), 0, "<="))])
    out = complement_of_union(T)
    assert len(out) == 1
    assert union_equal(single(out[0]), single(H(1, ((1,), 0, ">"))))


def test_complement_of_origin():
    T = union_of(2, [point_polyhedron((0, 0))])
    out = complement_of_union(T)
    rng = random.Random(9)
    for _ in range(1000):
        x = (F2(rng.randint(-6, 6), rng.randint(1, 3)),
             F2(rng.randint(-6, 6), rng.randint(1, 3)))
        in_T = T.contains(x)
        in_out = any(p.contains(x) for p in out)
        assert in_T != in_out
    for p in out:
        assert p.is_open()


def test_complement_trivial_cases():
    assert complement_of_union(empty_union(2)) == [whole_space(2)]
    assert complement_of_union(whole_space_union(2)) == []
    with pytest.raises(NotClosedInput):
        complement_of_union(union_of(1, [H(1, ((1,), 0, "<"))]))


def test_complement_random_instances():
    rng = random.Random(21)
    for _ in range(12):
        dim = rng.randint(1, 3)
        pieces = []
        for _ in range(rng.randint(1, 3)):
            cons = [
                (
                    tuple(rng.randint(-2, 2) for _ in range(dim)),
                    F2(rng.randint(-2, 2), rng.randint(1, 2)),
                    "<=",
                )
                for _ in range(rng.randint(1, 4))
            ]
            cons = [c for c in cons if any(c[0])]
            if cons:
                pieces.append(H(dim, *cons))
        if not pieces:
            continue
        T = PolyUnion(dim, tuple(pieces))
        out = complement_of_union(T)
        for _ in range(200):
            x = tuple(F2(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))
            assert T.contains(x) != any(p.contains(x) for p in out)


@pytest.mark.parametrize("seed, max_pieces", [(4, 6), (3, 10)])
def test_complement_oracle_on_larger_unions(seed, max_pieces):
    # larger unions than test_complement_random_instances
    rng = random.Random(seed)
    for _ in range(30):
        T = random_closed_union(rng, max_pieces=max_pieces)
        out = complement_of_union(T)
        assert all(p.is_open() for p in out)
        keys = {tuple(sorted(p.rows)) for p in out}
        assert len(keys) == len(out)
        # no more pieces than the plain De Morgan product: one per choice of
        # a row from every piece of T
        product = 1
        for p in T.pieces:
            product *= len(p.rows)
        assert len(out) <= product
        U = PolyUnion(T.dim, tuple(out))
        for _ in range(300):
            x = tuple(F2(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(T.dim))
            assert T.contains(x) != U.contains(x), (T, x)


def test_prune_covered_pieces():
    quadrant = H(2, ((-1, 0), 0, "<"), ((0, -1), 0, "<"))
    right = H(2, ((-1, 0), 0, "<"))
    up = H(2, ((0, -1), 0, "<"))
    kept = prune_covered_pieces([quadrant, right, up])
    assert len(kept) == 2 and quadrant not in kept


def _prune_restarting(pieces):
    # the former prune: after every removal, test again from the first piece
    kept = list(pieces)
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(kept):
            others = kept[:i] + kept[i + 1:]
            if others and piece_minus_union_is_empty(p, others):
                kept.pop(i)
                changed = True
                break
    return kept


def test_one_pass_prune_keeps_what_the_restarting_prune_keeps():
    rng = random.Random(11)
    removed = 0
    for _ in range(40):
        T = random_closed_union(rng, max_pieces=2, max_facets=3)
        out = complement_of_union(T)
        kept = prune_covered_pieces(out)
        assert kept == _prune_restarting(out)
        removed += len(out) - len(kept)
    assert removed > 0


def _disjoint_split_is_empty(p, pieces):
    # the former engine: w minus q splits into the disjoint pieces
    # w ∩ q_1 ∩ ... ∩ q_(j-1) ∩ ¬q_j, with no keep-whole rule
    work = [p.rows] if not poly_is_empty(p) else []
    for q in pieces:
        nxt = []
        for prefix in work:
            for c in q.rows:
                cand = prefix + (negated(c),)
                if not poly_is_empty(Polyhedron(p.dim, cand)):
                    nxt.append(cand)
                prefix += (c,)
        work = nxt
        if not work:
            return True
    return not work


def _random_constraint(rng, dim):
    normal = (0,) * dim
    while not any(normal):
        normal = tuple(rng.randint(-2, 2) for _ in range(dim))
    rel = rng.choice(["<=", "<", ">=", ">"])
    return constraint(normal, F2(rng.randint(-2, 2), rng.randint(1, 2)), rel)


def _random_cover_case(rng):
    """A piece p and pieces that may be empty, repeat, miss p or cut it."""
    dim = rng.randint(1, 3)

    def rows(k):
        return tuple(_random_constraint(rng, dim) for _ in range(k))

    p = Polyhedron(dim, rows(rng.randint(0, 3)))
    pieces = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["random", "empty", "duplicate", "miss", "split", "whole"])
        if kind == "random":
            pieces.append(Polyhedron(dim, rows(rng.randint(0, 3))))
        elif kind == "empty":
            c = _random_constraint(rng, dim)
            pieces.append(Polyhedron(dim, (c, negated(c)) + rows(rng.randint(0, 1))))
        elif kind == "duplicate" and pieces:
            pieces.append(rng.choice(pieces))
        elif kind == "miss" and p.rows:
            c = negated(rng.choice(p.rows))
            pieces.append(Polyhedron(dim, (c,) + rows(rng.randint(0, 2))))
        elif kind == "split":
            # the two sides of a hyperplane, with or without the hyperplane
            c = _random_constraint(rng, dim)
            other = negated(c) if rng.random() < 0.5 else reversed_side(c)
            pieces += [Polyhedron(dim, (c,)), Polyhedron(dim, (other,))]
        elif kind == "whole":
            pieces.append(p.closure())
    rng.shuffle(pieces)
    return p, pieces


_GRID = [F2(k, 2) for k in range(-5, 6)]


def _grid(dim):
    points = [()]
    for _ in range(dim):
        points = [x + (v,) for x in points for v in _GRID]
    return points


def test_subtraction_agrees_with_the_disjoint_split():
    rng = random.Random(2024)
    answers = []
    for _ in range(300):
        p, pieces = _random_cover_case(rng)
        empty = piece_minus_union_is_empty(p, pieces)
        assert empty == _disjoint_split_is_empty(p, pieces), (p, pieces)
        if empty:
            for x in _grid(p.dim):
                assert not p.contains(x) or any(q.contains(x) for q in pieces), (p, pieces, x)
        answers.append(empty)
    # both answers are common, so neither side is checked vacuously
    assert 60 < sum(answers) < 240


def _cell_points(rows, dim):
    """One rational point in every cell of the arrangement of the rows' hyperplanes.

    Membership in a union of the rows' pieces is constant on each cell, so
    these points decide inclusion between such unions.  In dimension 1 they
    are the breakpoints, the midpoints between them and a point beyond each
    end.  In dimension 2 they are the vertices, one point inside each edge,
    and one point on each side of each edge, closer to it than to any other
    line; every region borders an edge, or the plane has no line at all.
    """
    lines = set()
    for normal, cn, cd, _ in rows:
        # one key per hyperplane: the primitive normal whose first nonzero entry is positive
        g = gcd(*normal) * (1 if next(a for a in normal if a) > 0 else -1)
        lines.add((tuple(a // g for a in normal), Fraction(cn, cd) / g))
    if dim == 1:
        cuts = sorted({-c / a for (a,), c in lines})
        if not cuts:
            return [(F2(0),)]
        pts = cuts + [(x + y) / 2 for x, y in zip(cuts, cuts[1:])] + [cuts[0] - 1, cuts[-1] + 1]
        return [(x,) for x in pts]
    lines = list(lines)
    if not lines:
        return [(F2(0), F2(0))]
    points = []
    for (a, b), c in lines:
        base = (F2(0), -c / b) if b else (-c / a, F2(0))
        d = (-b, a)
        ts = sorted({
            -(m0 * base[0] + m1 * base[1] + mc) / (m0 * d[0] + m1 * d[1])
            for (m0, m1), mc in lines
            if m0 * d[0] + m1 * d[1]
        })
        edge_ts = [F2(0)] if not ts else (
            [(s + t) / 2 for s, t in zip(ts, ts[1:])] + [ts[0] - 1, ts[-1] + 1])
        points += [(base[0] + t * d[0], base[1] + t * d[1]) for t in ts]
        for t in edge_ts:
            e = (base[0] + t * d[0], base[1] + t * d[1])
            # M(e ± δ(a, b)) = M(e) ± δ(m·(a, b)) keeps the sign of M(e) for every other line M
            delta = min(
                (abs(m0 * e[0] + m1 * e[1] + mc) / (2 * (abs(m0 * a + m1 * b) + 1))
                 for (m0, m1), mc in lines if ((m0, m1), mc) != ((a, b), c)),
                default=F2(1),
            )
            points += [e, (e[0] + delta * a, e[1] + delta * b), (e[0] - delta * a, e[1] - delta * b)]
    return points


def _random_union_pair(rng):
    """Unions A and B in dimension 1 or 2; B often covers some pieces of A."""
    dim = rng.randint(1, 2)

    def piece():
        return Polyhedron(dim, tuple(_random_constraint(rng, dim) for _ in range(rng.randint(1, 3))))

    A = [piece() for _ in range(rng.randint(1, 3))]
    B = [piece() for _ in range(rng.randint(0, 2))]
    for p in A:
        kind = rng.choice(["closure", "split", "none"])
        if kind == "closure":
            B.append(p.closure())
        elif kind == "split":
            # two sides of a hyperplane, which cover p unless both drop it
            c = _random_constraint(rng, dim)
            other = negated(c) if rng.random() < 0.5 else reversed_side(c)
            B += [p.intersect(Polyhedron(dim, (c,))), p.intersect(Polyhedron(dim, (other,)))]
    rng.shuffle(B)
    return PolyUnion(dim, tuple(A)), PolyUnion(dim, tuple(B))


def test_union_subset_agrees_with_the_arrangement_cells():
    rng = random.Random(7)
    answers = []
    for _ in range(200):
        A, B = _random_union_pair(rng)
        rows = [r for p in A.pieces + B.pieces for r in p.rows]
        brute = all(
            any(q.contains(x) for q in B.pieces)
            for x in _cell_points(rows, A.dim)
            if any(p.contains(x) for p in A.pieces)
        )
        assert union_subset(A, B) == brute, (A, B)
        answers.append(brute)
    # both answers are common, so neither side is checked vacuously
    assert 40 < sum(answers) < 160


def test_open_poly_to_trop_examples():
    P = H(1, ((1,), 0, "<"))
    F = open_poly_to_trop(P)
    assert F == TropPoly.from_terms(1, [((0,), stv(1, 0)), ((1,), stv(-1, 0))])

    P2 = H(2, ((1, 0), 0, "<"), ((0, 1), 0, "<"))
    F2_ = open_poly_to_trop(P2)
    assert F2_ == TropPoly.from_terms(
        2, [((0, 0), stv(1, 0)), ((1, 0), stv(-1, 0)), ((0, 1), stv(-1, 0))]
    )

    # offset maps to the negated valuation: {X - 1 < 0} gets coefficient (-, 1)
    P3 = H(1, ((1,), -1, "<"))
    F3 = open_poly_to_trop(P3)
    assert F3 == TropPoly.from_terms(1, [((0,), stv(1, 0)), ((1,), stv(-1, 1))])

    with pytest.raises(ShapeMismatch):
        open_poly_to_trop(H(1, ((1,), 0, "<=")))
    with pytest.raises(EmptyPolyhedron):
        open_poly_to_trop(H(1, ((1,), 0, "<"), ((-1,), 0, "<")))


def _log_member_oracle(P, F, X):
    """X in P  <=>  F positive at the point with valuations -X."""
    sigma = tuple(1 for _ in range(P.dim))
    V = tuple(-x for x in X)
    return P.contains(X) == trop_sat(F, embed_point(sigma, V), "gt")


def test_open_poly_to_trop_pointwise():
    rng = random.Random(17)
    for _ in range(50):
        dim = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(1, 5)):
            n = tuple(rng.randint(-2, 2) for _ in range(dim))
            if not any(n):
                continue
            cons.append((n, F2(rng.randint(-3, 3), rng.randint(1, 2)), "<"))
        P = H(dim, *cons)
        if poly_is_empty(P):
            continue
        F = open_poly_to_trop(P)
        for _ in range(100):
            X = tuple(F2(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(dim))
            assert _log_member_oracle(P, F, X)


def test_trop_region_halfplane():
    F = TropPoly.from_terms(
        2, [((1, 0), stv(1, 0)), ((0, 1), stv(1, 0)), ((0, 0), stv(-1, 0))]
    )
    region = trop_region(F, (1, 1), "ge")
    expected = union_of(
        2, [H(2, ((1, 0), 0, "<=")), H(2, ((0, 1), 0, "<="))]
    )
    assert union_equal(region, expected)


def test_trop_region_circle_segments():
    from tropreal.parsing import parse_polyk
    from tropreal.troppoly import trop_r

    F = trop_r(parse_polyk("(x-2)^2 + (y-2)^2 - 1"))
    region = trop_region(F, (1, 1), "le")
    seg_v = H(2, ((1, 0), 0, "<="), ((-1, 0), 0, "<="), ((0, -1), 0, "<="))
    seg_h = H(2, ((0, 1), 0, "<="), ((0, -1), 0, "<="), ((-1, 0), 0, "<="))
    assert union_equal(region, union_of(2, [seg_v, seg_h]))
    for piece in region.pieces:
        assert poly_dim(piece) == 1


def test_trop_region_constant():
    F = TropPoly.from_terms(2, [((0, 0), stv(1, 0))])
    assert union_equal(trop_region(F, (1, -1), "gt"), whole_space_union(2))
    assert trop_region(F, (1, 1), "lt").pieces == ()
    # zero polynomial on the orthant
    Z = TropPoly.from_terms(2, [])
    assert union_equal(trop_region(Z, (1, 1), "eq"), whole_space_union(2))
    assert trop_region(Z, (1, 1), "ne").pieces == ()


def _random_troppoly(rng, nvars, laurent=False):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(
            rng.randint(-2 if laurent else 0, 4) for _ in range(nvars)
        )
        terms[exps] = stv(
            rng.choice([-1, 1]), F2(rng.randint(-3, 3), rng.randint(1, 6))
        )
    return TropPoly.from_terms(nvars, list(terms.items()))


def test_region_evaluation_coherence():
    # master oracle: polyhedral membership agrees with exact evaluation
    rng = random.Random(123)
    rels = ["eq", "ge", "gt", "le", "lt", "ne"]
    for _ in range(120):
        nvars = rng.randint(1, 3)
        sigma = tuple(rng.choice([-1, 0, 1]) for _ in range(nvars))
        laurent = all(s != 0 for s in sigma)
        F = _random_troppoly(rng, nvars, laurent=laurent)
        rel = rng.choice(rels)
        region = trop_region(F, sigma, rel)
        m = len(orthant_support(sigma))
        for _ in range(25):
            V = tuple(F2(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m))
            member = region.contains(V)
            sat = trop_sat(F, embed_point(sigma, V), rel)
            assert member == sat, (F, sigma, rel, V)


@st.composite
def _integer_troppolys(draw):
    # integer exponents and valuations: at integer points the terms' values
    # L_i(V) are integers, so ties between dominant terms are common
    nvars = draw(st.integers(1, 2))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(-1, 2)] * nvars),
        st.builds(stv, st.sampled_from([-1, 1]), st.integers(-2, 2)),
        min_size=1, max_size=5,
    ))
    return TropPoly.from_terms(nvars, list(terms.items()))


@settings(max_examples=150, deadline=None)
@given(_integer_troppolys())
def test_region_oracle_where_terms_tie(F):
    # the strict mixed-sign rows of gt, lt and ne decide exactly the points
    # where terms of opposite sign tie for the minimum
    for sigma in all_orthants(F.nvars):
        try:
            regions = {rel: trop_region(F, sigma, rel) for rel in RELATIONS}
        except NegativeExponentAtZero:
            continue  # F is undefined on this orthant
        box = [()]
        for _ in range(len(orthant_support(sigma))):
            box = [V + (F2(a),) for V in box for a in range(-2, 3)]
        for rel, region in regions.items():
            for V in box:
                assert region.contains(V) == trop_sat(F, embed_point(sigma, V), rel), (
                    F, sigma, rel, V)


def test_trop_region_ignores_zero_coefficients():
    # a directly built TropPoly may keep a zero coefficient; like trop_eval,
    # trop_region never counts it, but it still raises under a negative
    # exponent at a zero coordinate
    zero = stv(0, "inf")
    F = TropPoly(1, (((0,), stv(1, 0)), ((1,), zero)))
    G = TropPoly(2, (((-1, 0), zero), ((0, 0), stv(1, 0)), ((1, 1), stv(-1, 2))))
    rels = ["eq", "ge", "gt", "le", "lt", "ne"]
    for H_, orthants in ((F, all_orthants(1)), (G, [(1, 1), (-1, 0), (1, -1)])):
        for sigma in orthants:
            m = len(orthant_support(sigma))
            for rel in rels:
                region = trop_region(H_, sigma, rel)
                for a in range(-4, 5):
                    V = tuple(F2(a + k, 2) for k in range(m))
                    assert region.contains(V) == trop_sat(H_, embed_point(sigma, V), rel)
    for sigma in [(0, 1), (0, 0), (0, -1)]:
        with pytest.raises(NegativeExponentAtZero):
            trop_region(G, sigma, "ge")
        with pytest.raises(NegativeExponentAtZero):
            trop_sat(G, embed_point(sigma, (F2(1),) * (2 - sigma.count(0))), "ge")


def _reference_terms(F, sigma):
    """(m, signs, row): the signs of the terms surviving on sigma, and
    row(i, j, strict) the row L_i - L_j <= 0 (< 0 when strict), both
    derived afresh on each call from F's exponent vectors and signed
    coefficients, without the integer kernel.  A negative exponent on a
    coordinate sigma sets to zero raises, zero coefficients included; a
    term with a positive power of such a coordinate, or a zero
    coefficient, does not survive; a surviving term's sign is its
    coefficient sign times sigma_k**d_k over its exponents."""
    support = orthant_support(sigma)
    if any(d < 0 and not s for exps, _ in F.terms for d, s in zip(exps, sigma)):
        raise NegativeExponentAtZero("negative exponent at a zero coordinate")
    signs, exps, vals = [], [], []
    for e, c in F.terms:
        if c.sign == 0 or any(d and not s for d, s in zip(e, sigma)):
            continue
        sign = c.sign
        for d, s in zip(e, sigma):
            sign *= s ** (d % 2)
        signs.append(sign)
        exps.append(tuple(e[k] for k in support))
        vals.append(c.val)

    def row(i, j, strict):
        dv = vals[i] - vals[j]
        normal = tuple(a - b for a, b in zip(exps[i], exps[j]))
        return (normal, dv.numerator, dv.denominator, strict)

    return len(support), signs, row


def _reference_cells(F, sigma, rel):
    """(m, the rows of every cell the relation selects, in order), or
    (m, None) when no term survives."""
    rel = normalize_rel(rel)
    m, signs, row = _reference_terms(F, sigma)
    if not signs:
        return m, None
    mixed_strict = rel in ("gt", "lt", "ne")

    def dominance(i):
        return [row(i, j, mixed_strict and signs[i] != signs[j])
                for j in range(len(signs)) if j != i]

    pos = [i for i, s in enumerate(signs) if s > 0]
    neg = [i for i, s in enumerate(signs) if s < 0]
    cells = []
    if rel in ("ge", "gt", "ne"):
        cells += [dominance(i) for i in pos]
    if rel in ("le", "lt", "ne"):
        cells += [dominance(i) for i in neg]
    if rel == "eq":
        for i in pos if neg else ():
            base = dominance(i)
            cells += [base + [row(j, i, False)] for j in neg]
    return m, cells


def _no_term_region(m, rel):
    return whole_space_union(m) if normalize_rel(rel) in ("eq", "ge", "le") else empty_union(m)


def _reference_trop_region(F, sigma, rel):
    """``trop_region`` as first written: the surviving terms and every
    dominance row derived again on each call, and the cells pruned by
    ``union_of``."""
    m, cells = _reference_cells(F, sigma, rel)
    if cells is None:
        return _no_term_region(m, rel)
    return union_of(m, (_from_rows(m, rows) for rows in cells))


def _naive_trop_region(F, sigma, rel):
    """The cells of ``_reference_trop_region``, each decided by ``_feasible``
    on its own rows: no table, shape or memo."""
    m, cells = _reference_cells(F, sigma, rel)
    if cells is None:
        return _no_term_region(m, rel)
    seen, pieces = set(), []
    for rows in cells:
        key = tuple(sorted(rows))
        if key not in seen and _feasible(rows, m):
            seen.add(key)
            pieces.append(_from_rows(m, rows))
    return PolyUnion(m, tuple(pieces))


def _piece_rows(F, sigma, rel, region_of):
    """The rows of each piece of the region in order, or the error raised."""
    try:
        return [P.rows for P in region_of(F, sigma, rel).pieces]
    except NegativeExponentAtZero as err:
        return type(err)


def test_trop_region_matches_the_per_call_construction():
    rng = random.Random(2718)
    raised = 0
    for _ in range(60):
        nvars = rng.randint(1, 4)
        F = _random_troppoly(rng, nvars, laurent=rng.random() < 0.5)
        for sigma in all_orthants(nvars):
            for rel in RELATIONS:
                want = _piece_rows(F, sigma, rel, _reference_trop_region)
                assert _piece_rows(F, sigma, rel, trop_region) == want, (F, sigma, rel)
                raised += want is NegativeExponentAtZero
            # a list orthant, and the table built afresh
            want = _piece_rows(F, sigma, "eq", _reference_trop_region)
            assert _piece_rows(F, list(sigma), "eq", trop_region) == want
            _orthant_table.cache_clear()
            assert _piece_rows(F, sigma, "eq", trop_region) == want
    assert raised > 100


def test_ne_region_is_the_gt_pieces_then_the_lt_pieces():
    # a disequation's region is the strict cells of both signs, row for row,
    # so a description never needs to rewrite its != conditions
    rng = random.Random(3141)
    raised = 0
    for k in range(80):
        nvars = rng.randint(1, 3)
        F = _random_troppoly(rng, nvars, laurent=rng.random() < 0.5)
        for sigma in all_orthants(nvars):
            if k % 2:
                _orthant_table.cache_clear()  # ne decides the cells first
            ne = _piece_rows(F, sigma, "ne", trop_region)
            gt = _piece_rows(F, sigma, "gt", trop_region)
            lt = _piece_rows(F, sigma, "lt", trop_region)
            if ne is NegativeExponentAtZero:
                assert gt is lt is NegativeExponentAtZero
                raised += 1
                continue
            assert ne == gt + lt, (F, sigma)
    assert raised > 20


def test_orthant_memo_is_bounded_and_eviction_keeps_answers():
    assert 0 < _orthant_table.cache_info().maxsize <= 256
    rng = random.Random(5)
    F = _random_troppoly(rng, 3, laurent=True)
    sigma = (1, -1, 1)
    first = _piece_rows(F, sigma, "eq", trop_region)
    # other polynomials' tables push F's out of the memo
    for _ in range(_orthant_table.cache_info().maxsize + 1):
        trop_region(_random_troppoly(rng, 3), sigma, "ge")
    hits = _orthant_table.cache_info().hits
    assert _piece_rows(F, sigma, "eq", trop_region) == first
    assert _orthant_table.cache_info().hits == hits
    assert first == _piece_rows(F, sigma, "eq", _reference_trop_region)


def test_relation_outer_loop_matches_the_per_call_construction():
    # the region --orthant all pattern: each relation walks every orthant,
    # so every orthant of a support reads the cells the others decided
    rng = random.Random(1414)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        F = _random_troppoly(rng, nvars, laurent=rng.random() < 0.5)
        for rel in RELATIONS:
            for sigma in all_orthants(nvars):
                want = _piece_rows(F, sigma, rel, _reference_trop_region)
                assert _piece_rows(F, sigma, rel, trop_region) == want, (F, sigma, rel)


def test_full_orthants_share_one_table_in_a_relation_outer_loop():
    F = TropPoly.from_terms(3, [
        ((0, 0, 0), stv(1, 0)), ((1, 0, 0), stv(-1, 1)), ((0, 1, 0), stv(1, F2(1, 2))),
        ((0, 0, 1), stv(-1, 2)), ((1, 1, 1), stv(1, -1)), ((2, 0, 1), stv(1, 1)),
    ])
    full = [sigma for sigma in all_orthants(3) if 0 not in sigma]
    assert len(full) == 8
    _orthant_table.cache_clear()
    trop_region(F, full[0], "ge")
    table = _orthant_table(F._val_kernel, (0, 1, 2))
    pos, neg, _, _ = table.split(full[0])
    assert pos and neg
    # ge needs the rows of the positive terms only
    assert [rows is not None for rows in table._rows] == [
        i in pos for i in range(len(pos) + len(neg))]
    for rel in RELATIONS:
        for sigma in full:
            trop_region(F, sigma, rel)
    info = _orthant_table.cache_info()
    assert (info.misses, info.hits) == (1, len(RELATIONS) * len(full) + 1)


# 1 (+) Y (+) X: on (+, -) the term Y is negative, on (-, +) the term X; the
# constant term is positive on both, and its cell is nonempty
_THREE_TERMS = TropPoly.from_terms(2, [
    ((0, 0), stv(1, 0)), ((0, 1), stv(1, 1)), ((1, 0), stv(1, F2(1, 2))),
])


def test_an_all_nonstrict_cell_is_one_piece_on_two_orthants_of_a_support():
    F = _THREE_TERMS
    _orthant_table.cache_clear()
    first, second = (trop_region(F, sigma, "ge") for sigma in [(1, -1), (-1, 1)])
    assert first.pieces[0] is second.pieces[0]
    for sigma, region in [((1, -1), first), ((-1, 1), second)]:
        assert [P.rows for P in region.pieces] == _piece_rows(
            F, sigma, "ge", _reference_trop_region)


def test_strict_rows_key_the_cell_of_a_term():
    # the constant term is positive on both orthants, but the rows made
    # strict by gt are against Y on one and against X on the other
    F = _THREE_TERMS
    _orthant_table.cache_clear()
    regions = {sigma: trop_region(F, sigma, "gt") for sigma in [(1, -1), (-1, 1)]}
    for sigma, region in regions.items():
        assert [P.rows for P in region.pieces] == _piece_rows(
            F, sigma, "gt", _reference_trop_region)
    first, second = (region.pieces[0] for region in regions.values())
    assert [r[3] for r in first.rows] != [r[3] for r in second.rows]


def _small_valuation_troppoly(rng, nvars, laurent):
    """Valuations from {0, 1/2} and small exponents: terms whose lifts lie
    on a common lower face make thin cells."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(-1 if laurent else 0, 2) for _ in range(nvars))
        terms[exps] = stv(rng.choice([-1, 1]), F2(rng.choice([0, 0, 0, 1]), 2))
    return TropPoly.from_terms(nvars, list(terms.items()))


def test_trop_region_matches_every_cell_decided_on_its_own_rows():
    # the table decides a term's shape once per support and a tie once per
    # unordered pair; the naive construction runs one elimination per cell
    rng = random.Random(1810)
    thin = 0
    for k in range(300):
        nvars = rng.randint(1, 3)
        F = _small_valuation_troppoly(rng, nvars, laurent=k % 3 == 0)
        for sigma in all_orthants(nvars):
            for rel in RELATIONS:
                want = _piece_rows(F, sigma, rel, _naive_trop_region)
                assert _piece_rows(F, sigma, rel, trop_region) == want, (F, sigma, rel)
            if want is NegativeExponentAtZero:
                continue
            m, signs, row = _reference_terms(F, sigma)
            for i in range(len(signs)):
                others = [j for j in range(len(signs)) if j != i]
                thin += _feasible([row(i, j, False) for j in others], m) and not _feasible(
                    [row(i, j, True) for j in others], m)
    assert thin > 100


def test_a_thin_cell_is_a_point_for_weak_relations_and_empty_for_strict_ones():
    # 1 + x + x^2 with every valuation 0: the cell of x is the point {0},
    # where all three terms tie; on (-) x is the only negative term
    F = TropPoly.from_terms(1, [((0,), stv(1, 0)), ((1,), stv(1, 0)), ((2,), stv(1, 0))])
    _orthant_table.cache_clear()
    table = _orthant_table(F._val_kernel, (0,))
    assert {e: table.shape(i) for i, e in enumerate(table._exps)} == {
        (0,): "full", (1,): "thin", (2,): "full"}
    origin = single(point_polyhedron((0,)))
    assert trop_region(F, (-1,), "lt").pieces == ()
    le = trop_region(F, (-1,), "le")
    assert len(le.pieces) == 1 and union_equal(le, origin)
    eq = trop_region(F, (-1,), "eq")
    assert len(eq.pieces) == 2
    assert all(union_equal(single(P), origin) for P in eq.pieces)
    # on (+) every term is positive, so gt asks for the closed cells
    gt = trop_region(F, (1,), "gt")
    assert any(union_equal(single(P), origin) for P in gt.pieces)
    assert [P.rows for P in gt.pieces] == _piece_rows(F, (1,), "gt", _naive_trop_region)


def test_each_shape_and_each_unordered_tie_is_decided_once(monkeypatch):
    # on the full support of 1 (+) Y (+) X every term's cell is full, so
    # every relation on all four orthants runs three eliminations for the
    # shapes and three for the ties: (1, Y) and (X, Y) on (+, -), (1, X)
    # on (-, +), whose (Y, X) reads (X, Y), and nothing new on (-, -)
    import tropreal.polyhedra as polyhedra

    keys = [(sigma, rel) for sigma in [(1, 1), (1, -1), (-1, 1), (-1, -1)] for rel in RELATIONS]
    want = [_piece_rows(_THREE_TERMS, *key, _naive_trop_region) for key in keys]
    calls = []
    feasible = polyhedra._feasible
    monkeypatch.setattr(polyhedra, "_feasible", lambda rows, n: calls.append(n) or feasible(rows, n))
    _orthant_table.cache_clear()
    _rows_empty.cache_clear()
    got = [_piece_rows(_THREE_TERMS, *key, trop_region) for key in keys]
    assert len(calls) == 6
    assert got == want


def test_two_pairs_of_terms_with_the_same_tie_rows_give_one_piece():
    # -1 (+) X (+) X^2 (+) -X^3 with every valuation 0: on (+) the ties
    # (X, -X^3) and (X^2, -1) have the same rows, {V = 0} written as
    # X - 1, X - X^2, X - X^3 and X^3 - X, or X^2 - 1, X^2 - X, X^2 - X^3
    # and 1 - X^2, each <= 0 and each row taken in one of the two orders
    F = TropPoly.from_terms(1, [
        ((0,), stv(-1, 0)), ((1,), stv(1, 0)), ((2,), stv(1, 0)), ((3,), stv(-1, 0)),
    ])
    m, signs, row = _reference_terms(F, (1,))
    assert signs == [-1, 1, 1, -1]

    def tie(i, j):
        return sorted([row(i, k, False) for k in range(4) if k != i] + [row(j, i, False)])

    assert tie(1, 3) == tie(2, 0)
    assert len({tuple(tie(i, j)) for i in (1, 2) for j in (0, 3)}) == 3
    for fresh in (True, False):
        if fresh:
            _orthant_table.cache_clear()
        eq = _piece_rows(F, (1,), "eq", trop_region)
        assert eq == _piece_rows(F, (1,), "eq", _naive_trop_region)
        assert eq == _piece_rows(F, (1,), "eq", _reference_trop_region)
        assert len(eq) == 3 and sorted(eq[1]) == tie(1, 3)


def test_an_orthant_entry_other_than_a_sign_is_refused():
    from tropreal.parsing import parse_polyk

    F = _THREE_TERMS
    S = SADescription(2, ((SignCondition(parse_polyk("1 + x + y", 2), "ge"),),))
    for sigma in [(2, 1), (1, F2(1, 2)), (1, 0.5), (-3, 0)]:
        for rel in ("gt", "ge", "eq"):
            with pytest.raises(ValueError, match="orthant entry"):
                trop_region(F, sigma, rel)
        with pytest.raises(ValueError, match="orthant entry"):
            trop_conjunction([(F, "ge")], sigma)
        with pytest.raises(ValueError, match="orthant entry"):
            sa_outer(S, sigma)
    # the sign vectors themselves are unaffected
    assert trop_region(F, (1, 1), "gt").pieces and trop_region(F, (1, 0), "ge").pieces


def _assert_canonical(P):
    """P's rows are canonical, and P survives every copy unchanged."""
    for normal, cn, cd, strict in P.rows:
        assert len(normal) == P.dim and all(type(a) is int for a in normal)
        offset = F2(cn, cd)
        assert (offset.numerator, offset.denominator) == (cn, cd)
        assert type(strict) is bool
    copies = [pickle.loads(pickle.dumps(P)), copy.copy(P), copy.deepcopy(P),
              dataclasses.replace(P), Polyhedron(P.dim, P.rows),
              iojson.polyhedron_from_json(iojson.polyhedron_to_json(P))]
    for c in copies:
        assert type(c) is Polyhedron
        assert c == P and hash(c) == hash(P) and c.rows == P.rows


def test_pieces_are_canonical_rows():
    # every way the library builds a polyhedron from rows it derived itself
    # gives rows the public constructor accepts as they are
    rng = random.Random(77)
    seen = 0
    for _ in range(60):
        nvars = rng.randint(1, 3)
        F = _random_troppoly(rng, nvars)
        for sigma in all_orthants(nvars):
            for rel in RELATIONS:
                region = trop_region(F, sigma, rel)
                other = region.pieces[0] if region.pieces else None
                for piece in region.pieces:
                    derived = [piece, piece.closure(), piece.intersect(other),
                               valuation_piece_to_log(piece)]
                    if piece.dim > 1:
                        derived.append(limit_polyhedron(piece, [piece.dim - 1]))
                    for P in derived:
                        if P is not None:
                            _assert_canonical(P)
                            seen += len(P.rows)
    for _ in range(20):
        for P in complement_of_union(random_closed_union(rng, max_pieces=3)):
            _assert_canonical(P)
            seen += len(P.rows)
    assert seen > 5000


def test_constructor_rejects_rows_that_are_not_canonical():
    assert Polyhedron(2, [((1, 0), -1, 2, True)]).rows == (((1, 0), -1, 2, True),)
    with pytest.raises(DimensionMismatch):
        Polyhedron(2, (((1, 0, 0), 0, 1, False),))
    with pytest.raises(DimensionMismatch):
        Polyhedron(2, (constraint((1,), 0),))
    for cn, cd in [(1, 0), (1, -2), (-1, -1), (2, 4), (0, 2), (6, 3)]:
        with pytest.raises(ValueError):
            Polyhedron(1, (((1,), cn, cd, False),))


def test_constraint_reads_every_inequality_alias():
    normal, offset = (2, -1, 0), F2(-3, 4)
    canonical = {
        "le": ((2, -1, 0), -3, 4, False),
        "lt": ((2, -1, 0), -3, 4, True),
        "ge": ((-2, 1, 0), 3, 4, False),
        "gt": ((-2, 1, 0), 3, 4, True),
    }
    aliases = [(a, r) for a, r in _REL_ALIASES.items() if r in canonical]
    # more than the eight spellings the builder read on its own
    assert {a for a, _ in aliases} > {"<=", "<", ">=", ">", "le", "lt", "ge", "gt"}
    for alias, rel in aliases:
        for spelled in (alias, f" {alias} "):
            assert constraint(normal, offset, spelled) == canonical[rel], spelled
    assert constraint(normal, offset) == canonical["le"]
    for bad in ("=", "!=", "eq", "ne", "==", "≠", "gte", ""):
        with pytest.raises(ValueError):
            constraint(normal, offset, bad)


def test_poly_dim():
    assert poly_dim(whole_space(2)) == 2
    assert poly_dim(point_polyhedron((1, 2))) == 0
    seg = H(2, ((1, 0), 0, "<="), ((-1, 0), 0, "<="), ((0, -1), 0, "<="))
    assert poly_dim(seg) == 1
    assert poly_dim(H(1, ((1,), 0, "<"), ((-1,), 0, "<"))) == -1
    assert poly_dim(H(1, ((-1,), 0, "<"))) == 1


def test_subset_and_equal():
    A = H(2, ((1, 0), 0, "<="), ((0, 1), 0, "<="))
    B = H(2, ((1, 1), 0, "<="))
    assert union_subset(single(A), single(B))
    assert not union_subset(single(B), single(A))
    assert union_equal(single(A), single(A))


def test_union_subset_and_prune():
    seg = H(1, ((1,), -1, "<="), ((-1,), 0, "<="))  # [0, 1]
    left = H(1, ((1,), -1, "<="))  # (-inf, 1]
    U = union_of(1, [seg, left, H(1, ((1,), 0, "<"), ((-1,), 0, "<"))])
    assert len(U.pieces) == 2  # empty piece dropped
    assert union_subset(union_of(1, [seg]), union_of(1, [left]))
    assert not union_subset(union_of(1, [left]), union_of(1, [seg]))
    assert union_equal(U, union_of(1, [left]))


def test_recession():
    quad = H(2, ((-1, 0), 0, "<="), ((0, -1), 0, "<="))
    assert poly_recession_contains(quad, (1, 1))
    assert not poly_recession_contains(quad, (-1, 0))
    # diagonal tail {V1 = V2 <= 0} recedes with negative components
    diag = H(2, ((1, -1), 0, "<="), ((-1, 1), 0, "<="), ((1, 0), 0, "<="))
    wants_neg_first = [constraint((1, 0), 0, "<")]
    assert poly_has_recession_direction(diag, wants_neg_first)
    assert not poly_has_recession_direction(quad, wants_neg_first)


def test_limit_polyhedron():
    seg = H(2, ((1, 0), 0, "<="), ((-1, 0), 0, "<="), ((0, -1), 0, "<="))
    L = limit_polyhedron(seg, [1])
    assert L is not None and union_equal(single(L), single(point_polyhedron((0,))))

    antidiag = H(2, ((1, 1), 0, "<="), ((-1, -1), 0, "<="))
    assert limit_polyhedron(antidiag, [1]) is None

    assert limit_polyhedron(whole_space(2), [1]) is not None
    bounded = H(2, ((0, 1), -5, "<="))
    assert limit_polyhedron(bounded, [1]) is None
    # dropping nothing returns the closure
    P = H(2, ((1, 0), 0, "<"))
    L2 = limit_polyhedron(P, [])
    assert L2 is not None and union_equal(single(L2), single(H(2, ((1, 0), 0, "<="))))


def test_trop_region_laurent_zero_orthant_errors():
    F = TropPoly.from_terms(2, [((-1, 1), stv(1, 0)), ((0, 0), stv(-1, 0))])
    with pytest.raises(NegativeExponentAtZero):
        trop_region(F, (0, 1), "ge")
    # fine on a full-support orthant
    assert trop_region(F, (1, 1), "ge").pieces
    # and in (-,+) the Laurent term flips sign, leaving nothing nonnegative
    assert trop_region(F, (-1, 1), "ge").pieces == ()


def test_feasible_point_agrees_with_emptiness():
    from tropreal.polyhedra import feasible_point

    rng = random.Random(31415)
    for _ in range(300):
        dim = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(1, 6)):
            n = tuple(rng.randint(-3, 3) for _ in range(dim))
            if not any(n):
                continue
            cons.append(
                constraint(
                    n,
                    F2(rng.randint(-4, 4), rng.randint(1, 3)),
                    rng.choice(["<=", "<"]),
                )
            )
        P = Polyhedron(dim, tuple(cons))
        w = feasible_point(P)
        if poly_is_empty(P):
            assert w is None
        else:
            assert w is not None and P.contains(w)


def test_orthant_helpers():
    assert parse_orthant("+-0") == (1, -1, 0)
    assert orthant_support((1, 0, -1)) == (0, 2)
    assert len(all_orthants(2)) == 9
    p = embed_point((1, 0, -1), (F2(1), F2(2)))
    assert p[0] == stv(1, 1) and p[1] == stv(0, "inf") and p[2] == stv(-1, 2)
