"""An independent feasibility oracle for the Fourier-Motzkin engine.

The oracle is an exact rational simplex method on the homogenized system:
each row a.x + c <= 0 (or < 0) becomes a.x + c*tau <= 0 (or a.x + c*tau + t
<= 0) with t <= tau and t <= 1.  The original rows are feasible exactly when
the largest t is positive.  Every row of the homogenized system has a zero
right-hand side except t <= 1, so the origin is feasible and the all-slack
basis starts the simplex without an auxiliary phase.
"""

import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

from hypothesis import given, settings, strategies as st

from tropreal import polyhedra
from tropreal.checks import random_troppoly
from tropreal.polyhedra import (
    Polyhedron,
    _eliminate_var,
    _feasible,
    _fm_core,
    _interval,
    _normalize_rows,
    _OrthantTable,
    _from_rows,
    _rows_empty,
    constraint,
    feasible_point,
    poly_dim,
    poly_is_empty,
)


def max_t(rows, dim):
    """The largest t of the homogenized system, by Bland's-rule simplex."""
    # columns: x+ (dim), x- (dim), tau, t, then one slack per row
    A = [
        [Fraction(a) for a in normal] + [Fraction(-a) for a in normal]
        + [Fraction(offset), Fraction(int(strict))]
        for normal, offset, strict in rows
    ]
    A.append([Fraction(0)] * (2 * dim) + [Fraction(-1), Fraction(1)])  # t <= tau
    A.append([Fraction(0)] * (2 * dim) + [Fraction(0), Fraction(1)])  # t <= 1
    m, nv = len(A), 2 * dim + 2
    table = [
        A[i] + [Fraction(int(i == j)) for j in range(m)] + [Fraction(int(i == m - 1))]
        for i in range(m)
    ]
    z = [Fraction(0)] * (nv + m + 1)
    z[nv - 1] = Fraction(-1)  # maximize t; z[-1] is the current value
    basis = [nv + i for i in range(m)]
    while True:
        enter = next((j for j in range(nv + m) if z[j] < 0), None)
        if enter is None:
            return z[-1]
        # t <= 1 keeps the objective bounded, so some row limits the step
        _, _, r = min(
            (row[-1] / row[enter], basis[i], i)
            for i, row in enumerate(table)
            if row[enter] > 0
        )
        pivot = table[r][enter]
        table[r] = [v / pivot for v in table[r]]
        for i, row in enumerate(table):
            if i != r and row[enter]:
                f = row[enter]
                table[i] = [v - f * w for v, w in zip(row, table[r])]
        f = z[enter]
        z = [v - f * w for v, w in zip(z, table[r])]
        basis[r] = enter


def oracle_feasible(rows, dim) -> bool:
    return max_t(rows, dim) > 0


def rank(normals) -> int:
    mat = [[Fraction(a) for a in n] for n in normals]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col] / mat[r][col]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def oracle_rows(P: Polyhedron) -> list:
    """P's rows as (normal, offset, strict) with a ``Fraction`` offset."""
    return [(normal, Fraction(cn, cd), strict) for normal, cn, cd, strict in P.rows]


def holds(row, x) -> bool:
    normal, offset, strict = row
    v = sum(a * xi for a, xi in zip(normal, x)) + offset
    return v < 0 if strict else v <= 0


def oracle_dim(P: Polyhedron) -> int:
    """n minus the rank of the implicit equalities; -1 when P is empty."""
    rows = oracle_rows(P)
    if not oracle_feasible(rows, P.dim):
        return -1
    equalities = [
        normal
        for normal, offset, strict in rows
        if not strict and not oracle_feasible(rows + [(normal, offset, True)], P.dim)
    ]
    return P.dim - rank(equalities)


@st.composite
def systems(draw):
    """Small systems with strict rows and equality pairs f <= 0, -f <= 0."""
    dim = draw(st.integers(1, 3))
    normals = st.tuples(*[st.integers(-3, 3)] * dim)
    offsets = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    cons = []
    for _ in range(draw(st.integers(0, 6))):
        n, off = draw(normals), draw(offsets)
        kind = draw(st.sampled_from(["<=", "<", "=="]))
        if kind == "==":
            cons += [constraint(n, off, "<="), constraint(n, off, ">=")]
        else:
            cons.append(constraint(n, off, kind))
    return Polyhedron(dim, tuple(cons))


def test_oracle_examples():
    def P(dim, *cons):
        return Polyhedron(dim, tuple(constraint(n, o, r) for n, o, r in cons))

    open_interval = P(1, ((1,), -1, "<"), ((-1,), 0, "<"))
    assert oracle_dim(open_interval) == 1
    assert oracle_dim(P(1, ((1,), 0, "<"), ((-1,), 0, "<"))) == -1
    assert oracle_dim(P(1, ((1,), 0, "<="), ((-1,), 0, "<="))) == 0
    assert oracle_dim(P(2, ((1, 1), 0, "<="), ((-1, -1), 0, "<="))) == 1
    assert oracle_dim(P(2, ((0, 0), 1, "<="))) == -1
    assert oracle_dim(P(3)) == 3


@settings(max_examples=300, deadline=None)
@given(systems())
def test_engine_agrees_with_simplex_oracle(P):
    rows = oracle_rows(P)
    feasible = oracle_feasible(rows, P.dim)
    assert poly_is_empty(P) == (not feasible)
    w = feasible_point(P)
    assert (w is not None) == feasible
    if w is not None:
        assert all(holds(r, w) for r in rows)
    assert poly_dim(P) == oracle_dim(P)


# -- the emptiness memo behind poly_is_empty ---------------------------------


def test_memo_is_bounded():
    assert 0 < _rows_empty.cache_info().maxsize <= 256


def test_memo_keeps_strictness_apart():
    # {x <= 0, -x <= 0} is the origin; {x < 0, -x <= 0} is empty
    closed = Polyhedron(1, (constraint((1,), 0, "<="), constraint((-1,), 0, "<=")))
    half_open = Polyhedron(1, (constraint((1,), 0, "<"), constraint((-1,), 0, "<=")))
    for order in [(closed, half_open), (half_open, closed)]:
        _rows_empty.cache_clear()
        for P in order + order:
            assert poly_is_empty(P) == (P is half_open)


def test_memo_keeps_dimension_apart():
    _rows_empty.cache_clear()
    for dim in range(4):
        assert not poly_is_empty(Polyhedron(dim, ()))
    assert _rows_empty.cache_info().currsize == 4


@settings(max_examples=200, deadline=None)
@given(systems())
def test_repeated_calls_on_equal_rows_agree_with_oracle(P):
    expected = not oracle_feasible(oracle_rows(P), P.dim)
    twin = Polyhedron(P.dim, tuple(r for r in P.rows))
    assert twin is not P and twin.rows == P.rows
    hits = _rows_empty.cache_info().hits
    assert [poly_is_empty(P), poly_is_empty(twin), poly_is_empty(P)] == [expected] * 3
    assert _rows_empty.cache_info().hits >= hits + 2


# -- the elimination order of _fm_core ----------------------------------------


def _reference_cost(rows, k):
    ups = sum(1 for r in rows if r[0][k] > 0)
    downs = sum(1 for r in rows if r[0][k] < 0)
    return ups * downs if ups and downs else -1


def reference_fm_core(rows, targets, stages=None):
    """The elimination loop as first written: one scan of the rows per
    candidate target, and ``_eliminate_var`` also for a one-sided target."""
    cur = _normalize_rows(rows)
    remaining = sorted(targets)
    while cur is not None:
        remaining = [k for k in remaining if any(r[0][k] for r in cur)]
        if not remaining:
            return cur
        k = min(remaining, key=lambda j: _reference_cost(cur, j))
        remaining.remove(k)
        if stages is not None:
            stages.append((k, cur))
        cur = _eliminate_var(cur, k)
    return None


def _random_rows(rng, dim):
    """Integer rows: strict and non-strict, equality pairs, zero normals."""
    rows = []
    for _ in range(rng.randint(0, 7)):
        normal = tuple(rng.randint(-2, 2) for _ in range(dim))
        if rng.random() < 0.1:
            normal = (0,) * dim
        cn, cd = rng.randint(-4, 4), rng.randint(1, 3)
        kind = rng.choice(["<=", "<", "=="])
        rows.append((normal, cn, cd, kind == "<"))
        if kind == "==":
            rows.append((tuple(-a for a in normal), -cn, cd, False))
    return rows


def test_elimination_order_matches_the_reference_loop():
    rng = random.Random(2024)
    one_sided = ties = 0
    for _ in range(2000):
        dim = rng.randint(1, 4)
        rows = _random_rows(rng, dim)
        targets = rng.sample(range(dim), rng.randint(0, dim))
        got_stages, want_stages = [], []
        got = _fm_core(rows, targets, got_stages)
        assert got == reference_fm_core(rows, targets, want_stages), (rows, targets)
        assert got_stages == want_stages, (rows, targets)
        with mock.patch.object(polyhedra, "_fm_core", reference_fm_core):
            want_point = feasible_point(_from_rows(dim, rows))
        assert feasible_point(_from_rows(dim, rows)) == want_point, rows
        done = set()
        for k, system in want_stages:
            live = [j for j in targets if j not in done and any(r[0][j] for r in system)]
            costs = [_reference_cost(system, j) for j in live]
            one_sided += _reference_cost(system, k) < 0
            ties += costs.count(_reference_cost(system, k)) > 1
            done.add(k)
    # both the one-sided drop and the tie rule are exercised
    assert one_sided > 300 and ties > 200


# -- ties decided on their hyperplane, last variables decided by bounds --------


def test_each_tie_agrees_with_the_oracle_on_its_own_rows():
    # a table decides the tie of terms i and j on the hyperplane L_i = L_j,
    # in one variable fewer; the oracle reads C_i plus L_j - L_i <= 0 as
    # they are.  Every ordered pair is decided by its own substitution.
    rng = random.Random(1973)
    counts = {True: 0, False: 0}
    for k in range(150):
        nvars = 1 + k % 3
        F = random_troppoly(rng, nvars, exp_lo=-1 if k % 4 == 0 else 0)
        for m in range(nvars + 1):
            for support in combinations(range(nvars), m):
                table = _OrthantTable(F._val_kernel, support)
                if not table.defined:
                    continue
                n = len(table._vals)
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            continue
                        rows = [r for r in table.rows(i) if r is not None]
                        rows.append(table.rows(j)[i])
                        want = oracle_feasible(
                            [(normal, Fraction(cn, cd), s) for normal, cn, cd, s in rows], m)
                        assert (table._tie(i, j) is not None) == want, (F, support, i, j)
                        counts[want] += 1
    assert counts[True] > 500 and counts[False] > 150, counts


def test_one_variable_systems_agree_with_the_oracle():
    # rows of one variable, not in lowest terms, drawn from a few bounds so
    # that the tightest upper and lower bounds often meet
    rng = random.Random(1810)
    seen = dict.fromkeys(["equal", "equal strict", "one-sided", "constant", "crossed"], 0)
    for _ in range(3000):
        rows = []
        uppers, lowers = [], []
        for _ in range(rng.randint(0, 4)):
            strict = rng.random() < 0.4
            kind = rng.choice(["upper", "lower", "constant"])
            if kind == "constant":
                a, offset = 0, Fraction(rng.randint(-1, 1), 2)
                seen["constant"] += 1
            else:
                b = Fraction(rng.randint(-1, 1), rng.randint(1, 2))
                a = rng.randint(1, 3) * (1 if kind == "upper" else -1)
                offset = -a * b  # a x - a b <= 0: x <= b when a > 0, x >= b when a < 0
                (uppers if a > 0 else lowers).append((b, strict))
            scale = rng.randint(1, 3)
            rows.append(((a,), offset.numerator * scale, offset.denominator * scale, strict))
        hi = min((b for b, _ in uppers), default=None)
        lo = max((b for b, _ in lowers), default=None)
        if uppers and lowers:
            if hi == lo:
                seen["equal"] += 1
                strict_at = [s for b, s in uppers + lowers if b == hi]
                seen["equal strict"] += any(strict_at)
            seen["crossed"] += hi < lo
        elif uppers or lowers:
            seen["one-sided"] += 1
        want = oracle_feasible([(n, Fraction(cn, cd), s) for n, cn, cd, s in rows], 1)
        assert _feasible(rows, 1) == want, rows
        got = _interval(rows, 0)
        assert (got is None) == (not want), rows
        if got is not None:
            hn, hd, hs, ln, ld, ls = got
            assert (None if hn is None else Fraction(hn, hd)) == hi, rows
            assert (None if ln is None else Fraction(ln, ld)) == lo, rows
            assert hs == any(s for b, s in uppers if b == hi), rows
            assert ls == any(s for b, s in lowers if b == lo), rows
    assert min(seen.values()) > 100, seen
