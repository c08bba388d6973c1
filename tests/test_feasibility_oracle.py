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
from unittest import mock

from hypothesis import given, settings, strategies as st

from tropreal import polyhedra
from tropreal.polyhedra import (
    Polyhedron,
    _eliminate_var,
    _fm_core,
    _normalize_rows,
    _rows_empty,
    _solve_feasible,
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
            want_point = _solve_feasible(rows, dim)
        assert _solve_feasible(rows, dim) == want_point, rows
        done = set()
        for k, system in want_stages:
            live = [j for j in targets if j not in done and any(r[0][j] for r in system)]
            costs = [_reference_cost(system, j) for j in live]
            one_sided += _reference_cost(system, k) < 0
            ties += costs.count(_reference_cost(system, k)) > 1
            done.add(k)
    # both the one-sided drop and the tie rule are exercised
    assert one_sided > 300 and ties > 200
