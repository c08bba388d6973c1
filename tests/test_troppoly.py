"""Tropicalization of polynomials and exact evaluation on both sides."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tropreal.errors import DimensionMismatch, NegativeExponentAtZero
from tropreal.hyperfields import (
    _REL_ALIASES,
    RELATIONS,
    Balanced,
    hv_contains,
    hv_point,
    hv_relation,
    rt_inv,
    rt_mul,
    rt_pow,
    rt_sum,
    stv,
)
from tropreal.parsing import MAX_EXPONENT, parse_polyk
from tropreal.polyhedra import trop_region
from tropreal.puiseux import PuiseuxSeries, SamplerConfig, ps_sample
from tropreal.semialg import SADescription, SignCondition, outer_contains_point
from tropreal.troppoly import (
    PolyK,
    TropPoly,
    _check_laurent_point,
    _cleared,
    eval_k,
    laurent_sign,
    series_draws,
    signed_trop_of_value,
    trop_eval,
    trop_family,
    trop_point,
    trop_r,
    trop_sat,
)

const = PuiseuxSeries.const
t_pow = PuiseuxSeries.t_power

CIRCLE = parse_polyk("(x-2)^2 + (y-2)^2 - 1")
CIRCLE_TROP = trop_r(CIRCLE)
LINE = parse_polyk("2x + 3y - 5")


def test_trop_of_circle():
    assert CIRCLE_TROP == TropPoly.from_terms(
        2,
        [
            ((2, 0), stv(1, 0)),
            ((0, 2), stv(1, 0)),
            ((1, 0), stv(-1, 0)),
            ((0, 1), stv(-1, 0)),
            ((0, 0), stv(1, 0)),
        ],
    )


def test_trop_of_line():
    assert trop_r(LINE) == TropPoly.from_terms(
        2, [((1, 0), stv(1, 0)), ((0, 1), stv(1, 0)), ((0, 0), stv(-1, 0))]
    )


def test_trop_coefficient_arithmetic_first():
    f = parse_polyk("(t+1)*x", nvars=1)
    assert trop_r(f) == TropPoly.from_terms(1, [((1,), stv(1, 0))])


def test_trop_drops_vanishing_coefficients():
    f = parse_polyk("t*x - t*x + y", nvars=2)
    assert trop_r(f) == TropPoly.from_terms(2, [((0, 1), stv(1, 0))])


def test_trop_eval_examples():
    F = trop_r(LINE)
    p = (stv(1, -1), stv(0, "inf"))
    assert trop_eval(F, p) == hv_point(1, -1)

    q = (stv(1, 0), stv(1, 0))
    assert trop_eval(CIRCLE_TROP, q) == Balanced(Fraction(0))

    G = TropPoly.from_terms(1, [((-1,), stv(1, 0))])
    with pytest.raises(NegativeExponentAtZero):
        trop_eval(G, (stv(0, "inf"),))


def test_trop_sat_examples():
    q = (stv(1, 0), stv(1, 0))
    assert trop_sat(CIRCLE_TROP, q, "le")
    assert not trop_sat(CIRCLE_TROP, q, "gt")
    F = trop_r(LINE)
    assert not trop_sat(F, (stv(1, 1), stv(1, 1)), "ge")


def test_eval_k_examples():
    x = t_pow(1)
    one = const(1)
    assert eval_k(LINE, (x, one)) == PuiseuxSeries.from_terms([(1, 2), (0, -2)])
    two = const(2)
    assert eval_k(CIRCLE, (two, two)) == const(-1)
    assert eval_k(CIRCLE, (two + t_pow(1), two)) == PuiseuxSeries.from_terms(
        [(2, 1), (0, -1)]
    )


def test_eval_k_zero_coordinate_conventions():
    f = parse_polyk("x^2*y + y", nvars=2)
    zero = PuiseuxSeries.zero()
    assert eval_k(f, (zero, const(3))) == const(3)
    g = parse_polyk("x^(-1)", nvars=1)
    with pytest.raises(NegativeExponentAtZero):
        eval_k(g, (zero,))


def test_trop_family_examples():
    x = PolyK.variable(1, 0)
    x_plus_1 = parse_polyk("x + 1", nvars=1)
    p = (PuiseuxSeries.from_terms([(0, -1), (1, 1)]),)  # t - 1
    assert trop_family([x, x_plus_1], p) == (stv(-1, 0), stv(1, 1))

    onepoly = parse_polyk("1", nvars=1)
    assert trop_family([onepoly], p) == (stv(1, 0),)

    fx = PolyK.variable(1, 0)
    fx2 = parse_polyk("x^2", nvars=1)
    vals = trop_family([fx, fx2], (t_pow(1),))
    assert vals == (stv(1, 1), stv(1, 2))
    assert vals[1] == rt_mul(vals[0], vals[0])


def test_laurent_sign_and_signed_value():
    f = parse_polyk("x^(-1) - 2", nvars=1)
    p = (const(1) + t_pow(1),)  # 1 + t, not a monomial: value needs clearing
    assert laurent_sign(f, p) < 0
    assert signed_trop_of_value(f, p) == stv(-1, 0)
    q = (t_pow(1, Fraction(1, 3)),)
    assert laurent_sign(f, q) > 0
    assert signed_trop_of_value(f, q) == stv(1, -1)
    with pytest.raises(NegativeExponentAtZero):
        laurent_sign(f, (PuiseuxSeries.zero(),))


def _sample_vector(rng, cfg, n):
    return tuple(ps_sample(cfg, rng) for _ in range(n))


def test_fundamental_membership_sampled():
    # the tropical value of f at the tropicalized point contains the
    # tropicalized value of f at the point
    rng = random.Random(2024)
    cfg = SamplerConfig()
    polys = [
        CIRCLE,
        LINE,
        parse_polyk("x^3 + 2y - x^2 - y^2 - 1"),
        parse_polyk("x*y - t*x + 3", nvars=2),
    ]
    for _ in range(400):
        f = rng.choice(polys)
        p = _sample_vector(rng, cfg, 2)
        value = eval_k(f, p).signed_trop()
        hv = trop_eval(trop_r(f), trop_point(p))
        assert hv_contains(hv, value)


def test_one_sided_implications_sampled():
    rng = random.Random(77)
    cfg = SamplerConfig()
    polys = [CIRCLE, LINE, parse_polyk("x^2 - y"), parse_polyk("x*y + x - 1")]
    zero = PuiseuxSeries.zero()
    gt_seen = ge_seen = 0
    for _ in range(600):
        f = rng.choice(polys)
        p = _sample_vector(rng, cfg, 2)
        F = trop_r(f)
        tp = trop_point(p)
        if trop_sat(F, tp, "gt"):
            gt_seen += 1
            assert zero < eval_k(f, p)
        if zero <= eval_k(f, p):
            ge_seen += 1
            assert trop_sat(F, tp, "ge")
    assert gt_seen > 10 and ge_seen > 10


def test_trop_multiplicative_on_disjoint_monomials():
    rng = random.Random(5)
    for _ in range(100):
        c1 = Fraction(rng.randint(-5, 5)) or Fraction(1)
        c2 = Fraction(rng.randint(-5, 5)) or Fraction(2)
        m1 = PolyK.monomial(2, (rng.randint(0, 3), 0), t_pow(rng.randint(-2, 2), c1))
        m2 = PolyK.monomial(2, (0, rng.randint(1, 3)), t_pow(rng.randint(-2, 2), c2))
        lhs = trop_r(m1 * m2)
        t1, t2 = trop_r(m1).terms[0], trop_r(m2).terms[0]
        prod_exps = tuple(a + b for a, b in zip(t1[0], t2[0]))
        assert lhs == TropPoly.from_terms(2, [(prod_exps, rt_mul(t1[1], t2[1]))])


def test_troppoly_text():
    assert CIRCLE_TROP.text() == "X^2 (+) Y^2 (+) -X (+) -Y (+) 1"


def test_polyk_pow_is_repeated_product():
    f = parse_polyk("(1/2)*t*x^(-1) - y + 3*t^(1/3)*x*y")
    product = PolyK.const(2, const(1))
    for k in range(6):
        assert f ** k == product
        product = product * f


def _pairwise_product(f, g):
    """The product as a sum of the pairwise products of terms (the plain definition)."""
    return PolyK.from_terms(f.nvars, (
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in f.terms
        for e2, c2 in g.terms
    ))


@st.composite
def polyk_pair(draw):
    nvars = draw(st.integers(0, 3))
    def poly():
        terms = st.tuples(st.tuples(*[st.integers(-2, 3)] * nvars), series_st())
        return PolyK.from_terms(nvars, draw(st.lists(terms, max_size=5)))
    return poly(), poly()


@settings(max_examples=150, deadline=None)
@given(polyk_pair())
def test_polyk_product_matches_the_pairwise_sum(pair):
    f, g = pair
    product = f * g
    assert product == _pairwise_product(f, g)
    assert product == g * f
    for _, coeff in product.terms:
        assert coeff == PuiseuxSeries.from_terms(coeff.terms)  # normal form
        assert all(type(x) is Fraction for term in coeff.terms for x in term)


def _fractions(bound, max_denominator):
    return st.builds(
        Fraction,
        st.integers(-bound * max_denominator, bound * max_denominator),
        st.integers(1, max_denominator),
    )


def series_st(max_terms=3):
    """Series with 1 to max_terms terms (fewer, or zero, when exponents coincide)."""
    return st.lists(
        st.tuples(_fractions(2, 3), _fractions(4, 5)), min_size=1, max_size=max_terms
    ).map(PuiseuxSeries.from_terms)


def _summed(pairs, zero):
    acc = {}
    for key, value in pairs:
        acc[key] = acc.get(key, zero) + value
    return sorted(acc.items())


_SERIES_TERMS = st.lists(st.tuples(st.integers(-1, 1), st.sampled_from([-2, -1, 1, Fraction(1, 2)])),
                         max_size=6)


@settings(max_examples=150, deadline=None)
@given(_SERIES_TERMS, st.lists(st.tuples(st.integers(0, 1), _SERIES_TERMS), max_size=5))
def test_from_terms_sums_duplicate_and_cancelling_terms_as_before(series_terms, poly_terms):
    # the first term of an exponent is kept as it is; this is the sum from zero it replaced
    pairs = [(Fraction(e), Fraction(c)) for e, c in series_terms]
    s = PuiseuxSeries.from_terms(series_terms)
    assert s == PuiseuxSeries(tuple((e, c) for e, c in _summed(pairs, Fraction(0)) if c != 0))
    pairs = [((e,), PuiseuxSeries.from_terms(t)) for e, t in poly_terms]
    f = PolyK.from_terms(1, pairs)
    assert f == PolyK(1, tuple((e, c) for e, c in _summed(pairs, PuiseuxSeries.zero()) if not c.is_zero()))
    assert PuiseuxSeries.from_terms(series_terms + [(e, -c) for e, c in series_terms]).is_zero()
    assert PolyK.from_terms(1, pairs + [(e, -c) for e, c in pairs]) == PolyK.zero(1)


@st.composite
def laurent_and_point(draw):
    """A Laurent polynomial with series coefficients and a Puiseux point.

    Coordinates are zero with some probability.  When the polynomial has no
    negative exponent, it may be shifted by its own value at the point so
    that the value there is exactly zero.
    """
    nvars = draw(st.integers(1, 3))
    terms = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(-2, 3)] * nvars), series_st()),
            min_size=1,
            max_size=5,
        )
    )
    f = PolyK.from_terms(nvars, terms)
    p = tuple(
        PuiseuxSeries.zero() if draw(st.integers(0, 4)) == 0 else draw(series_st())
        for _ in range(nvars)
    )
    if min(f.min_exponents(), default=0) >= 0 and draw(st.booleans()):
        f = f - PolyK.const(nvars, eval_k(f, p))
    return f, p


@settings(max_examples=300, deadline=None)
@given(laurent_and_point())
def test_laurent_sign_matches_series_evaluation(case):
    f, p = case
    raises = any(
        d < 0 and c.is_zero() for exps, _ in f.terms for d, c in zip(exps, p)
    )
    if raises:
        with pytest.raises(NegativeExponentAtZero):
            laurent_sign(f, p)
        return
    sign = laurent_sign(f, p)
    assert sign == eval_k(_cleared(f)[0], p).sign()
    if all(
        c.is_monomial() for exps, _ in f.terms for d, c in zip(exps, p) if d < 0
    ):
        assert sign == eval_k(f, p).sign()  # the honest value, without clearing


def test_laurent_sign_at_roots():
    x = const(1) + t_pow(Fraction(1, 2), -3)
    y = t_pow(-1, Fraction(2, 3))
    f = parse_polyk("x^2*y - y + 2")
    g = f - PolyK.const(2, eval_k(f, (x, y)))
    assert laurent_sign(g, (x, y)) == 0
    assert laurent_sign(g.shift((-2, 0)), (x, y)) == 0
    assert laurent_sign(g + PolyK.const(2, t_pow(7)), (x, y)) == 1


# -- laurent_sign's initial form against the truncated kernel -----------------


def _outcome(fn, *args):
    """fn(*args), or the type of the error it raises on an undefined point."""
    try:
        return fn(*args)
    except (NegativeExponentAtZero, DimensionMismatch) as exc:
        return type(exc)


def _kernel_sign(f, p):
    """laurent_sign without the initial form: the check, then the truncated
    kernel."""
    p = tuple(p)
    _check_laurent_point(f, p)
    return f._sign_kernel._truncated_value(*series_draws(p)).sign


@st.composite
def cancelling_laurent_and_point(draw):
    """A Laurent polynomial whose dominant terms tend to cancel at the point.

    A polynomial f loses the leading term of its value at p, gains a drawn
    series (often of higher valuation), and is shifted by a monomial that
    may carry negative exponents, so the tropical sum at p is often
    balanced and the sign is decided further down.  The point sometimes
    has one coordinate too many or too few.
    """
    nvars = draw(st.integers(1, 3))
    terms = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), series_st()),
            min_size=1,
            max_size=5,
        )
    )
    f = PolyK.from_terms(nvars, terms)
    p = tuple(
        PuiseuxSeries.zero() if draw(st.integers(0, 6)) == 0 else draw(series_st())
        for _ in range(nvars)
    )
    value = eval_k(f, p)
    lead = PuiseuxSeries(value.terms[:1])
    f = f - PolyK.const(nvars, lead) + PolyK.const(nvars, draw(series_st()))
    f = f.shift(draw(st.tuples(*[st.integers(-3, 1)] * nvars)))
    extra = draw(st.sampled_from([0] * 8 + [-1, 1]))
    if extra < 0:
        p = p[:-1]
    elif extra > 0:
        p = p + (draw(series_st()),)
    return f, p


_DESIGNED = [
    pytest.param("(x-2)^2 - t^2", [[(0, 2), (1, 1)]], id="square-at-2+t-zero"),
    pytest.param("(x-2)^2 - t^2", [[(0, 2), (1, 1), (2, 1)]], id="square-at-2+t+t2-positive"),
    pytest.param("(x-2)^2 - t^2", [[(0, 2), (1, "1/2")]], id="square-at-2+t/2-negative"),
    pytest.param("x^(-3)*(x-2)^2 - x^(-3)*t^2", [[(0, 2), (1, "1/2")]], id="laurent-square"),
    pytest.param("x*y^(-1) - 1", [[(0, 1), (1, 1)], [(0, 1), (1, 1)]], id="ratio-zero"),
    pytest.param("x*y^(-1) - 1", [[(0, 1), (1, 1)], [(0, 1), (1, 2)]], id="ratio-negative"),
    pytest.param("x*y^(-1) - 1", [[(0, 1), (1, 1)], []], id="ratio-undefined"),
]


@settings(max_examples=400, deadline=None)
@given(st.one_of(laurent_and_point(), cancelling_laurent_and_point()))
@example((parse_polyk("x^2*y^(-1) - 1"), (PuiseuxSeries.zero(), const(1))))
def test_laurent_sign_matches_the_kernel(case):
    f, p = case
    assert _outcome(laurent_sign, f, p) == _outcome(_kernel_sign, f, p)


@pytest.mark.parametrize("text, coords", _DESIGNED)
def test_laurent_sign_at_designed_cancellations(text, coords):
    f = parse_polyk(text)
    p = tuple(PuiseuxSeries.from_terms(c) for c in coords)
    assert _outcome(laurent_sign, f, p) == _outcome(_kernel_sign, f, p)
    if all(c.terms for c in p):
        # the leading terms tie with opposite signs, so the initial form
        # or the kernel decides
        assert isinstance(trop_eval(trop_r(f), trop_point(p)), Balanced)
        g, _ = _cleared(f)
        assert laurent_sign(f, p) == eval_k(g, p).sign()


# -- initial forms: the sign of the dominant terms' leading coefficients --------

# The circle (x-2)^2 + (y-2)^2 - 1 at x = 2 + t, y = 3 + ...: the dominant
# terms tie at valuation 0, and their leading coefficients cancel
# (4 + 9 - 8 - 12 + 7 = 0), so the sign lies in the tails.
_CIRCLE_TEXT = "(x-2)^2 + (y-2)^2 - 1"
_ZERO_INITIAL_FORM = [
    pytest.param(_CIRCLE_TEXT, [[(0, 2), (1, 1)], [(0, 3), (1, 1)]], 1, id="circle-2t+2t2"),
    pytest.param(_CIRCLE_TEXT, [[(0, 2), (1, 1)], [(0, 3), (1, -1)]], -1, id="circle--2t+2t2"),
    pytest.param(_CIRCLE_TEXT, [[(0, 2), (1, 1)], [(0, 3)]], 1, id="circle-t2"),
    pytest.param(_CIRCLE_TEXT, [[(0, 2), (1, 1)], [(0, 3), (2, "-1/2")]], 1, id="circle-t4/4"),
    pytest.param(_CIRCLE_TEXT, [[(0, 2), (1, 1)], [(0, 3), (1, "-1/4"), (2, -1)]], -1,
                 id="circle-y-tail"),
    pytest.param("x^(-1)*y - 3/2", [[(0, 2), ("1/2", 1)], [(0, 3)]], -1, id="laurent-ratio"),
]


@pytest.mark.parametrize("text, coords, sign", _ZERO_INITIAL_FORM)
def test_laurent_sign_falls_back_when_the_initial_form_cancels(text, coords, sign):
    f = parse_polyk(text)
    p = tuple(PuiseuxSeries.from_terms(c) for c in coords)
    g, _ = _cleared(f)  # g(p) = f(p) * p**m with m even: the same sign
    at_leads = trop_eval(trop_r(g), trop_point(p))
    assert isinstance(at_leads, Balanced)  # the leading terms are balanced
    # and their initial form cancels: g(p) lies above their valuation
    assert eval_k(g, p).signed_trop().val > at_leads.val
    assert laurent_sign(f, p) == _kernel_sign(f, p) == eval_k(g, p).sign() == sign


_TINY_EXPS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)])
_TINY_COEFFS = st.sampled_from([-2, -1, 1, 2])


@st.composite
def tiny_grid_series(draw):
    """A series whose leading term comes from a tiny grid, with a random tail above it."""
    e, c = draw(_TINY_EXPS), draw(_TINY_COEFFS)
    tail = draw(st.lists(
        st.tuples(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]), _fractions(3, 2)),
        max_size=2,
    ))
    return PuiseuxSeries.from_terms([(e, c)] + [(e + step, a) for step, a in tail])


@st.composite
def tiny_grid_laurent_and_point(draw):
    """A Laurent polynomial and a point whose leading terms come from tiny grids.

    Few leading exponents and coefficients make ties of dominant terms,
    and initial forms that cancel, common.
    """
    nvars = draw(st.integers(1, 2))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(-1, 2)] * nvars), tiny_grid_series()),
        min_size=2, max_size=6,
    ))
    f = PolyK.from_terms(nvars, terms)
    p = tuple(
        PuiseuxSeries.zero() if draw(st.integers(0, 9)) == 0 else draw(tiny_grid_series())
        for _ in range(nvars)
    )
    return f, p


@settings(max_examples=300, deadline=None)
@given(tiny_grid_laurent_and_point())
def test_laurent_sign_matches_the_kernel_on_tiny_grids(case):
    f, p = case
    assert _outcome(laurent_sign, f, p) == _outcome(_kernel_sign, f, p)


def _reference_signed_value(f, p):
    """The signed value of f(p) from the value of the cleared polynomial,
    built in full by eval_k, over the signed value of p**m."""
    p = tuple(p)
    _check_laurent_point(f, p)
    g, m = _cleared(f)
    out = eval_k(g, p).signed_trop()
    for mk, c in zip(m, p):
        if mk:
            out = rt_mul(out, rt_pow(rt_inv(c.signed_trop()), mk))
    return out


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    laurent_and_point(), cancelling_laurent_and_point(), tiny_grid_laurent_and_point()
))
def test_sign_kernel_matches_the_value_of_the_cleared_polynomial(case):
    f, p = case
    g, _ = _cleared(f)
    if len(p) != f.nvars or any(
        d < 0 and c.is_zero() for exps, _ in f.terms for d, c in zip(exps, p)
    ):
        return  # no value: laurent_sign raises before the kernel runs
    value = eval_k(g, p).signed_trop()
    kernel = f._sign_kernel
    assert kernel._truncated_value(*series_draws(p)) == value
    assert signed_trop_of_value(g, p) == value
    assert signed_trop_of_value(f, p) == _reference_signed_value(f, p)


@pytest.mark.parametrize("c", ["3", "1/2", "-1/3", "-4"])
def test_sign_kernel_truncates_a_power_at_the_exponent_bound(c):
    # y^10000 - 1 at y = 1 + c*t^(1/2) + t is 10000*c*t^(1/2) + ...; its
    # leading terms cancel, and so does its initial form
    f = parse_polyk(f"y^{MAX_EXPONENT} - 1", 2)
    p = (const(1), PuiseuxSeries.from_terms([(0, 1), (Fraction(1, 2), Fraction(c)), (1, 1)]))
    assert trop_eval(trop_r(f), trop_point(p)) == Balanced(Fraction(0))
    start = time.perf_counter()
    sign = 1 if Fraction(c) > 0 else -1
    assert f._sign_kernel._truncated_value(*series_draws(p)).sign == laurent_sign(f, p) == sign
    assert signed_trop_of_value(f, p) == stv(sign, Fraction(1, 2))
    assert time.perf_counter() - start < 1.0


def _swap(F):
    return TropPoly(F.nvars, tuple(sorted((e[::-1], c) for e, c in F.terms)))


def test_undefinedness_does_not_depend_on_variable_order():
    zero = PuiseuxSeries.zero()
    z = stv(0, "inf")
    for text in ("x*y^(-1) + 1", "x^(-1)*y + 1"):
        f = parse_polyk(text)
        F = trop_r(f)
        for fn, args in (
            (laurent_sign, (f, (zero, zero))),
            (eval_k, (f, (zero, zero))),
            (trop_eval, (F, (z, z))),
            (trop_sat, (F, (z, z), "gt")),
            (trop_region, (F, (0, 0), "gt")),
            (F._val_kernel.outcome_at, ((z, z),)),
        ):
            with pytest.raises(NegativeExponentAtZero):
                fn(*args)


# -- independent cross-check of trop_eval's integer kernel ----------------------


def _reference_trop_eval(F, p):
    """F(p) term by term in the hyperfield: coefficient times coordinate powers.

    F is undefined, and raises, where a zero coordinate carries a negative
    exponent in any term; otherwise a positive power of a zero coordinate
    kills the term.
    """
    if any(d < 0 and c.sign == 0 for exps, _ in F.terms for d, c in zip(exps, p)):
        raise NegativeExponentAtZero("negative exponent at a zero coordinate")
    values = []
    for exps, coeff in F.terms:
        acc = coeff
        for d, c in zip(exps, p):
            acc = rt_mul(acc, rt_pow(c, d))
        values.append(acc)
    return rt_sum(values)


# few distinct valuations, so that terms often tie at the minimum
_signed_vals = st.builds(stv, st.sampled_from([-1, 1]), _fractions(2, 2))
_coords = st.one_of(st.just(stv(0, "inf")), _signed_vals)


@st.composite
def troppoly_and_point(draw):
    nvars = draw(st.integers(1, 3))
    terms = draw(
        st.dictionaries(st.tuples(*[st.integers(-2, 3)] * nvars), _signed_vals, max_size=6)
    )
    F = TropPoly.from_terms(nvars, terms.items())
    p = tuple(draw(_coords) for _ in range(nvars))
    return F, p


@settings(max_examples=500, deadline=None)
@given(troppoly_and_point())
def test_trop_eval_matches_term_by_term_reference(case):
    F, p = case
    try:
        expected = _reference_trop_eval(F, p)
    except NegativeExponentAtZero:
        with pytest.raises(NegativeExponentAtZero):
            trop_eval(F, p)
        return
    assert trop_eval(F, p) == expected


def test_trop_eval_any_negative_exponent_at_zero_raises():
    # undefined at (0, 0) in either variable order, although the positive
    # power of the other coordinate would kill the term
    zero = stv(0, "inf")
    for exps in ((1, -1), (-1, 1)):
        F = TropPoly.from_terms(2, [(exps, stv(1, 0)), ((0, 0), stv(-1, 2))])
        with pytest.raises(NegativeExponentAtZero):
            trop_eval(F, (zero, zero))
        for rel in ("gt", "eq", "le"):
            with pytest.raises(NegativeExponentAtZero):
                trop_sat(F, (zero, zero), rel)
    # defined where only positive powers meet the zero coordinate
    F = TropPoly.from_terms(2, [((1, -1), stv(1, 0)), ((0, 0), stv(-1, 2))])
    assert trop_eval(F, (zero, stv(1, 0))) == hv_point(-1, 2)
    # odd powers of negative coordinates flip the sign, even powers do not
    H = TropPoly.from_terms(2, [((3, 2), stv(1, Fraction(1, 2)))])
    assert trop_eval(H, (stv(-1, 1), stv(-1, Fraction(-1, 3)))) == hv_point(-1, Fraction(17, 6))


# -- trop_sat decides without building the value ----------------------------


@st.composite
def troppoly_with_zero_terms_and_point(draw):
    """Like troppoly_and_point, sometimes with directly built zero coefficients."""
    F, p = draw(troppoly_and_point())
    zeros = draw(
        st.lists(st.tuples(*[st.integers(-2, 3)] * F.nvars), max_size=2, unique=True)
    )
    present = {exps for exps, _ in F.terms}
    extra = tuple((e, stv(0, "inf")) for e in zeros if e not in present)
    if extra:
        F = TropPoly(F.nvars, tuple(sorted(F.terms + extra)))
    return F, p


@settings(max_examples=300, deadline=None)
@given(troppoly_with_zero_terms_and_point())
def test_trop_eval_is_invariant_under_reversing_the_variables(case):
    F, p = case
    assert _outcome(trop_eval, F, p) == _outcome(trop_eval, _swap(F), p[::-1])


@settings(max_examples=300, deadline=None)
@given(troppoly_with_zero_terms_and_point())
def test_trop_sat_matches_relation_of_value(case):
    F, p = case
    try:
        value = trop_eval(F, p)
    except NegativeExponentAtZero:
        for rel in _REL_ALIASES:
            with pytest.raises(NegativeExponentAtZero):
                trop_sat(F, p, rel)
        return
    for rel in _REL_ALIASES:
        for text in (rel, f" {rel} "):
            assert trop_sat(F, p, text) == hv_relation(value, text), (F, p, rel)


def test_trop_sat_error_order():
    G = TropPoly.from_terms(2, [((-1, 1), stv(1, 0))])
    zero = stv(0, "inf")
    with pytest.raises(DimensionMismatch):
        trop_sat(G, (zero,), "bogus")
    with pytest.raises(NegativeExponentAtZero):
        trop_sat(G, (zero, zero), "bogus")
    with pytest.raises(ValueError, match="unknown relation"):
        trop_sat(G, (stv(1, 0), stv(1, 0)), "bogus")


# -- trop_sat and the outer point test against the term-by-term reference -------


def _as_polyk(F):
    """A polynomial whose shadow is F: each coefficient sign * t**val."""
    return PolyK(F.nvars, tuple(
        (e, PuiseuxSeries.from_terms([(c.val, c.sign)])) for e, c in F.terms
    ))


@st.composite
def shared_and_scored(draw):
    """A point with a nonzero first coordinate and two polynomials defined
    there, every term alive: one whose terms all carry one sign on the
    point's orthant (one term or several), and one with terms of both
    signs, so that only its valuations decide."""
    nvars = draw(st.integers(1, 3))
    p = (draw(_signed_vals),) + tuple(draw(_coords) for _ in range(nvars - 1))
    # no power of a zero coordinate, so that every term is alive and defined
    exps = st.tuples(*[st.integers(-2, 3) if c.sign else st.just(0) for c in p])

    def build(targets, support):
        terms = []
        for s, e in zip(targets, support):
            flip = -1 if sum(d & 1 for d, c in zip(e, p) if c.sign < 0) & 1 else 1
            terms.append((e, stv(s * flip, draw(_fractions(2, 2)))))
        return TropPoly.from_terms(nvars, terms)

    support = draw(st.lists(exps, min_size=1, max_size=5, unique=True))
    shared = build([draw(st.sampled_from([-1, 1]))] * len(support), support)
    support = draw(st.lists(exps, min_size=2, max_size=6, unique=True))
    n = len(support) - 2
    scored = build([1, -1, *draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))],
                   support)
    return shared, scored, p


def _check_against_reference(F, p):
    """trop_sat for all six relations, and the outer bound's test of the one
    condition f rel 0 with trop(f) = F, against ``_reference_trop_eval``
    (a sign condition needs a nonzero f)."""
    f = _as_polyk(F)
    assert trop_r(f) == F
    try:
        expected = _reference_trop_eval(F, p)
    except NegativeExponentAtZero:
        expected = None
    for rel in RELATIONS:
        S = SADescription(F.nvars, ((SignCondition(f, rel),),)) if F.terms else None
        if expected is None:
            with pytest.raises(NegativeExponentAtZero):
                trop_sat(F, p, rel)
            assert S is None or not outer_contains_point(S, p)
            continue
        holds = hv_relation(expected, rel)
        assert trop_sat(F, p, rel) == holds, (F, p, rel)
        if S is not None:
            # the tropicalized condition also admits a balanced sum
            inside = holds or isinstance(expected, Balanced)
            assert outer_contains_point(S, p) == inside, (F, p, rel)


@settings(max_examples=300, deadline=None)
@given(troppoly_and_point(), shared_and_scored())
def test_trop_sat_and_outer_point_test_match_term_by_term_reference(free, cases):
    shared, scored, p = cases
    # one polynomial takes the shared-sign branch and one is scored
    assert shared._val_kernel._plan_at(p)[0] in (-1, 1)
    assert scored._val_kernel._plan_at(p)[0] is None
    _check_against_reference(*free)
    _check_against_reference(shared, p)
    _check_against_reference(scored, p)
