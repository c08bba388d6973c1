"""Polynomial text grammar: expansion, coefficients in t, errors."""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropreal.errors import ParseError
from tropreal.parsing import (
    MAX_EXPONENT, MAX_NESTING, MAX_POWER_BITS, MAX_TERMS, MAX_VARS, parse_polyk, parse_puiseux,
)
from tropreal.puiseux import PuiseuxSeries
from tropreal.troppoly import PolyK, eval_k

const = PuiseuxSeries.const


def test_circle_expansion():
    f = parse_polyk("(x-2)^2 + (y-2)^2 - 1")
    expected = PolyK.from_terms(
        2,
        [
            ((2, 0), const(1)),
            ((0, 2), const(1)),
            ((1, 0), const(-4)),
            ((0, 1), const(-4)),
            ((0, 0), const(7)),
        ],
    )
    assert f == expected


def test_linear_and_juxtaposition():
    assert parse_polyk("2x + 3y - 5") == parse_polyk("2*x + 3*y - 5")


def test_t_coefficients():
    f = parse_polyk("(t+1)*x", nvars=1)
    assert f == PolyK.from_terms(
        1, [((1,), PuiseuxSeries.from_terms([(0, 1), (1, 1)]))]
    )


def test_puiseux_text():
    s = parse_puiseux("2 - 1/3*t^(1/2) + t^2")
    assert s == PuiseuxSeries.from_terms(
        [(0, 2), (Fraction(1, 2), Fraction(-1, 3)), (2, 1)]
    )
    assert parse_puiseux(s.text()) == s


def test_laurent_variable():
    f = parse_polyk("x^(-1)*y - 2", nvars=2)
    assert f == PolyK.from_terms(2, [((-1, 1), const(1)), ((0, 0), const(-2))])


def test_numbered_variables():
    f = parse_polyk("x1*x4")
    assert f.nvars == 4


def test_nvars_override():
    f = parse_polyk("x + y", nvars=3)
    assert f.nvars == 3
    with pytest.raises(ParseError):
        parse_polyk("z", nvars=2)


def test_variable_index_is_bounded():
    assert parse_polyk(f"x{MAX_VARS}*y").nvars == MAX_VARS
    assert parse_polyk("x", nvars=MAX_VARS).nvars == MAX_VARS
    for bad in [f"x{MAX_VARS + 1}", "x2000000*y + x2000000^2", "x" + "9" * 5000]:
        with pytest.raises(ParseError, match=f"limit of {MAX_VARS} variables"):
            parse_polyk(bad)
    with pytest.raises(ParseError, match=f"limit of {MAX_VARS} variables"):
        parse_polyk("x", nvars=MAX_VARS + 1)
    # digits other than 0-9 are not numerals
    for bad in ["x\u00b2", "\u00b2"]:
        with pytest.raises(ParseError):
            parse_polyk(bad)


def test_term_budget_fails_before_expanding():
    # both took seconds to expand before the budget existed
    for bad in ["(x+y+1)^80", "(x+1)^1000"]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"more than {MAX_TERMS} terms"):
            parse_polyk(bad)
        assert time.perf_counter() - start < 1, bad
    # powers of t count as terms; a product is bounded by len(a)*len(b)
    for bad in ["(t+1)^300", "(x+t+1)^30", "(x+y)^20*(x-y)^20"]:
        with pytest.raises(ParseError, match=f"more than {MAX_TERMS} terms"):
            parse_polyk(bad)
    # within the budget: 231 monomials; a one-term base has no bound
    assert len(parse_polyk("(x+y+1)^20").terms) == 231
    assert parse_polyk("(2x)^1000") == parse_polyk(f"{2**1000}*x^1000")


@pytest.mark.parametrize("bad", ["7^10000000", "(2/3)^3000000", "(2/3*t)^1000000"])
def test_power_of_one_term_is_bounded_before_computing(bad):
    # these took from seconds to minutes to compute before the bound existed
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"more than {MAX_POWER_BITS} bits"):
        parse_polyk(bad)
    assert time.perf_counter() - start < 1, bad


@pytest.mark.parametrize("bad, what", [
    pytest.param("*".join(["7^3000"] * 200), "a product", id="product-of-powers"),
    pytest.param("x*(2/3)^4000*y*(2/3)^4000", "a product", id="product-with-variables"),
    pytest.param("(7^3000*x + 1)^120", "a power ^120", id="power-of-two-terms"),
])
def test_products_and_powers_of_sums_are_bounded_before_computing(bad, what):
    # each factor passes the bound alone; the product (1.9 s for 200
    # factors) and the power (99 s) did not, before their bits were counted
    start = time.perf_counter()
    with pytest.raises(ParseError, match=re.escape(f"{what} could give a coefficient of more than")):
        parse_polyk(bad)
    assert time.perf_counter() - start < 1, bad
    # a product just within the bound parses
    assert parse_polyk(f"(3/2)^{MAX_POWER_BITS // 4}*(3/2)^{MAX_POWER_BITS // 4}*x") == (
        parse_polyk(f"(3/2)^{MAX_POWER_BITS // 2}*x")
    )


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 5000])
@pytest.mark.parametrize("shape", ["parentheses", "signs", "both"])
def test_nesting_is_bounded(shape, depth):
    # 5,000 of either overflowed the stack with a RecursionError
    text = {"parentheses": "(" * depth + "x - 1" + ")" * depth,
            "signs": "x + " + "-" * depth + "x",
            "both": "-(" * depth + "x" + ")" * depth}[shape]
    with pytest.raises(ParseError, match=f"deeper than MAX_NESTING={MAX_NESTING}"):
        parse_polyk(text)


def test_nesting_within_the_bound_parses():
    n = MAX_NESTING
    assert parse_polyk("(" * n + "x - 1" + ")" * n + "^2") == parse_polyk("x^2 - 2x + 1")
    assert parse_polyk("x + " + "-" * n + "y") == parse_polyk("x + y")
    assert parse_polyk("x + " + "-" * (n - 1) + "y") == parse_polyk("x - y")
    assert parse_polyk("-(" * (n // 2) + "2x" + ")" * (n // 2)) == parse_polyk("2x")
    # a leading sign belongs to the expression, not to the nesting of an atom
    assert parse_polyk("-" * (n + 1) + "x") == parse_polyk("-x")


def test_power_of_one_term_within_the_bound():
    assert parse_polyk("2^64") == parse_polyk(str(2**64))
    assert parse_polyk("(x+1)^3") == parse_polyk("x^3 + 3x^2 + 3x + 1")
    # the bound is k times the longer bit length of numerator and denominator
    k = MAX_POWER_BITS // 2
    assert parse_polyk(f"(3/2)^{k}") == parse_polyk(f"{3**k}/{2**k}")
    with pytest.raises(ParseError, match="bits"):
        parse_polyk(f"(3/2)^{k + 1}")


@pytest.mark.parametrize("bad", ["x^1180591620717411303424 - 1", "(x^10000)^10000", "x^10000*x^10000"])
def test_variable_exponents_are_bounded(bad):
    # each parsed at once to a polynomial that JSON input refuses
    with pytest.raises(ParseError, match=f"beyond MAX_EXPONENT={MAX_EXPONENT}"):
        parse_polyk(bad)


def test_variable_exponents_within_the_bound():
    assert MAX_EXPONENT == 10000
    assert parse_polyk("x^10000") == parse_polyk("(x^100)^100")
    assert parse_polyk("x^(-10000)*y") == parse_polyk("y*x^(-10000)")
    # the bound is on the result: a later factor may bring an exponent back
    assert parse_polyk("x^10000*x^10000*x^(-10000)") == parse_polyk("x^10000")


def test_overlong_numerals_are_parse_errors():
    # Python refuses to convert digit strings beyond its limit (4300 by default)
    long = "9" * 5000
    for bad in [long, f"x + 1/{long}", f"t^({long})", f"t^(1/{long})", f"{long}/7"]:
        with pytest.raises(ParseError, match="numeral of 5000 digits is too long"):
            parse_polyk(bad)


def test_cancellation():
    assert parse_polyk("(x+1)*(x-1) - x^2 + 1", nvars=1).is_zero()


def test_parse_errors():
    for bad in ["x +", "(x", "x^^2", "x^(1/2)", "(x+1)^(-2)", "q", "1/0", "x$y"]:
        with pytest.raises(ParseError):
            parse_polyk(bad)


def test_unary_minus():
    assert parse_polyk("-x^2 + -3") == parse_polyk("-(x^2) - 3")


def test_parse_error_order():
    # a bad exponent is reported before an unknown name further on
    with pytest.raises(ParseError, match="variable exponents must be integers"):
        parse_polyk("(x+1)^(1/2) - q")


# -- independent cross-check: parse, then evaluate, against direct evaluation --
# A tree is (text, value) where value maps the point (x, y, t) to a Fraction.

_rationals = st.fractions(min_value=0, max_value=20, max_denominator=6)


def _leaf_rational(q):
    text = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return text, lambda x, y, t: q


def _leaf_t(k):
    return f"t^({k})", lambda x, y, t: t**k


_leaves = st.one_of(
    _rationals.map(_leaf_rational),
    st.sampled_from([
        ("x", lambda x, y, t: x),
        ("y", lambda x, y, t: y),
        ("x^(-1)", lambda x, y, t: 1 / x),
    ]),
    st.integers(-3, 3).map(_leaf_t),
)


def _node(a, op, b, joint):
    (ta, fa), (tb, fb) = a, b
    if op == "+":
        return f"({ta}){joint}+{joint}({tb})", lambda *p: fa(*p) + fb(*p)
    if op == "-":
        return f"({ta}){joint}-{joint}({tb})", lambda *p: fa(*p) - fb(*p)
    # juxtaposition when joint is empty: '(a)(b)'
    star = "*" if joint else ""
    return f"({ta}){star}({tb})", lambda *p: fa(*p) * fb(*p)


def _extend(trees):
    joint = st.sampled_from(["", " "])
    binary = st.builds(_node, trees, st.sampled_from("+-*"), trees, joint)
    neg = trees.map(lambda a: (f"-({a[0]})", lambda *p: -a[1](*p)))
    power = st.builds(
        lambda a, k: (f"({a[0]})^{k}", lambda *p: a[1](*p) ** k), trees, st.integers(0, 3)
    )
    return st.one_of(binary, neg, power)


_trees = st.recursive(_leaves, _extend, max_leaves=8)
_nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


def _series_at(s, t):
    # every t exponent in these trees is an integer
    return sum((c * t ** int(e) for e, c in s.terms), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(_trees, _nonzero, _nonzero, _nonzero)
def test_parse_matches_direct_evaluation(tree, x, y, t):
    text, value = tree
    f = parse_polyk(text, nvars=2)
    series = eval_k(f, (PuiseuxSeries.const(x), PuiseuxSeries.const(y)))
    assert _series_at(series, t) == value(x, y, t), text
