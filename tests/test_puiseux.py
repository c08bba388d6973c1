"""Exact series arithmetic, ordering, signed values, and the sampler."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropreal.errors import PuiseuxDivisionError
from tropreal.hyperfields import INF, Point, hv_contains, rt_add, rt_mul, stv
from tropreal.puiseux import PuiseuxSeries, SamplerConfig, ps_cmp, ps_sample

P = PuiseuxSeries.from_terms
t_pow = PuiseuxSeries.t_power
const = PuiseuxSeries.const


@st.composite
def series(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    exps = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
                lambda c: c != 0
            ),
            min_size=n,
            max_size=n,
        )
    )
    return P(zip(exps, coeffs))


def test_arithmetic_examples():
    a = P([(Fraction(1, 2), 1), (1, -2)])  # t^(1/2) - 2t
    b = P([(Fraction(1, 2), -1)])  # -t^(1/2)
    assert a + b == P([(1, -2)])
    assert (const(1) + t_pow(1)) * (const(1) - t_pow(1)) == P([(0, 1), (2, -1)])
    assert -PuiseuxSeries.zero() == PuiseuxSeries.zero()


def test_normal_form_idempotent():
    a = P([(1, 2), (0, 3), (1, -2)])
    assert a == P(a.terms)
    assert a.terms == ((Fraction(0), Fraction(3)),)


def test_signed_trop():
    assert (const(2) - t_pow(1)).signed_trop() == stv(1, 0)
    assert (t_pow(-1, -3) + const(5)).signed_trop() == stv(-1, -1)
    assert PuiseuxSeries.zero().signed_trop() == stv(0, INF)


def test_cmp_examples():
    assert ps_cmp(t_pow(1), const(Fraction(1, 2))) < 0
    assert ps_cmp(t_pow(1), t_pow(1)) == 0
    assert ps_cmp(t_pow(-2, -1), const(1000)) < 0


def test_order_infinitesimal():
    # t is positive but below every positive rational
    assert PuiseuxSeries.zero() < t_pow(1) < const(Fraction(1, 10**9))


def test_pow_and_inverse():
    a = P([(Fraction(1, 2), 2)])
    assert a ** 2 == P([(1, 4)])
    assert a ** -1 == P([(Fraction(-1, 2), Fraction(1, 2))])
    assert a ** 0 == const(1)
    with pytest.raises(PuiseuxDivisionError):
        (const(1) + t_pow(1)).inverse()


@given(series(max_terms=3), st.integers(0, 5))
def test_pow_is_repeated_product(a, k):
    product = const(1)
    for _ in range(k):
        product = product * a
    assert a ** k == product


def test_exponent_denominator():
    a = P([(Fraction(1, 2), 1), (Fraction(2, 3), 1)])
    assert a.exponent_denominator() == 6
    assert PuiseuxSeries.zero().exponent_denominator() == 1


@given(series(), series())
def test_signed_trop_is_multiplicative(a, b):
    assert (a * b).signed_trop() == rt_mul(a.signed_trop(), b.signed_trop())


@given(series(), series())
def test_signed_trop_sum_containment(a, b):
    s = rt_add(Point(a.signed_trop()), Point(b.signed_trop()))
    assert hv_contains(s, (a + b).signed_trop())


@given(series(), series())
def test_order_compatible_with_magnitude(a, b):
    # 0 <= a <= b forces val(a) >= val(b)
    zero = PuiseuxSeries.zero()
    if zero <= a <= b:
        assert a.val() >= b.val()


@given(series(), series(), series())
def test_order_translation_invariant(a, b, c):
    if a < b:
        assert a + c < b + c


def test_text_roundtrip_shape():
    a = P([(0, 2), (Fraction(1, 2), Fraction(-1, 3)), (2, 1)])
    assert a.text() == "2 - 1/3*t^(1/2) + t^2"


def test_sampler_deterministic():
    cfg = SamplerConfig(seed=42)
    assert ps_sample(cfg) == ps_sample(cfg)
    cfg2 = SamplerConfig(seed=43)
    draws1 = [ps_sample(cfg, random.Random(1)) for _ in range(5)]
    draws2 = [ps_sample(cfg2, random.Random(1)) for _ in range(5)]
    assert draws1 == draws2  # rng overrides config seed


def test_sampler_single_constant():
    cfg = SamplerConfig(
        max_terms=1,
        exponent_denominator_bound=1,
        exponent_range=(Fraction(0), Fraction(0)),
        seed=5,
    )
    s = ps_sample(cfg)
    assert s.is_monomial() and s.val() == 0


def test_sampler_valuations_in_range():
    cfg = SamplerConfig(
        max_terms=3,
        exponent_denominator_bound=3,
        exponent_range=(Fraction(-2), Fraction(2)),
        seed=99,
    )
    rng = random.Random(cfg.seed)
    for _ in range(1000):
        s = ps_sample(cfg, rng)
        assert not s.is_zero()
        assert Fraction(-2) <= s.val() <= Fraction(2)
        assert s.exponent_denominator() <= 6  # lcm of denominators <= 3 on few terms


# The first 20 draws of two samplers, recorded before the sampler was moved
# to integer grid bounds and direct construction: the draws must not change.
GOLDEN_DRAWS = [
    (
        SamplerConfig(seed=11),
        [
            "4*t^(3/2)", "4*t^2", "-3*t^(3/2)", "2*t - 3*t^2", "-4*t^(-1)",
            "2*t", "-4*t^(-1)", "4*t^(3/2)", "-2*t^2", "-4*t^(-3/2) + 1/2*t",
            "-5/2*t^(-1)", "t^(-1)", "-4*t^(-3/2) + 3/2*t^2",
            "-t^(-1) + 4 + 2*t^2", "7/2*t", "-3*t^(-2) - t^(-1)",
            "5/2*t^(-2)", "3/2*t^(-2) - 3*t^(-1)", "-4*t + 3*t^2",
            "3*t^(-2) - 2*t^2",
        ],
    ),
    (
        SamplerConfig(
            max_terms=4,
            exponent_denominator_bound=3,
            exponent_range=(Fraction(-3, 2), Fraction(5, 2)),
            coeff_range=(Fraction(-1, 2), Fraction(3)),
            seed=2026,
        ),
        [
            "3*t^(5/2)", "7/3*t^2", "4/3*t + 2*t^(4/3) + 3*t^(3/2) + 2*t^2",
            "3*t^(1/3)", "8/3*t^2 + 3*t^(5/2)", "2 + 7/3*t^2",
            "5/2*t^(2/3) + t^2 + 3/2*t^(7/3)", "8/3",
            "3*t + 2*t^(3/2) + 3*t^2 + 3*t^(5/2)", "2*t^(-1/2) + t + 5/3*t^2",
            "2/3*t^(-3/2) - 1/3*t^(-1)", "t^2 + 3*t^(7/3)", "3*t", "4/3*t",
            "3/2*t^2", "7/3*t^(-1) + 3 + 4/3*t^(5/3) + t^2", "t^(2/3)",
            "-1/2*t^(-1) + 1", "5/2 + 3*t^(1/2)", "3*t + 2*t^2 + t^(5/2)",
        ],
    ),
]


@pytest.mark.parametrize("cfg, texts", GOLDEN_DRAWS)
def test_sampler_golden_draws(cfg, texts):
    rng = random.Random(cfg.seed)
    draws = [ps_sample(cfg, rng) for _ in range(20)]
    assert [s.text() for s in draws] == texts
    for s in draws:
        assert s == P(s.terms)  # already in normal form
        assert all(isinstance(x, Fraction) for term in s.terms for x in term)
