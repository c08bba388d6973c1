"""Exact series arithmetic, ordering, signed values, and the sampler."""

import dataclasses
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from tropreal.errors import PuiseuxDivisionError
from tropreal.hyperfields import INF, Point, SignedTropVal, hv_contains, rt_add, rt_mul, stv
from tropreal.puiseux import (
    PuiseuxSeries,
    SamplerConfig,
    _fraction,
    ps_build,
    ps_draw,
    ps_sample,
)

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
    assert t_pow(1).cmp(const(Fraction(1, 2))) < 0
    assert t_pow(1).cmp(t_pow(1)) == 0
    assert t_pow(-2, -1).cmp(const(1000)) < 0


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
        assert lcm(*(e.denominator for e, _ in s.terms)) <= 6  # lcm of denominators <= 3 on few terms


# The first 20 draws of two samplers, recorded when the lead came to be
# drawn before the number of terms (the reference sampler agrees).
GOLDEN_DRAWS = [
    (
        SamplerConfig(seed=11),
        [
            "3*t^2", "-4*t^2", "3*t^(-1) - 4*t^(-1/2)", "5/2*t - t^2", "2*t - 3*t^2",
            "2*t^(1/2)", "-4*t^(-1)", "4*t^(3/2)", "-2*t^2", "2*t^(-1) + 1/2 - 3*t^2",
            "-t^(-2)", "-2*t^(1/2) - 3*t - 7/2*t^2", "4*t^(-2) + 5/2*t", "-3",
            "-t + t^2", "-4*t^2", "-3*t^(-1) - 3", "-4*t^(-3/2) + 2*t^2", "-3*t^2",
            "1 - 3*t^(3/2)",
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
            "7/3*t", "7/3*t^2", "2*t^(1/3) - 1/2*t^(5/3) + 4/3*t^(7/3)", "3*t^2",
            "2*t^(5/2)", "7/3*t^2 + 3*t^(7/3)", "t + 3*t^(3/2) + 2*t^(5/2)", "3*t^2",
            "7/3*t^2", "-1/3*t^(-1/3) + 8/3*t + 2*t^2", "t^(7/3)",
            "2*t + 3*t^2 + t^(7/3)", "t^(-2/3) + 1 + t^(4/3) + 3/2*t^2", "3/2*t^(5/2)",
            "2*t + t^(4/3) + 8/3*t^2 + 2/3*t^(5/2)", "1 + 3*t",
            "-1/3*t^(-1) + 2*t^(-2/3) + 2*t^2", "3*t - 1/3*t^2 + 2*t^(7/3)",
            "2*t^(-1/3) + 2*t^(1/3) + 3*t^(3/2) + 2*t^2", "5/2*t^(1/3) + t + 3*t^2",
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


# A randint-based sampler, kept as the reference for the draw contract:
# ps_sample must consume the same random words and return the same series
# as these draws.  It is the sampler before integer draws, reordered as
# ps_draw_lead and ps_draw_tail draw: the lead exponent, the lead
# coefficient, the number of terms, then the tail.
def _grid_range(lo, hi, q):
    return -(-lo.numerator * q // lo.denominator), hi.numerator * q // hi.denominator


def _grid_draw(rng, lo, hi, dbound):
    q = rng.randint(1, dbound)
    lo_n, hi_n = _grid_range(lo, hi, q)
    if lo_n > hi_n:
        q = dbound
        lo_n, hi_n = _grid_range(lo, hi, q)
        if lo_n > hi_n:
            raise ValueError("rational grid is empty in the configured range")
    return Fraction(rng.randint(lo_n, hi_n), q)


def _nonzero_coeff(rng, cfg):
    lo, hi = cfg.coeff_range
    for _ in range(64):
        c = _grid_draw(rng, lo, hi, cfg.exponent_denominator_bound)
        if c != 0:
            return c
    raise ValueError("coefficient range contains only zero")


def _reference_lead(cfg, rng):
    lo, hi = cfg.exponent_range
    lead = _grid_draw(rng, lo, hi, cfg.exponent_denominator_bound)
    return lead, _nonzero_coeff(rng, cfg)


def _reference_tail(cfg, rng, lead):
    lo, hi = cfg.exponent_range
    n_terms = rng.randint(1, cfg.max_terms)
    exps = {lead}
    for _ in range((n_terms - 1) * 4):
        if len(exps) >= n_terms:
            break
        e = _grid_draw(rng, lo, hi, cfg.exponent_denominator_bound)
        if e > lead:
            exps.add(e)
    return [(e, _nonzero_coeff(rng, cfg)) for e in sorted(exps - {lead})]


def _reference_sample(cfg, rng):
    """The lead exponent, its coefficient, the number of terms, then the tail."""
    lead = _reference_lead(cfg, rng)
    return PuiseuxSeries((lead, *_reference_tail(cfg, rng, lead[0])))


def _outcome(draw, *args):
    """The value of draw(*args), or the message of the ValueError it raises."""
    try:
        return draw(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# Windows with denominators up to 8 against denominator bounds up to 6: a
# small q often misses a narrow window (the fallback to the bound fires),
# and a window such as [1/7, 1/7] has no grid point at all.
_window = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.fractions(min_value=0, max_value=2, max_denominator=8),
).map(lambda p: (p[0], p[0] + p[1]))
_pinpoint = st.fractions(min_value=-3, max_value=3, max_denominator=8).map(lambda v: (v, v))


@st.composite
def sampler_configs(draw):
    return SamplerConfig(
        max_terms=draw(st.integers(1, 6)),
        exponent_denominator_bound=draw(st.integers(1, 6)),
        exponent_range=draw(st.one_of(_window, _pinpoint)),
        coeff_range=draw(st.one_of(_window, _pinpoint)),
    )


@given(sampler_configs(), st.integers(0, 2**32))
def test_sampler_matches_randint_reference(cfg, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(50):
        got, expected = _outcome(ps_sample, cfg, rng), _outcome(_reference_sample, cfg, ref)
        assert got == expected
        if isinstance(got, PuiseuxSeries):
            assert all(type(x) is Fraction for term in got.terms for x in term)
    assert rng.getstate() == ref.getstate()


@given(sampler_configs(), st.integers(0, 2**32))
def test_sampler_config_identity_survives_copies(cfg, seed):
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(SamplerConfig)}
    assert list(fields) == [
        "max_terms", "exponent_denominator_bound", "exponent_range", "coeff_range", "seed",
    ]
    fresh = SamplerConfig(**fields)
    assert fresh == cfg and hash(fresh) == hash(cfg) and repr(fresh) == repr(cfg)
    for copy in (pickle.loads(pickle.dumps(cfg)), dataclasses.replace(cfg, seed=seed)):
        expected = SamplerConfig(**{**fields, "seed": copy.seed})
        assert copy == expected and hash(copy) == hash(expected)
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(10):
            assert _outcome(ps_sample, copy, rng) == _outcome(ps_sample, expected, ref)
        assert rng.getstate() == ref.getstate()
        assert _outcome(ps_sample, copy) == _outcome(ps_sample, expected)


def test_sampler_reference_covers_fallback_and_empty_grid():
    # the fallback: no multiple of 1/2 lies in [1/5, 1/4], but 1/4 does
    narrow = SamplerConfig(exponent_denominator_bound=4,
                           exponent_range=(Fraction(1, 5), Fraction(1, 4)))
    rng, ref = random.Random(3), random.Random(3)
    for _ in range(50):
        assert ps_sample(narrow, rng) == _reference_sample(narrow, ref)
    assert rng.getstate() == ref.getstate()
    # no grid point at all, and a coefficient range of only zero
    for cfg, message in [
        (SamplerConfig(exponent_denominator_bound=6,
                       exponent_range=(Fraction(1, 7), Fraction(1, 7))), "grid is empty"),
        (SamplerConfig(coeff_range=(Fraction(0), Fraction(0))), "only zero"),
    ]:
        rng, ref = random.Random(4), random.Random(4)
        with pytest.raises(ValueError, match=message):
            _reference_sample(cfg, ref)
        with pytest.raises(ValueError, match=message):
            ps_sample(cfg, rng)
        assert rng.getstate() == ref.getstate()


def test_sampler_wide_window_matches_reference_with_bounded_memo():
    cfg = SamplerConfig(exponent_range=(-10**6, 10**6), exponent_denominator_bound=1000)
    rng, ref = random.Random(7), random.Random(7)
    for _ in range(200):
        assert ps_sample(cfg, rng) == _reference_sample(cfg, ref)
    assert rng.getstate() == ref.getstate()
    info = _fraction.cache_info()
    assert 0 < info.maxsize <= 256 and info.currsize <= info.maxsize


# Signed values to pin: valuations inside the exponent windows of
# sampler_configs and far outside them.
_pins = st.builds(
    SignedTropVal,
    st.sampled_from([-1, 1]),
    st.fractions(min_value=-40, max_value=40, max_denominator=9),
)


@given(sampler_configs(), st.lists(_pins, min_size=1, max_size=10), st.integers(0, 2**32))
def test_pinned_build_tropicalizes_to_the_pin_and_keeps_the_draw(cfg, pins, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for c in pins:
        try:
            draw = ps_draw(cfg, rng)
        except ValueError:
            with pytest.raises(ValueError):
                ps_draw(cfg, ref)
            break
        assert draw == ps_draw(cfg, ref)
        pinned, free = ps_build(draw, lead=c), ps_build(draw)
        assert pinned.signed_trop() == c
        exps = [e for e, _ in pinned.terms]
        assert all(a < b for a, b in zip(exps, exps[1:]))
        assert all(k != 0 for _, k in pinned.terms)
        assert all(type(x) is Fraction for term in pinned.terms for x in term)
        # the same gaps above the lead, the same tail, the lead's magnitude
        free_exps = [e for e, _ in free.terms]
        assert [e - exps[0] for e in exps] == [e - free_exps[0] for e in free_exps]
        assert pinned.terms[1:] == tuple(
            (e - free_exps[0] + c.val, k) for e, k in free.terms[1:]
        )
        assert abs(pinned.terms[0][1]) == abs(free.terms[0][1])
        assert rng.getstate() == ref.getstate()
