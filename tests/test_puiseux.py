"""Exact series arithmetic, ordering, signed values, and the sampler."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropreal.errors import PuiseuxDivisionError
from tropreal.hyperfields import INF, Point, SignedTropVal, hv_contains, rt_add, rt_mul, stv
from tropreal.puiseux import (
    LEAD_BASE,
    _PLAN,
    PuiseuxSeries,
    SamplerConfig,
    _fraction,
    ps_build,
    ps_draw_tail,
    ps_lead_stream,
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


def test_sampler_valuations_in_range():
    rng = random.Random(99)
    for _ in range(1000):
        s = ps_sample(SamplerConfig(), rng)
        assert not s.is_zero() and len(s.terms) <= 3
        assert Fraction(-2) <= s.val() <= Fraction(2)
        for e, c in s.terms:
            assert -2 <= e <= 2 and e.denominator <= 2
            assert c != 0 and -4 <= c <= 4 and c.denominator <= 2


# The first 20 draws at seed 11, recorded when the lead came to be drawn
# before the number of terms (the reference sampler agrees).
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
# ps_lead_stream and ps_draw_tail draw: the lead exponent, the lead
# coefficient, the number of terms, then the tail.  Its grid is the one the
# puiseux docstring states: exponents k/q in [-2, 2] and coefficients k/q
# in [-4, 4] with q <= 2, and at most 3 terms.
def _grid_draw(rng, bound):
    q = rng.randint(1, 2)
    return Fraction(rng.randint(-bound * q, bound * q), q)


def _nonzero_coeff(rng):
    c = _grid_draw(rng, 4)
    while c == 0:
        c = _grid_draw(rng, 4)
    return c


def _reference_lead(rng):
    return _grid_draw(rng, 2), _nonzero_coeff(rng)


def _reference_tail(rng, lead):
    n_terms = rng.randint(1, 3)
    exps = {lead}
    for _ in range((n_terms - 1) * 4):
        if len(exps) >= n_terms:
            break
        e = _grid_draw(rng, 2)
        if e > lead:
            exps.add(e)
    return [(e, _nonzero_coeff(rng)) for e in sorted(exps - {lead})]


def _reference_sample(rng):
    """The lead exponent, its coefficient, the number of terms, then the tail."""
    lead = _reference_lead(rng)
    return PuiseuxSeries((lead, *_reference_tail(rng, lead[0])))


@given(st.integers(0, 2**32))
def test_sampler_matches_randint_reference(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(50):
        got = ps_sample(SamplerConfig(), rng)
        assert got == _reference_sample(ref)
        assert all(type(x) is Fraction for term in got.terms for x in term)
    assert rng.getstate() == ref.getstate()
    info = _fraction.cache_info()
    assert 0 < info.maxsize <= 256 and info.currsize <= info.maxsize


def test_lead_table_reads_each_raw_draw_as_the_reference_grid_does():
    # _grid_draw(rng, 2) takes q = randint(1, 2), then randint(-2q, 2q):
    # the raw draw i below 4q + 1 is the exponent (i - 2q)/q
    exponents = sorted({Fraction(k, q) for q in (1, 2) for k in range(-2 * q, 2 * q + 1)})
    assert len(exponents) == 9 and LEAD_BASE == 2 * 9 + 1
    _, _, dbound, _, windows, _ = _PLAN
    assert len(windows) == dbound
    for q, (n, bits, table) in enumerate(windows, start=1):
        assert n == 4 * q + 1 and bits == n.bit_length() and len(table) == n
        for i, (k, kq, code) in enumerate(table):
            e = Fraction(i - 2 * q, q)
            assert (k, kq) == (e.numerator, e.denominator)
            assert exponents[code] == e


def _signed_lead(lead):
    return None if lead is None else (1 if lead[2] > 0 else -1, Fraction(lead[0], lead[1]))


def test_lead_keys_give_each_signed_exponent_its_own_digit():
    rng = random.Random(3)
    digits = {}
    for (lead,), key in itertools.islice(ps_lead_stream(rng, 1, 0.1), 4000):
        signed = _signed_lead(lead)
        assert 0 <= key < LEAD_BASE
        assert (key == 0) == (lead is None)
        assert digits.setdefault(key, signed) == signed
    # every digit drawn, and no two digits for one signed exponent
    assert sorted(digits) == list(range(LEAD_BASE))
    assert len(set(digits.values())) == LEAD_BASE
    # a key of several coordinates is their digits, the first the most significant
    inverse = {signed: digit for digit, signed in digits.items()}
    for leads, key in itertools.islice(ps_lead_stream(rng, 3, 0.1), 500):
        expected = 0
        for lead in leads:
            expected = expected * LEAD_BASE + inverse[_signed_lead(lead)]
        assert key == expected


@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_sampler_config_identity_survives_copies(first, seed):
    cfg = SamplerConfig(seed=first)
    assert vars(cfg) == {"seed": first}
    fresh = SamplerConfig(seed=first)
    assert fresh == cfg and hash(fresh) == hash(cfg) and repr(fresh) == repr(cfg)
    other = SamplerConfig(seed=seed)
    for c in (pickle.loads(pickle.dumps(cfg)), copy.copy(other), copy.deepcopy(other),
              SamplerConfig(**vars(other))):
        expected = SamplerConfig(seed=c.seed)
        assert vars(c) == vars(expected)
        assert c == expected and hash(c) == hash(expected) and repr(c) == repr(expected)
        assert ps_sample(c) == ps_sample(expected)


# Signed values to pin: valuations inside the exponent window [-2, 2] and
# far outside it.
_pins = st.builds(
    SignedTropVal,
    st.sampled_from([-1, 1]),
    st.fractions(min_value=-40, max_value=40, max_denominator=9),
)


@given(st.lists(_pins, min_size=1, max_size=10), st.integers(0, 2**32))
def test_pinned_build_tropicalizes_to_the_pin_and_keeps_the_draw(pins, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    stream = ps_lead_stream(rng, 1, 0)
    for c in pins:
        # a lead from one stream, then its tail: the words of one ps_sample
        draw = ps_draw_tail(rng, next(stream)[0][0])
        pinned, free = ps_build(draw, lead=c), ps_build(draw)
        assert free == ps_sample(SamplerConfig(), ref)
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
