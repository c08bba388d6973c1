"""Finite Puiseux series: the exact ordered field under everything else.

Series in an infinitesimal t with rational coefficients and exponents form
an ordered field; t itself is positive but smaller than every positive
rational.  The signed value of a series reads off its leading term, and
that map is what tropicalization applies coordinatewise.
"""

from fractions import Fraction

from tropreal import PuiseuxSeries, SamplerConfig, parse_puiseux, ps_sample

t = PuiseuxSeries.t_power(1)
half = PuiseuxSeries.const(Fraction(1, 2))

print("t is a positive infinitesimal:")
print(f"  0 < t ?        {PuiseuxSeries.zero() < t}")
print(f"  t < 1/2 ?      {t < half}")
print(f"  t < 1/10^9 ?   {t < PuiseuxSeries.const(Fraction(1, 10**9))}")

print("\narithmetic is exact and normal forms are unique:")
a = parse_puiseux("2 - 1/3*t^(1/2) + t^2")
b = parse_puiseux("1/3*t^(1/2)")
print(f"  a       = {a.text()}")
print(f"  a + b   = {(a + b).text()}")
print(f"  a * t   = {(a * t).text()}")

print("\nsigned values read the leading term:")
for s in [a, -a * t, PuiseuxSeries.zero(), parse_puiseux("-3*t^(-1) + 5")]:
    print(f"  {s.text():24s} -> {s.signed_trop()}")

print("\ncomparison happens through the sign of the difference:")
huge = parse_puiseux("t^(-2)")
print(f"  -t^(-2) < 1000 ?  {(-huge) < PuiseuxSeries.const(1000)}")

print("\nthe sampler draws from a rational grid, stratified over valuations:")
cfg = SamplerConfig(seed=12)
import random

rng = random.Random(cfg.seed)
for _ in range(5):
    s = ps_sample(cfg, rng)
    print(f"  {s.text():34s} valuation {s.val()}")
