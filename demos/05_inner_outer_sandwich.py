"""Sandwiching a tropicalization between witnessed samples and exact bounds.

The tropicalization of a semialgebraic set is not computed exactly in
general.  Instead: an inner cloud of tropical points, each carrying an
exact witness in the set, and an outer polyhedral region from the
tropicalized describing inequalities.  For conjunctions of weak
inequalities the outer region exceeds the truth only by a set with empty
interior, so full-dimensional outer pieces should all be witnessed.
"""

from tropreal import SamplerConfig, get_scenario, sa_sample_trop, sa_sandwich_check, witness_search
from tropreal.hyperfields import stv
from tropreal.semialg import outer_contains_point
from tropreal.troppoly import trop_point

cfg = SamplerConfig(seed=42)

circle = get_scenario("circle")
cloud = sa_sample_trop(circle.description, 4000, cfg)
print(f"disk: {len(cloud)} distinct tropical point(s) from 4000 generic attempts")
for z, w in cloud.items():
    print(f"  {z}   witness ({w[0].text()}, {w[1].text()})")

print("\nsandwich report for the disk:")
report = sa_sandwich_check(sa_sample_trop(circle.description, 2500, cfg,
                                          proposal=circle.proposal))
print(report.text())

cubic = get_scenario("cubic")
print("\nsandwich report for the cubic region:")
report = sa_sandwich_check(sa_sample_trop(cubic.description, 2500, cfg,
                                          proposal=cubic.proposal))
print(report.text())

print("\nwitness search pins the leading terms and randomizes tails:")
z = (stv(1, 0), stv(1, 0))
w = witness_search(circle.description, z, 4000, cfg)
print(f"  target {z}: witness ({w[0].text()}, {w[1].text()})")
assert trop_point(w) == z

z_far = (stv(1, 1), stv(1, 1))
print(f"  target {z_far}: excluded by the outer region? "
      f"{not outer_contains_point(circle.description, z_far)}")
print(f"  search result: {witness_search(circle.description, z_far, 500, cfg)}")
