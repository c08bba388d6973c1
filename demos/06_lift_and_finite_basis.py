"""Lifting tropical inequalities and cutting a target with finitely many.

A tropical inequality valid for a set can be realized by an actual
polynomial inequality on the set with exactly the prescribed
tropicalization; the negative terms just need a small enough positive
scale of unit magnitude.  Chaining complements of polyhedral unions,
polyhedron-to-polynomial conversion, and lifting produces a finite family
of valid inequalities whose tropical regions intersect back to a given
closed target: here, the single point that is the disk's tropicalization.
"""

from tropreal import (
    PolyK,
    SamplerConfig,
    TropPoly,
    finite_basis,
    get_scenario,
    lift_inequality,
    stv,
    trop_r,
)
from tropreal.polyhedra import complement_of_union, point_polyhedron, union_of


def poly_text(f: PolyK) -> str:
    return "  +  ".join(f"({c.text()}) * x^{list(e)}" for e, c in f.terms)


cfg = SamplerConfig(seed=7)
circle = get_scenario("circle")

F = TropPoly.from_terms(2, [((1, 0), stv(1, 0)), ((0, 0), stv(-1, 0))])
print(f"lifting {F.text()} >= 0 over the disk:")
res = lift_inequality(F, circle.description, (1, 1), cfg,
                      proposal=circle.proposal, n_samples=120)
print(f"  f = {poly_text(res.poly)}")
print(f"  epsilon = {res.epsilon}, verified on {res.samples_checked} samples "
      f"({res.certificate})")
print(f"  tropicalization preserved: {trop_r(res.poly) == F}")

T = union_of(2, [point_polyhedron((0, 0))])
print("\ncomplement of the origin splits into open pieces:")
for P in complement_of_union(T):
    print(f"  open piece with {len(P.rows)} strict constraints")

print("\nfinite basis for T = {(0,0)} over the disk:")
res = finite_basis(T, circle.description, (1, 1), cfg,
                   proposal=circle.proposal, n_samples=120)
for f in res.polys:
    print(f"  f = {poly_text(f):44s}   trop = {trop_r(f).text()}")
print(f"  intersection of the {len(res.polys)} regions equals T: verified")
