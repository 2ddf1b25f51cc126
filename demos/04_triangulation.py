"""From squarefree leads to a certified regular unimodular triangulation.

The generator lead supports are the minimal non-faces of a simplicial
complex on the point columns; its maximal faces triangulate the simplex.
Unimodularity is an exact determinant check per facet, and regularity is
certified by one explicit weight vector whose lifted lower envelope
induces exactly these facets.
"""

from wpsimplex import (
    build_q,
    groebner_family,
    make_weight_certificate,
    triangulation_from_family,
    verify_unimodular,
)
from wpsimplex.oracles import regular_subdivision_bruteforce, regularity_check
from wpsimplex.toric import var_name

q = build_q(2, 2)
family = groebner_family(q)
tri = triangulation_from_family(family)

print(f"q = {q.entries}, d = {q.d}, N = {q.volume}")
print(f"\n{len(tri.facets)} facets (as variables):")
for facet, volume in zip(tri.facets, tri.volumes):
    names = ", ".join(var_name(p - 1, q.r1) for p in facet)
    print(f"  {{{names}}}  volume {volume}")

print(f"\nvolume sum = {sum(tri.volumes)} = N: "
      f"{verify_unimodular(tri, q)}")

certificate = make_weight_certificate(family)
print(f"\nlifting weights: {certificate.weights}")
print("facet-wise lower-envelope check:",
      regularity_check(tri, certificate, family.columns))

# In low dimension, recompute the subdivision from scratch and compare.
oracle = regular_subdivision_bruteforce(family.columns, certificate.weights)
print("from-scratch lower-envelope cells agree:", oracle == tri.facets)
