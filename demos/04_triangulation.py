"""From squarefree leads to a certified regular unimodular triangulation.

The generator lead supports are the minimal non-faces of a simplicial
complex on the point columns; its maximal faces triangulate the simplex.
Unimodularity is an exact determinant check per facet, and regularity is
certified symbolically: every facet is a lower cell of the lex lift,
read by the sign rule of the circuits.  The oracles check the same
facets under the explicit weights M^(n-1), ..., M, 1 of the family's
lex certificate.
"""

from wpsimplex import (
    build_q,
    family_facets,
    groebner_family,
    summarize_triangulation,
    verify_unimodular,
)
from wpsimplex.oracles import (
    facet_volume,
    make_weight_certificate,
    regular_subdivision_bruteforce,
    regularity_check,
)
from wpsimplex.toric import var_name

q = build_q(2, 2)
family = groebner_family(q)
facets = family_facets(family)

print(f"q = {q.entries}, d = {q.d}, N = {q.volume}")
print(f"\n{len(facets)} facets (as variables):")
for facet in facets:
    names = ", ".join(var_name(p - 1, q.r1) for p in facet)
    print(f"  {{{names}}}  volume {facet_volume(family.columns, facet)}")

summary = summarize_triangulation(family, facets)
print(f"\nvolume sum = {summary.volume_sum} = N: "
      f"{verify_unimodular(summary, q)}")

certificate = make_weight_certificate(family)
print(f"\nlifting weights: {certificate.weights}")
print("walked lex lower-cell check:", summary.regular)
print("facet-wise lower-envelope check:",
      regularity_check(family.columns, certificate.weights, facets))

# In low dimension, recompute the subdivision from scratch and compare.
oracle = regular_subdivision_bruteforce(family.columns, certificate.weights)
print("from-scratch lower-envelope cells agree:", oracle == facets)
