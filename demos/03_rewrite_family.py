"""The binomial rewrite family and its certificate.

Every generator is a relation of the homogenized point configuration
(both halves push forward identically).  The basis is certified by the
triangulation: pi-balanced generators whose squarefree leads induce a
regular unimodular triangulation form a lex Groebner basis, in every
degree (Sturmfels 1996, Thm 8.3 and Cor 8.9).  The all-pairs S-pair
reduction runs here as the independent oracle, and the standard-monomial
counts as a smoke test at the low degrees.
"""

from wpsimplex import (
    binomial_text,
    build_q,
    groebner_family,
    initial_ideal,
    injectivity_check,
    monomial_text,
)
from wpsimplex.oracles import buchberger_verify, normal_form, standard_monomials
from wpsimplex.pipeline import check_family, check_triangulation
from wpsimplex.toric import Monomial

q = build_q(3, 2)
family = groebner_family(q)
print(f"q = {q.entries}: {len(family.generators)} generators over "
      f"{family.nvars} variables\n")
for tag, g in zip(family.tags, family.generators):
    print(f"  [{tag:>7}] {binomial_text(g, q.r1)}")

print("\npair set with companions:")
for pair, comp in family.b_pairs:
    print(f"  {pair} -> {comp}")

ideal = initial_ideal(family)
print(f"\ninitial ideal: {len(ideal.generators)} minimal generators, "
      f"squarefree: {ideal.squarefree}")

stage = check_family(family, check_triangulation(family))
print(f"basis certified by the triangulation "
      f"({stage.report['num_facets']} unimodular facets): "
      f"{stage.flags['buchbergerPass']}")

report = buchberger_verify(family)
print(f"oracle, all S-pairs reduced to zero: "
      f"{report.pairs_reduced_to_zero}/{report.pairs_total}"
      f" -> {report.passed}")

print("counts of standard monomials per degree:",
      [len(standard_monomials(family, t)) for t in (1, 2, 3)])
print("smoke test, completeness at degree <= 3:", injectivity_check(family))

# A sample rewrite: the normal form of a non-standard monomial.
m = Monomial((1, 0, 1, 0, 1, 0, 0, 0, 0, 0))  # z1 * z3 * z5
print(f"\nnormal form of {monomial_text(m, q.r1)} is "
      f"{monomial_text(normal_form(m, family), q.r1)}")
