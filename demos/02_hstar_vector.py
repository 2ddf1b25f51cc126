"""The h*-vector and lattice point counts of dilates.

The counting polynomial's numerator coefficients come from a closed-form
floor-function weight on residues 0 <= b < N, with no geometry involved;
the brute-force dilation counter then confirms the counts it predicts.
"""

from wpsimplex import (
    build_q,
    ehrhart_bruteforce,
    ehrhart_value,
    hstar,
    weight,
)
from wpsimplex.oracles import lattice_point_count_from_h1

q = build_q(3, 2)
print(f"q = {q.entries}, d = {q.d}, N = {q.volume}")

print("\nresidue weights:")
print("  b:", list(range(q.volume)))
print("  w:", [weight(q, b) for b in range(q.volume)])

h = hstar(q)
print(f"\nh* = {h.coeffs}")
print(f"sum of coefficients = {sum(h.coeffs)} (equals N)")
print(f"h*_1 = {h.coeffs[1]} (always r1 + 2; here {q.r1} + 2)")
print(f"unimodal: {h.is_unimodal()}")

count = lattice_point_count_from_h1(q)
print(f"\nlattice points recovered from h*_1: {count} (= r1 + d + 3)")

print("\ndilation counts, closed form vs. enumeration:")
for t in range(4):
    value = ehrhart_value(h, t)
    brute = ehrhart_bruteforce(q, t)
    print(f"  t = {t}: {value:>4} vs {brute:>4}  {'ok' if value == brute else 'MISMATCH'}")
