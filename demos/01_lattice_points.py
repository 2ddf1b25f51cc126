"""Build a simplex from the family and list its lattice points.

The simplex for parameters (r1, x1) is the convex hull of the standard
basis vectors and -q, where q repeats r1 x1 times and 1 + r1*x1 exactly
r1 - 1 times.  Its lattice points come in a fixed pattern: a ray of
collinear interior points from -q to the origin, two extra generators,
and the basis vectors.
"""

from wpsimplex import build_q, h_description, lattice_points_formula
from wpsimplex.oracles import enumerate_dilation_points, tightness_profile

q = build_q(6, 4)
print(f"q = {q.entries}")
print(f"dimension d = {q.d}, normalized volume N = {q.volume}")

# The point list as a labelled matrix (columns are points).
cfg = lattice_points_formula(q)
print(f"\n{len(cfg.columns)} lattice points (columns):")
print("      " + "  ".join(f"{lab:>4}" for lab in cfg.labels))
for t in range(q.d):
    row = "  ".join(f"{col[t]:>4}" for col in cfg.columns)
    print(f"row {t + 1} {row}")

# The facet inequalities all have right-hand side 1.
rows = h_description(q)
print(f"\n{len(rows)} facet inequalities, e.g. the first:")
print(" ", rows[0], "<= 1")

# Independent cross-check: enumerate points straight from the inequalities.
brute = enumerate_dilation_points(q, 1)
print(f"\nbrute-force enumeration finds {len(brute)} points;",
      "sets agree:" , set(cfg.columns) == brute)

# Which inequalities are tight at a few interesting points?
for label, point in [("a1 (= -q)", cfg.columns[0]),
                     ("a7", cfg.columns[6]),
                     ("a9 (origin)", cfg.columns[8])]:
    print(f"tight inequalities at {label}: "
          f"{sorted(tightness_profile(q, point)) or 'none'}")
