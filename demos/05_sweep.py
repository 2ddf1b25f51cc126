"""Run the whole verification pipeline over the default parameter grid.

Per point: lattice points vs. enumeration, h* consistency and dilation
counts, the family build, pi-balance and lex orientation, the
Groebner basis certified by the triangulation (the buchbergerPass flag,
which keeps its name but runs no S-pair), squarefree leads,
completeness at degree <= 3 as a smoke test, unimodular facets, and the
regularity certificate.
A check skipped over the enumeration budget shows as "skip" and does not
count as a pass.
"""

import time

from wpsimplex.pipeline import (
    DEFAULT_GRID_R1,
    DEFAULT_GRID_X1,
    evaluate_point,
    grid_points,
    point_flags,
    verdict,
)

MARKS = {True: "ok", False: "FAIL", None: "skip"}

grid = grid_points(DEFAULT_GRID_R1, DEFAULT_GRID_X1)
t0 = time.perf_counter()
outcomes = []
for i, (r1, x1) in enumerate(grid):
    entry = evaluate_point(r1, x1)
    flags = point_flags(entry)
    if i == 0:
        print(f"{'point':>8}  " + "  ".join(f"{f[:7]:>7}" for f in flags)
              + "   ms")
    marks = "  ".join(f"{MARKS[v]:>7}" for v in flags.values())
    print(f"({r1}, {x1})   {marks}  {sum(entry['timings'].values()):>4}")
    outcomes.extend(flags.values())

print(f"\noverall pass: {verdict(outcomes) is True} "
      f"({time.perf_counter() - t0:.1f}s for {len(grid)} points)")
