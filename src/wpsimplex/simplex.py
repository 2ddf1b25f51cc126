"""The two-parameter family of reflexive lattice simplices.

A member is determined by integers r1 >= 2 and x1 >= 1.  Its weight
vector q lives in Z^d with d = x1 + r1 - 1 and reads

    q = (r1, ..., r1, 1 + r1*x1, ..., 1 + r1*x1)

with r1 repeated x1 times and 1 + r1*x1 repeated r1 - 1 times.  The
simplex is the convex hull of the d standard basis vectors together with
-q.  Every entry of q divides 1 + sum(q), which makes the simplex
reflexive; its normalized volume is N = r1 * (x1*r1 + 1).

This module builds q, the facet inequalities, and the closed-form list
of all lattice points of the simplex, and provides an independent
brute-force enumerator used to cross-check that list.  All arithmetic
is exact: plain Python integers throughout, so overflow cannot occur.

The enumeration budget has one source, the environment variable
``WPSIMPLEX_ENUM_BUDGET``, read on every call by ``resolve_enum_budget``;
no function takes a budget argument.  The facet functionals' values and
tightness profiles at a point, lemma checks for the tests, live in
``wpsimplex.oracles``.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from operator import mul
from typing import NamedTuple

from .errors import BudgetExceeded, InternalConsistency, ParameterOutOfRange

#: Default cap on the number of steps an enumeration may take.
DEFAULT_ENUM_BUDGET = 10_000_000

#: Environment variable overriding the default enumeration budget.
ENUM_BUDGET_ENV = "WPSIMPLEX_ENUM_BUDGET"


def resolve_enum_budget() -> int:
    """The enumeration budget: the environment variable, read on every
    call, or the default when it is unset or empty.

    Raises ParameterOutOfRange unless the budget is a non-negative integer.
    """
    source = os.environ.get(ENUM_BUDGET_ENV, "")
    if not source:
        return DEFAULT_ENUM_BUDGET
    try:
        value = int(source)
    except ValueError:
        value = -1
    if value < 0:
        raise ParameterOutOfRange(
            f"the enumeration budget ({ENUM_BUDGET_ENV}) must be a "
            f"non-negative integer, got {source!r}"
        )
    return value


class QVector(NamedTuple):
    """Defining data of one member of the simplex family.

    ``entries`` is weakly increasing with exactly two distinct values
    r1 < 1 + r1*x1, the larger one occurring r1 - 1 times.  ``volume``
    is the normalized volume N = 1 + sum(entries) = r1 * (x1*r1 + 1).
    """

    r1: int
    x1: int
    d: int
    entries: tuple[int, ...]
    volume: int


class PointConfiguration(NamedTuple):
    """Ordered lattice point list of the simplex.

    Columns come in two blocks: a1..a{r1+3} (the collinear interior ray
    from -q down to the origin, plus its two generators), then b1..bd
    (the standard basis vectors, in reversed coordinate order:
    bj = e_{d-j+1}).
    """

    q: QVector
    labels: tuple[str, ...]
    columns: tuple[tuple[int, ...], ...]

    @property
    def homogenized(self) -> tuple[tuple[int, ...], ...]:
        """Each column extended by a final coordinate 1."""
        return tuple(col + (1,) for col in self.columns)

    def to_json_dict(self) -> dict:
        return {
            "r1": self.q.r1,
            "x1": self.q.x1,
            "d": self.q.d,
            "columns": [
                {"label": lab, "coords": list(col)}
                for lab, col in zip(self.labels, self.columns)
            ],
        }


def build_q(r1: int, x1: int) -> QVector:
    """Build the weight vector for parameters (r1, x1).

    Raises ParameterOutOfRange unless r1 >= 2 and x1 >= 1.
    """
    if r1 < 2 or x1 < 1:
        raise ParameterOutOfRange(f"need r1 >= 2 and x1 >= 1, got ({r1}, {x1})")
    big = 1 + r1 * x1
    entries = (r1,) * x1 + (big,) * (r1 - 1)
    volume = 1 + sum(entries)
    assert volume == r1 * big  # algebraic identity for this family
    return QVector(r1=r1, x1=x1, d=x1 + r1 - 1, entries=entries, volume=volume)


@lru_cache(maxsize=64)
def h_description(q: QVector) -> tuple[tuple[int, ...], ...]:
    """The d + 1 irredundant facet functionals, each read as
    ``functional(p) <= 1``.

    For 1 <= k <= x1 the k-th has coefficient -x1*r1 at position k and 1
    elsewhere; for x1 + 1 <= k <= d it has -(r1 - 1) at position k and 1
    elsewhere; the last one is all ones.
    """
    r1, x1, d = q.r1, q.x1, q.d
    rows = []
    for k in range(d):
        coeff = -x1 * r1 if k < x1 else -(r1 - 1)
        rows.append(tuple(coeff if j == k else 1 for j in range(d)))
    rows.append((1,) * d)
    return tuple(rows)


@lru_cache(maxsize=64)
def lattice_points_formula(q: QVector) -> PointConfiguration:
    """The closed-form list of all r1 + d + 3 lattice points.

    a_{r1+1} = inner = ((-1)^x1, (-x1)^(r1-1)), a_{r1+2} = step =
    (0^x1, (-1)^(r1-1)), a_{r1+3} = 0, a_i = (r1-i+1)*inner + step for
    i <= r1 (so a_1 = -q), and b_j = e_{d-j+1}.  Each column is built
    from its coefficients m on inner, s on step and its unit vector.
    """
    r1, x1, d = q.r1, q.x1, q.d
    inner = (-1,) * x1 + (-x1,) * (r1 - 1)
    step = (0,) * x1 + (-1,) * (r1 - 1)
    # (m, s, u): the column m * inner + s * step + e_u, where u = d
    # means no unit vector
    shapes = [(r1 - i + 1, 1, d) for i in range(1, r1 + 1)]
    shapes += [(1, 0, d), (0, 1, d), (0, 0, d)]
    shapes += [(0, 0, d - j) for j in range(1, d + 1)]
    cols = tuple(
        tuple(m * a + s * b + (t == u) for t, (a, b) in enumerate(zip(inner, step)))
        for m, s, u in shapes
    )
    labels = tuple(f"a{i}" for i in range(1, r1 + 4)) + tuple(
        f"b{j}" for j in range(1, d + 1)
    )
    return PointConfiguration(q=q, labels=labels, columns=cols)


def enumerate_dilation_points(q: QVector, t: int) -> frozenset[tuple[int, ...]]:
    """All integer points with every facet functional at most t.

    The inequality with index k <= d reads sum(p) - D_k*p_k <= t, where
    D_k = 1 - row_k[k] is read from the raw rows, so for a fixed
    coordinate sum s the feasible set is exactly { p : sum(p) = s, p_k >=
    ceil((s - t)/D_k) }.  The scan walks s from -t*sum(q) (the apex) up
    to t; the coordinates are grouped by denominator, so a slice costs
    one ceil division per distinct D_k (two for this family), and a
    slice whose lower bounds leave a remainder r = s - sum(lows) >= 0 is
    emitted as the lower bounds plus every multiset of r coordinate
    indices.  From an empty slice (r < 0) the scan jumps over the run of
    empty slices that follows it: r rises by one per slice and falls
    only where some s = t + 1 (mod D_k).  The slice lower bounds never
    leave the bounding box prod_i [-t*q_i, t].

    Every emitted point is re-verified against the raw inequalities, so
    a transcription slip in the slice algebra cannot pass silently.  Each
    row is read as the last row plus its nonzero differences from it,
    so every row's value row . p is computed exactly, in O(d) per point
    for this family, where each row differs from the last in one entry.

    The enumeration budget caps the number of steps: one per slice, plus
    one per node of the composition tree that distributes a slice's
    remainder r >= 0 over the d coordinates, which has C(r + d, d - 1)
    nodes.  Exceeding it raises BudgetExceeded.

    The last enumeration is kept, keyed on all it reads (q, the rows, t
    and the resolved budget), so the point check and the h* check share
    the t = 1 one; keeping only one set holds no t = 2 set of a sweep
    past the next point.
    """
    if t < 0:
        raise ParameterOutOfRange(f"dilation factor must be >= 0, got {t}")
    return _dilation_points(q, h_description(q), t, resolve_enum_budget())


@lru_cache(maxsize=1)
def _dilation_points(
    q: QVector, rows: tuple[tuple[int, ...], ...], t: int, limit: int
) -> frozenset[tuple[int, ...]]:
    """The enumeration of ``enumerate_dilation_points``."""
    d = q.d
    denoms = [1 - rows[k][k] for k in range(d)]
    distinct = sorted(set(denoms))
    counts = [denoms.count(dk) for dk in distinct]
    slot = [distinct.index(dk) for dk in denoms]

    # each row as the base row plus its differences from it; rows with at
    # most one difference are checked together, the others one by one
    base = rows[-1]
    cols: list[int] = []
    deltas: list[int] = []
    multi: list[list[tuple[int, int]]] = []
    for row in rows:
        diff = [(j, c - b) for j, (c, b) in enumerate(zip(row, base)) if c != b]
        if len(diff) > 1:
            multi.append(diff)
        else:
            j, delta = diff[0] if diff else (0, 0)
            cols.append(j)
            deltas.append(delta)

    visited = 0
    found: list[tuple[int, ...]] = []
    s, stop = -t * sum(q.entries), t + 1
    while s < stop:
        # ceil((s - t) / denom) with positive denom, once per denominator
        low = [-((t - s) // dk) for dk in distinct]
        remaining = s - sum(map(mul, low, counts))
        if remaining < 0:
            # every slice before the next s = t + 1 (mod D), where a
            # lower bound rises, and before s - remaining is empty too
            empty_to = min(
                s - remaining, stop, *(s + 1 + (t - s) % dk for dk in distinct)
            )
            visited += empty_to - s
            s = empty_to
        else:
            visited += 1 + comb(remaining + d, d - 1)
            s += 1
        if visited > limit:
            raise BudgetExceeded(f"enumeration visited more than {limit} cells")
        if remaining < 0:
            continue
        lows = list(map(low.__getitem__, slot))
        for combo in combinations_with_replacement(range(d), remaining):
            point = lows.copy()
            for i in combo:
                point[i] += 1
            p = tuple(point)
            value = sum(map(mul, base, p))
            worst = max(map(mul, deltas, map(p.__getitem__, cols)))
            if value + worst > t or any(
                value + sum(delta * p[j] for j, delta in diff) > t
                for diff in multi
            ):
                raise InternalConsistency(
                    f"slice enumeration emitted an infeasible point {p}"
                )
            found.append(p)
    return frozenset(found)


def lattice_points_bruteforce(q: QVector) -> frozenset[tuple[int, ...]]:
    """Independent oracle: enumerate the simplex's lattice points directly
    from the facet inequalities, without using the closed-form list."""
    return enumerate_dilation_points(q, 1)
