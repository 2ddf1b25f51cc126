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
brute-force enumerator used to cross-check that list.  All arithmetic is
exact: plain Python integers throughout, so overflow cannot occur.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from operator import mul
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    InternalConsistency,
    ParameterOutOfRange,
    PointOutsideSimplex,
)

#: Default cap on the number of steps an enumeration may take.
DEFAULT_ENUM_BUDGET = 10_000_000

#: Environment variable overriding the default enumeration budget.
ENUM_BUDGET_ENV = "WPSIMPLEX_ENUM_BUDGET"


def resolve_enum_budget(budget: int | None = None) -> int:
    """Explicit argument wins, then the environment, then the default.

    Raises ParameterOutOfRange unless the budget is a non-negative integer.
    """
    source = os.environ.get(ENUM_BUDGET_ENV) if budget is None else budget
    if source in (None, ""):
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


class Classification(Enum):
    """Outcome of the two-supported reflexive-IDP membership test."""

    FAMILY_A = "FamilyA"  # r1 > 1 with r2 = 1 + r1*x1 and x2 = r1 - 1
    FAMILY_B = "FamilyB"  # r1 = 1 with r2 = 1 + x1, x2 arbitrary
    NOT_REFLEXIVE_IDP = "NotReflexiveIDP"


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


class HalfspaceDescription(NamedTuple):
    """Irredundant facet inequalities ``functional(p) <= rhs``.

    There are d + 1 functionals.  For 1 <= k <= x1 the k-th has
    coefficient -x1*r1 at position k and 1 elsewhere; for
    x1 + 1 <= k <= d it has -(r1 - 1) at position k and 1 elsewhere;
    the last one is all ones.
    """

    functionals: tuple[tuple[int, ...], ...]
    rhs: int = 1


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


def classify_2supported(r: tuple[int, int], x: tuple[int, int]) -> Classification:
    """Classify a 2-supported weight vector (r1^x1, r2^x2).

    Total function: anything that matches neither family pattern is
    reported as NOT_REFLEXIVE_IDP.  Only FAMILY_A is accepted by the
    constructors in this package.
    """
    r1, r2 = r
    x1, x2 = x
    if not (0 < r1 < r2) or x1 < 1 or x2 < 1:
        return Classification.NOT_REFLEXIVE_IDP
    if r1 > 1 and r2 == 1 + r1 * x1 and x2 == r1 - 1:
        return Classification.FAMILY_A
    if r1 == 1 and r2 == 1 + x1:
        return Classification.FAMILY_B
    return Classification.NOT_REFLEXIVE_IDP


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def h_description(q: QVector) -> HalfspaceDescription:
    """Facet inequalities of the simplex, all with right-hand side 1."""
    r1, x1, d = q.r1, q.x1, q.d
    rows = []
    for k in range(d):
        coeff = -x1 * r1 if k < x1 else -(r1 - 1)
        rows.append(tuple(coeff if j == k else 1 for j in range(d)))
    rows.append((1,) * d)
    return HalfspaceDescription(functionals=tuple(rows))


@lru_cache(maxsize=None)
def lattice_points_formula(q: QVector) -> PointConfiguration:
    """The closed-form list of all r1 + d + 3 lattice points.

    a_{r1+1} = ((-1)^x1, (-x1)^(r1-1)), a_{r1+2} = (0^x1, (-1)^(r1-1)),
    a_{r1+3} = 0, a_i = (r1-i+1)*a_{r1+1} + a_{r1+2} for i <= r1 (so
    a_1 = -q), and b_j = e_{d-j+1}.
    """
    r1, x1, d = q.r1, q.x1, q.d
    inner = (-1,) * x1 + (-x1,) * (r1 - 1)
    step = (0,) * x1 + (-1,) * (r1 - 1)
    cols: list[tuple[int, ...]] = []
    for i in range(1, r1 + 1):
        m = r1 - i + 1
        cols.append(tuple(m * a + b for a, b in zip(inner, step)))
    cols.append(inner)
    cols.append(step)
    cols.append((0,) * d)
    for j in range(1, d + 1):
        cols.append(tuple(1 if t == d - j else 0 for t in range(d)))
    labels = tuple(f"a{i}" for i in range(1, r1 + 4)) + tuple(
        f"b{j}" for j in range(1, d + 1)
    )
    return PointConfiguration(q=q, labels=labels, columns=tuple(cols))


def functional_values(q: QVector, p: tuple[int, ...]) -> tuple[int, ...]:
    """Evaluate all d + 1 facet functionals at p."""
    return tuple(
        sum(c * v for c, v in zip(row, p)) for row in h_description(q).functionals
    )


def tightness_profile(q: QVector, p: tuple[int, ...]) -> frozenset[int]:
    """Indices k (1-based) whose inequality p satisfies with equality.

    Raises PointOutsideSimplex if any functional exceeds 1.
    """
    values = functional_values(q, p)
    for k, val in enumerate(values, start=1):
        if val > 1:
            raise PointOutsideSimplex(
                f"functional {k} takes value {val} > 1 at {p}"
            )
    return frozenset(k for k, val in enumerate(values, start=1) if val == 1)


def enumerate_dilation_points(
    q: QVector, t: int, budget: int | None = None
) -> frozenset[tuple[int, ...]]:
    """All integer points with every facet functional at most t.

    The inequality with index k <= d reads sum(p) - D_k*p_k <= t, where
    D_k = 1 - row_k[k] is read from the raw rows, so for a fixed
    coordinate sum s the feasible set is exactly { p : sum(p) = s, p_k >=
    ceil((s - t)/D_k) }.  The scan walks s from -t*sum(q) (the apex) up
    to t; the coordinates are grouped by denominator, so a slice costs
    one ceil division per distinct D_k (two for this family), and a
    slice whose lower bounds leave a remainder r = s - sum(lows) >= 0 is
    emitted as the lower bounds plus every multiset of r coordinate
    indices.  The slice lower bounds never leave the bounding box
    prod_i [-t*q_i, t].

    Every emitted point is re-verified against the raw inequalities, so
    a transcription slip in the slice algebra cannot pass silently.  Each
    row is read as the last row plus its nonzero differences from it,
    so every row's value row . p is computed exactly, in O(d) per point
    for this family, where each row differs from the last in one entry.

    ``budget`` caps the number of enumeration steps: one per slice, plus
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
    return _dilation_points(
        q, h_description(q).functionals, t, resolve_enum_budget(budget)
    )


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
    for s in range(-t * sum(q.entries), t + 1):
        # ceil((s - t) / denom) with positive denom, once per denominator
        low = [-((t - s) // dk) for dk in distinct]
        remaining = s - sum(map(mul, low, counts))
        visited += 1 if remaining < 0 else 1 + comb(remaining + d, d - 1)
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


def lattice_points_bruteforce(
    q: QVector, budget: int | None = None
) -> frozenset[tuple[int, ...]]:
    """Independent oracle: enumerate the simplex's lattice points directly
    from the facet inequalities, without using the closed-form list."""
    return enumerate_dilation_points(q, 1, budget)
