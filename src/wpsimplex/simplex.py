"""The two-parameter family of reflexive lattice simplices.

A member is determined by integers r1 >= 2 and x1 >= 1.  Its weight
vector q lives in Z^d with d = x1 + r1 - 1 and reads

    q = (r1, ..., r1, 1 + r1*x1, ..., 1 + r1*x1)

with r1 repeated x1 times and 1 + r1*x1 repeated r1 - 1 times.  The
simplex is the convex hull of the d standard basis vectors together with
-q.  Every entry of q divides 1 + sum(q), which makes the simplex
reflexive; its normalized volume is N = r1 * (x1*r1 + 1).

This module builds q, the facet inequalities, and the closed-form list
of all lattice points of the simplex.  An independent walk over the
slices of the dilates, each checked whole against the facet
inequalities, counts the points of a dilate without listing them.  Its
t = 1 count cross-checks that list, whose points pass the walk's own
row check, and the h* check reads the same count: a point walks t = 1
once.  The walk's frame, built from the facet rows, is kept for the
point.  A slice's lower bounds are constant on the coordinates that
share a facet denominator, so the walk and its row check read a slice
per denominator group, two numbers here, and a point is checked as a
member of its slice, one row check per distinct coordinate sum.  All
arithmetic is exact: plain Python integers throughout, so overflow
cannot occur.

The enumeration budget has one source, the environment variable
``WPSIMPLEX_ENUM_BUDGET``, read on every call by ``resolve_enum_budget``;
no function takes a budget argument.  Work counted before it runs is
charged against it by ``charge``; the slice walk, whose total is known
only as it walks, charges its running count by ``_charge_walk``, and a
kept count charges its walk's steps again on every read.  The facet
functionals' values and tightness profiles at a point, lemma checks for
the tests, and the lister of a dilate's points over the same walk, the
tests' oracle, live in ``wpsimplex.oracles``.
"""

import os
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import compress
from math import comb
from operator import ge, mul
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


def charge(steps: int, what: str) -> None:
    """Raise BudgetExceeded when ``steps``, counted before the work runs,
    exceed the enumeration budget; ``what`` names them in the message."""
    limit = resolve_enum_budget()
    if steps > limit:
        raise BudgetExceeded(f"{what} exceed the budget {limit}")


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
    """Ordered, labelled lattice point list of the simplex, as
    ``lattice_points_formula(q)`` builds it; the caller keeps q.

    Columns come in two blocks: a1..a{r1+3} (the collinear interior ray
    from -q down to the origin, plus its two generators), then b1..bd
    (the standard basis vectors, in reversed coordinate order:
    bj = e_{d-j+1}).
    """

    labels: tuple[str, ...]
    columns: tuple[tuple[int, ...], ...]

    @property
    def homogenized(self) -> tuple[tuple[int, ...], ...]:
        """Each column extended by a final coordinate 1."""
        return tuple(col + (1,) for col in self.columns)


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


@lru_cache(maxsize=1)
def h_description(q: QVector) -> tuple[tuple[int, ...], ...]:
    """The d + 1 irredundant facet functionals, each read as
    ``functional(p) <= 1``.

    For 1 <= k <= x1 the k-th has coefficient -x1*r1 at position k and 1
    elsewhere; for x1 + 1 <= k <= d it has -(r1 - 1) at position k and 1
    elsewhere; the last one is all ones.
    """
    r1, x1, d = q.r1, q.x1, q.d
    diagonal = (-x1 * r1,) * x1 + (-(r1 - 1),) * (r1 - 1)
    return tuple(
        (1,) * k + (coeff,) + (1,) * (d - 1 - k) for k, coeff in enumerate(diagonal)
    ) + ((1,) * d,)


@lru_cache(maxsize=1)
def _walk_frame(rows: tuple[tuple[int, ...], ...]) -> tuple:
    """The slice walk's frame for the facet rows ``rows``, built once per
    point: the distinct denominators D_k, how many coordinates share
    each, each coordinate's denominator slot, and ``fits(low, r, t)``,
    the whole-slice row check.  Keyed on the rows, not on q, so rows
    swapped in for a test get a frame of their own.

    A slice's lows are constant on the coordinates that share a
    denominator, so the walk reads a slice as its per-denominator
    ``low`` (two entries here), and the frame folds each row into its
    sums over the groups and its largest entry; rows that fold alike
    are checked once, three folded rows here.

    ``fits`` holds when no row exceeds t on the slice: a row's maximum
    there is row . lows + r*max(row), taken at lows + r*e_j for a j
    where the row is largest, and row . lows is its group sums . low,
    O(groups) per folded row.
    """
    d = len(rows) - 1
    denoms = [1 - rows[k][k] for k in range(d)]
    distinct = sorted(set(denoms))
    counts = [denoms.count(dk) for dk in distinct]
    slot = [distinct.index(dk) for dk in denoms]
    masks = [tuple(map(g.__eq__, slot)) for g in range(len(distinct))]
    folded = sorted({
        (tuple(sum(compress(row, mask)) for mask in masks), max(row))
        for row in rows
    })

    def fits(low: list[int], remaining: int, t: int) -> bool:
        for sums, top in folded:
            if sum(map(mul, sums, low)) + remaining * top > t:
                return False
        return True

    return distinct, counts, slot, fits


@lru_cache(maxsize=1)
def lattice_points_formula(q: QVector) -> PointConfiguration:
    """The closed-form list of all r1 + d + 3 lattice points.

    a_{r1+1} = inner = ((-1)^x1, (-x1)^(r1-1)), a_{r1+2} = step =
    (0^x1, (-1)^(r1-1)), a_{r1+3} = 0, a_i = (r1-i+1)*inner + step for
    i <= r1 (so a_1 = -q), and b_j = e_{d-j+1}.  Each a-column is
    written by blocks from its coefficients m on inner and s on step,
    and each b-column as zeros around its unit entry.
    """
    r1, x1, d = q.r1, q.x1, q.d
    # m * inner + s * step is -m on the first x1 coordinates and
    # -(x1*m + s) on the other r1 - 1; b_j has its 1 at index d - j
    ray = [(m, 1) for m in range(r1, 0, -1)] + [(1, 0), (0, 1), (0, 0)]
    cols = tuple((-m,) * x1 + (-x1 * m - s,) * (r1 - 1) for m, s in ray) + tuple(
        (0,) * (d - j) + (1,) + (0,) * (j - 1) for j in range(1, d + 1)
    )
    labels = tuple(f"a{i}" for i in range(1, r1 + 4)) + tuple(
        f"b{j}" for j in range(1, d + 1)
    )
    return PointConfiguration(labels=labels, columns=cols)


def within_dilate(q: QVector, points: Iterable[tuple[int, ...]], t: int) -> bool:
    """True when every point lies in a slice of the t-fold dilate that
    passes the slice walk's row check: with s = sum(p) <= t, p >= the
    lows of slice s componentwise, and that slice fits.  A point that
    breaks a facet row lies in a slice whose maximum breaks it too, so
    this is the walk's one row check, run once per distinct sum."""
    distinct, counts, slot, fits = _walk_frame(h_description(q))
    slices: dict[int, tuple[int, ...] | None] = {}
    for p in points:
        s = sum(p)
        if s not in slices:
            low = [-((t - s) // dk) for dk in distinct]
            remaining = s - sum(map(mul, low, counts))
            inside = s <= t and remaining >= 0 and fits(low, remaining, t)
            slices[s] = tuple(map(low.__getitem__, slot)) if inside else None
        lows = slices[s]
        if lows is None or not all(map(ge, p, lows)):
            return False
    return True


def _charge_walk(steps: int, limit: int) -> None:
    """Raise BudgetExceeded when the slice walk's ``steps`` exceed
    ``limit``, the budget it read."""
    if steps > limit:
        raise BudgetExceeded(f"enumeration visited more than {limit} cells")


def _dilation_slices(q: QVector, t: int) -> Iterator[tuple[list[int], int]]:
    """The non-empty slices sum(p) = s of the t-fold dilate, each as
    (low, r): its points are lows + c for every c >= 0 with sum(c) = r,
    where lows gives coordinate k the entry low[slot[k]] of its
    denominator's group.

    Row k <= d reads sum(p) - D_k*p_k <= t with D_k = 1 - row_k[k], so a
    slice's points are those with p_k >= ceil((s - t)/D_k), the lows, and
    r = s - sum(lows).  The walk runs s from -t*sum(q) (the apex) up to
    t, one ceil division per distinct D_k (two here); from an empty slice
    (r < 0) it jumps over the empty run that follows, since r rises by
    one per slice and falls only where some s = t + 1 (mod D_k).  A
    slice costs O(groups): the lows are expanded to d coordinates only
    where a point is named or listed.

    Each slice is checked whole against the raw rows before it is
    yielded, by the frame's ``fits``, so a slip in that algebra cannot
    pass silently; a failure names the slice's worst point.

    The budget caps the steps: one per slice, plus C(r + d - 1, r) per
    non-empty slice, the points it holds, whether they are listed or
    counted; a whole walk charges t*N + 1 steps plus its points.
    Exceeding the budget raises BudgetExceeded.
    """
    if t < 0:
        raise ParameterOutOfRange(f"dilation factor must be >= 0, got {t}")
    rows = h_description(q)
    distinct, counts, slot, fits = _walk_frame(rows)
    limit = resolve_enum_budget()
    d = q.d

    visited = 0
    s, stop = -t * sum(q.entries), t + 1
    while s < stop:
        # ceil((s - t) / denom) with positive denom, once per denominator
        low = [-((t - s) // dk) for dk in distinct]
        remaining = s - sum(map(mul, low, counts))
        if remaining < 0:
            # every slice before the next s = t + 1 (mod D), where a
            # lower bound rises, and before s - remaining is empty too
            empty_to = min(
                s - remaining, stop, *[s + 1 + (t - s) % dk for dk in distinct]
            )
            visited += empty_to - s
            s = empty_to
        else:
            visited += 1 + comb(remaining + d - 1, remaining)
            s += 1
        _charge_walk(visited, limit)
        if remaining < 0:
            continue
        if not fits(low, remaining, t):
            lows = tuple(map(low.__getitem__, slot))
            row = next(row for row in rows
                       if sum(map(mul, row, lows)) + remaining * max(row) > t)
            point = list(lows)
            point[row.index(max(row))] += remaining
            raise InternalConsistency(
                f"slice enumeration emitted an infeasible point {tuple(point)}"
            )
        yield low, remaining


@lru_cache(maxsize=1)
def _walk_count(
    rows: tuple[tuple[int, ...], ...], q: QVector, t: int
) -> tuple[int, int]:
    """The points of the t-fold dilate, counted over the checked slices
    as C(r + d - 1, r) each, and the steps the walk charged: one per
    slice s, t*N + 1 of them, and each point.  Keyed on the facet rows
    the walk reads too, so rows swapped in for a test are walked."""
    points = sum(comb(r + q.d - 1, r) for _, r in _dilation_slices(q, t))
    return points, t * q.volume + 1 + points


def _dilation_count(q: QVector, t: int) -> int:
    """The points of the t-fold dilate, without listing them.

    The last count is kept with the steps its walk charged, and every
    read charges them against the budget read now, so a kept count
    passes, or exceeds the budget with the same message, exactly as a
    fresh walk would.  So the point check and the h* check share one
    t = 1 walk.
    """
    points, steps = _walk_count(h_description(q), q, t)
    _charge_walk(steps, resolve_enum_budget())
    return points
