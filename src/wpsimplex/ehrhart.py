"""Numerator vector of the lattice-point counting polynomial.

The number of lattice points in the t-fold dilate of a simplex from this
family is a degree-d polynomial in t whose generating-series numerator
coefficients (the h*-vector) come from a closed-form floor-function
weight on residues b in [0, N), tallied by runs: the weight rises by one
per b between the jumps of its two floors, so each run fills a range of
coefficients at once.  The independent cross-check counts a
dilate's points, listing none, over the checked slices of the facet
inequalities (``simplex._dilation_slices``); the last count is kept, so
the point check's t = 1 walk serves the h* check too.  The point count
read off h*_1, a lemma check for the tests, and the tally one residue at
a time, the tests' oracle for the runs, live in ``wpsimplex.oracles``.
"""

from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import NamedTuple

from .errors import IndexOutOfRange, InternalConsistency, ParameterOutOfRange
from .simplex import QVector, _dilation_count


class HStarVector(NamedTuple):
    """Coefficients h*_0..h*_d; always h*_0 = 1 and sum = N(q)."""

    coeffs: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.coeffs) - 1

    def is_unimodal(self) -> bool:
        descended = False
        for a, b in zip(self.coeffs, self.coeffs[1:]):
            if b < a:
                descended = True
            elif b > a and descended:
                return False
        return True


def weight(q: QVector, b: int) -> int:
    """The residue weight b - x1*floor(b/(1+x1*r1)) - (r1-1)*floor(b/r1).

    Defined for 0 <= b <= N(q) - 1; anything else raises IndexOutOfRange.
    """
    if not 0 <= b < q.volume:
        raise IndexOutOfRange(f"b must lie in [0, {q.volume - 1}], got {b}")
    r1, x1 = q.r1, q.x1
    return b - x1 * (b // (1 + x1 * r1)) - (r1 - 1) * (b // r1)


@lru_cache(maxsize=1)
def hstar(q: QVector) -> HStarVector:
    """Tally the residue weights: coeffs[i] = #{b : weight(q, b) = i}.

    The floors in the weight jump only at the multiples of r1 and of
    1 + x1*r1, and between jumps the weight rises by one per b, so each
    run of b adds one to a contiguous range of coefficients, kept in a
    difference array: O(N/r1 + N/(1 + x1*r1) + d) steps, one ``weight``
    per run.  The range guard reads each run's ends and names the first
    b whose weight leaves [0, d].
    """
    d, n = q.d, q.volume
    starts = sorted({*range(0, n, q.r1), *range(0, n, 1 + q.x1 * q.r1)})
    rises = [0] * (d + 2)
    for b, end in zip(starts, starts[1:] + [n]):
        w = weight(q, b)
        last = w + end - b - 1
        if w < 0 or last > d:
            bad = b if not 0 <= w <= d else b + d + 1 - w
            raise InternalConsistency(
                f"weight {w + bad - b} at b={bad} outside [0, {d}]"
            )
        rises[w] += 1
        rises[last + 1] -= 1
    return HStarVector(coeffs=tuple(accumulate(rises[:-1])))


def ehrhart_value(h: HStarVector, t: int) -> int:
    """Number of lattice points in the t-fold dilate:
    sum_i h*_i * C(t + d - i, d)."""
    if t < 0:
        raise ParameterOutOfRange(f"dilation factor must be >= 0, got {t}")
    d = h.d
    return sum(c * comb(t + d - i, d) for i, c in enumerate(h.coeffs))


def ehrhart_bruteforce(q: QVector, t: int) -> int:
    """Independent oracle: the points of the t-fold dilate, counted from
    the checked slices as C(r + d - 1, r) each, without listing them.
    The last count is kept for a second reader, which is charged its
    walk's steps again (``simplex._dilation_count``)."""
    return _dilation_count(q, t)
