"""Numerator vector of the lattice-point counting polynomial.

The number of lattice points in the t-fold dilate of a simplex from this
family is a degree-d polynomial in t whose generating-series numerator
coefficients (the h*-vector) come from a closed-form floor-function
weight on residues b in [0, N).  The independent cross-check counts a
dilate's points, listing none, over the checked slices of the facet
inequalities (``simplex._dilation_slices``); the last count is kept, so
the point check's t = 1 walk serves the h* check too.  The point count
read off h*_1, a lemma check for the tests, lives in
``wpsimplex.oracles``.
"""

from functools import lru_cache
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
    """Tally the residue weights: coeffs[i] = #{b : weight(q, b) = i}."""
    coeffs = [0] * (q.d + 1)
    for b in range(q.volume):
        w = weight(q, b)
        if not 0 <= w <= q.d:
            raise InternalConsistency(f"weight {w} at b={b} outside [0, {q.d}]")
        coeffs[w] += 1
    return HStarVector(coeffs=tuple(coeffs))


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
