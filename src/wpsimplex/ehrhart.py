"""Numerator vector of the lattice-point counting polynomial.

The number of lattice points in the t-fold dilate of a simplex from this
family is a degree-d polynomial in t whose generating-series numerator
coefficients (the h*-vector) come from a closed-form floor-function
weight on residues b in [0, N).  A brute-force dilation counter built on
the facet inequalities serves as the independent cross-check.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import IndexOutOfRange, InternalConsistency, ParameterOutOfRange
from .simplex import QVector, enumerate_dilation_points


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

    def to_json_list(self) -> list[int]:
        return list(self.coeffs)


def weight(q: QVector, b: int) -> int:
    """The residue weight b - x1*floor(b/(1+x1*r1)) - (r1-1)*floor(b/r1).

    Defined for 0 <= b <= N(q) - 1; anything else raises IndexOutOfRange.
    """
    if not 0 <= b < q.volume:
        raise IndexOutOfRange(f"b must lie in [0, {q.volume - 1}], got {b}")
    r1, x1 = q.r1, q.x1
    return b - x1 * (b // (1 + x1 * r1)) - (r1 - 1) * (b // r1)


@lru_cache(maxsize=None)
def hstar(q: QVector) -> HStarVector:
    """Tally the residue weights: coeffs[i] = #{b : weight(q, b) = i}."""
    coeffs = [0] * (q.d + 1)
    for b in range(q.volume):
        w = weight(q, b)
        if not 0 <= w <= q.d:
            raise InternalConsistency(f"weight {w} at b={b} outside [0, {q.d}]")
        coeffs[w] += 1
    return HStarVector(coeffs=tuple(coeffs))


def lattice_point_count_from_h1(q: QVector) -> int:
    """Lattice point count of the simplex recovered from the linear
    coefficient: h*_1 + d + 1, which equals r1 + d + 3 for this family."""
    return hstar(q).coeffs[1] + q.d + 1


def ehrhart_value(h: HStarVector, t: int) -> int:
    """Number of lattice points in the t-fold dilate:
    sum_i h*_i * C(t + d - i, d)."""
    if t < 0:
        raise ParameterOutOfRange(f"dilation factor must be >= 0, got {t}")
    d = h.d
    return sum(c * comb(t + d - i, d) for i, c in enumerate(h.coeffs))


def ehrhart_bruteforce(q: QVector, t: int, budget: int | None = None) -> int:
    """Independent oracle: count points of the t-fold dilate by scanning
    the scaled facet inequalities."""
    return len(enumerate_dilation_points(q, t, budget))
