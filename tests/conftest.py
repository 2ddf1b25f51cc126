from itertools import combinations_with_replacement

import pytest

from wpsimplex import build_q, groebner_family, pi_image
from wpsimplex.ehrhart import ehrhart_value, hstar
from wpsimplex.oracles import _divisor, _prepared

# Small sweep used by the unit tests; the acceptance suite runs the full
# 2 <= r1 <= 6, 1 <= x1 <= 5 grid.
SMALL_GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 2), (6, 1)]


@pytest.fixture(scope="session")
def family21():
    return groebner_family(build_q(2, 1))


def without(family, k):
    """The family with generator k deleted."""
    return family._replace(
        generators=family.generators[:k] + family.generators[k + 1:],
        tags=family.tags[:k] + family.tags[k + 1:],
    )


def scanned_standard_monomials(family, degree):
    """Standard monomials by the plain scan: every monomial of the degree,
    in ``combinations_with_replacement`` order, kept when ``_divisor``
    finds no lead dividing it.  The oracle for the order-ideal
    enumeration."""
    n = family.nvars
    prepared = _prepared(family)
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for v in combo:
            exps[v] += 1
        if _divisor(exps, prepared) is None:
            out.append(tuple(exps))
    return out


def scanned_injectivity(family, max_degree=3):
    """The smoke test's verdict from the scan, one ``pi_image`` per
    standard monomial: per degree, the count against the dilation value,
    then distinct pushforwards."""
    h = hstar(family.q)
    for t in range(1, max_degree + 1):
        std = scanned_standard_monomials(family, t)
        if len(std) != ehrhart_value(h, t):
            return False
        if len({pi_image(family.columns, m) for m in std}) != len(std):
            return False
    return True
