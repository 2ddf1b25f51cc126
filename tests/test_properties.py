"""Property tests: the elimination kernel against the Leibniz
determinant, and the normal form and the standard monomials against
plain ``Monomial.divides``."""

from itertools import combinations_with_replacement, permutations
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from wpsimplex import (
    Monomial,
    build_q,
    groebner_family,
    normal_form,
    pi_image,
    standard_monomials,
)
from wpsimplex.triangulation import _eliminate

PARAMS = st.tuples(st.integers(2, 4), st.integers(1, 3))


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


@st.composite
def square_systems(draw):
    """An n x n integer matrix with a right-hand side; about half are
    made singular by overwriting the last row with a combination of the
    others."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        mult = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows[-1] = [
            sum(m * row[j] for m, row in zip(mult, rows)) for j in range(n)
        ]
    rhs = draw(st.lists(entry, min_size=n, max_size=n))
    return [tuple(row) for row in rows], tuple(rhs)


@settings(max_examples=300, deadline=None)
@given(square_systems())
def test_elimination_matches_leibniz(system):
    rows, rhs = system
    det = _leibniz_det(rows)
    assert _eliminate([list(row) for row in rows]) == (det, ())
    got, scaled = _eliminate([[*row, b] for row, b in zip(rows, rhs)])
    assert got == det
    if det:
        # scaled = det * c with c . row_p = rhs_p for every row
        for row, b in zip(rows, rhs):
            assert sum(c * a for c, a in zip(scaled, row)) == det * b
    else:
        assert scaled == ()


@st.composite
def monomials(draw, max_exponent=2):
    r1, x1 = draw(PARAMS)
    family = groebner_family(build_q(r1, x1))
    exps = draw(
        st.lists(
            st.integers(0, max_exponent),
            min_size=family.nvars,
            max_size=family.nvars,
        )
    )
    return family, Monomial(exps)


def _divisible_by_a_lead(m, family):
    return any(g.lead.divides(m) for g in family.generators)


@settings(max_examples=150, deadline=None)
@given(monomials())
def test_normal_form_keeps_image_and_is_standard_and_idempotent(case):
    family, m = case
    nf = normal_form(m, family)
    assert pi_image(family.columns, nf) == pi_image(family.columns, m)
    assert not _divisible_by_a_lead(nf, family)
    assert normal_form(nf, family) == nf


@settings(max_examples=30, deadline=None)
@given(PARAMS, st.integers(0, 3))
def test_standard_monomials_equal_a_brute_filter(params, degree):
    family = groebner_family(build_q(*params))
    n = family.nvars
    brute = set()
    for combo in combinations_with_replacement(range(n), degree):
        m = Monomial(tuple(combo.count(v) for v in range(n)))
        if not _divisible_by_a_lead(m, family):
            brute.add(m)
    got = standard_monomials(family, degree)
    assert len(got) == len(set(got))
    assert set(got) == brute
