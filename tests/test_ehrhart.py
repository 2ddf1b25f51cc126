import pytest

from wpsimplex import (
    build_q,
    ehrhart_bruteforce,
    ehrhart_value,
    hstar,
    lattice_points_formula,
    weight,
)
from wpsimplex.errors import BudgetExceeded, IndexOutOfRange, ParameterOutOfRange
from wpsimplex.oracles import lattice_point_count_from_h1

from conftest import SMALL_GRID


def test_weight_values_2_1():
    q = build_q(2, 1)
    assert weight(q, 0) == 0
    assert weight(q, 3) == 1  # 3 - 1*(3//3) - 1*(3//2)
    assert weight(q, 5) == 2  # 5 - 1 - 2


def test_weight_domain():
    q = build_q(2, 1)
    with pytest.raises(IndexOutOfRange):
        weight(q, -1)
    with pytest.raises(IndexOutOfRange):
        weight(q, q.volume)


def test_hstar_2_1():
    assert hstar(build_q(2, 1)).coeffs == (1, 4, 1)


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_hstar_invariants(r1, x1):
    q = build_q(r1, x1)
    h = hstar(q)
    assert len(h.coeffs) == q.d + 1
    assert h.coeffs[0] == 1
    assert h.coeffs[1] == r1 + 2
    assert sum(h.coeffs) == q.volume
    assert h.is_unimodal()


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_weight_quotient_remainder_identity(r1, x1):
    # splitting b = alpha*(1 + x1*r1) + beta collapses the weight to a
    # single floor term in alpha + beta
    q = build_q(r1, x1)
    period = 1 + x1 * r1
    for alpha in range(r1):
        for beta in range(period):
            expected = alpha + beta - (r1 - 1) * ((alpha + beta) // r1)
            assert weight(q, alpha * period + beta) == expected


def test_count_from_h1():
    assert lattice_point_count_from_h1(build_q(2, 1)) == 7
    assert lattice_point_count_from_h1(build_q(6, 4)) == 18
    assert lattice_point_count_from_h1(build_q(3, 1)) == 9


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_count_from_h1_matches_point_list(r1, x1):
    q = build_q(r1, x1)
    assert lattice_point_count_from_h1(q) == len(lattice_points_formula(q).columns)


def test_ehrhart_value_2_1():
    h = hstar(build_q(2, 1))
    assert [ehrhart_value(h, t) for t in range(4)] == [1, 7, 19, 37]


def test_ehrhart_value_rejects_negative():
    with pytest.raises(ParameterOutOfRange):
        ehrhart_value(hstar(build_q(2, 1)), -1)


def test_ehrhart_bruteforce_2_1():
    q = build_q(2, 1)
    assert ehrhart_bruteforce(q, 1) == 7
    assert ehrhart_bruteforce(q, 2) == 19


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_dilation_zero_is_origin_only(r1, x1):
    assert ehrhart_bruteforce(build_q(r1, x1), 0) == 1


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
@pytest.mark.parametrize("t", [1, 2])
def test_value_matches_bruteforce(r1, x1, t):
    q = build_q(r1, x1)
    assert ehrhart_value(hstar(q), t) == ehrhart_bruteforce(q, t)


def test_bruteforce_budget(monkeypatch):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        ehrhart_bruteforce(build_q(3, 2), 2)
