import pytest

from wpsimplex import simplex
from wpsimplex import (
    Classification,
    build_q,
    classify_2supported,
    enumerate_dilation_points,
    h_description,
    lattice_points_bruteforce,
    lattice_points_formula,
    tightness_profile,
)
from wpsimplex.errors import (
    BudgetExceeded,
    InternalConsistency,
    ParameterOutOfRange,
    PointOutsideSimplex,
)
from wpsimplex.oracles import facet_volume

from conftest import SMALL_GRID


def test_classify_family_a():
    assert classify_2supported((6, 25), (4, 5)) is Classification.FAMILY_A


def test_classify_family_b():
    assert classify_2supported((1, 2), (1, 3)) is Classification.FAMILY_B


def test_classify_neither():
    # r2 != 1 + r1*x1 = 3, and r1 != 1
    assert (
        classify_2supported((2, 5), (1, 1)) is Classification.NOT_REFLEXIVE_IDP
    )


def test_classify_is_total_on_junk():
    assert (
        classify_2supported((5, 2), (1, 1)) is Classification.NOT_REFLEXIVE_IDP
    )
    assert (
        classify_2supported((2, 5), (0, 1)) is Classification.NOT_REFLEXIVE_IDP
    )


def test_build_q_2_1():
    q = build_q(2, 1)
    assert q.entries == (2, 3)
    assert q.d == 2
    assert q.volume == 6


def test_build_q_6_4():
    q = build_q(6, 4)
    assert q.entries == (6, 6, 6, 6, 25, 25, 25, 25, 25)
    assert q.d == 9
    assert q.volume == 150


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_q_invariants(r1, x1):
    q = build_q(r1, x1)
    assert q.d == x1 + (r1 - 1)
    assert q.volume == r1 * (x1 * r1 + 1) == 1 + sum(q.entries)
    assert all(a <= b for a, b in zip(q.entries, q.entries[1:]))
    assert all(q.volume % e == 0 for e in q.entries)  # reflexivity
    big = 1 + r1 * x1
    assert q.entries.count(big) == r1 - 1
    assert set(q.entries) == {r1, big}


@pytest.mark.parametrize("r1,x1", [(1, 1), (2, 0), (0, 3), (2, -1)])
def test_build_q_rejects(r1, x1):
    with pytest.raises(ParameterOutOfRange):
        build_q(r1, x1)


def test_h_description_2_1():
    hd = h_description(build_q(2, 1))
    assert hd.functionals == ((-2, 1), (1, -1), (1, 1))
    assert hd.rhs == 1


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_h_description_on_unit_vectors(r1, x1):
    q = build_q(r1, x1)
    rows = h_description(q).functionals
    for j in range(q.d):
        e = tuple(1 if i == j else 0 for i in range(q.d))
        for k, row in enumerate(rows):
            value = sum(c * v for c, v in zip(row, e))
            if k == j:
                assert value < 1
            else:
                assert value == 1


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_h_description_on_minus_q(r1, x1):
    q = build_q(r1, x1)
    rows = h_description(q).functionals
    p = tuple(-e for e in q.entries)
    for k, row in enumerate(rows):
        value = sum(c * v for c, v in zip(row, p))
        if k < q.d:
            assert value == 1
        else:
            assert value == -sum(q.entries) < 1


def test_lattice_points_2_1():
    cfg = lattice_points_formula(build_q(2, 1))
    assert cfg.columns == (
        (-2, -3),
        (-1, -2),
        (-1, -1),
        (0, -1),
        (0, 0),
        (0, 1),
        (1, 0),
    )
    assert cfg.labels == ("a1", "a2", "a3", "a4", "a5", "b1", "b2")


def test_lattice_points_6_4_sample_columns():
    cfg = lattice_points_formula(build_q(6, 4))
    assert len(cfg.columns) == 18
    assert cfg.columns[6] == (-1, -1, -1, -1, -4, -4, -4, -4, -4)  # a7
    assert cfg.columns[8] == (0,) * 9  # a9
    assert cfg.columns[9] == (0, 0, 0, 0, 0, 0, 0, 0, 1)  # b1 = e9


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_point_list_structure(r1, x1):
    q = build_q(r1, x1)
    cfg = lattice_points_formula(q)
    assert len(cfg.columns) == r1 + q.d + 3
    assert len(set(cfg.columns)) == len(cfg.columns)
    assert cfg.columns[0] == tuple(-e for e in q.entries)  # a1 = -q
    # interior ray: consecutive a-columns differ by a_{r1+1}
    step = cfg.columns[r1]
    for i in range(r1 - 1):
        diff = tuple(
            a - b for a, b in zip(cfg.columns[i], cfg.columns[i + 1])
        )
        assert diff == step


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_formula_equals_bruteforce(r1, x1):
    q = build_q(r1, x1)
    assert set(lattice_points_formula(q).columns) == lattice_points_bruteforce(q)


def test_bruteforce_counts():
    assert len(lattice_points_bruteforce(build_q(2, 1))) == 7
    assert len(lattice_points_bruteforce(build_q(2, 2))) == 8


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_vertices_are_lattice_points(r1, x1):
    q = build_q(r1, x1)
    points = lattice_points_bruteforce(q)
    assert tuple(-e for e in q.entries) in points
    for j in range(q.d):
        assert tuple(1 if i == j else 0 for i in range(q.d)) in points


def test_bruteforce_budget():
    with pytest.raises(BudgetExceeded):
        lattice_points_bruteforce(build_q(4, 3), budget=5)


@pytest.mark.parametrize("r1,x1,t,total", [
    (2, 1, 1, 20),
    (2, 1, 2, 44),
    (3, 1, 2, 104),
    (3, 2, 2, 183),
    (6, 5, 2, 1328),
])
def test_dilation_budget_counts_slices_and_tree_nodes(r1, x1, t, total):
    # one step per slice plus C(r + d, d - 1) per slice with remainder
    # r >= 0: the node count of the tree that distributes r over d
    # coordinates, so the smallest passing budget is exactly the total
    q = build_q(r1, x1)
    points = enumerate_dilation_points(q, t)
    assert enumerate_dilation_points(q, t, budget=total) == points
    with pytest.raises(BudgetExceeded):
        enumerate_dilation_points(q, t, budget=total - 1)


def test_dilation_recheck_rejects_a_point_the_slices_emit(monkeypatch):
    # the slice bounds read only the diagonal of each row, so raising an
    # off-diagonal entry makes them emit points that the raised row
    # rejects: the re-check against the raw rows must catch one, also
    # right after the sound rows' enumeration was kept
    q = build_q(2, 1)
    enumerate_dilation_points(q, 1)
    rows = [list(row) for row in h_description(q).functionals]
    rows[0][1] += 1
    sabotaged = h_description(q)._replace(
        functionals=tuple(map(tuple, rows))
    )
    monkeypatch.setattr(simplex, "h_description", lambda _: sabotaged)
    with pytest.raises(InternalConsistency, match="infeasible point"):
        enumerate_dilation_points(q, 1)


@pytest.mark.parametrize("r1,x1", [(2, 1), (3, 2), (4, 1)])
def test_tightness_profiles(r1, x1):
    q = build_q(r1, x1)
    cfg = lattice_points_formula(q)
    d = q.d
    assert tightness_profile(q, cfg.columns[0]) == frozenset(range(1, d + 1))
    assert tightness_profile(q, cfg.columns[r1 + 2]) == frozenset()
    assert tightness_profile(q, cfg.columns[r1]) == frozenset(range(1, x1 + 1))
    middle = frozenset(range(x1 + 1, d + 1))
    for i in list(range(2, r1 + 1)) + [r1 + 2]:
        assert tightness_profile(q, cfg.columns[i - 1]) == middle
    for j in range(1, d + 1):
        expected = frozenset(range(1, d + 2)) - {d - j + 1}
        assert tightness_profile(q, cfg.columns[r1 + 2 + j]) == expected


def test_tightness_rejects_outside_point():
    q = build_q(2, 1)
    with pytest.raises(PointOutsideSimplex):
        tightness_profile(q, (1, 1))


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_vertex_simplex_has_normalized_volume_n(r1, x1):
    q = build_q(r1, x1)
    cfg = lattice_points_formula(q)
    columns = cfg.homogenized
    facet = (1,) + tuple(r1 + 3 + j for j in range(1, q.d + 1))
    assert facet_volume(columns, facet) == q.volume


def test_json_dict():
    cfg = lattice_points_formula(build_q(2, 1))
    payload = cfg.to_json_dict()
    assert payload["r1"] == 2 and payload["x1"] == 1 and payload["d"] == 2
    assert payload["columns"][0] == {"label": "a1", "coords": [-2, -3]}
    for entry in payload["columns"]:
        assert all(isinstance(v, int) for v in entry["coords"])
