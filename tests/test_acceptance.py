"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact integer or rational arithmetic; there are no
tolerances anywhere.

Every criterion is expected to pass.
"""

import json
import time
from itertools import combinations
from math import comb

import pytest

from wpsimplex import (
    build_q,
    cli,
    ehrhart_bruteforce,
    ehrhart_value,
    excluded_pair_binomial,
    family_facets,
    groebner_family,
    hstar,
    lattice_points_formula,
    summarize_triangulation,
    verify_unimodular,
)
from wpsimplex.errors import BudgetExceeded
from wpsimplex.oracles import (
    SupportCase,
    buchberger_verify,
    dense_generators,
    enumerate_dilation_points,
    facet_volume,
    is_toric_member,
    make_weight_certificate,
    pi_image,
    regularity_check,
    standard_monomials,
    zsupport_shape,
)
from wpsimplex.pipeline import _minimal_leads_squarefree
from wpsimplex.toric import build_B, excluded_pair

from conftest import dense_binomial

GRID = [(r1, x1) for r1 in range(2, 7) for x1 in range(1, 6)]

# The 18-column lattice point matrix at (6, 4), row by row.
MATRIX_6_4 = [
    [-6, -5, -4, -3, -2, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [-6, -5, -4, -3, -2, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [-6, -5, -4, -3, -2, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [-6, -5, -4, -3, -2, -1, -1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [-25, -21, -17, -13, -9, -5, -4, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [-25, -21, -17, -13, -9, -5, -4, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [-25, -21, -17, -13, -9, -5, -4, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [-25, -21, -17, -13, -9, -5, -4, -1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [-25, -21, -17, -13, -9, -5, -4, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
]

FACETS_2_1 = (
    (1, 2, 3),
    (2, 3, 4),
    (3, 4, 5),
    (3, 5, 6),
    (4, 5, 7),
    (5, 6, 7),
)


def report(criterion, ok, detail):
    line = f"[criterion {criterion:>3}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def families():
    return {(r1, x1): groebner_family(build_q(r1, x1)) for r1, x1 in GRID}


@pytest.fixture(scope="module")
def triangulations(families):
    return {
        point: family_facets(family)
        for point, family in families.items()
    }


def test_criterion_01_lattice_points():
    t0 = time.perf_counter()
    for r1, x1 in GRID:
        q = build_q(r1, x1)
        cfg = lattice_points_formula(q)
        assert set(cfg.columns) == enumerate_dilation_points(q, 1), (r1, x1)
        assert len(cfg.columns) == r1 + q.d + 3, (r1, x1)
        assert len(set(cfg.columns)) == len(cfg.columns), (r1, x1)
    elapsed = time.perf_counter() - t0
    report(
        1,
        elapsed < 30.0,
        f"formula = enumeration and |points| = r1+d+3 on all {len(GRID)} "
        f"grid points in {elapsed:.2f}s (< 30s)",
    )


def test_criterion_02_example_matrix(capsys):
    code = cli.main(["points", "6", "4"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    columns = [c["coords"] for c in payload["columns"]]
    rows = [[col[t] for col in columns] for t in range(9)]
    with capsys.disabled():
        report(
            2,
            code == 0 and rows == MATRIX_6_4,
            "`points 6 4` reproduces the 18-column matrix bit-exactly",
        )


def test_criterion_03_hstar():
    skipped = []
    for r1, x1 in GRID:
        q = build_q(r1, x1)
        h = hstar(q)
        assert h.coeffs[0] == 1, (r1, x1)
        assert h.coeffs[1] == r1 + 2, (r1, x1)
        assert sum(h.coeffs) == q.volume == r1 * (x1 * r1 + 1), (r1, x1)
        for t in (1, 2):
            try:
                assert ehrhart_value(h, t) == ehrhart_bruteforce(q, t), (r1, x1, t)
            except BudgetExceeded:
                skipped.append((r1, x1, t))
    assert hstar(build_q(2, 1)).coeffs == (1, 4, 1)
    report(
        3,
        True,
        f"sum = N, h0 = 1, h1 = r1+2 on the grid; dilation counts match for "
        f"t in {{1,2}} ({len(skipped)} skipped over budget); (2,1) gives (1,4,1)",
    )


def test_criterion_04_family_construction(families):
    for (r1, x1), family in families.items():
        for g in dense_generators(family):
            assert sum(g.lead) == sum(g.tail), (r1, x1)
            assert is_toric_member(family.columns, g), (r1, x1)
        q = family.q
        assert excluded_pair(r1) not in build_B(r1)
        excluded = dense_binomial(excluded_pair_binomial(q), family.nvars)
        assert not is_toric_member(family.columns, excluded)
    report(
        4,
        True,
        "every generator is homogeneous and pi-balanced; the pair "
        "(r1, r1+2) is excluded and its literal binomial fails pi-balance",
    )


def test_criterion_05_buchberger(families):
    for point, family in families.items():
        rep = buchberger_verify(family)
        assert rep.passed, point
        assert rep.pairs_reduced_to_zero == rep.pairs_total, point
    t0 = time.perf_counter()
    rep = buchberger_verify(families[(2, 1)])
    elapsed = time.perf_counter() - t0
    report(
        5,
        rep.passed and elapsed < 1.0,
        f"all S-pairs reduce to zero on the grid; (2,1) runs {rep.pairs_total} "
        f"pairs over {len(families[(2, 1)].generators)} generators in "
        f"{elapsed * 1000:.0f}ms (< 1s)",
    )


def _minimal_non_faces(facets):
    """Minimal non-faces of the simplicial complex generated by ``facets``.

    A set is a face when some facet contains it; a minimal non-face is a
    non-face whose every proper subset is a face.  Such a set has at most
    one vertex more than the largest facet, so the scan stops there.
    """
    faces = {
        frozenset(sub)
        for f in facets
        for k in range(len(f) + 1)
        for sub in combinations(f, k)
    }
    vertices = sorted({v for f in facets for v in f})
    top = max(len(f) for f in facets) + 1
    return {
        frozenset(cand)
        for k in range(1, top + 1)
        for cand in combinations(vertices, k)
        if frozenset(cand) not in faces
        and all(frozenset(sub) in faces for sub in combinations(cand, k - 1))
    }


def test_criterion_05_pinned_small_case_counts(families):
    """Pinned (2, 1) counts: 9 generators and 36 S-pairs.

    For a fixed term order every minimal Groebner basis has as many
    elements as the initial ideal has minimal generators.  When that
    ideal is squarefree those generators are the minimal non-faces of
    the induced unimodular triangulation (Sturmfels, *Groebner Bases and
    Convex Polytopes*, 1996, ch. 8).  The six facets of FACETS_2_1 have
    exactly nine minimal non-faces, {1,4}, {1,5}, {1,6}, {1,7}, {2,5},
    {2,6}, {2,7}, {3,7} and {4,6}, and these are the supports of the
    nine lead monomials of the family, so the family has 9 generators
    and C(9, 2) = 36 S-pairs.  The reduced lex Groebner basis of I_A,
    computed independently by elimination in
    ``tests/test_groebner.py::test_sympy_oracle_2_1``, also has 9
    elements with the same leads.

    An earlier version of this test pinned 12 generators / 66 S-pairs.
    Those figures over-count the eq1 index pairs: taking every (i, j)
    with j - i >= 2 and j <= r1 + 3 while dropping the i <= r1 and
    j != r1 + 1 side conditions of ``build_B`` gives 6 pairs instead of
    3 at r1 = 2, hence 6 + 2 + 2 + 1 + 1 = 12.  The three extra pairs
    (1, 3), (2, 4) and (3, 5) have no companion binomial, and (2, 4) is
    the excluded pair, whose binomial is not pi-balanced.
    """
    family = families[(2, 1)]
    rep = buchberger_verify(family)
    non_faces = _minimal_non_faces(FACETS_2_1)
    lead_supports = {
        frozenset(v + 1 for v in g.lead) for g in family.generators
    }
    assert len(non_faces) == 9
    assert lead_supports == non_faces
    report(
        "5b",
        rep.passed
        and len(family.generators) == 9
        and rep.pairs_total == 36 == comb(9, 2),
        f"pinned counts say 9 generators / 36 S-pairs at (2,1), the 9 "
        f"minimal non-faces of its six facets; construction yields "
        f"{len(family.generators)} generators / {rep.pairs_total} S-pairs",
    )


def test_criterion_06_squarefree(families):
    for point, family in families.items():
        leads = [g.lead for g in family.generators]
        assert _minimal_leads_squarefree(leads), point
        for g in dense_generators(family):
            assert max(g.lead) <= 1, point
    report(6, True, "all lead monomials squarefree on the full grid")


def test_criterion_07_standard_monomial_completeness(families):
    checked = 0
    for (r1, x1), family in families.items():
        if family.nvars > 15:
            continue
        checked += 1
        h = hstar(family.q)
        for t in (1, 2, 3):
            std = standard_monomials(family, t)
            assert len(std) == ehrhart_value(h, t), (r1, x1, t)
            # one pi_image per monomial: the independent oracle for the
            # incremental pushforwards of injectivity_check
            images = {pi_image(family.columns, m) for m in std}
            assert len(images) == len(std), (r1, x1, t)
    fam21 = families[(2, 1)]
    counts = [len(standard_monomials(fam21, t)) for t in (1, 2, 3)]
    assert counts == [7, 19, 37]
    report(
        7,
        True,
        f"standard-monomial counts match dilation values for t <= 3 with "
        f"distinct pushforwards on {checked} grid points (n <= 15); "
        f"(2,1) counts are 7, 19, 37",
    )


def test_criterion_08_support_shapes(families):
    scanned = 0
    for point, family in families.items():
        q = family.q
        for t in (1, 2, 3):
            for m in standard_monomials(family, t):
                shape = zsupport_shape(m, q)
                assert shape.case is not SupportCase.VIOLATION, (point, m)
                if shape.case is not SupportCase.EMPTY:
                    scanned += 1
    report(
        8,
        True,
        f"all {scanned} standard monomials of degree <= 3 with nonempty "
        f"z-support classify into exactly one case; zero violations",
    )


def test_criterion_09_triangulation(families, triangulations):
    t0 = time.perf_counter()
    for point, family in families.items():
        facets = triangulations[point]
        q = family.q
        assert len(facets) == q.volume, point
        assert all(facet_volume(family.columns, f) == 1 for f in facets), point
        assert verify_unimodular(summarize_triangulation(family, facets), q), point
        cert = make_weight_certificate(family)
        assert regularity_check(family.columns, cert.weights, facets), point
    assert triangulations[(2, 1)] == FACETS_2_1
    elapsed = time.perf_counter() - t0
    report(
        9,
        elapsed < 120.0,
        f"facet count = N(q), all determinants +-1, regularity certified "
        f"on the grid in {elapsed:.2f}s (< 2min); (2,1) facets are exact",
    )


def test_criterion_10_sabotage_suite(capsys):
    family = groebner_family(build_q(2, 1))
    num_generators = len(family.generators)
    for k in range(num_generators):
        code = cli.main(["gb", "verify", "2", "1", "--sabotage-tail", str(k)])
        assert code == 2, f"sabotaged tail {k} must exit 2"
    code = cli.main(["gb", "verify", "2", "1", "--include-excluded-pair"])
    assert code == 2
    num_facets = 6
    for k in range(num_facets):
        code = cli.main(["triangulate", "2", "1", "--drop-facet", str(k)])
        assert code == 2, f"dropped facet {k} must exit 2"
    capsys.readouterr()
    with capsys.disabled():
        report(
            10,
            True,
            f"every tail mutation ({num_generators}), every facet drop "
            f"({num_facets}), and the excluded-pair injection exit with code 2",
        )
