import random

import pytest

from wpsimplex import (
    Binomial,
    build_q,
    cli,
    family_facets,
    groebner_family,
    initial_complex,
    lattice_points_formula,
    summarize_triangulation,
    verify_unimodular,
)
from wpsimplex.errors import (
    BudgetExceeded,
    IndexOutOfRange,
    NonGraphSupport,
    NonPureComplex,
    ParameterOutOfRange,
    SingularFacet,
)
from wpsimplex.oracles import (
    DegenerateLift,
    DimensionMismatch,
    _maximal_faces,
    dense_generators,
    facet_volume,
    family_faces_closed_form,
    is_lower_cell,
    make_weight_certificate,
    regular_subdivision_bruteforce,
    regularity_check,
)
from wpsimplex import triangulation
from wpsimplex.triangulation import (
    _eliminate,
    _family_faces,
    _first_member,
    _leads,
    _member,
    _members,
    _slack_frame,
    _walk_faces,
    drop_facet,
    facet_support_function,
)
from wpsimplex.pipeline import check_family, check_triangulation, evaluate_point
from wpsimplex.toric import orientation_failures

from conftest import SMALL_GRID, in_order, lex_weights, walk_facets, without

#: The six points the benchmark's gb_wide and tri_ladder workloads run.
BENCHMARK_POINTS = [(16, 1), (14, 2), (12, 3), (4, 12), (6, 7), (8, 4)]


FACETS_2_1 = (
    (1, 2, 3),
    (2, 3, 4),
    (3, 4, 5),
    (3, 5, 6),
    (4, 5, 7),
    (5, 6, 7),
)


@pytest.fixture(scope="module")
def facets21(family21):
    return family_facets(family21)


def test_initial_complex_2_1(family21):
    facets = initial_complex(_leads(family21), family21.nvars, 3)
    assert facets == FACETS_2_1


def test_facet_count_equals_volume(family21, facets21):
    assert facets21 == FACETS_2_1
    assert len(facets21) == family21.q.volume == 6


def test_non_pure_complex_detected():
    # non-faces {1,2} and {1,3} on three vertices leave maximal faces
    # {1} and {2,3} of different sizes
    with pytest.raises(NonPureComplex):
        initial_complex(((0, 1), (0, 2)), 3, 2)


def test_a_support_off_the_graph_is_refused(family21):
    # z5*y1*y2 meets three twin classes that no lead of the family joins
    # pairwise, so it is a minimal support that is not a pair; the stage
    # reads the leads only, so the tail is any other monomial
    family = family21._replace(
        generators=family21.generators + (Binomial((4, 5, 6), (6, 6, 6)),),
    )
    stage = check_triangulation(family)
    assert stage.flags == {
        "triangulationUnimodular": False, "regularCertified": False
    }
    assert stage.errors == ("lead support (5, 6, 7) meets 3 twin classes, not 2",)
    with pytest.raises(NonGraphSupport):
        family_facets(family)


def test_the_family_and_its_deletions_are_read_off_a_graph():
    # every minimal lead support meets exactly two twin classes in each
    # SMALL_GRID family and in each of its 137 single-generator
    # deletions, so none is refused; 62 deletions are not pure
    pure = non_pure = 0
    for r1, x1 in SMALL_GRID:
        family = groebner_family(build_q(r1, x1))
        for k in range(-1, len(family.generators)):
            try:
                _family_faces(family if k < 0 else without(family, k))
                pure += 1
            except NonPureComplex:
                non_pure += 1
    assert (pure, non_pure) == (8 + 75, 62)


@pytest.mark.parametrize("r1,x1", SMALL_GRID + BENCHMARK_POINTS + [(40, 3), (100, 2)])
def test_the_faces_equal_their_closed_form(r1, x1):
    family = groebner_family(build_q(r1, x1))
    assert _family_faces(family) == family_faces_closed_form(r1, x1)


@pytest.mark.parametrize(
    "r1,x1,count,size", [(10, 10, 1010, 20), (20, 5, 2020, 25)]
)
def test_initial_complex_at_the_frontier(r1, x1, count, size):
    family = groebner_family(build_q(r1, x1))
    facets = initial_complex(_leads(family), family.nvars, size)
    assert facets == family_facets(family)
    assert len(facets) == count == family.q.volume
    assert all(len(f) == size for f in facets)
    summary = summarize_triangulation(family, facets)
    assert summary == (count, count, True, True)
    assert verify_unimodular(summary, family.q)
    cert = make_weight_certificate(family)
    assert regularity_check(family.columns, cert.weights, facets)


def test_facet_volume_examples(family21):
    cols = family21.columns
    assert facet_volume(cols, (5, 6, 7)) == 1  # lifted origin and two units
    assert facet_volume(cols, (1, 6, 7)) == 6  # the vertex simplex
    with pytest.raises(SingularFacet):
        facet_volume(cols, (1, 2, 4))  # three collinear points
    with pytest.raises(ParameterOutOfRange):
        facet_volume(cols, (1, 2))


def _y(column):
    """A homogenized column in the slack coordinates (x_0, ..., x_{d-1},
    h - sum x)."""
    return (*column[:-1], column[-1] - sum(column[:-1]))


def _coefficient(inverse, p, column):
    """scale * lambda_p at a column, from ``facet_support_function``'s
    row of the non-slack facet column p."""
    y = _y(column)
    return sum(c * y[t] for t, c in inverse[p])


@pytest.mark.parametrize("r1,x1", SMALL_GRID + [(10, 10)])
def test_walk_matches_elimination_from_scratch(r1, x1):
    # the facet's homogenized columns eliminated whole against the
    # identity give det and the adjugate, so det * lambda_p(q) for every
    # facet column p; the solve's rows on the non-slack columns agree
    family = groebner_family(build_q(r1, x1))
    columns = family.columns
    facets = initial_complex(_leads(family), family.nvars, family.q.d + 1)
    volumes, lower = walk_facets(columns, facets)
    assert lower == (True,) * len(facets)
    height = len(columns[0])
    if len(facets) > 300:
        facets = [_first_member(face) for face in _family_faces(family)]
    for facet in facets:
        det, adjugate = _eliminate([
            [*(columns[p - 1][i] for p in facet),
             *(int(i == j) for j in range(height))]
            for i in range(height)
        ])
        sign = 1 if det > 0 else -1
        scale, inverse = facet_support_function(columns, facet)
        assert scale == abs(det) == facet_volume(columns, facet)
        assert set(inverse) <= set(facet)
        for p in inverse:
            row = adjugate[facet.index(p) * height:][:height]
            for column in columns:
                assert _coefficient(inverse, p, column) == sign * sum(
                    a * x for a, x in zip(row, column)
                )


def test_walk_refuses_a_pivot_to_a_larger_volume(family21):
    # the vertex simplex (1, 6, 7) shares the ridge {6, 7} with (5, 6, 7)
    # but has volume 6 and is no lower cell; it is read on its own
    cert = make_weight_certificate(family21)
    facets = FACETS_2_1 + ((1, 6, 7),)
    volumes, lower = walk_facets(family21.columns, facets)
    assert volumes == [1] * 6 + [6]
    assert volumes == [facet_volume(family21.columns, f) for f in facets]
    assert lower == (True,) * 6 + (False,)
    summary = summarize_triangulation(family21, facets)
    assert summary == (7, 12, False, False)
    assert not verify_unimodular(summary, family21.q)
    assert not regularity_check(family21.columns, cert.weights, facets)


def test_walk_restarts_where_no_ridge_is_shared(family21):
    # a set of facets sharing no ridge is read like any other
    facets = ((1, 2, 3), (5, 6, 7))
    cert = make_weight_certificate(family21)
    assert walk_facets(family21.columns, facets) == ([1, 1], (True, True))
    assert regularity_check(family21.columns, cert.weights, facets)


def test_singular_facet_is_named_in_facet_order(family21):
    # both (4, 5, 6) and (1, 2, 4) are singular: each reads volume 0 and
    # no lower cell, and its solve names it; the oracle names the first
    # in the order given, the summary the first in facet order
    facets = ((1, 2, 3), (4, 5, 6)) + FACETS_2_1[1:] + ((1, 2, 4),)
    cert = make_weight_certificate(family21)
    volumes, lower = walk_facets(family21.columns, facets)
    assert volumes == [1, 0] + [1] * 5 + [0]
    assert lower == (True, False) + (True,) * 5 + (False,)
    for index in (1, 7):
        with pytest.raises(SingularFacet) as raised:
            facet_support_function(family21.columns, facets[index])
        assert str(raised.value) == f"columns {facets[index]} are affinely dependent"
    with pytest.raises(SingularFacet, match=r"columns \(4, 5, 6\) are"):
        regularity_check(family21.columns, cert.weights, facets)
    swapped = ((1, 2, 3), (1, 2, 4)) + FACETS_2_1[1:] + ((4, 5, 6),)
    with pytest.raises(SingularFacet, match=r"columns \(1, 2, 4\) are"):
        regularity_check(family21.columns, cert.weights, swapped)
    # facet order is sorted order, as in a family's facet list, so there
    # (1, 2, 4) comes first whichever facet is listed first
    for listed in (facets, swapped):
        with pytest.raises(SingularFacet, match=r"columns \(1, 2, 4\) span"):
            summarize_triangulation(family21, listed)


@pytest.fixture
def walks(monkeypatch):
    """Counts the walks over the faces."""
    calls = []
    walk = triangulation._walk_faces

    def counted(columns, faces):
        calls.append(len(faces))
        return walk(columns, faces)

    monkeypatch.setattr(triangulation, "_walk_faces", counted)
    return calls


@pytest.mark.parametrize("run", [
    lambda: check_triangulation(groebner_family(build_q(2, 1))),
    lambda: check_triangulation(groebner_family(build_q(10, 10))),
    lambda: evaluate_point(2, 1),
    lambda: cli.main(["gb", "verify", "2", "1"]),
    lambda: cli.main(["triangulate", "2", "1", "--drop-facet", "0"]),
], ids=["check 2,1", "check 10,10", "evaluate_point", "gb verify", "drop-facet"])
def test_one_walk_gives_volumes_and_lower_cells(run, walks, capsys):
    run()
    assert len(walks) == 1


#: The (2, 2) columns in an order whose lex triangulation is another one:
#: the family relabelled has the same facets, and no first member of a
#: face is a lower cell.
ORDER_2_2 = [7, 4, 2, 5, 0, 1, 3, 6]


def test_another_column_order_keeps_the_volume_flag():
    # the family relabelled is the same triangulation, unit volumes
    # summing to N, but not the lex one of the new order
    family = in_order(groebner_family(build_q(2, 2)), ORDER_2_2)
    stage = check_triangulation(family)
    assert stage.flags == {
        "triangulationUnimodular": True, "regularCertified": False,
    }
    assert stage.errors == ()
    assert summarize_triangulation(family) == (10, 10, True, False)


def test_failed_certificate_keeps_the_volume_flag(family21):
    # the lead of the balanced z2*z5^2 - z1*y1*y2 is a multiple of the
    # lead z2*z5, so the facets stand, but it is lex-lighter than its
    # tail: check (b) fails in the family, and the triangulation stage,
    # which reads no orientation, passes both of its flags
    g = Binomial((1, 4, 4), (0, 5, 6))
    fam = family21._replace(
        generators=family21.generators + (g,)
    )
    stage = check_triangulation(fam)
    assert stage.flags == {
        "triangulationUnimodular": True, "regularCertified": True,
    }
    assert stage.errors == ()
    assert orientation_failures(fam) == (9,)
    assert check_family(fam, stage).failure == {
        "stage": "orientation", "generators": [9],
    }


def test_dropped_facet_keeps_the_other_outcomes(family21):
    # with the vertex simplex (1, 6, 7), no lower cell, beside the
    # facets, the facets left after a drop decide as the oracle decides
    # them facet by facet: regular exactly when (1, 6, 7) is dropped
    facets = FACETS_2_1 + ((1, 6, 7),)
    weights = lex_weights(family21.columns)
    for k in range(len(facets)):
        short = drop_facet(facets, k)
        assert summarize_triangulation(family21, short).regular == (
            regularity_check(family21.columns, weights, short)
        ) == (k == 6)


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_drop_facet_matches_the_oracles(r1, x1):
    # each dropped facet leaves N - 1 unit volumes: the stage fails the
    # volume flag and reads the verdict and the volume count the oracles
    # read facet by facet
    family = groebner_family(build_q(r1, x1))
    facets = family_facets(family)
    weights = make_weight_certificate(family).weights
    for k in range(len(facets)):
        short = drop_facet(facets, k)
        stage = check_triangulation(family, short)
        volumes = [facet_volume(family.columns, f) for f in short]
        assert stage.report["num_facets"] == len(short)
        assert stage.report["volume_sum"] == sum(volumes) == family.q.volume - 1
        assert stage.flags == {
            "triangulationUnimodular": False,
            "regularCertified": regularity_check(family.columns, weights, short),
        }


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_triangulation_unimodular_on_grid(r1, x1):
    q = build_q(r1, x1)
    family = groebner_family(q)
    facets = family_facets(family)
    summary = summarize_triangulation(family, facets)
    assert verify_unimodular(summary, q)
    assert summary.num_facets == len(facets) == q.volume


def test_dropped_facet_fails(family21, facets21):
    summary = summarize_triangulation(family21, drop_facet(facets21, 0))
    assert summary == (5, 5, True, True)
    assert not verify_unimodular(summary, family21.q)


def test_weight_certificate_2_1(family21):
    cert = make_weight_certificate(family21)
    assert cert.weights == (729, 243, 81, 27, 9, 3, 1)  # 3^6 .. 3^0
    for g in dense_generators(family21):
        lead_w = sum(w * e for w, e in zip(cert.weights, g.lead))
        tail_w = sum(w * e for w, e in zip(cert.weights, g.tail))
        assert lead_w > tail_w


def test_weight_certificate_first_base_3_2():
    family = groebner_family(build_q(3, 2))
    cert = make_weight_certificate(family)
    max_degree = max(len(g.lead) for g in family.generators)
    assert cert.weights[0] == (max_degree + 1) ** (family.nvars - 1)


@pytest.mark.parametrize("r1,x1", SMALL_GRID + BENCHMARK_POINTS + [(40, 3)])
def test_weight_certificate_is_one_plus_the_top_lead_degree(r1, x1):
    # every family is balanced, so the top lead degree is the top degree
    family = groebner_family(build_q(r1, x1))
    m_base = 1 + max(len(g.lead) for g in family.generators)
    n = family.nvars
    assert make_weight_certificate(family).weights == tuple(
        m_base ** (n - 1 - i) for i in range(n)
    )


def test_weight_certificate_synthetic_linear(family21):
    g = Binomial((0,), (1,))
    fam = family21._replace(generators=(g,))
    cert = make_weight_certificate(fam)
    assert cert.weights[0] > cert.weights[1]


def test_weight_certificate_rejects_mis_oriented_generator(family21, facets21):
    # generator 0 reversed, z2^2 - z1*z4, is balanced and has its
    # lex-smaller side as lead: the family stage gets past (a) and check
    # (b) names it, while the facets stay certified
    g = family21.generators[0]
    fam = family21._replace(
        generators=family21.generators + (Binomial(g.tail, g.lead),),
    )
    triangulated = check_triangulation(fam, facets21)
    assert triangulated.verdict is True
    stage = check_family(fam, triangulated)
    assert stage.flags["buchbergerPass"] is False
    assert stage.failure == {"stage": "orientation", "generators": [9]}


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_the_summary_reads_no_orientation(r1, x1):
    # the walk reads no generator, so with every generator reversed the
    # same facet list reads the same: check (b) is the family's
    family = groebner_family(build_q(r1, x1))
    flipped = family._replace(
        generators=tuple(Binomial(g.tail, g.lead) for g in family.generators)
    )
    facets = family_facets(family)
    assert summarize_triangulation(flipped, facets) == (
        summarize_triangulation(family, facets)
    )
    assert summarize_triangulation(flipped, ()) == (0, 0, True, True)


def test_weight_certificate_empty_family(family21):
    empty = family21._replace(generators=())
    assert make_weight_certificate(empty).weights == (1,) * 7
    with pytest.raises(NonPureComplex):
        summarize_triangulation(empty)


def test_support_function_interpolates(family21, facets21):
    # on the rows its slacks leave free, every column is the sum of the
    # facet's non-slack columns times their coefficients at it
    _, slack = _slack_frame(family21.columns)
    for facet in facets21 + ((1, 6, 7),):
        scale, inverse = facet_support_function(family21.columns, facet)
        assert scale == facet_volume(family21.columns, facet)
        free = set(range(3)).difference(map(slack.get, facet))
        for column in family21.columns:
            for t in free:
                assert sum(
                    _coefficient(inverse, p, column) * _y(family21.columns[p - 1])[t]
                    for p in inverse
                ) == scale * _y(column)[t]


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_regularity_on_grid(r1, x1):
    family = groebner_family(build_q(r1, x1))
    facets = family_facets(family)
    cert = make_weight_certificate(family)
    assert regularity_check(family.columns, cert.weights, facets)
    assert summarize_triangulation(family, facets).regular


def test_equal_weights_degenerate(family21, facets21):
    with pytest.raises(DegenerateLift):
        regularity_check(family21.columns, (1,) * 7, facets21)


def test_sabotaged_weights_do_not_certify(family21, facets21):
    # burying the apex column under a flat plateau pushes other columns
    # below several facet hyperplanes
    spiked = (1,) + (1000,) * 6
    assert not regularity_check(family21.columns, spiked, facets21)
    # a single plateau height is non-generic
    flat_spike = (1, 1, 1, 1, 1000, 1, 1)
    with pytest.raises(DegenerateLift):
        regularity_check(family21.columns, flat_spike, facets21)


def test_reversed_weights_induce_the_same_triangulation(family21, facets21):
    # the certificate cone of this triangulation is wide: reversed
    # geometric weights land in it too, as the from-scratch oracle shows
    reverse = tuple(3 ** i for i in range(7))
    assert regular_subdivision_bruteforce(family21.columns, reverse) == facets21
    assert regularity_check(family21.columns, reverse, facets21)


@pytest.mark.parametrize("r1,x1", [(2, 1), (2, 2), (3, 1)])
def test_subdivision_oracle_agrees(r1, x1):
    family = groebner_family(build_q(r1, x1))
    cert = make_weight_certificate(family)
    assert regular_subdivision_bruteforce(
        family.columns, cert.weights
    ) == family_facets(family)


def test_subdivision_oracle_dimension_guard():
    family = groebner_family(build_q(4, 2))  # d = 5
    cert = make_weight_certificate(family)
    with pytest.raises(ParameterOutOfRange):
        regular_subdivision_bruteforce(family.columns, cert.weights)


@pytest.mark.parametrize("r1,x1", [(2, 1), (3, 2)])
def test_pairwise_intersections_are_faces(r1, x1):
    family = groebner_family(build_q(r1, x1))
    facets = family_facets(family)
    supports = [frozenset(v + 1 for v in m) for m in _leads(family)]
    for a in facets:
        for b in facets:
            common = set(a) & set(b)
            assert not any(s <= common for s in supports)


def test_last_interior_column_is_not_a_cone_point(family21, facets21):
    # the lifted origin (column r1+3) sits in eq1 leads like z1*z{r1+3},
    # so some facets omit it
    origin_col = family21.q.r1 + 3
    in_lead = any(origin_col - 1 in g.lead for g in family21.generators)
    assert in_lead
    assert any(origin_col not in facet for facet in facets21)


# -- the kernel on the non-slack columns -------------------------------------

def test_family_kernels_are_at_most_three_by_three():
    # the slacks are b_1..b_d and the origin a_{r1+3}, one per row, so
    # each facet solves for at most three rows
    for r1, x1 in SMALL_GRID + BENCHMARK_POINTS:
        family = groebner_family(build_q(r1, x1))
        config = lattice_points_formula(family.q)
        _, slack = _slack_frame(family.columns)
        assert sorted(config.labels[p - 1] for p in slack) == sorted(
            [f"a{r1 + 3}"] + [f"b{j}" for j in range(1, family.q.d + 1)]
        )
        assert sorted(slack.values()) == list(range(family.q.d + 1))
        for facet in family_facets(family):
            k = sum(p not in slack for p in facet)
            assert k <= 3
            _, inverse = facet_support_function(family.columns, facet)
            assert sorted(inverse) == [p for p in facet if p not in slack]
            assert all(len(row) <= k for row in inverse.values())


@pytest.fixture
def supports(monkeypatch):
    """Records the facet of every ``facet_support_function`` solve."""
    calls = []
    support = triangulation.facet_support_function

    def counted(columns, facet, frame=None):
        calls.append(facet)
        return support(columns, facet, frame)

    monkeypatch.setattr(triangulation, "facet_support_function", counted)
    return calls


@pytest.mark.parametrize("r1,x1", SMALL_GRID + BENCHMARK_POINTS)
def test_one_solve_per_facet_class(r1, x1, supports):
    # the family's facets fall into r1 + 4 faces, each solved once on
    # its first member in facet order
    family = groebner_family(build_q(r1, x1))
    assert summarize_triangulation(family).regular is True
    facets = family_facets(family)
    assert len(supports) == r1 + 4
    assert [facets.index(f) for f in supports] == sorted(
        facets.index(f) for f in supports
    )
    if (r1, x1) == (12, 3):
        assert len(facets) == 444 and len(supports) == 16
    if (r1, x1) == (2, 1):
        assert len(facets) == len(supports) == 6


def test_failing_faces_solve_each_member_once(supports):
    # in this order no first member is a lower cell, so every face is
    # walked member by member: one solve per facet, and the first member,
    # solved to decide its face, is not solved again
    family = in_order(groebner_family(build_q(2, 2)), ORDER_2_2)
    faces = _family_faces(family)
    cells = _walk_faces(family.columns, faces)
    facets = sorted(m for face in faces for m in _members(face))
    assert len(faces) == 6 and len(facets) == len(cells) == 10
    assert len(supports) == 10 and sorted(supports) == facets
    assert [face for face, _, _ in cells] == [(m, ()) for m in supports]
    assert not any(lower for _, _, lower in cells)


def test_walk_refuses_a_facet_of_the_wrong_size(family21, supports):
    for facets, size in [
        (((1, 2), (1, 2, 3, 4), (5, 6)), 2),
        (((1, 2, 3), (1, 2, 3, 4)), 4),
    ]:
        with pytest.raises(
            ParameterOutOfRange, match=f"facet must select 3 columns, got {size}"
        ):
            walk_facets(family21.columns, facets)
    assert supports == []  # raised before any volume is read
    with pytest.raises(ParameterOutOfRange, match="got 4"):
        facet_support_function(family21.columns, (1, 2, 3, 4))


@pytest.mark.parametrize("cell", [(1, 2, 3, 4), (1, 2), (5, 6)])
def test_oracles_refuse_a_cell_of_the_wrong_size(family21, cell):
    # as the walk does: one too many columns, one too few, and one too
    # few that is also singular
    weights = make_weight_certificate(family21).weights
    message = f"facet must select 3 columns, got {len(cell)}"
    for check in (
        lambda: is_lower_cell(family21.columns, weights, cell),
        lambda: regularity_check(family21.columns, weights, FACETS_2_1 + (cell,)),
        lambda: facet_volume(family21.columns, cell),
        lambda: walk_facets(family21.columns, (cell,)),
    ):
        with pytest.raises(ParameterOutOfRange, match=f"^{message}$"):
            check()


@pytest.mark.parametrize("count", [6, 8])
def test_oracles_refuse_a_wrong_weight_count(family21, count):
    # one weight short, and one too many, which the lower-cell test
    # would otherwise ignore
    weights = (make_weight_certificate(family21).weights + (5,))[:count]
    for check in (
        lambda: is_lower_cell(family21.columns, weights, (1, 2, 3)),
        lambda: regularity_check(family21.columns, weights, FACETS_2_1),
        lambda: regularity_check(family21.columns, weights, ()),
        lambda: regular_subdivision_bruteforce(family21.columns, weights),
    ):
        with pytest.raises(
            DimensionMismatch, match=f"^{count} weights for 7 columns$"
        ):
            check()


# -- the walk over the faces --------------------------------------------------

#: The column orders the faces are read in: as built, which the
#: certificate reads; reversed; the origin a_{r1+3}, the simplex's zero
#: point, first; and a random order seeded by the point.
COLUMN_ORDERS = ("certificate", "reversed", "zero", "random")


def _ordered(family, kind):
    """The family relabelled into the column order ``kind``: the same
    complex, read under another lex order."""
    r1, x1 = family.q.r1, family.q.x1
    order = list(range(family.nvars))
    if kind == "reversed":
        order.reverse()
    elif kind == "zero":
        order.insert(0, order.pop(r1 + 2))
    elif kind == "random":
        random.Random(f"{r1},{x1}").shuffle(order)
    return in_order(family, order)


def _verdict(check):
    try:
        return check()
    except SingularFacet as exc:
        return type(exc), str(exc)


def _last_member(face):
    full, choices = face
    return _member(full, [choice[0] for choice in choices])


def _assert_members_decide_as_the_oracles(columns, faces, cells, checked):
    """Every member of every cell gets the verdict it gets walked alone,
    and the members ``checked`` (all when None) the oracles' volume and
    lower-cell verdict under explicit lex weights."""
    decided = {
        member: (volume, lower)
        for face, volume, lower in cells for member in _members(face)
    }
    facets = sorted(m for face in faces for m in _members(face))
    assert sorted(decided) == facets
    volumes, lower = walk_facets(columns, facets)
    assert [decided[f] for f in facets] == list(zip(volumes, lower))
    weights = lex_weights(columns)
    for facet in facets if checked is None else checked(facets, decided):
        volume, lower = decided[facet]
        expected = _verdict(lambda: facet_volume(columns, facet))
        assert volume == (0 if isinstance(expected, tuple) else expected)
        if volume:
            assert lower == is_lower_cell(columns, weights, facet)
    return decided


@pytest.mark.parametrize("kind", COLUMN_ORDERS)
@pytest.mark.parametrize(
    "r1,x1", SMALL_GRID + BENCHMARK_POINTS + [(10, 10), (40, 3)]
)
def test_face_walk_decides_as_the_oracles(r1, x1, kind):
    # every member of a face gets the verdict it gets walked alone; the
    # oracles check every facet up to 300 of them, else each face's first
    # member, its last one up to 1,000 facets, and the first facet that is
    # not a lower cell
    family = _ordered(groebner_family(build_q(r1, x1)), kind)
    faces = _family_faces(family)
    cells = _walk_faces(family.columns, faces)

    def checked(facets, decided):
        if len(facets) <= 300:
            return facets
        failing = [f for f in facets if not decided[f][1]]
        ends = (_first_member,) + ((_last_member,) if len(facets) <= 1000 else ())
        return {end(face) for face in faces for end in ends}.union(failing[:1])

    _assert_members_decide_as_the_oracles(family.columns, faces, cells, checked)
    if kind == "certificate":
        assert len(cells) == len(faces) == r1 + 4
        assert all(lower for _, _, lower in cells)


def test_face_walk_decides_as_the_oracles_at_every_single_generator_deletion():
    # 75 of the 137 single-generator deletions of SMALL_GRID leave a pure
    # complex; of its 2,632 members, 32 are singular and 225 more are
    # not lower cells, and every one decides as the oracles do
    pure = members = singular = failing = 0
    for r1, x1 in SMALL_GRID:
        family = groebner_family(build_q(r1, x1))
        for k in range(len(family.generators)):
            dropped = without(family, k)
            try:
                faces = _family_faces(dropped)
            except NonPureComplex:
                continue
            cells = _walk_faces(dropped.columns, faces)
            decided = _assert_members_decide_as_the_oracles(
                dropped.columns, faces, cells, None
            )
            pure += 1
            members += len(decided)
            singular += sum(not volume for volume, _ in decided.values())
            failing += sum(bool(volume) and not lower for volume, lower in decided.values())
    assert (pure, members, singular, failing) == (75, 2632, 32, 225)


def test_a_non_pure_complex_names_the_face_the_plain_dualization_finds_first():
    # 62 of the 137 single-generator deletions of SMALL_GRID leave a
    # complex that is not pure; the face named is the first one of the
    # wrong size in the plain dualization's order
    named = 0
    for r1, x1 in SMALL_GRID:
        family = groebner_family(build_q(r1, x1))
        for k in range(len(family.generators)):
            dropped = without(family, k)
            n, dim = dropped.nvars, dropped.q.d + 1
            masks = [sum(1 << v for v in set(lead)) for lead in _leads(dropped)]
            wrong = [
                face for face in (
                    tuple(i + 1 for i in range(n) if s >> i & 1)
                    for s in _maximal_faces(n, masks)
                ) if len(face) != dim
            ]
            if not wrong:
                continue
            with pytest.raises(NonPureComplex) as raised:
                summarize_triangulation(dropped)
            assert str(raised.value) == (
                f"maximal face {wrong[0]} has {len(wrong[0])} vertices, "
                f"expected {dim}"
            )
            named += 1
    assert named == 62


def test_summary_counts_what_the_facet_list_holds():
    # the faces read whole and the facet list walked facet by facet give
    # one summary
    for r1, x1 in SMALL_GRID + BENCHMARK_POINTS:
        family = groebner_family(build_q(r1, x1))
        listed = summarize_triangulation(family, family_facets(family))
        assert summarize_triangulation(family) == listed == (
            family.q.volume, family.q.volume, True, True
        )


def _refuse(*args):
    raise AssertionError("the facet list was built")


@pytest.mark.parametrize("run", [
    lambda: evaluate_point(3, 2),
    lambda: cli.main(["gb", "verify", "3", "2"]),
], ids=["evaluate_point", "gb verify"])
def test_certificate_never_lists_the_facets(run, monkeypatch, capsys):
    monkeypatch.setattr(triangulation, "initial_complex", _refuse)
    monkeypatch.setattr(triangulation, "_members", _refuse)
    result = run()
    if isinstance(result, dict):
        assert all(v is True for k, v in result.items() if k != "timings")
    else:
        assert result == 0 and '"pass": true' in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["triangulate", "2", "1"],
    ["triangulate", "2", "1", "--format", "off"],
    ["triangulate", "2", "1", "--drop-facet", "0"],
])
def test_triangulate_checks_the_facet_count_against_the_budget(
    argv, monkeypatch, capsys
):
    # (2, 1) has 6 facets of 3 columns: a budget of 18 entries lists
    # them, 17 exits 3 with one error line and no payload
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "18")
    assert cli.main(argv) in (0, 2)
    assert capsys.readouterr().out
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "17")
    assert cli.main(argv) == 3
    assert capsys.readouterr() == (
        "", "error: 6 facets of 3 columns (18 entries) exceed the budget 17\n"
    )


@pytest.mark.parametrize("argv", [
    ["triangulate", "2", "1"],
    ["triangulate", "2", "1", "--drop-facet", "0"],
], ids=["certified", "drop-facet"])
def test_triangulate_dualizes_the_twin_quotient_once(argv, monkeypatch, capsys):
    # the certificate and the facet list share one cached dualization
    calls = []
    dualize = triangulation._minimal_covers

    def counted(classes, edges):
        calls.append(len(classes))
        return dualize(classes, edges)

    monkeypatch.setattr(triangulation, "_minimal_covers", counted)
    triangulation._lead_faces.cache_clear()
    assert cli.main(argv) in (0, 2)
    assert capsys.readouterr().out
    assert len(calls) == 1


def test_facet_list_builders_check_the_budget(family21, monkeypatch):
    # the list's entries are charged, dim per facet
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "17")
    for build in (
        lambda: family_facets(family21),
        lambda: initial_complex(_leads(family21), family21.nvars, 3),
    ):
        with pytest.raises(BudgetExceeded, match=(
            r"^6 facets of 3 columns \(18 entries\) exceed the budget 17$"
        )):
            build()
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "18")
    assert family_facets(family21) == FACETS_2_1
    # the certificate lists no facet, so it needs no budget
    assert summarize_triangulation(family21).regular is True


def test_drop_facet_names_an_empty_facet_list():
    with pytest.raises(
        IndexOutOfRange, match=r"^cannot drop facet 0: the facet list is empty$"
    ):
        drop_facet((), 0)
    with pytest.raises(IndexOutOfRange, match=r"^facet index must lie in \[0, 0\]$"):
        drop_facet(((1, 2, 3),), 1)


def test_one_facet_dropped_leaves_an_empty_list_to_walk(family21):
    # an empty facet list is given, not absent: it walks nothing, so it
    # sums no volume
    summary = summarize_triangulation(family21, drop_facet(((1, 2, 3),), 0))
    assert summary == (0, 0, True, True)
    assert not verify_unimodular(summary, family21.q)
