import pytest

from wpsimplex import (
    Binomial,
    Triangulation,
    build_q,
    cli,
    groebner_family,
    initial_complex,
    initial_ideal,
    make_weight_certificate,
    triangulation_from_family,
    verify_unimodular,
)
from wpsimplex.errors import (
    CertificateFailure,
    DegenerateLift,
    NonPureComplex,
    ParameterOutOfRange,
    SingularFacet,
)
from wpsimplex.oracles import (
    facet_volume,
    regular_subdivision_bruteforce,
    regularity_check,
)
from wpsimplex.groebner import InitialIdeal
from wpsimplex import triangulation
from wpsimplex.triangulation import (
    WeightCertificate,
    _eliminate,
    _facet_inverse,
    _pivot,
    _walk_facets,
    _walk_inverses,
    drop_facet,
    facet_support_function,
)
from wpsimplex.pipeline import check_triangulation, evaluate_point

from conftest import SMALL_GRID

FACETS_2_1 = (
    (1, 2, 3),
    (2, 3, 4),
    (3, 4, 5),
    (3, 5, 6),
    (4, 5, 7),
    (5, 6, 7),
)


@pytest.fixture(scope="module")
def tri21(family21):
    return triangulation_from_family(family21)


def test_initial_complex_2_1(family21):
    facets = initial_complex(initial_ideal(family21), family21.nvars, 3)
    assert facets == FACETS_2_1


def test_facet_count_equals_volume(family21, tri21):
    assert len(tri21.facets) == family21.q.volume == 6


def test_non_pure_complex_detected():
    # non-faces {1,2} and {1,3} on three vertices leave maximal faces
    # {1} and {2,3} of different sizes
    ideal = InitialIdeal(
        generators=((1, 1, 0), (1, 0, 1)),
        squarefree=True,
    )
    with pytest.raises(NonPureComplex):
        initial_complex(ideal, 3, 2)


@pytest.mark.parametrize(
    "r1,x1,count,size", [(10, 10, 1010, 20), (20, 5, 2020, 25)]
)
def test_initial_complex_at_the_frontier(r1, x1, count, size):
    family = groebner_family(build_q(r1, x1))
    tri = triangulation_from_family(family)
    facets = initial_complex(initial_ideal(family), family.nvars, size)
    assert facets == tri.facets
    assert len(facets) == count == family.q.volume
    assert all(len(f) == size for f in facets)
    assert set(tri.volumes) == {1} and verify_unimodular(tri, family.q)
    cert = make_weight_certificate(family)
    assert regularity_check(tri, cert, family.columns)


def test_facet_volume_examples(family21):
    cols = family21.columns
    assert facet_volume(cols, (5, 6, 7)) == 1  # lifted origin and two units
    assert facet_volume(cols, (1, 6, 7)) == 6  # the vertex simplex
    with pytest.raises(SingularFacet):
        facet_volume(cols, (1, 2, 4))  # three collinear points
    with pytest.raises(ParameterOutOfRange):
        facet_volume(cols, (1, 2))


@pytest.fixture
def scratch_eliminations(monkeypatch):
    """Counts the facets the walk inverts from scratch."""
    calls = []
    from_scratch = triangulation._facet_inverse

    def counted(columns, facet):
        calls.append(facet)
        return from_scratch(columns, facet)

    monkeypatch.setattr(triangulation, "_facet_inverse", counted)
    return calls


def _walk(columns, facets):
    """The walk's inverses in facet order."""
    found = dict(_walk_inverses(columns, facets))
    assert sorted(found) == list(range(len(facets)))
    return [found[index] for index in range(len(facets))]


def _dense(inverse, height):
    """A sparse facet inverse with every row written out in full."""
    volume, rows = inverse
    return volume, {
        p: [row.get(k, 0) for k in range(height)] for p, row in rows.items()
    }


@pytest.mark.parametrize("r1,x1", SMALL_GRID + [(10, 10)])
def test_walk_matches_elimination_from_scratch(r1, x1, scratch_eliminations):
    family = groebner_family(build_q(r1, x1))
    height = family.q.d + 1
    facets = initial_complex(initial_ideal(family), family.nvars, height)
    weights = make_weight_certificate(family).weights
    for facet, inverse in zip(facets, _walk(family.columns, facets)):
        assert inverse[0] == facet_volume(family.columns, facet)
        # the sparse rows store no zero and are the eliminated inverse's
        assert all(x for row in inverse[1].values() for x in row.values())
        assert _dense(inverse, height) == _dense(
            _facet_inverse(family.columns, facet), height
        )
        det, c = _eliminate(
            [[*family.columns[p - 1], weights[p - 1]] for p in facet]
        )
        expected = (det, c) if det > 0 else (-det, tuple(-v for v in c))
        assert facet_support_function(
            family.columns, weights, facet, inverse
        ) == expected
    # one start facet; every other facet is reached by a pivot
    assert scratch_eliminations == [facets[0]]


def test_pivot_shares_rows_without_changing_them(family21):
    # (1, 2, 3) -> (2, 3, 4) across the ridge {2, 3}
    columns = family21.columns
    volume, rows = _facet_inverse(columns, (1, 2, 3))
    before = {p: dict(row) for p, row in rows.items()}
    step = _pivot(rows, 1, 4, columns[3])
    assert rows == before and volume == 1
    assert step == _facet_inverse(columns, (2, 3, 4))
    # z4's column is orthogonal to row 3, which is shared; row 2 is not
    # and was updated in a copy
    assert step[1][3] is rows[3] and step[1][2] is not rows[2]


def test_walk_refuses_a_pivot_to_a_larger_volume(family21, scratch_eliminations):
    # the vertex simplex (1, 6, 7) shares the ridge {6, 7} with (5, 6, 7)
    facets = FACETS_2_1 + ((1, 6, 7),)
    inverses = _walk(family21.columns, facets)
    assert [volume for volume, _ in inverses] == [1] * 6 + [6]
    assert scratch_eliminations == [(1, 2, 3), (1, 6, 7)]
    cert = make_weight_certificate(family21)
    for facet, inverse in zip(facets, inverses):
        assert facet_support_function(
            family21.columns, cert.weights, facet, inverse
        ) == facet_support_function(family21.columns, cert.weights, facet)
    tri = Triangulation(facets=facets, volumes=(1,) * 6 + (6,))
    assert not verify_unimodular(tri, family21.q)
    assert not regularity_check(tri, cert, family21.columns)


def test_walk_restarts_where_no_ridge_is_shared(family21, scratch_eliminations):
    facets = ((1, 2, 3), (5, 6, 7))
    assert [v for v, _ in _walk(family21.columns, facets)] == [1, 1]
    assert scratch_eliminations == list(facets)
    tri = Triangulation(facets=facets, volumes=(1, 1))
    cert = make_weight_certificate(family21)
    assert regularity_check(tri, cert, family21.columns)


def test_singular_facet_is_named_in_facet_order(family21, monkeypatch):
    # both (4, 5, 6) and (1, 2, 4) are singular; the walk from (1, 2, 3)
    # reaches (1, 2, 4) across the ridge {1, 2} before (4, 5, 6), which
    # comes first in facet order and so is the one named
    facets = ((1, 2, 3), (4, 5, 6)) + FACETS_2_1[1:] + ((1, 2, 4),)
    order = [facets[i] for i, _ in _walk_inverses(family21.columns, facets)]
    assert order.index((1, 2, 4)) < order.index((4, 5, 6))
    cert = make_weight_certificate(family21)
    tri = Triangulation(facets=facets, volumes=(1,) * len(facets))
    with pytest.raises(SingularFacet, match=r"columns \(4, 5, 6\) are"):
        regularity_check(tri, cert, family21.columns)
    monkeypatch.setattr(triangulation, "initial_complex", lambda *a: facets)
    with pytest.raises(SingularFacet, match=r"columns \(4, 5, 6\) span"):
        triangulation_from_family(family21)
    swapped = ((1, 2, 3), (1, 2, 4)) + FACETS_2_1[1:] + ((4, 5, 6),)
    tri = Triangulation(facets=swapped, volumes=(1,) * len(swapped))
    with pytest.raises(SingularFacet, match=r"columns \(1, 2, 4\) are"):
        regularity_check(tri, cert, family21.columns)


@pytest.fixture
def walks(monkeypatch):
    """Counts the walks over the facets' dual graph."""
    calls = []
    walk = triangulation._walk_inverses

    def counted(columns, facets):
        calls.append(len(facets))
        return walk(columns, facets)

    monkeypatch.setattr(triangulation, "_walk_inverses", counted)
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


def test_flat_weights_keep_the_volume_flag(family21, monkeypatch):
    monkeypatch.setattr(
        triangulation, "make_weight_certificate",
        lambda family: WeightCertificate(weights=(1,) * family.nvars),
    )
    stage = check_triangulation(family21)
    assert stage.flags == {
        "triangulationUnimodular": True, "regularCertified": False,
    }
    assert stage.errors == ("column 4 lies on the lifted hyperplane of (1, 2, 3)",)


def test_failed_certificate_keeps_the_volume_flag(family21):
    # the lead of z2*z5*z7 - z1^3 is a multiple of the lead z2*z5, so the
    # facets stand, but it is lex-lighter than its tail
    g = Binomial((0, 1, 0, 0, 1, 0, 1), (3, 0, 0, 0, 0, 0, 0))
    fam = family21._replace(
        generators=family21.generators + (g,), tags=family21.tags + ("eq1",)
    )
    stage = check_triangulation(fam)
    assert stage.flags == {
        "triangulationUnimodular": True, "regularCertified": False,
    }
    assert stage.errors == ("generator 9's lead is not heavier than its tail",)


def test_dropped_facet_keeps_the_other_outcomes(family21, tri21):
    cert = make_weight_certificate(family21)
    spiked = WeightCertificate(weights=(1,) + (1000,) * 6)
    for weights in (cert, spiked):
        _, lower = _walk_facets(family21.columns, weights.weights, tri21.facets)
        tri = tri21._replace(lower=lower)
        for k in range(len(tri.facets)):
            short = Triangulation(
                facets=tri.facets[:k] + tri.facets[k + 1:],
                volumes=tri.volumes[:k] + tri.volumes[k + 1:],
            )
            assert drop_facet(tri, k).regular == regularity_check(
                short, weights, family21.columns
            )


def test_hand_built_triangulation_is_not_certified_regular(family21, tri21):
    assert tri21.regular
    bare = Triangulation(facets=tri21.facets, volumes=tri21.volumes)
    assert not bare.regular
    stage = check_triangulation(family21, bare)
    assert stage.flags == {
        "triangulationUnimodular": True, "regularCertified": False,
    }


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_triangulation_unimodular_on_grid(r1, x1):
    q = build_q(r1, x1)
    tri = triangulation_from_family(groebner_family(q))
    assert verify_unimodular(tri, q)
    assert len(tri.facets) == q.volume


def test_dropped_facet_fails(family21, tri21):
    short = Triangulation(facets=tri21.facets[1:], volumes=tri21.volumes[1:])
    assert not verify_unimodular(short, family21.q)


def test_weight_certificate_2_1(family21):
    cert = make_weight_certificate(family21)
    assert cert.weights == (729, 243, 81, 27, 9, 3, 1)  # 3^6 .. 3^0
    for g in family21.generators:
        lead_w = sum(w * e for w, e in zip(cert.weights, g.lead))
        tail_w = sum(w * e for w, e in zip(cert.weights, g.tail))
        assert lead_w > tail_w


def test_weight_certificate_first_base_3_2():
    family = groebner_family(build_q(3, 2))
    cert = make_weight_certificate(family)
    max_degree = max(sum(g.lead) for g in family.generators)
    assert cert.weights[0] == (max_degree + 1) ** (family.nvars - 1)


def test_weight_certificate_synthetic_linear(family21):
    g = Binomial((1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0))
    fam = family21._replace(generators=(g,), tags=("eq1",))
    cert = make_weight_certificate(fam)
    assert cert.weights[0] > cert.weights[1]


def test_weight_certificate_rejects_mis_oriented_generator(family21):
    # z2 - z1 has its lex-smaller side as lead: no lex-realizing weights
    # can make the lead heavier
    g = Binomial((0, 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0))
    fam = family21._replace(
        generators=family21.generators + (g,), tags=family21.tags + ("eq1",)
    )
    with pytest.raises(CertificateFailure, match="generator 9"):
        make_weight_certificate(fam)


def test_weight_certificate_empty_family(family21):
    with pytest.raises(CertificateFailure):
        make_weight_certificate(family21._replace(generators=(), tags=()))


def test_support_function_interpolates(family21, tri21):
    cert = make_weight_certificate(family21)
    for facet in tri21.facets:
        scale, c = facet_support_function(family21.columns, cert.weights, facet)
        assert scale > 0
        for p in facet:
            value = sum(a * v for a, v in zip(c, family21.columns[p - 1]))
            assert value == scale * cert.weights[p - 1]


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_regularity_on_grid(r1, x1):
    family = groebner_family(build_q(r1, x1))
    tri = triangulation_from_family(family)
    cert = make_weight_certificate(family)
    assert regularity_check(tri, cert, family.columns)


def test_equal_weights_degenerate(family21, tri21):
    flat = WeightCertificate(weights=(1,) * 7)
    with pytest.raises(DegenerateLift):
        regularity_check(tri21, flat, family21.columns)


def test_sabotaged_weights_do_not_certify(family21, tri21):
    # burying the apex column under a flat plateau pushes other columns
    # below several facet hyperplanes
    spiked = WeightCertificate(weights=(1,) + (1000,) * 6)
    assert not regularity_check(tri21, spiked, family21.columns)
    # a single plateau height is non-generic
    flat_spike = WeightCertificate(weights=(1, 1, 1, 1, 1000, 1, 1))
    with pytest.raises(DegenerateLift):
        regularity_check(tri21, flat_spike, family21.columns)


def test_reversed_weights_induce_the_same_triangulation(family21, tri21):
    # the certificate cone of this triangulation is wide: reversed
    # geometric weights land in it too, as the from-scratch oracle shows
    reverse = tuple(3 ** i for i in range(7))
    assert regular_subdivision_bruteforce(family21.columns, reverse) == tri21.facets
    assert regularity_check(
        tri21, WeightCertificate(weights=reverse), family21.columns
    )


@pytest.mark.parametrize("r1,x1", [(2, 1), (2, 2), (3, 1)])
def test_subdivision_oracle_agrees(r1, x1):
    family = groebner_family(build_q(r1, x1))
    tri = triangulation_from_family(family)
    cert = make_weight_certificate(family)
    assert regular_subdivision_bruteforce(family.columns, cert.weights) == tri.facets


def test_subdivision_oracle_dimension_guard():
    family = groebner_family(build_q(4, 2))  # d = 5
    cert = make_weight_certificate(family)
    with pytest.raises(ParameterOutOfRange):
        regular_subdivision_bruteforce(family.columns, cert.weights)


@pytest.mark.parametrize("r1,x1", [(2, 1), (3, 2)])
def test_pairwise_intersections_are_faces(r1, x1):
    family = groebner_family(build_q(r1, x1))
    tri = triangulation_from_family(family)
    supports = [
        frozenset(i + 1 for i, e in enumerate(m) if e)
        for m in initial_ideal(family).generators
    ]
    for a in tri.facets:
        for b in tri.facets:
            common = set(a) & set(b)
            assert not any(s <= common for s in supports)


def test_last_interior_column_is_not_a_cone_point(family21, tri21):
    # the lifted origin (column r1+3) sits in eq1 leads like z1*z{r1+3},
    # so some facets omit it
    origin_col = family21.q.r1 + 3
    in_lead = any(
        g.lead[origin_col - 1] > 0 for g in family21.generators
    )
    assert in_lead
    assert any(origin_col not in facet for facet in tri21.facets)
