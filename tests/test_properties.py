"""Property tests: the closed-form lattice points against the
enumerator, the enumerator against a scan of its bounding box, the
elimination kernel against the Leibniz determinant, the facet walk
against facet-by-facet elimination, the normal form, the standard
monomials and the minimal leads against a plain entrywise divisibility
test (``_divides``), and the facet enumeration against a filter of all
vertex subsets."""

from itertools import (
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)
from math import prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpsimplex import (
    Binomial,
    build_q,
    enumerate_dilation_points,
    groebner_family,
    h_description,
    initial_complex,
    initial_ideal,
    lattice_points_bruteforce,
    lattice_points_formula,
    pi_image,
)
from wpsimplex.errors import DegenerateLift, NonPureComplex, SingularFacet
from wpsimplex.groebner import InitialIdeal, _packed_columns
from wpsimplex.oracles import (
    facet_volume,
    normal_form,
    regularity_check,
    standard_monomials,
)
from wpsimplex.toric import include_excluded_pair, mutate_tail
from wpsimplex.triangulation import (
    Triangulation,
    WeightCertificate,
    _eliminate,
    _is_lower_cell,
    _maximal_faces,
    _walk_facets,
    _walk_inverses,
)

from conftest import SMALL_GRID, scanned_standard_monomials, without

PARAMS = st.tuples(st.integers(2, 4), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 15), st.integers(1, 15))
@example(15, 15)
def test_formula_points_equal_the_enumerators(r1, x1):
    q = build_q(r1, x1)
    assert set(lattice_points_formula(q).columns) == lattice_points_bruteforce(q)


def _box_size(q, t):
    return prod(t * e + t + 1 for e in q.entries)


@st.composite
def dilations(draw):
    """A small family member and a dilation factor t <= 3 whose bounding
    box prod_i [-t*q_i, t] holds at most 2 * 10^5 points."""
    t = draw(st.integers(0, 3))
    q = draw(st.builds(build_q, st.integers(2, 5), st.integers(1, 4)).filter(
        lambda q: _box_size(q, t) <= 200_000
    ))
    return q, t


@settings(max_examples=30, deadline=None)
@given(dilations())
@example((build_q(2, 1), 0))
@example((build_q(3, 2), 3))
@example((build_q(2, 4), 2))
def test_dilation_points_equal_a_scan_of_the_box(case):
    # every point of the bounding box, kept when no raw facet row exceeds t
    q, t = case
    rows = h_description(q).functionals
    box = product(*(range(-t * e, t + 1) for e in q.entries))
    scanned = {
        p for p in box if all(sum(map(mul, row, p)) <= t for row in rows)
    }
    assert enumerate_dilation_points(q, t) == scanned


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
    n = len(rows)
    got, adjugate = _eliminate(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    )
    assert got == det
    if det:
        # the identity block gives the adjugate: A . adj == det * I
        for i, row in enumerate(rows):
            for j in range(n):
                entry = sum(row[k] * adjugate[k * n + j] for k in range(n))
                assert entry == det * (i == j)
    else:
        assert adjugate == ()


COLUMNS_2_1 = groebner_family(build_q(2, 1)).columns


@st.composite
def facet_sets(draw):
    """Distinct column triples of the (2, 1) configuration in any order,
    singular and non-unimodular ones included, with small lifting
    heights that often tie or fold; so walks are cut, restarted and
    refused pivots, and every verdict of the regularity check occurs."""
    triples = list(combinations(range(1, 8), 3))
    facets = draw(st.lists(st.sampled_from(triples), max_size=12, unique=True))
    weights = draw(st.lists(st.integers(0, 6), min_size=7, max_size=7))
    return tuple(facets), tuple(weights)


def _first_verdict(check):
    try:
        return check()
    except (DegenerateLift, SingularFacet) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(facet_sets())
def test_walk_decides_as_the_facet_by_facet_check(case):
    facets, weights = case
    reached = {}
    for index, (volume, _) in _walk_inverses(COLUMNS_2_1, facets):
        assert index not in reached
        reached[index] = volume
    assert sorted(reached) == list(range(len(facets)))
    volumes, lower = _walk_facets(COLUMNS_2_1, weights, facets)
    assert volumes == [reached[index] for index in range(len(facets))]
    for index, facet in enumerate(facets):
        expected = _first_verdict(lambda: facet_volume(COLUMNS_2_1, facet))
        assert reached[index] == (0 if isinstance(expected, tuple) else expected)
        expected = _first_verdict(lambda: _is_lower_cell(COLUMNS_2_1, weights, facet))
        outcome = lower[index]
        if isinstance(outcome, Exception):
            outcome = type(outcome), str(outcome)
        assert outcome == expected

    def one_by_one():
        return all(_is_lower_cell(COLUMNS_2_1, weights, f) for f in facets)

    tri = Triangulation(facets=facets, volumes=(1,) * len(facets))
    cert = WeightCertificate(weights=weights)
    assert _first_verdict(
        lambda: regularity_check(tri, cert, COLUMNS_2_1)
    ) == _first_verdict(one_by_one)


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
    return family, tuple(exps)


def _divides(a, b):
    """True when the monomial a divides b: every exponent of a is <= b's."""
    return all(x <= y for x, y in zip(a, b))


def _divisible_by_a_lead(m, family):
    return any(_divides(g.lead, m) for g in family.generators)


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
        m = tuple(combo.count(v) for v in range(n))
        if not _divisible_by_a_lead(m, family):
            brute.add(m)
    got = standard_monomials(family, degree)
    assert len(got) == len(set(got))
    assert set(got) == brute


@st.composite
def hypergraphs(draw):
    """Nonempty supports on n <= 8 vertices; some are repeated and some
    enlarged into supersets of others, so duplicate and nested supports
    occur, and many draws leave maximal faces of mixed sizes."""
    n = draw(st.integers(1, 8))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(1, full), max_size=12))
    if masks:
        for base in draw(st.lists(st.sampled_from(masks), max_size=4)):
            masks.append(base | draw(st.integers(0, full)))
    return n, draw(st.permutations(masks))


def _brute_maximal_faces(n, masks):
    faces = {s for s in range(1 << n) if not any(m & s == m for m in masks)}
    return sorted(
        s for s in faces
        if all(s | 1 << v not in faces for v in range(n) if not s >> v & 1)
    )


# non-faces {0,1} and {0,2}: maximal faces {0} and {1,2}
NON_PURE = (3, [0b011, 0b101])
# a duplicate and a superset of {0,1} beside {2,3}
NESTED = (4, [0b0011, 0b0011, 0b0111, 0b1100])


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
@example(NON_PURE)
@example(NESTED)
def test_maximal_faces_equal_a_brute_filter(graph):
    n, masks = graph
    assert sorted(_maximal_faces(n, masks)) == _brute_maximal_faces(n, masks)


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
@example(NON_PURE)
@example(NESTED)
def test_initial_complex_is_non_pure_exactly_when_sizes_mix(graph):
    n, masks = graph
    brute = _brute_maximal_faces(n, masks)
    sizes = {s.bit_count() for s in brute}
    ideal = InitialIdeal(
        generators=tuple(tuple(m >> i & 1 for i in range(n)) for m in masks),
        squarefree=True,
    )
    dim = max(sizes)
    if len(sizes) > 1:
        with pytest.raises(NonPureComplex):
            initial_complex(ideal, n, dim)
    else:
        expected = sorted(
            tuple(i + 1 for i in range(n) if s >> i & 1) for s in brute
        )
        assert initial_complex(ideal, n, dim) == tuple(expected)


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_facets_are_sorted_distinct_column_indices(r1, x1):
    family = groebner_family(build_q(r1, x1))
    n = family.nvars
    for facet in initial_complex(initial_ideal(family), n, family.q.d + 1):
        assert list(facet) == sorted(set(facet))
        assert all(1 <= p <= n for p in facet)


@st.composite
def lead_families(draw):
    """The (2, 1) family with its generators replaced by binomials whose
    leads are drawn at random, with repeats, multiples and non-squarefree
    leads; the tails are pure powers of one variable."""
    base = groebner_family(build_q(2, 1))
    n = base.nvars
    leads = draw(st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any),
        max_size=12,
    ))
    gens = []
    for lead in leads:
        degree = sum(lead)
        tail = [0] * n
        tail[0 if lead[0] != degree else n - 1] = degree
        gens.append(Binomial(tuple(lead), tuple(tail)))
    return base._replace(generators=tuple(gens), tags=("eq1",) * len(gens))


@settings(max_examples=200, deadline=None)
@given(lead_families())
def test_initial_ideal_equals_a_divides_filter(family):
    monos = {g.lead for g in family.generators}
    minimal = sorted(
        (m for m in monos if not any(o != m and _divides(o, m) for o in monos)),
        reverse=True,
    )
    ideal = initial_ideal(family)
    assert list(ideal.generators) == minimal
    assert ideal.squarefree == all(e <= 1 for m in minimal for e in m)



def _with_power_leads(family, variables, power):
    """The family plus x_v^power - y_d^power for each v in ``variables``."""
    n = family.nvars
    added = []
    for v in variables:
        lead = [0] * n
        lead[v] = power
        tail = [0] * n
        tail[n - 1] = power
        added.append(Binomial(tuple(lead), tuple(tail)))
    return family._replace(
        generators=family.generators + tuple(added),
        tags=family.tags + ("eq1",) * len(added),
    )


def _with_square_lead(family):
    """The family plus y_1^2 - y_d^2, a non-squarefree lead that divides
    standard monomials of the family from degree 2 on."""
    return _with_power_leads(family, [family.q.r1 + 3], 2)


@st.composite
def lead_sources(draw):
    """A ``SMALL_GRID`` family as built, with one generator dropped,
    sabotaged by either hook, or with a non-squarefree lead added."""
    family = groebner_family(build_q(*draw(st.sampled_from(SMALL_GRID))))
    source = draw(st.sampled_from(
        ["built", "dropped", "excluded_pair", "mutated_tail", "square_lead"]
    ))
    last = len(family.generators) - 1
    if source == "dropped":
        return without(family, draw(st.integers(0, last)))
    if source == "excluded_pair":
        return include_excluded_pair(family)
    if source == "mutated_tail":
        return mutate_tail(family, draw(st.integers(0, last)))
    if source == "square_lead":
        return _with_square_lead(family)
    return family


@settings(max_examples=200, deadline=None)
@given(st.one_of(lead_sources(), lead_families()), st.integers(0, 3))
@example(_with_square_lead(groebner_family(build_q(2, 1))), 3)
# a single-variable lead prunes the degree-1 layer, so the join of the
# later layers never sees that variable
@example(_with_power_leads(groebner_family(build_q(3, 1)), [1], 1), 3)
# squared leads: (v, v) is missing from the degree-2 run of prefix (v,)
@example(_with_power_leads(groebner_family(build_q(2, 1)), [0, 5], 2), 3)
# every variable a lead: the degree-1 layer and every sibling list are empty
@example(_with_power_leads(groebner_family(build_q(2, 1)), range(7), 1), 3)
def test_standard_monomials_grow_as_the_scan_finds_them(family, degree):
    # the order ideal built degree by degree lists exactly the monomials
    # that no lead divides, in combinations_with_replacement order, for
    # any lead set: Groebner or not, squarefree or not
    assert standard_monomials(family, degree) == scanned_standard_monomials(
        family, degree
    )


@st.composite
def packed_configurations(draw):
    """Integer columns with negative entries, bounded by M in absolute
    value, one entry equal to +-M, and a degree bound t; so x^t for that
    column has a coordinate of absolute value t * M, the most a
    pushforward of degree t can have."""
    t = draw(st.integers(1, 3))
    height = draw(st.integers(1, 3))
    bound = draw(st.integers(1, 5))
    entry = st.integers(-bound, bound)
    columns = draw(st.lists(
        st.lists(entry, min_size=height, max_size=height), min_size=1, max_size=4
    ))
    columns[0][draw(st.integers(0, height - 1))] = draw(st.sampled_from((bound, -bound)))
    return tuple(map(tuple, columns)), t, bound


@settings(max_examples=300, deadline=None)
@given(packed_configurations())
def test_packed_pushforwards_are_equal_exactly_when_the_images_are(case):
    columns, t, bound = case
    n = len(columns)
    packed = _packed_columns(columns, t)
    monomials = []
    for degree in range(t + 1):
        for combo in combinations_with_replacement(range(n), degree):
            monomials.append(tuple(combo.count(v) for v in range(n)))
    images = [pi_image(columns, m) for m in monomials]
    assert max(abs(x) for image in images for x in image) == t * bound
    packs = [sum(e * p for e, p in zip(m, packed)) for m in monomials]
    # equal packs exactly for equal images: the pairs are a bijection
    pairs = set(zip(packs, images))
    assert len(pairs) == len(set(packs)) == len(set(images))
