"""Property tests: the closed-form lattice points against the enumerator,
the enumerator and the dilation count against a scan of their bounding
box, the elimination kernel against the Leibniz determinant, the facet
walk against facet-by-facet elimination, the normal form, the standard
monomials against a plain entrywise divisibility test (``_divides``),
the complex and the squarefree flag read from all the leads against
those of the minimal leads that test keeps, the facet enumeration
against a filter of all vertex subsets, its faces on the twin quotient
against the plain dualization and its refusals against a brute count of
the twin classes each minimal support meets, the oracles' certificate weights
against tuple order, and the walk's lex verdicts against the oracles'
lower-cell test under explicit weights M^(n-1), ..., 1 with M above
twice every coefficient of one column in a facet's."""

from itertools import (
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)
from math import comb, prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpsimplex import (
    Binomial,
    build_q,
    ehrhart_bruteforce,
    enumerate_dilation_points,
    family_facets,
    groebner_family,
    h_description,
    initial_complex,
    lattice_points_bruteforce,
    lattice_points_formula,
)
from wpsimplex import simplex, triangulation
from wpsimplex.errors import (
    BudgetExceeded,
    NonGraphSupport,
    NonPureComplex,
    SingularFacet,
    WpsimplexError,
)
from wpsimplex.groebner import _standard_images
from wpsimplex.oracles import (
    _maximal_faces,
    dense_generators,
    facet_volume,
    is_lower_cell,
    make_weight_certificate,
    normal_form,
    pi_image,
    regularity_check,
    standard_monomials,
)
from wpsimplex.pipeline import _minimal_leads_squarefree
from wpsimplex.toric import _packed_columns, include_excluded_pair, mutate_tail
from wpsimplex.triangulation import (
    _eliminate,
    _face_size,
    _family_faces,
    _first_member,
    _lead_faces,
    _leads,
    _members,
    _minimal_covers,
    _twin_quotient,
    _walk_faces,
)

from conftest import (
    SMALL_GRID, dense, in_order, lex_weights, walk_facets, without, word
)

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
    rows = h_description(q)
    box = product(*(range(-t * e, t + 1) for e in q.entries))
    scanned = {
        p for p in box if all(sum(map(mul, row, p)) <= t for row in rows)
    }
    assert enumerate_dilation_points(q, t) == scanned
    assert ehrhart_bruteforce(q, t) == len(scanned)


def _slice_count(q, t):
    """The enumeration's work, slice by slice: one per slice s, plus
    its C(r + d - 1, r) points for a slice whose lower bounds
    ceil((s - t) / D_k) leave a remainder r = s - sum(lows) >= 0."""
    rows = h_description(q)
    denoms = [1 - rows[k][k] for k in range(q.d)]
    total = 0
    for s in range(-t * sum(q.entries), t + 1):
        r = s - sum(-((t - s) // dk) for dk in denoms)
        total += 1 if r < 0 else 1 + comb(r + q.d - 1, r)
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 3))
@example(8, 6, 3)
def test_skipped_slices_are_counted_one_each(r1, x1, t):
    # the jump over empty slices counts each of them as a visited slice,
    # so the smallest passing budget is the per-slice count, for the
    # listing and the count alike
    q = build_q(r1, x1)
    total = _slice_count(q, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(simplex.ENUM_BUDGET_ENV, str(total))
        points = enumerate_dilation_points(q, t)
        assert ehrhart_bruteforce(q, t) == len(points)
        mp.setenv(simplex.ENUM_BUDGET_ENV, str(total - 1))
        with pytest.raises(BudgetExceeded):
            enumerate_dilation_points(q, t)
        with pytest.raises(BudgetExceeded):
            ehrhart_bruteforce(q, t)


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
    """The (2, 1) configuration or a random integer one of height 3 to 6,
    with distinct column subsets of that size in any order, singular and
    non-unimodular ones included, so every verdict of the regularity
    check occurs.  A random configuration may take slack columns among its own, (e_t, 1)
    and the origin (0, ..., 0, 1), some repeated and some missing, so
    the kernels run from k = 0 to k = height; without them k = height."""
    columns = COLUMNS_2_1
    if draw(st.booleans()):
        height = draw(st.integers(3, 6))
        columns = draw(st.lists(
            st.tuples(*[st.integers(-2, 2)] * height),
            min_size=height // 2, max_size=height + 4,
        ))
        units = [
            tuple(int(k == t or k == height - 1) for k in range(height))
            for t in range(height)
        ]
        columns += draw(st.lists(st.sampled_from(units), max_size=height + 2))
        columns = tuple(draw(st.permutations(columns)))
        if len(columns) < height:
            columns += tuple(units[:height - len(columns)])
    height, n = len(columns[0]), len(columns)
    subsets = list(combinations(range(1, n + 1), height))
    facets = draw(st.lists(st.sampled_from(subsets), max_size=12, unique=True))
    return columns, tuple(facets)


def _first_verdict(check):
    try:
        return check()
    except SingularFacet as exc:
        return type(exc), str(exc)


def _assert_the_oracles_agree(columns, facets, volumes, lower):
    """Each facet's walked volume and verdict are the oracles': its
    volume, 0 when singular, and ``is_lower_cell`` under the explicit
    lex weights, which never meets a degenerate lift."""
    weights = lex_weights(columns)
    for facet, volume, verdict in zip(facets, volumes, lower, strict=True):
        expected = _first_verdict(lambda: facet_volume(columns, facet))
        assert volume == (0 if isinstance(expected, tuple) else expected)
        if volume:
            assert verdict == is_lower_cell(columns, weights, facet)


@settings(max_examples=300, deadline=None)
@given(facet_sets())
def test_walk_decides_as_the_facet_by_facet_check(case):
    # the parity test of the sign rule: single-facet faces on random
    # configurations, singular and non-unimodular cells included
    columns, facets = case
    volumes, lower = walk_facets(columns, facets)
    _assert_the_oracles_agree(columns, facets, volumes, lower)
    # the first facet in the order given that is singular or not a lower
    # cell decides as the oracle's facet-by-facet check does
    first = next((v for v, x in zip(volumes, lower) if not (v and x)), None)
    expected = _first_verdict(
        lambda: regularity_check(columns, lex_weights(columns), facets)
    )
    if first is None:
        assert expected is True
    elif first:
        assert expected is False
    else:
        assert expected[0] is SingularFacet


def _repeated_kinds(plain_rows, order, picks):
    """A configuration given in the slack coordinates y = (x_0, ...,
    x_{d-1}, h - sum(x)): ``plain_rows[t]`` is row t's kind, its entries
    on the plain columns, and every row t also has its slack column e_t.
    The plain columns and then the slacks are placed in column order at
    the 0-based positions ``order``, and each pick (K, T) is the facet of
    plain columns K and the slacks of rows T."""
    height, width = len(plain_rows), len(plain_rows[0])
    ys = [tuple(row[j] for row in plain_rows) for j in range(width)]
    ys += [tuple(int(k == t) for k in range(height)) for t in range(height)]
    columns = [None] * len(ys)
    for y, p in zip(ys, order):
        columns[p] = (*y[:-1], y[-1] + sum(y[:-1]))
    facets = tuple(
        tuple(sorted(
            [order[j] + 1 for j in plain] + [order[width + t] + 1 for t in rows]
        ))
        for plain, rows in picks
    )
    return tuple(columns), facets


#: Rows of kinds A, A, A, B and the slacks first: the three facets whose
#: free rows are two As are singular, and the three with an A and the B
#: share one k x k system.
SHARED_CLASS = _repeated_kinds(
    [(1, 2), (1, 2), (1, 2), (0, 1)], [4, 5, 0, 1, 2, 3],
    [((0, 1), rows) for rows in combinations(range(4), 2)],
)


@st.composite
def repeated_kinds(draw):
    """A configuration whose rows repeat one to three kinds, with a slack
    for every row and the columns in any order, and facets K + slack(T)
    on one or two sets K of plain columns, so many facets share a class,
    singular ones (two free rows of one kind) included."""
    height = draw(st.integers(2, 6))
    width = draw(st.integers(1, 4))
    kinds = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * width), min_size=1, max_size=3
    ))
    plain_rows = [draw(st.sampled_from(kinds)) for _ in range(height)]
    order = draw(st.permutations(range(width + height)))
    k = draw(st.integers(0, min(width, height)))
    plains = draw(st.lists(
        st.sampled_from(list(combinations(range(width), k))),
        min_size=1, max_size=2,
    ))
    picks = draw(st.lists(st.tuples(
        st.sampled_from(plains),
        st.sampled_from(list(combinations(range(height), height - k))),
    ), min_size=2, max_size=12))
    return _repeated_kinds(plain_rows, order, picks)


def test_members_of_a_shared_class_name_their_own_facet(monkeypatch):
    # plain facets are walked one by one even where they share a k x k
    # system: each singular member reads volume 0 on its own
    solved = []
    support = triangulation.facet_support_function

    def counted(columns, facet, frame=None):
        solved.append(facet)
        return support(columns, facet, frame)

    monkeypatch.setattr(triangulation, "facet_support_function", counted)
    columns, facets = SHARED_CLASS
    volumes, lower = walk_facets(columns, facets)
    assert solved == list(facets)  # one solve per facet, in facet order
    assert facets == (
        (1, 2, 5, 6), (1, 3, 5, 6), (1, 4, 5, 6),
        (2, 3, 5, 6), (2, 4, 5, 6), (3, 4, 5, 6),
    )
    assert volumes == [1, 1, 0, 1, 0, 0]
    assert lower == (True, True, False, True, False, False)
    _assert_the_oracles_agree(columns, facets, volumes, lower)


@settings(max_examples=300, deadline=None)
@given(repeated_kinds())
@example(SHARED_CLASS)
def test_shared_classes_decide_as_the_facet_by_facet_check(case):
    columns, facets = case
    _assert_the_oracles_agree(columns, facets, *walk_facets(columns, facets))


def _with_generators(family, pairs):
    """The family with its generators replaced by the pairs of exponent
    tuples, as words."""
    gens = tuple(Binomial(word(a), word(b)) for a, b in pairs)
    return family._replace(generators=gens)


@st.composite
def generator_lists(draw):
    """A grid point's family with its generators replaced by pairs of
    sparse monomials in the box {0..3}^n: any two, balanced or not and
    either side lex-greater, one twice, or one and a permutation of
    it."""
    family = groebner_family(build_q(*draw(PARAMS)))
    n = family.nvars
    monomial = st.dictionaries(
        st.integers(0, n - 1), st.integers(1, 3), max_size=3
    ).map(lambda exps: tuple(exps.get(i, 0) for i in range(n)))
    pair = st.one_of(
        st.tuples(monomial, monomial),
        monomial.map(lambda m: (m, m)),
        monomial.flatmap(lambda m: st.tuples(st.just(m), st.permutations(m))),
    )
    return _with_generators(family, draw(st.lists(pair, max_size=8)))


#: A lead of degree 1 against a tail whose one exponent, 3, is no
#: base-2 digit: weights from the lead degrees alone weigh the tail more.
HEAVY_TAIL = _with_generators(
    groebner_family(build_q(2, 1)), [((1, 0, 0, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0, 0))]
)


@settings(max_examples=200, deadline=None)
@given(generator_lists())
@example(HEAVY_TAIL)
def test_certificate_weights_order_every_pair_as_lex(family):
    # every exponent is a base-M digit, so the weighted sums compare as
    # the tuples do: the weights pick exactly the lex-greater side
    weights = make_weight_certificate(family).weights
    for lead, tail in dense_generators(family):
        lead_w, tail_w = (sum(map(mul, weights, m)) for m in (lead, tail))
        assert (lead_w > tail_w, lead_w == tail_w) == (lead > tail, lead == tail)


@st.composite
def ordered_points(draw):
    """A grid point's family read in one of four column orders, the same
    complex relabelled: as built, reversed, with the origin a_{r1+3}
    first, or a random permutation."""
    r1, x1 = draw(st.tuples(st.integers(2, 6), st.integers(1, 5)))
    family = groebner_family(build_q(r1, x1))
    order = list(range(family.nvars))
    kind = draw(st.sampled_from(("built", "reversed", "origin", "random")))
    if kind == "reversed":
        order.reverse()
    elif kind == "origin":
        order.insert(0, order.pop(r1 + 2))
    elif kind == "random":
        order = draw(st.permutations(order))
    return in_order(family, order)


@settings(max_examples=40, deadline=None)
@given(ordered_points())
def test_walk_decides_as_is_lower_cell_and_facet_volume(family):
    facets = family_facets(family)
    volumes, lower = walk_facets(family.columns, facets)
    assert volumes == [facet_volume(family.columns, f) for f in facets]
    _assert_the_oracles_agree(family.columns, facets, volumes, lower)


#: Rows of kinds A, B, A after the plain column, each with its slack, and
#: a face whose one choice is the slacks of the B row and the second A
#: row: its members (1, 2, 3) and (1, 2, 4) free rows of different kinds,
#: so the first is a unit lower cell and the second has volume 2 and is
#: not one.
MIXED_KINDS = _repeated_kinds([(-1,), (2,), (-1,)], [0, 1, 2, 3], [])


@st.composite
def twin_faces(draw):
    """One face and its configuration: a face of a grid point's family
    in one of the column orders of ``ordered_points``, or a face on a
    configuration of ``repeated_kinds`` with up to three choices of two
    or three columns each, slacks or not, among columns that keep every
    member at the column height."""
    if draw(st.booleans()):
        family = draw(ordered_points())
        return family.columns, draw(st.sampled_from(_family_faces(family)))
    columns, _ = draw(repeated_kinds())
    height, n = len(columns[0]), len(columns)
    sizes = draw(st.lists(st.integers(2, 3), max_size=min(3, n - height)).filter(
        lambda s: sum(s) <= height + len(s)
    ))
    full = tuple(sorted(
        draw(st.permutations(range(1, n + 1)))[:height + len(sizes)]
    ))
    positions = draw(st.permutations(range(len(full))))
    choices, start = [], 0
    for size in sizes:
        choices.append(tuple(sorted(positions[start:start + size])))
        start += size
    return columns, (full, tuple(choices))


@settings(max_examples=300, deadline=None)
@given(twin_faces())
@example((MIXED_KINDS[0], ((1, 2, 3, 4), ((2, 3),))))
def test_every_member_of_a_face_decides_as_it_does_alone(case):
    # a face decided whole holds only members that decide alike; any
    # other face is walked member by member
    columns, face = case
    cells = _walk_faces(columns, [face])
    decided = [
        (member, volume, lower)
        for cell, volume, lower in cells for member in _members(cell)
    ]
    assert sorted(m for m, _, _ in decided) == sorted(_members(face))
    volumes, lower = walk_facets(columns, [m for m, _, _ in decided])
    assert [v for _, v, _ in decided] == volumes
    assert tuple(x for _, _, x in decided) == lower
    if len(cells) == 1 and _face_size(face) > 1:
        assert cells[0][2] is True


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
    return any(_divides(g.lead, m) for g in dense_generators(family))


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


def _refusals(n, masks):
    """The refusal of each inclusion-minimal support that meets other
    than two twin classes, the twins taken over all the supports given:
    the certificate reads the complex off a graph, and refuses exactly
    when there is one."""
    twins = [
        frozenset(i for i, m in enumerate(masks) if m >> v & 1) for v in range(n)
    ]
    refusals = set()
    for m in set(masks):
        if any(o & m == o != m for o in masks):
            continue
        met = len({twins[v] for v in range(n) if m >> v & 1})
        if met != 2:
            columns = tuple(v + 1 for v in range(n) if m >> v & 1)
            refusals.add(f"lead support {columns} meets {met} twin classes, not 2")
    return refusals


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
    supports = tuple(tuple(i for i in range(n) if m >> i & 1) for m in masks)
    dim = max(sizes)
    refusals = _refusals(n, masks)
    if refusals:
        with pytest.raises(NonGraphSupport) as raised:
            initial_complex(supports, n, dim)
        assert str(raised.value) in refusals
    elif len(sizes) > 1:
        with pytest.raises(NonPureComplex):
            initial_complex(supports, n, dim)
    else:
        expected = sorted(
            tuple(i + 1 for i in range(n) if s >> i & 1) for s in brute
        )
        assert initial_complex(supports, n, dim) == tuple(expected)


@st.composite
def twinned_hypergraphs(draw):
    """Supports drawn on k <= 6 vertices, each vertex then planted as a
    twin class of one to three columns at shuffled positions, beside up
    to two columns in no support.  The supports may be empty, singletons,
    repeated or nested."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    k, loose = len(sizes), draw(st.integers(0, 2))
    order = draw(st.permutations(range(sum(sizes) + loose)))
    classes, start = [], 0
    for size in sizes:
        classes.append(order[start:start + size])
        start += size
    base = draw(st.lists(st.integers(0, (1 << k) - 1), max_size=10))
    masks = [
        sum(1 << v for i, c in enumerate(classes) if b >> i & 1 for v in c)
        for b in base
    ]
    return len(order), masks


@settings(max_examples=300, deadline=None)
@given(twinned_hypergraphs())
@example(NON_PURE)
@example(NESTED)
@example((3, []))
@example((3, [0, 0b011]))
@example((4, [0b0001, 0b0110]))
def test_twin_faces_expand_to_the_plain_dualization(graph):
    n, masks = graph
    plain = sorted(
        tuple(i + 1 for i in range(n) if s >> i & 1)
        for s in _maximal_faces(n, masks)
    )
    sizes = {len(f) for f in plain}
    supports = tuple(tuple(i for i in range(n) if m >> i & 1) for m in masks)
    dim = max(sizes, default=0)
    refusals = _refusals(n, masks)
    if refusals:
        with pytest.raises(NonGraphSupport) as raised:
            _lead_faces(supports, n, dim)
        assert str(raised.value) in refusals
        return
    if len(sizes) > 1:
        with pytest.raises(NonPureComplex) as raised:
            _lead_faces(supports, n, dim)
        # the face named is a maximal face of another size
        assert str(raised.value) in {
            f"maximal face {f} has {len(f)} vertices, expected {dim}"
            for f in plain if len(f) != dim
        }
        return
    faces = _lead_faces(supports, n, dim)
    members = [list(_members(face)) for face in faces]
    assert sorted(m for group in members for m in group) == plain
    assert [len(group) for group in members] == list(map(_face_size, faces))
    for face, group in zip(faces, members):
        assert group[0] == _first_member(face) == min(group)
    assert [group[0] for group in members] == sorted(g[0] for g in members)
    assert initial_complex(supports, n, dim) == tuple(plain)


@st.composite
def twinned_graphs(draw):
    """Pairs of k <= 7 classes, each class planted as one to three
    columns at shuffled positions, beside up to two columns in no
    support; some pairs are repeated and some enlarged into supersets by
    more classes.  A pair whose classes turn out twins meets one class,
    which the kernel refuses."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=7))
    k, loose = len(sizes), draw(st.integers(0, 2))
    order = draw(st.permutations(range(sum(sizes) + loose)))
    classes, start = [], 0
    for size in sizes:
        classes.append(order[start:start + size])
        start += size
    pairs = draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(
            lambda pair: pair[0] != pair[1]
        ),
        max_size=12,
    ))
    base = [1 << a | 1 << b for a, b in pairs]
    if base:
        for edge in draw(st.lists(st.sampled_from(base), max_size=4)):
            base.append(edge | draw(st.integers(0, (1 << k) - 1)))
    masks = [
        sum(1 << v for i, c in enumerate(classes) if b >> i & 1 for v in c)
        for b in draw(st.permutations(base))
    ]
    return len(order), masks


@settings(max_examples=300, deadline=None)
@given(twinned_graphs())
@example((3, []))
@example((2, [0b11]))
@example(NON_PURE)
@example(NESTED)
def test_minimal_covers_expand_to_the_plain_dualization(graph):
    # each cover of the twin quotient, expanded by one omitted column
    # per class, is a maximal face of the plain dualization, and every
    # one arises once; the kernel refuses exactly when a minimal support
    # meets other than two twin classes
    n, masks = graph
    supports = dict.fromkeys(tuple(i for i in range(n) if m >> i & 1) for m in masks)
    classes, edges = _twin_quotient(n, supports)
    refusals = _refusals(n, masks)
    if refusals:
        with pytest.raises(NonGraphSupport) as raised:
            _minimal_covers(classes, edges)
        assert str(raised.value) in refusals
        return
    full = (1 << n) - 1
    faces = [
        full ^ sum(1 << v for v in omitted)
        for t in _minimal_covers(classes, edges)
        for omitted in product(*(c for i, c in enumerate(classes) if t >> i & 1))
    ]
    assert sorted(faces) == sorted(_maximal_faces(n, masks))


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_facets_are_sorted_distinct_column_indices(r1, x1):
    family = groebner_family(build_q(r1, x1))
    n = family.nvars
    for facet in initial_complex(_leads(family), n, family.q.d + 1):
        assert list(facet) == sorted(set(facet))
        assert all(1 <= p <= n for p in facet)


@st.composite
def lead_families(draw):
    """The (2, 1) family with its generators replaced by binomials whose
    leads are drawn at random, with repeats, multiples and non-squarefree
    leads; the tails are pure powers of one variable."""
    n = groebner_family(build_q(2, 1)).nvars
    leads = draw(st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any),
        max_size=12,
    ))
    return _with_leads(map(word, leads))


def _with_leads(leads):
    """The (2, 1) family with its generators replaced by binomials with
    the given leads, as words, whose tails are pure powers of one
    variable."""
    base = groebner_family(build_q(2, 1))
    gens = [
        Binomial(lead, (0 if set(lead) != {0} else base.nvars - 1,) * len(lead))
        for lead in leads
    ]
    return base._replace(generators=tuple(gens))


def _with_multiples(family):
    """The family, its first generator again, and each generator times
    z1: the same minimal leads."""
    def times_z1(m):
        return (0,) + m

    extra = family.generators[:1] + tuple(
        Binomial(times_z1(g.lead), times_z1(g.tail)) for g in family.generators
    )
    return family._replace(
        generators=family.generators + extra,
    )


def _complex_or_error(monomials, n, dim):
    try:
        return initial_complex(monomials, n, dim)
    except WpsimplexError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(lead_families())
@example(_with_multiples(groebner_family(build_q(2, 1))))
# (4, 5, 6) splits 3 from 5: every lead is refused, the minimal ones
# are not pure
@example(_with_leads([(4, 6), (4, 5, 6), (3, 5, 6)]))
def test_initial_complex_reads_only_the_minimal_leads(family):
    # every lead against the inclusion-minimal ones, kept by a plain
    # divisibility filter: the same facets or the same error, and the
    # squarefree flag is whether the minimal leads are squarefree.  The
    # size asked for is the largest of the plain dualization's maximal
    # faces, so about half the draws give a pure complex.  Each side is
    # refused exactly when its twins, which the leads that are not
    # minimal can split, leave a minimal support off the graph
    every = _leads(family)
    n = family.nvars
    minimal = tuple(
        m for m in set(every)
        if not any(o != m and _divides(dense(o, n), dense(m, n)) for o in every)
    )
    masks = [sum(1 << i for i in set(m)) for m in minimal]
    dim = max(s.bit_count() for s in _maximal_faces(n, masks))
    outcomes = []
    for leads in (every, minimal):
        outcome = _complex_or_error(leads, n, dim)
        refusals = _refusals(n, [sum(1 << i for i in set(m)) for m in leads])
        assert (outcome is NonGraphSupport) == bool(refusals)
        outcomes.append(outcome)
    if NonGraphSupport not in outcomes:
        assert outcomes[0] == outcomes[1]
    assert _minimal_leads_squarefree(every) == all(
        e <= 1 for m in minimal for e in dense(m, n)
    )



def _with_power_leads(family, variables, power):
    """The family plus x_v^power - y_d^power for each v in ``variables``."""
    n = family.nvars
    added = [Binomial((v,) * power, (n - 1,) * power) for v in variables]
    return family._replace(
        generators=family.generators + tuple(added),
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


def _with_column(family, v, column):
    """The family with column v moved to ``column``; the leads stay."""
    columns = list(family.columns)
    columns[v] = column
    return family._replace(columns=tuple(columns))


def _assert_the_join_finds_the_scan(family, degree):
    """``_standard_images`` up to ``degree`` lists, degree by degree and
    in order, the packed pushforwards of ``oracles.standard_monomials``,
    under the family's columns and under unit columns, whose packed
    pushforward identifies the monomial itself."""
    n = family.nvars
    unit = tuple(tuple(int(i == v) for i in range(n)) for v in range(n))
    for columns in (family.columns, unit):
        placed = family._replace(columns=columns)
        packed = _packed_columns(columns, degree)
        scanned = [
            [sum(map(mul, m, packed)) for m in standard_monomials(placed, t)]
            for t in range(1, degree + 1)
        ]
        assert list(_standard_images(placed, degree)) == scanned


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
# planted column collisions: z5 onto z4's point coincides in degree 1,
# z7 onto 2 * z6 - z4 in degree 2
@example(_with_column(groebner_family(build_q(2, 1)), 4, (0, -1, 1)), 3)
@example(_with_column(groebner_family(build_q(2, 1)), 6, (0, 3, 1)), 3)
def test_standard_monomials_grow_as_the_scan_finds_them(family, degree):
    # the order ideal joined degree by degree lists exactly the monomials
    # that no lead divides, in combinations_with_replacement order, for
    # any lead set: Groebner or not, squarefree or not
    _assert_the_join_finds_the_scan(family, degree)


def test_the_join_finds_the_scan_at_every_single_generator_deletion():
    deletions = 0
    for r1, x1 in SMALL_GRID:
        family = groebner_family(build_q(r1, x1))
        for k in range(len(family.generators)):
            _assert_the_join_finds_the_scan(without(family, k), 3)
            deletions += 1
    assert deletions == 137


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
