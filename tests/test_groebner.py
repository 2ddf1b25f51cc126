import random
from itertools import combinations
from operator import add

import pytest

from wpsimplex import (
    Binomial,
    build_q,
    ehrhart_value,
    groebner_family,
    hstar,
    injectivity_check,
    monomial_text,
)
from wpsimplex.errors import BudgetExceeded
from wpsimplex.groebner import _standard_images
from wpsimplex.oracles import (
    DimensionMismatch,
    SupportCase,
    buchberger_verify,
    dense_generators,
    is_standard,
    normal_form,
    pi_image,
    s_polynomial,
    standard_monomials,
    zsupport_shape,
)
from wpsimplex.pipeline import check_family, check_triangulation

from conftest import (
    SMALL_GRID, dense_binomial, scanned_injectivity, tags, without, word
)


def _mono_of_text(n, *factors):
    exps = [0] * n
    for idx, e in factors:
        exps[idx] += e
    return tuple(exps)


# -- lex order ----------------------------------------------------------------
# Pure lex in the column order is Python's order on exponent tuples, the
# oracles' format; the family reads it on words (``toric.orientation_failures``,
# held against this order in test_toric).

def test_lex_cmp_examples():
    # z1 beats anything without z1
    z1 = (1, 0, 0, 0, 0, 0, 0)
    z2sq = (0, 2, 0, 0, 0, 0, 0)
    assert z1 > z2sq
    z2z5 = (0, 1, 0, 0, 1, 0, 0)
    z3z4 = (0, 0, 1, 1, 0, 0, 0)
    assert z2z5 > z3z4
    assert z2z5 == z2z5
    assert z3z4 < z2z5


def test_lex_multiplicative():
    rng = random.Random(20201022)
    for _ in range(300):
        n = rng.randint(2, 8)
        u = tuple(rng.randint(0, 3) for _ in range(n))
        v = tuple(rng.randint(0, 3) for _ in range(n))
        w = tuple(rng.randint(0, 3) for _ in range(n))
        uw, vw = tuple(map(add, u, w)), tuple(map(add, v, w))
        assert (uw > vw) == (u > v)
        assert (uw == vw) == (u == v)


# -- normal forms ----------------------------------------------------------------

def test_normal_form_single_step(family21):
    z1z4 = _mono_of_text(7, (0, 1), (3, 1))
    assert monomial_text(word(normal_form(z1z4, family21)), 2) == "z2^2"


def test_normal_form_fixpoint(family21):
    m = _mono_of_text(7, (2, 2), (3, 1))  # z3^2 z4, standard
    assert normal_form(m, family21) == m


def test_normal_form_chain(family21):
    m = _mono_of_text(7, (0, 1), (3, 1), (5, 1))  # z1 z4 y1
    nf = normal_form(m, family21)
    assert monomial_text(word(nf), 2) == "z3^2*z4"
    assert is_standard(nf, family21)
    assert pi_image(family21.columns, nf) == pi_image(family21.columns, m)
    assert pi_image(family21.columns, nf) == (-2, -3, 3)


def test_is_standard_dimension_check(family21):
    with pytest.raises(DimensionMismatch):
        is_standard((1, 0), family21)


def test_normal_form_dimension_check(family21):
    # the rewrite loop zips exponent tuples, so a monomial of the wrong
    # size would otherwise come back truncated
    for exps in ((1, 0, 0, 1), (0,) * 8):
        with pytest.raises(DimensionMismatch):
            normal_form(exps, family21)


def _all_monomials(n, degree):
    from itertools import combinations_with_replacement

    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for v in combo:
            exps[v] += 1
        yield tuple(exps)


@pytest.mark.parametrize("r1,x1", [(2, 1), (3, 2)])
def test_normal_form_preserves_pushforward(r1, x1):
    family = groebner_family(build_q(r1, x1))
    for degree in (1, 2, 3):
        for m in _all_monomials(family.nvars, degree):
            nf = normal_form(m, family)
            assert is_standard(nf, family)
            assert pi_image(family.columns, nf) == pi_image(family.columns, m)


def _exhaustive_normal_forms(m, family):
    """All normal forms reachable by any rewrite order."""
    applicable = [
        g for g in dense_generators(family)
        if all(a <= b for a, b in zip(g.lead, m))
    ]
    if not applicable:
        return {m}
    out = set()
    for g in applicable:
        rewritten = tuple(
            e - a + b for e, a, b in zip(m, g.lead, g.tail)
        )
        out |= _exhaustive_normal_forms(rewritten, family)
    return out


def test_confluence_spot_check(family21):
    # all rewrite orders agree on every monomial up to degree 3
    for degree in (2, 3):
        for m in _all_monomials(7, degree):
            forms = _exhaustive_normal_forms(m, family21)
            assert len(forms) == 1
            assert forms == {normal_form(m, family21)}


# -- S-pairs and the Buchberger run ------------------------------------------------

def test_s_polynomial_example(family21):
    by_text = {
        (tag, monomial_text(g.lead, 2)): g
        for tag, g in zip(tags(family21.q), family21.generators)
    }
    g1 = dense_binomial(by_text[("eq1", "z1*z4")], 7)  # z1 z4 - z2^2
    g2 = dense_binomial(by_text[("eq4", "z4*y1")], 7)  # z4 y1 - z5^2
    s = s_polynomial(g1, g2)
    assert monomial_text(word(s.lead), 2) == "z1*z5^2"
    assert monomial_text(word(s.tail), 2) == "z2^2*y1"
    assert normal_form(s.lead, family21) == normal_form(s.tail, family21)


def test_s_polynomial_identical_is_zero(family21):
    g = family21.generators[0]
    assert s_polynomial(g, g) is None


def test_s_polynomial_orientation(family21):
    gens = dense_generators(family21)
    for g1 in gens:
        for g2 in gens:
            s = s_polynomial(g1, g2)
            if s is not None:
                assert s.lead > s.tail


def test_every_s_pair_is_pi_balanced():
    # a balanced pair of binomials has a balanced S-pair, on the 5 x 5 grid
    pairs = 0
    for r1 in range(2, 7):
        for x1 in range(1, 6):
            family = groebner_family(build_q(r1, x1))
            for g1, g2 in combinations(dense_generators(family), 2):
                pairs += 1
                s = s_polynomial(g1, g2)
                if s is not None:
                    assert pi_image(family.columns, s.lead) == pi_image(
                        family.columns, s.tail
                    ), (r1, x1, g1, g2)
    assert pairs == 6315


def test_buchberger_2_1(family21):
    report = buchberger_verify(family21)
    assert report.pairs_total == 36
    assert report.pairs_reduced_to_zero == 36
    assert report.failures == ()
    assert report.passed


def test_sympy_oracle_2_1(family21):
    # independent oracle: the reduced lex Groebner basis of the toric ideal,
    # by elimination with one inverse variable per row of the homogenized
    # matrix (x_i - prod t_r^c v_r^-c, t_r v_r - 1), must have the family's
    # 9 leads
    sympy = pytest.importorskip("sympy")
    cols = family21.columns
    xs = sympy.symbols(f"x1:{len(cols) + 1}")
    ts = sympy.symbols(f"t1:{len(cols[0]) + 1}")
    vs = sympy.symbols(f"v1:{len(cols[0]) + 1}")
    polys = [t * v - 1 for t, v in zip(ts, vs)]
    for x, col in zip(xs, cols):
        image = sympy.Integer(1)
        for t, v, c in zip(ts, vs, col):
            image *= t**c if c > 0 else v**-c
        polys.append(x - image)
    basis = sympy.groebner(polys, *ts, *vs, *xs, order="lex")
    eliminated = [g for g in basis.exprs if not g.free_symbols & set(ts + vs)]
    leads = {sympy.Poly(g, *xs).monoms(order="lex")[0] for g in eliminated}
    assert len(eliminated) == 9
    assert leads == {g.lead for g in dense_generators(family21)}


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_buchberger_passes_on_grid(r1, x1):
    report = buchberger_verify(groebner_family(build_q(r1, x1)))
    assert report.passed
    assert report.pairs_reduced_to_zero == report.pairs_total


def test_buchberger_detects_non_basis(family21):
    # two binomials with the same lead but different irreducible tails:
    # their S-pair cannot reduce to zero
    g1 = Binomial((0, 3), (1, 1))  # z1 z4 - z2^2
    g2 = Binomial((0, 3), (2, 4))  # z1 z4 - z3 z5
    broken = family21._replace(generators=(g1, g2))
    report = buchberger_verify(broken)
    assert not report.passed
    assert report.failures == ((0, 1),)


def test_buchberger_vacuous_cases(family21):
    empty = family21._replace(generators=())
    assert buchberger_verify(empty).passed
    single = family21._replace(
        generators=(family21.generators[0],)
    )
    report = buchberger_verify(single)
    assert report.passed and report.pairs_total == 0


# -- initial ideal and standard monomials ----------------------------------------

def _squarefree_flag(family):
    """The family stage's ``squarefree`` flag: the minimal leads, the
    generators of the initial ideal, are squarefree."""
    stage = check_family(family, check_triangulation(family), max_degree=0)
    return stage.flags["squarefree"]


# z1^2*z4 - z1*z2^2, z1 times the first generator z1*z4 - z2^2 at (2,1)
Z1_SQUARED_Z4 = Binomial((0, 0, 3), (0, 1, 1))


def test_initial_ideal_2_1(family21):
    # nine distinct squarefree leads, so each is a minimal generator
    leads = [g.lead for g in family21.generators]
    texts = {monomial_text(m, 2) for m in leads}
    assert texts == {
        "z1*z4", "z1*z5", "z2*z5",
        "z1*y1", "z2*y1", "z2*y2", "z1*y2",
        "z4*y1", "z3*y2",
    }
    assert len(leads) == len(texts)
    assert all(len(set(m)) == len(m) for m in leads)
    assert _squarefree_flag(family21) is True


def test_initial_ideal_minimalizes(family21):
    # the lead z1^2*z4 is divided by z1*z4, so it is no minimal generator
    # and its square does not count
    fam = family21._replace(
        generators=(family21.generators[0], Z1_SQUARED_Z4)
    )
    assert _squarefree_flag(fam) is True


def test_initial_ideal_squarefree_flag(family21):
    # alone, or beside a copy of itself, z1^2*z4 is a minimal lead
    for generators in [(Z1_SQUARED_Z4,), (Z1_SQUARED_Z4,) * 2]:
        fam = family21._replace(
            generators=generators
        )
        assert _squarefree_flag(fam) is False


def test_initial_ideal_empty(family21):
    fam = family21._replace(generators=())
    assert _squarefree_flag(fam) is True


def test_standard_monomial_counts(family21):
    assert len(standard_monomials(family21, 0)) == 1
    assert len(standard_monomials(family21, 1)) == 7
    assert len(standard_monomials(family21, 2)) == 19
    assert len(standard_monomials(family21, 3)) == 37


def test_standard_monomials_are_standard(family21):
    for m in standard_monomials(family21, 3):
        assert is_standard(m, family21)


def test_standard_monomials_budget(family21, monkeypatch):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "10")
    with pytest.raises(BudgetExceeded) as caught:
        standard_monomials(family21, 3)
    assert str(caught.value) == "84 degree-3 monomials exceed the budget 10"
    # only the requested degree is checked: C(7 + 1, 2) = 28 fits
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "28")
    assert len(standard_monomials(family21, 2)) == 19


def test_injectivity_checks_each_degree_before_the_next_budget(
    family21, monkeypatch
):
    # degree 1 fits a budget of 10, degree 2 does not
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "10")
    with pytest.raises(BudgetExceeded) as caught:
        injectivity_check(family21, max_degree=3)
    assert str(caught.value) == "28 degree-2 monomials exceed the budget 10"
    # the budget is checked before the degree-2 count, which fails here
    crippled = without(family21, tags(family21.q).index("eq4"))
    with pytest.raises(BudgetExceeded):
        injectivity_check(crippled, max_degree=3)
    # a linear lead z1 - z2 makes the degree-1 count fail first
    linear = Binomial((0,), (1,))
    cut = family21._replace(
        generators=family21.generators + (linear,),
    )
    assert injectivity_check(cut, max_degree=3) is False


def test_counts_match_dilation(family21):
    h = hstar(family21.q)
    for t in (1, 2, 3):
        assert len(standard_monomials(family21, t)) == ehrhart_value(h, t)


def test_injectivity(family21):
    assert injectivity_check(family21, max_degree=3)
    assert injectivity_check(family21, max_degree=0)
    assert injectivity_check(groebner_family(build_q(3, 2)), max_degree=2)


@pytest.mark.parametrize("r1,x1", [(30, 5), (40, 3)])
def test_injectivity_at_the_frontier(r1, x1):
    family = groebner_family(build_q(r1, x1))
    assert injectivity_check(family) is True
    h = hstar(family.q)
    layers = list(_standard_images(family, 3))
    assert [len(images) for images in layers] == [
        ehrhart_value(h, t) for t in (1, 2, 3)
    ]
    assert all(len(set(images)) == len(images) for images in layers)


def test_injectivity_detects_missing_generator(family21):
    # dropping a generator frees its lead monomial, so the degree-2
    # standard count exceeds the dilation value
    kept = tuple(
        g for g, tag in zip(family21.generators, tags(family21.q)) if tag != "eq4"
    )
    crippled = family21._replace(generators=kept)
    assert len(standard_monomials(crippled, 2)) == 20
    assert not injectivity_check(crippled, max_degree=2)


@pytest.mark.parametrize("moved, column, degree", [
    # z5 onto z4's point: the degree-1 pushforwards coincide
    (4, (0, -1, 1), 1),
    # z7 onto 2 * z6 - z4: z4 z7 and z6^2 coincide in degree 2
    (6, (0, 3, 1), 2),
], ids=["degree 1", "degree 2"])
def test_injectivity_detects_coinciding_pushforwards(
    family21, moved, column, degree
):
    columns = list(family21.columns)
    columns[moved] = column
    collided = family21._replace(columns=tuple(columns))
    # the leads are unchanged, so every degree count still matches and
    # only the distinctness test can fail, first at the planted degree
    h = hstar(collided.q)
    layers = list(_standard_images(collided, 3))
    assert [len(images) for images in layers] == [
        ehrhart_value(h, t) for t in (1, 2, 3)
    ]
    repeated = [len(set(images)) < len(images) for images in layers]
    assert repeated.index(True) == degree - 1
    assert injectivity_check(collided) is False
    assert scanned_injectivity(collided) is False


# -- support shapes --------------------------------------------------------------

def test_zsupport_shape_cases():
    q = build_q(2, 1)
    pure_y = _mono_of_text(7, (5, 1), (6, 2))
    assert zsupport_shape(pure_y, q).case is SupportCase.EMPTY
    z5cubed = _mono_of_text(7, (4, 3))
    shape = zsupport_shape(z5cubed, q)
    assert shape.case is SupportCase.CASE3
    assert shape.zsupport == frozenset({5})
    lead = _mono_of_text(7, (0, 1), (3, 1))  # z1 z4: not standard
    assert zsupport_shape(lead, q).case is SupportCase.VIOLATION


def test_zsupport_shape_middle_case():
    q = build_q(3, 1)
    n = q.r1 + q.d + 3  # 9
    m = _mono_of_text(n, (2, 1), (4, 1))  # z3 z5: min index r1, support {3, 5}
    shape = zsupport_shape(m, q)
    assert shape.case is SupportCase.CASE2
    assert shape.zsupport == frozenset({3, 5})


@pytest.mark.parametrize("r1,x1", [(2, 1), (3, 2), (4, 1)])
def test_standard_monomials_never_violate(r1, x1):
    q = build_q(r1, x1)
    family = groebner_family(q)
    for t in (1, 2, 3):
        for m in standard_monomials(family, t):
            assert zsupport_shape(m, q).case is not SupportCase.VIOLATION


# -- reducedness: the tails are pinned --------------------------------------------
# The certificate fixes the leads and fiber membership, not the tails: a
# tail swapped for a non-standard monomial of the same fiber, lex-below
# the lead, still passes the family and triangulation stages.  The
# family printed as the paper's is the reduced basis, checked here.

GRID = [(r1, x1) for r1 in range(2, 7) for x1 in range(1, 6)]


def _support(m):
    return sum(1 << i for i, e in enumerate(m) if e)


def reducedness_failures(family):
    """Indices of generators whose lead another generator's lead divides,
    or whose tail some lead divides.  The leads are squarefree, so a
    lead divides a tail exactly when its support lies inside the
    tail's."""
    gens = dense_generators(family)
    leads = [g.lead for g in gens]
    assert all(e <= 1 for lead in leads for e in lead)
    supports = [_support(lead) for lead in leads]
    failures = []
    for i, g in enumerate(gens):
        tail = _support(g.tail)
        if any(
            j != i and not s & ~supports[i] for j, s in enumerate(supports)
        ) or any(not s & ~tail for s in supports):
            failures.append(i)
    return failures


@pytest.mark.parametrize("r1,x1", GRID)
def test_family_is_reduced(r1, x1):
    assert reducedness_failures(groebner_family(build_q(r1, x1))) == []


def test_reducedness_catches_a_fiber_mate_tail():
    family = groebner_family(build_q(3, 2))
    g = family.generators[11]
    assert monomial_text(g.tail, 3) == "z3^2*z5"
    # z2*z5^2: same degree and pushforward, lex-below the lead z1*y3*y4,
    # and divisible by the lead z2*z5 of another generator
    mate = _mono_of_text(family.nvars, (1, 1), (4, 2))
    lead, tail = dense_binomial(g, family.nvars)
    assert pi_image(family.columns, mate) == pi_image(family.columns, tail)
    assert tail < mate < lead
    gens = list(family.generators)
    gens[11] = Binomial(g.lead, word(mate))
    sabotaged = family._replace(generators=tuple(gens))
    triangulation = check_triangulation(sabotaged)
    assert triangulation.verdict is True
    assert check_family(sabotaged, triangulation).verdict is True
    assert reducedness_failures(sabotaged) == [11]


@pytest.mark.parametrize("r1,x1", [(2, 1), (3, 2), (5, 2)])
def test_standard_images_are_the_packed_pushforwards(r1, x1):
    from wpsimplex.toric import _packed_columns

    family = groebner_family(build_q(r1, x1))
    packed = _packed_columns(family.columns, 3)
    for t, images in enumerate(_standard_images(family, 3), start=1):
        assert images == [
            sum(e * p for e, p in zip(m, packed))
            for m in standard_monomials(family, t)
        ]
