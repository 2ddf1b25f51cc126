from operator import sub

import pytest

from wpsimplex import (
    Binomial,
    Monomial,
    binomial_text,
    build_B,
    build_q,
    companion,
    excluded_pair_binomial,
    groebner_family,
    is_toric_member,
    lattice_points_formula,
    monomial_text,
    pi_image,
)
from wpsimplex import toric
from wpsimplex.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InternalConsistency,
    InvalidPair,
)
from wpsimplex.toric import (
    eq1_binomial,
    eq2_binomial,
    eq3_binomial,
    eq3star_binomial,
    eq4_binomial,
    eq5_binomial,
    excluded_pair,
    include_excluded_pair,
    mutate_tail,
    pi_balance_failures,
    total_vars,
    y_index,
    z_index,
    zsupport,
)

from conftest import SMALL_GRID


def _mono(q, **powers):
    """Build a monomial from keywords like z1=1, y2=3."""
    exps = [0] * total_vars(q)
    for name, e in powers.items():
        idx = int(name[1:])
        exps[z_index(idx) if name[0] == "z" else y_index(q.r1, idx)] = e
    return Monomial(exps)


# -- monomial and binomial basics --------------------------------------------

def test_monomial_arithmetic():
    a = Monomial((1, 0, 2))
    b = Monomial((0, 1, 1))
    assert (a * b).exponents == (1, 1, 3)
    lcm = Monomial(map(max, a.exponents, b.exponents))
    assert lcm.exponents == (1, 1, 2)
    assert a.divides(lcm) and b.divides(lcm)
    assert not a.divides(b)
    assert b.divides(a * b)
    assert Monomial(map(sub, (a * b).exponents, b.exponents)) == a
    assert a.degree == 3
    assert Monomial((0,) * 3).degree == 0
    assert Monomial.variable(1, 3).exponents == (0, 1, 0)


def test_monomial_rejects_negative():
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_binomial_validation():
    with pytest.raises(ValueError):
        Binomial(Monomial((1, 0)), Monomial((1, 0)))
    with pytest.raises(ValueError):
        Binomial(Monomial((2, 0)), Monomial((0, 1)))  # inhomogeneous
    with pytest.raises(DimensionMismatch):
        Binomial(Monomial((1, 0)), Monomial((0, 1, 0)))


def test_monomial_text():
    q = build_q(2, 1)
    assert monomial_text(Monomial((0,) * 7), 2) == "1"
    assert monomial_text(_mono(q, z2=2), 2) == "z2^2"
    assert monomial_text(_mono(q, z1=1, y2=1), 2) == "z1*y2"


def test_zsupport():
    q = build_q(2, 1)
    assert zsupport(_mono(q, z2=2, z4=1, y1=3), 2) == frozenset({2, 4})
    assert zsupport(_mono(q, y1=1, y2=1), 2) == frozenset()


# -- the configuration matrix --------------------------------------------------

def test_homogenize_2_1():
    cols = lattice_points_formula(build_q(2, 1)).homogenized
    assert cols[2] == (-1, -1, 1)  # a3
    assert cols[4] == (0, 0, 1)  # a5, the lifted origin
    assert all(col[-1] == 1 for col in cols)


def test_homogenize_6_4_shape():
    cols = lattice_points_formula(build_q(6, 4)).homogenized
    assert len(cols) == 18
    assert all(len(col) == 10 for col in cols)


def test_pi_image_examples():
    q = build_q(2, 1)
    cols = lattice_points_formula(q).homogenized
    assert pi_image(cols, _mono(q, y1=1, y2=1)) == (1, 1, 2)
    assert pi_image(cols, _mono(q, z2=1, z4=1)) == (-1, -3, 2)
    # a different monomial with the same image: a relation in the making
    assert pi_image(cols, _mono(q, z1=1, y2=1)) == (-1, -3, 2)


def test_pi_image_dimension_check():
    cols = lattice_points_formula(build_q(2, 1)).homogenized
    with pytest.raises(DimensionMismatch):
        pi_image(cols, Monomial((1, 0)))


def test_is_toric_member_counterexample():
    q = build_q(2, 1)
    cols = lattice_points_formula(q).homogenized
    bad = Binomial(_mono(q, z2=1, z4=1), _mono(q, z2=1, z3=1))
    assert not is_toric_member(cols, bad)


# -- pair set and companions -----------------------------------------------------

def test_build_B_r2():
    assert set(build_B(2)) == {(1, 4), (1, 5), (2, 5)}


def test_build_B_r3():
    assert set(build_B(3)) == {(1, 3), (1, 5), (1, 6), (2, 5), (2, 6), (3, 6)}


def test_pair_r1_plus_1_rejected():
    assert (1, 3) not in build_B(2)  # j = r1 + 1 is never allowed


@pytest.mark.parametrize("r1", range(2, 9))
def test_excluded_pair_not_in_B(r1):
    assert excluded_pair(r1) not in build_B(r1)


def test_companion_examples_r2():
    assert companion(1, 4, 2) == (2, 2)
    assert companion(1, 5, 2) == (2, 3)
    assert companion(2, 5, 2) == (3, 4)


def test_companion_rejects_non_members():
    with pytest.raises(InvalidPair):
        companion(2, 4, 2)  # the excluded pair
    with pytest.raises(InvalidPair):
        companion(1, 3, 2)  # j = r1 + 1


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_companion_products_balance(r1, x1):
    q = build_q(r1, x1)
    cols = lattice_points_formula(q).homogenized
    for i, j in build_B(r1):
        assert is_toric_member(cols, eq1_binomial(q, i, j))


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_excluded_pair_binomial_fails_balance(r1, x1):
    q = build_q(r1, x1)
    cols = lattice_points_formula(q).homogenized
    assert not is_toric_member(cols, excluded_pair_binomial(q))


def test_excluded_pair_binomial_text():
    assert binomial_text(excluded_pair_binomial(build_q(2, 1)), 2) == "z2*z4 - z2*z3"


# -- generator families ------------------------------------------------------------

def test_generators_2_1_texts():
    q = build_q(2, 1)
    assert binomial_text(eq4_binomial(q), 2) == "z4*y1 - z5^2"
    assert binomial_text(eq5_binomial(q), 2) == "z3*y2 - z4*z5"
    assert binomial_text(eq3_binomial(q, 1), 2) == "z1*y2 - z2*z4"
    assert binomial_text(eq2_binomial(q, 0), 2) == "z1*y1 - z3^2"
    assert binomial_text(eq1_binomial(q, 1, 4), 2) == "z1*z4 - z2^2"


def test_eq_k_ranges():
    q = build_q(2, 1)
    with pytest.raises(IndexOutOfRange):
        eq2_binomial(q, 2)
    with pytest.raises(IndexOutOfRange):
        eq3_binomial(q, -1)


def test_eq3_deep_k_rejected_shallow_variant():
    q = build_q(6, 1)
    with pytest.raises(IndexOutOfRange):
        eq3_binomial(q, 3)  # x1 + 1 = 2 < 3


def test_eq3star_deep_split_6_1():
    # x1 = 1 < r1 - 2 = 4: tails slide down one a-column per x1+1 steps
    q = build_q(6, 1)
    assert binomial_text(eq3star_binomial(q, 3), 6) == "z3*y6 - z5*z6"
    assert binomial_text(eq3star_binomial(q, 4), 6) == "z2*y6 - z5^2"
    assert binomial_text(eq3star_binomial(q, 5), 6) == "z1*y6 - z4*z5"
    cols = lattice_points_formula(q).homogenized
    for k in range(6):
        assert is_toric_member(cols, eq3star_binomial(q, k))


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_eq3_variants_share_leads(r1, x1):
    q = build_q(r1, x1)
    for k in range(min(r1 - 1, x1 + 1) + 1):
        assert eq3_binomial(q, k).lead == eq3star_binomial(q, k).lead


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_family_tag_counts(r1, x1):
    family = groebner_family(build_q(r1, x1))
    tags = family.tags
    assert tags.count("eq1") == len(build_B(r1))
    assert tags.count("eq2") == r1
    assert tags.count("eq3") + tags.count("eq3star") == r1
    assert tags.count("eq4") == 1
    assert tags.count("eq5") == 1
    assert len(family.generators) == len(build_B(r1)) + 2 * r1 + 2


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_family_generators_sound(r1, x1):
    family = groebner_family(build_q(r1, x1))
    for g in family.generators:
        assert g.lead.degree == g.tail.degree
        assert is_toric_member(family.columns, g)
        assert g.lead.exponents > g.tail.exponents  # lex-oriented
        assert g.lead.is_squarefree()
    assert pi_balance_failures(family) == ()


def test_family_2_1_size():
    family = groebner_family(build_q(2, 1))
    assert len(family.generators) == 9
    assert len(family.b_pairs) == 3


def test_mutate_tail_breaks_balance(family21):
    for index in range(len(family21.generators)):
        mutated = mutate_tail(family21, index)
        assert pi_balance_failures(mutated) == (index,)


def test_include_excluded_pair_fails_audit(family21):
    sabotaged = include_excluded_pair(family21)
    assert pi_balance_failures(sabotaged) == (len(family21.generators),)


def test_mutate_tail_index_check(family21):
    with pytest.raises(IndexOutOfRange):
        mutate_tail(family21, 99)


def test_construction_audit_names_the_unbalanced_generator(monkeypatch):
    # an eq5 constructor that emits the excluded pair's binomial must stop
    # the build with the generator's index, tag and text
    monkeypatch.setattr(toric, "eq5_binomial", excluded_pair_binomial)
    with pytest.raises(InternalConsistency) as info:
        toric.groebner_family.__wrapped__(build_q(2, 1))
    assert str(info.value) == "generator 8 (eq5) z2*z4 - z2*z3 is not pi-balanced"
