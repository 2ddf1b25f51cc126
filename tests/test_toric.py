import hashlib
import json
import tracemalloc
from itertools import product

import pytest

from wpsimplex import (
    Binomial,
    GroebnerFamily,
    binomial_text,
    build_B,
    build_q,
    companion,
    excluded_pair_binomial,
    groebner_family,
    lattice_points_formula,
    monomial_text,
)
from wpsimplex import toric
from wpsimplex.errors import IndexOutOfRange, InvalidPair
from wpsimplex.toric import (
    excluded_pair,
    exponents,
    include_excluded_pair,
    mutate_tail,
    orientation_failures,
    pi_balance_failures,
)
from wpsimplex.pipeline import check_family, check_triangulation
from wpsimplex.oracles import (
    DimensionMismatch, dense_generators, is_toric_member, pi_image, zsupport
)

from conftest import SMALL_GRID, dense, dense_binomial, replacing, tags, word


def _mono(q, **powers):
    """The word of a monomial given by keywords like z1=1, y2=3: z_i is
    index i - 1 and y_j is index r1 + 2 + j."""
    return tuple(sorted(
        int(name[1:]) - 1 if name[0] == "z" else q.r1 + 2 + int(name[1:])
        for name, e in powers.items()
        for _ in range(e)
    ))


def _dense(q, **powers):
    """The same monomial as its exponent tuple, for the oracles."""
    return dense(_mono(q, **powers), q.r1 + q.d + 3)


# -- monomials as words ----------------------------------------------------------

def test_monomial_text():
    q = build_q(2, 1)
    assert monomial_text((), 2) == "1"
    assert monomial_text(_mono(q, z2=2), 2) == "z2^2"
    assert monomial_text(_mono(q, z1=1, y2=1), 2) == "z1*y2"
    assert _mono(q, z2=2, y1=1) == (1, 1, q.r1 + 3)
    assert monomial_text((1, 1, q.r1 + 3), 2) == "z2^2*y1"


def test_exponents_count_each_letter():
    q = build_q(2, 1)
    assert exponents((), 7) == [0] * 7
    assert exponents(_mono(q, z2=2, z4=1, y1=3), 7) == [0, 2, 0, 1, 0, 3, 0]


def test_zsupport():
    q = build_q(2, 1)
    assert zsupport(_dense(q, z2=2, z4=1, y1=3), 2) == frozenset({2, 4})
    assert zsupport(_dense(q, y1=1, y2=1), 2) == frozenset()


def test_orientation_reads_lex_as_dense_tuple_order():
    # every ordered pair of exponent vectors in {0, 1, 2}^4, as words:
    # the audit's closed-word rule flags exactly the pairs whose lead is
    # not greater than the tail in tuple order, which is pure lex
    vectors = list(product(range(3), repeat=4))
    pairs = list(product(vectors, repeat=2))
    family = GroebnerFamily(
        q=build_q(2, 1),
        columns=((1,),) * 4,
        generators=tuple(Binomial(*map(word, pair)) for pair in pairs),
    )
    expected = tuple(i for i, (a, b) in enumerate(pairs) if not a > b)
    assert len(pairs) == 6561
    assert orientation_failures(family) == expected


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
    assert pi_image(cols, _dense(q, y1=1, y2=1)) == (1, 1, 2)
    assert pi_image(cols, _dense(q, z2=1, z4=1)) == (-1, -3, 2)
    # a different monomial with the same image: a relation in the making
    assert pi_image(cols, _dense(q, z1=1, y2=1)) == (-1, -3, 2)


def test_pi_image_dimension_check():
    cols = lattice_points_formula(build_q(2, 1)).homogenized
    with pytest.raises(DimensionMismatch):
        pi_image(cols, (1, 0))


def test_is_toric_member_counterexample():
    q = build_q(2, 1)
    cols = lattice_points_formula(q).homogenized
    bad = Binomial(_dense(q, z2=1, z4=1), _dense(q, z2=1, z3=1))
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


@pytest.mark.parametrize("r1", range(2, 10))
def test_companion_accepts_exactly_the_pair_set(r1):
    members = set(build_B(r1))
    for i in range(r1 + 5):
        for j in range(r1 + 6):
            if (i, j) in members:
                companion(i, j, r1)
            else:
                with pytest.raises(InvalidPair):
                    companion(i, j, r1)


def _z_product(*indices):
    """The word of the product of z_i over ``indices``."""
    return tuple(sorted(i - 1 for i in indices))


def _group(family, *groups):
    """The family's generators of the given groups, in order: the k-th
    is the group's generator k."""
    return [
        g for g, tag in zip(family.generators, tags(family.q)) if tag in groups
    ]


def _eq1_by_pair(family):
    """The family's eq1 generators, each keyed by its pair in B."""
    eq1 = _group(family, "eq1")
    pairs = build_B(family.q.r1)
    assert len(eq1) == len(pairs)
    return dict(zip(pairs, eq1))


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_companion_products_balance(r1, x1):
    q = build_q(r1, x1)
    cols = lattice_points_formula(q).homogenized
    eq1 = _eq1_by_pair(groebner_family(q))
    for (i, j), g in eq1.items():
        k, l = companion(i, j, r1)
        assert g == Binomial(_z_product(i, j), _z_product(k, l))
        assert is_toric_member(cols, dense_binomial(g, len(cols)))


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_excluded_pair_binomial_fails_balance(r1, x1):
    q = build_q(r1, x1)
    cols = lattice_points_formula(q).homogenized
    assert not is_toric_member(
        cols, dense_binomial(excluded_pair_binomial(q), len(cols))
    )


def test_excluded_pair_binomial_text():
    assert binomial_text(excluded_pair_binomial(build_q(2, 1)), 2) == "z2*z4 - z2*z3"


# -- generator families ------------------------------------------------------------

def test_generators_2_1_texts():
    q = build_q(2, 1)
    family = groebner_family(q)
    (eq4,), (eq5,) = _group(family, "eq4"), _group(family, "eq5")
    assert binomial_text(eq4, 2) == "z4*y1 - z5^2"
    assert binomial_text(eq5, 2) == "z3*y2 - z4*z5"
    assert binomial_text(_group(family, "eq3")[1], 2) == "z1*y2 - z2*z4"
    assert binomial_text(_group(family, "eq2")[0], 2) == "z1*y1 - z3^2"
    assert binomial_text(_eq1_by_pair(family)[1, 4], 2) == "z1*z4 - z2^2"


def test_eq3star_deep_split_6_1():
    # x1 = 1 < r1 - 2 = 4: tails slide down one a-column per x1+1 steps
    q = build_q(6, 1)
    eq3star = _group(groebner_family(q), "eq3star")
    assert binomial_text(eq3star[3], 6) == "z3*y6 - z5*z6"
    assert binomial_text(eq3star[4], 6) == "z2*y6 - z5^2"
    assert binomial_text(eq3star[5], 6) == "z1*y6 - z4*z5"
    cols = lattice_points_formula(q).homogenized
    assert len(eq3star) == 6
    for g in eq3star:
        assert is_toric_member(cols, dense_binomial(g, len(cols)))


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_eq3_variants_share_leads(r1, x1):
    # eq3 and the sliding eq3* tails hang off one lead, z_{r1-k}
    # y_{r1}..y_d, whichever tail generator k has
    q = build_q(r1, x1)
    group = _group(groebner_family(q), "eq3", "eq3star")
    assert len(group) == r1
    for k, g in enumerate(group):
        ys = {f"y{j}": 1 for j in range(r1, q.d + 1)}
        assert g.lead == _mono(q, **{f"z{r1 - k}": 1}, **ys)


#: sha256 of each family's tags and words, as written by the per-group
#: constructors that the one builder replaced (first 16 hex digits)
FAMILY_DIGESTS = {
    (2, 1): "12eeb9310fdf48dc",
    (3, 2): "465e44bdde70c917",
    (4, 12): "6ffe0d4c0017fb86",
    (6, 1): "5740d7835aaec540",
    (6, 7): "d77a099e08e02c02",
    (8, 4): "c68febf5f2bd49d1",
    (12, 3): "b5fd52605953b86b",
    (30, 1): "bb00cf0f9ec19d7f",
    (40, 10): "0abece25c753e262",
    (100, 2): "ffb996a90ded4b6b",
}


@pytest.mark.parametrize("r1,x1", FAMILY_DIGESTS)
def test_the_family_is_pinned_word_for_word(r1, x1):
    # eq3 alone, shallow eq3* and deep sliding tails, in family order
    family = groebner_family(build_q(r1, x1))
    text = json.dumps([
        [tag, list(g.lead), list(g.tail)]
        for tag, g in zip(tags(family.q), family.generators)
    ])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == FAMILY_DIGESTS[r1, x1]


def test_every_word_is_ascending_as_written():
    # no word is sorted after it is written, so only the formulas keep
    # the words ascending
    points = [(r1, x1) for r1 in range(2, 25) for x1 in range(1, 9)]
    assert len(points) == 184
    for r1, x1 in points:
        for g in groebner_family(build_q(r1, x1)).generators:
            for w in g:
                assert list(w) == sorted(w), (r1, x1, g)


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_family_tag_counts(r1, x1):
    family = groebner_family(build_q(r1, x1))
    groups = tags(family.q)
    assert groups.count("eq1") == len(build_B(r1))
    assert groups.count("eq2") == r1
    assert groups.count("eq3") + groups.count("eq3star") == r1
    assert groups.count("eq4") == 1
    assert groups.count("eq5") == 1
    assert len(family.generators) == len(build_B(r1)) + 2 * r1 + 2


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_family_generators_sound(r1, x1):
    family = groebner_family(build_q(r1, x1))
    for g in dense_generators(family):
        assert sum(g.lead) == sum(g.tail)
        assert is_toric_member(family.columns, g)
        assert g.lead > g.tail  # lex-oriented
        assert max(g.lead) <= 1  # squarefree
    assert pi_balance_failures(family) == ()
    assert orientation_failures(family) == ()


def test_family_2_1_size():
    family = groebner_family(build_q(2, 1))
    assert len(family.generators) == 9
    assert tags(family.q).count("eq1") == len(build_B(2)) == 3


def test_mutate_tail_breaks_balance(family21):
    for index in range(len(family21.generators)):
        mutated = mutate_tail(family21, index)
        assert pi_balance_failures(mutated) == (index,)


def test_include_excluded_pair_fails_audit(family21):
    sabotaged = include_excluded_pair(family21)
    assert pi_balance_failures(sabotaged) == (len(family21.generators),)


def test_mutate_tail_moves_the_first_letter_and_sorts(family21):
    # the first letter of the tail moves to the cyclically next variable,
    # the last variable's to the first
    q, n = family21.q, family21.nvars
    wrapped = family21._replace(generators=(Binomial((0, 1), (n - 1, n - 1)),))
    assert mutate_tail(wrapped, 0).generators[0].tail == (0, n - 1)
    g = family21.generators[7]
    assert monomial_text(g.tail, q.r1) == "z5^2"
    assert monomial_text(mutate_tail(family21, 7).generators[7].tail, q.r1) == "z5*y1"


def test_mutate_tail_index_check(family21):
    with pytest.raises(IndexOutOfRange):
        mutate_tail(family21, 99)


def _family_failure(family):
    """What the family stage names in ``family``, triangulated first as
    every command does."""
    return check_family(family, check_triangulation(family)).failure


def test_the_family_stage_names_an_unbalanced_generator(monkeypatch):
    # the builder does not audit: an eq5 generator replaced by the
    # excluded pair's binomial is built, and the family stage names it
    monkeypatch.setattr(
        toric, "tagged_generators",
        replacing("eq5", lambda q, g: excluded_pair_binomial(q)),
    )
    family = groebner_family(build_q(2, 1))
    assert binomial_text(family.generators[8], 2) == "z2*z4 - z2*z3"
    assert _family_failure(family) == {"stage": "pi_balance", "generators": [8]}


def test_the_family_stage_rejects_an_inhomogeneous_generator(monkeypatch):
    # eq4 with its tail z5^2 cut to z5 stays lex-oriented but has degrees
    # 2 and 1; the last homogenized coordinate is the degree, so
    # pi-balance fails
    q = build_q(2, 1)
    skewed = Binomial(_mono(q, z4=1, y1=1), _mono(q, z5=1))
    monkeypatch.setattr(
        toric, "tagged_generators", replacing("eq4", lambda q, g: skewed)
    )
    family = groebner_family(q)
    assert family.generators[7] == skewed
    assert _family_failure(family) == {"stage": "pi_balance", "generators": [7]}


def test_the_family_stage_rejects_a_generator_with_lead_equal_to_tail(
    monkeypatch,
):
    # lead == tail is trivially pi-balanced, but not lex-oriented; both
    # eq2 generators at r1 = 2 are replaced, and the stage names each
    q = build_q(2, 1)
    square = _mono(q, z3=2)
    monkeypatch.setattr(
        toric, "tagged_generators",
        replacing("eq2", lambda q, g: Binomial(square, square)),
    )
    family = groebner_family(q)
    assert tags(q)[3:5] == ("eq2", "eq2")
    assert family.generators[3:5] == (Binomial(square, square),) * 2
    assert _family_failure(family) == {"stage": "orientation", "generators": [3, 4]}


def _unbalanced_by_pi_image(family):
    return tuple(
        i for i, g in enumerate(dense_generators(family))
        if sum(g.lead) != sum(g.tail)
        or pi_image(family.columns, g.lead) != pi_image(family.columns, g.tail)
    )


@pytest.mark.parametrize("r1,x1", SMALL_GRID + [(12, 3), (30, 1)])
def test_packed_audit_flags_what_pi_image_flags(r1, x1):
    # the audit compares packed images summed over the words; pi_image,
    # dense over every exponent, is the oracle, on the sound family, on
    # every sabotaged tail and with the excluded pair appended
    family = groebner_family(build_q(r1, x1))
    cases = [family, include_excluded_pair(family)]
    cases += [mutate_tail(family, k) for k in range(0, len(family.generators), 3)]
    for case in cases:
        assert pi_balance_failures(case) == _unbalanced_by_pi_image(case)
    assert pi_balance_failures(include_excluded_pair(family)) == (
        len(family.generators),
    )


def test_the_family_holds_its_words_only():
    # each generator holds two words of its degree, where exponent tuples
    # would take 2n entries: at (100, 2), n = 204 and 5,252 generators,
    # about 19 MiB as exponent tuples, columns and audit included.  The
    # family holds about 1.9 MiB; a second copy of the pair set, each
    # pair with its companion, took it to 2.6 MiB
    q = build_q(100, 2)
    lattice_points_formula.cache_clear()
    tracemalloc.start()
    try:
        family = groebner_family(q)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(family.generators), family.nvars) == (5252, 204)
    assert held < 2.25 * 2**20, held
