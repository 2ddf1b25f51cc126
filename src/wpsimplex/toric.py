"""Homogenized point configuration and its explicit binomial rewrite family.

The configuration matrix has one column per lattice point, lifted to
height 1.  Ring variables follow the column order: z_1..z_{r1+3} for the
a-block, then y_1..y_d for the b-block, so n = r1 + d + 3 variables in
total.  A monomial is its *word*: the ascending tuple of its variable
indices, each repeated by its exponent, so z_2^2 y_1 is (1, 1, r1 + 3)
and the degree is the length.  A ``Binomial`` is a (lead, tail) pair of
words.  Pure lex (z_1 > ... > z_{r1+3} > y_1 > ... > y_d) is read in
one place, ``orientation_failures``; exponent lists are built only for
``gb dump`` (``exponents``) and by the oracles.  A binomial lead - tail
is a valid relation exactly when both sides push forward to the same
vector under the configuration matrix; we call that pi-balance.  Its
last coordinate is the degree, so a pi-balanced binomial is homogeneous.
``groebner_family`` only builds; the family stage
(``wpsimplex.pipeline.check_family``) audits every generator, once, for
pi-balance (``pi_balance_failures``) and for the lex orientation
lead > tail (``orientation_failures``, check (b)).  The plain
pushforward ``pi_image``, the one-binomial test ``is_toric_member`` and
the z-support of a monomial are lemma checks for the tests, in
``wpsimplex.oracles``.

The rewrite family consists of five groups:

  eq1  z_i z_j - z_k z_l           for (i, j) in the pair set B
  eq2  z_{k+1} y_1..y_{r1-1} - z_{r1+1}^{r1-k} z_{r1+3}^k
  eq3  z_{r1-k} y_{r1}..y_d - z_{r1}^k z_{r1+2}^{x1+1-k}   (k <= x1+1)
  eq3* same leads, with the tail support sliding down the a-block for
       k > x1 + 1 (only possible when x1 < r1 - 2)
  eq4  z_{r1+2} y_1..y_{r1-1} - z_{r1+3}^{r1}
  eq5  z_{r1+1} y_{r1}..y_d - z_{r1+2}^{x1} z_{r1+3}

The pair set B excludes the single pair (r1, r1+2): the companion rule
would emit z_{r1} z_{r1+2} - z_{r1} z_{r1+1}, which is not pi-balanced.
That pair is kept available separately so the failure stays pinned by a
regression test.  ``tagged_generators`` writes each group's words
straight from this table, each beside its group's tag, the one record
of provenance; the audits read the words, never the formulas.
"""

from collections import Counter, namedtuple
from itertools import groupby
from operator import mul
from typing import NamedTuple

from .errors import IndexOutOfRange, InvalidPair
from .simplex import QVector, lattice_points_formula


#: The binomial lead - tail, both sides words.
Binomial = namedtuple("Binomial", "lead tail")


def var_name(index: int, r1: int) -> str:
    if index < r1 + 3:
        return f"z{index + 1}"
    return f"y{index - r1 - 2}"


def monomial_text(m: tuple[int, ...], r1: int) -> str:
    runs = [(var_name(v, r1), len(list(run))) for v, run in groupby(m)]
    return "*".join(x if e == 1 else f"{x}^{e}" for x, e in runs) or "1"


def exponents(m: tuple[int, ...], n: int) -> list[int]:
    """The exponent list of a word over n variables."""
    counts = Counter(m)
    return [counts[v] for v in range(n)]


def binomial_text(b: Binomial, r1: int) -> str:
    return f"{monomial_text(b.lead, r1)} - {monomial_text(b.tail, r1)}"


# -- packed pushforwards -------------------------------------------------------

def _packed_columns(
    columns: tuple[tuple[int, ...], ...], max_degree: int
) -> list[int]:
    """Each column v as the one integer sum_k v_k * R^k, with the radix
    R = 2 * max(max_degree, 1) * max|entry| + 1.

    Packing is linear, so a monomial's packed pushforward is the sum of
    its columns' packed values.  A pushforward of degree t <= max_degree
    has coordinates of absolute value at most t * max|entry| <= (R - 1)
    / 2, which are its signed base-R digits; those digits are unique, so
    two such pushforwards are equal exactly when their packed values
    are."""
    bound = max(max_degree, 1) * max(abs(x) for col in columns for x in col)
    radix = 2 * bound + 1
    powers = [radix**k for k in range(len(columns[0]))]
    return [sum(map(mul, col, powers)) for col in columns]


def _packed_image(packed: list[int], m: tuple[int, ...]) -> int:
    """The packed pushforward of a monomial, one column per letter."""
    return sum(map(packed.__getitem__, m))


def _balanced(packed: list[int], b: Binomial) -> bool:
    """Pi-balance of a binomial whose lead has at most the degree the
    columns were ``packed`` for: equal degrees, then equal packed
    images, which are exact at that degree."""
    return len(b.lead) == len(b.tail) and _packed_image(
        packed, b.lead
    ) == _packed_image(packed, b.tail)


# -- the pair set B and its companions ----------------------------------------

def excluded_pair(r1: int) -> tuple[int, int]:
    """The one pair the raw side conditions admit but B rejects."""
    return (r1, r1 + 2)


def build_B(r1: int) -> tuple[tuple[int, int], ...]:
    """The pair set B in lex order: 1 <= i <= r1, i + 2 <= j <= r1 + 3
    and j != r1 + 1, less the excluded pair (r1, r1 + 2).  The one
    definition of B: ``companion`` tests membership against it."""
    if r1 < 2:
        raise InvalidPair(f"need r1 >= 2, got {r1}")
    excluded = excluded_pair(r1)
    return tuple(
        (i, j)
        for i in range(1, r1 + 1)
        for j in range(i + 2, r1 + 4)
        if j != r1 + 1 and (i, j) != excluded
    )


def _companion_rule(i: int, j: int, r1: int) -> tuple[int, int]:
    if j < r1 + 1:
        s = i + j
    elif j == r1 + 2:
        s = i + j - 1
    else:  # j == r1 + 3
        return (i + 1, r1 + 1) if i != r1 else (r1 + 1, r1 + 2)
    return (s // 2, s - s // 2)


def companion(i: int, j: int, r1: int) -> tuple[int, int]:
    """The rewrite partner (k, l) of a pair (i, j) in B.

    Raises InvalidPair when (i, j) is not a member of B.
    """
    if r1 < 2 or (i, j) not in build_B(r1):
        raise InvalidPair(f"({i}, {j}) is not in the pair set for r1={r1}")
    return _companion_rule(i, j, r1)


def excluded_pair_binomial(q: QVector) -> Binomial:
    """The binomial the companion rule would emit for the excluded pair.

    It is z_{r1} z_{r1+2} - z_{r1} z_{r1+1}, which fails pi-balance;
    kept constructible so the exclusion stays pinned by tests.
    """
    pair = excluded_pair(q.r1)
    return _quadric(pair, _companion_rule(*pair, q.r1))


# -- the generators ------------------------------------------------------------

def _quadric(pair, comp) -> Binomial:
    """z_i z_j - z_k z_l for ascending (i, j) = pair and (k, l) = comp."""
    (i, j), (k, l) = pair, comp
    return Binomial((i - 1, j - 1), (k - 1, l - 1))


def tagged_generators(q: QVector):
    """The family's (tag, generator) pairs in order.  z_i is index i - 1,
    y_1..y_{r1-1} are Y1 and y_{r1}..y_d are Y2, tuples whose index
    objects the words share; every word is ascending as written."""
    r1, x1 = q.r1, q.x1
    Y1 = tuple(range(r1 + 3, 2 * r1 + 2))
    Y2 = tuple(range(2 * r1 + 2, 2 * r1 + x1 + 2))
    for pair in build_B(r1):
        yield "eq1", _quadric(pair, _companion_rule(*pair, r1))
    for k in range(r1):
        yield "eq2", Binomial((k, *Y1), (r1,) * (r1 - k) + (r1 + 2,) * k)
    # Past k = x1 + 1 the eq3 tail's z_{r1+2} exponent would go negative;
    # the eq3* tail, for k = s*(x1+1) + a with 1 <= a <= x1 + 1, is
    # z_{r1-s}^a z_{r1-s+1}^{x1+1-a}, the one degree-(x1+1) monomial on two
    # adjacent a-columns with the lead's pushforward, sliding down the
    # a-block one column per x1 + 1 steps.  k <= r1 - 1 gets there only
    # when x1 < r1 - 2.
    tag = "eq3star" if x1 < r1 - 2 else "eq3"
    for k in range(r1):
        if k <= x1 + 1:
            tail = (r1 - 1,) * k + (r1 + 1,) * (x1 + 1 - k)
        else:
            s = (k - 1) // (x1 + 1)
            a = k - s * (x1 + 1)
            tail = (r1 - s - 1,) * a + (r1 - s,) * (x1 + 1 - a)
        yield tag, Binomial((r1 - k - 1, *Y2), tail)
    yield "eq4", Binomial((r1 + 1, *Y1), (r1 + 2,) * r1)
    yield "eq5", Binomial((r1, *Y2), (r1 + 1,) * x1 + (r1 + 2,))


# -- the assembled family -------------------------------------------------------

class GroebnerFamily(NamedTuple):
    """The full rewrite family for one parameter point.

    ``tagged_generators``, not the family, names the group each
    generator came from.  An eq1 generator's words are its pair (i, j)
    in B and its companion (k, l), each index less one.  The family
    stage, not the builder, audits that generators are pi-balanced and
    lex-oriented (lead > tail).
    """

    q: QVector
    columns: tuple[tuple[int, ...], ...]
    generators: tuple[Binomial, ...]

    @property
    def nvars(self) -> int:
        return len(self.columns)


def pi_balance_failures(family: GroebnerFamily) -> tuple[int, ...]:
    """Indices of generators that are not pi-balanced (empty when sound):
    check (a), run once per family by the family stage.

    The columns are packed once, for the highest lead degree, so each
    generator costs two sums over its words."""
    gens = family.generators
    packed = _packed_columns(
        family.columns, max((len(g.lead) for g in gens), default=0)
    )
    return tuple(i for i, g in enumerate(gens) if not _balanced(packed, g))


def orientation_failures(family: GroebnerFamily) -> tuple[int, ...]:
    """Indices of generators whose lead is not lex-greater than their
    tail: check (b), for the family stage.

    The one reading of pure lex: closed by n, past every index, a word
    sorts first exactly when it is lex-greater, since where two closed
    words first differ the smaller letter is the first variable whose
    exponents differ, and it is the larger exponent's."""
    end = (family.nvars,)
    return tuple(
        i for i, g in enumerate(family.generators)
        if not g.lead + end < g.tail + end
    )


def groebner_family(q: QVector) -> GroebnerFamily:
    """Construct the family, unaudited: the family stage audits it.
    Nothing is kept: a command builds one family per point and passes
    it along."""
    return GroebnerFamily(
        q=q,
        columns=lattice_points_formula(q).homogenized,
        generators=tuple(g for _, g in tagged_generators(q)),
    )


def mutate_tail(family: GroebnerFamily, index: int) -> GroebnerFamily:
    """Sabotage hook: shift one unit of exponent in generator ``index``'s
    tail from its first variable to the cyclically next one.  Degree is
    preserved but the pushforward changes (columns are pairwise
    distinct), so the mutated family must fail the pi-balance audit."""
    if not 0 <= index < len(family.generators):
        raise IndexOutOfRange(
            f"generator index must lie in [0, {len(family.generators) - 1}]"
        )
    victim = family.generators[index]
    src, *rest = victim.tail
    tail = tuple(sorted([*rest, (src + 1) % family.nvars]))
    gens = list(family.generators)
    gens[index] = Binomial(victim.lead, tail)
    return family._replace(generators=tuple(gens))


def include_excluded_pair(family: GroebnerFamily) -> GroebnerFamily:
    """Sabotage hook: append the excluded pair's literal binomial."""
    bad = excluded_pair_binomial(family.q)
    return family._replace(generators=family.generators + (bad,))
