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
``groebner_family`` audits every generator it builds for pi-balance
(``pi_balance_failures``) and for the lex orientation lead > tail
(``orientation_failures``, check (b)), and the family stage runs both
audits again.  The plain pushforward ``pi_image``, the one-binomial
test ``is_toric_member`` and the z-support of a monomial are lemma
checks for the tests, in ``wpsimplex.oracles``.

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
regression test.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import groupby
from operator import mul
from typing import NamedTuple

from .errors import (
    IndexOutOfRange,
    InternalConsistency,
    InvalidPair,
)
from .simplex import QVector, lattice_points_formula


#: The binomial lead - tail, both sides words.
Binomial = namedtuple("Binomial", "lead tail")


# -- variable bookkeeping ---------------------------------------------------

def z_index(i: int) -> int:
    """0-based position of z_i (1 <= i <= r1+3)."""
    return i - 1


def y_index(r1: int, j: int) -> int:
    """0-based position of y_j (1 <= j <= d)."""
    return r1 + 2 + j


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


def _in_B(i: int, j: int, r1: int) -> bool:
    """Membership in B: j - i >= 2, 1 <= i <= r1, j <= r1 + 3 and
    j != r1 + 1, and (i, j) is not the excluded pair (r1, r1 + 2)."""
    return (
        j - i >= 2
        and 1 <= i <= r1
        and j <= r1 + 3
        and j != r1 + 1
        and (i, j) != excluded_pair(r1)
    )


def build_B(r1: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j) of B (see ``_in_B``), in lex order."""
    if r1 < 2:
        raise InvalidPair(f"need r1 >= 2, got {r1}")
    return tuple(
        (i, j)
        for i in range(1, r1 + 1)
        for j in range(i + 2, r1 + 4)
        if _in_B(i, j, r1)
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
    if r1 < 2 or not _in_B(i, j, r1):
        raise InvalidPair(f"({i}, {j}) is not in the pair set for r1={r1}")
    return _companion_rule(i, j, r1)


def excluded_pair_binomial(q: QVector) -> Binomial:
    """The binomial the companion rule would emit for the excluded pair.

    It is z_{r1} z_{r1+2} - z_{r1} z_{r1+1}, which fails pi-balance;
    kept constructible so the exclusion stays pinned by tests.
    """
    pair = excluded_pair(q.r1)
    return _quadric(q, pair, _companion_rule(*pair, q.r1))


# -- generator constructors ----------------------------------------------------

def _check_k(k: int, upper: int) -> None:
    if not 0 <= k <= upper:
        raise IndexOutOfRange(f"k must lie in [0, {upper}], got {k}")


def _monomial(q: QVector, z_powers, ys=()) -> tuple[int, ...]:
    """The word of the product of z_i^e over (i, e) in ``z_powers`` and
    of y_j over ascending j in ``ys`` (1-based indices)."""
    zs = sorted(z_index(i) for i, e in z_powers for _ in range(e))
    return (*zs, *(y_index(q.r1, j) for j in ys))


def _quadric(q: QVector, pair, comp) -> Binomial:
    """z_i z_j - z_k z_l for (i, j) = pair and (k, l) = comp."""
    (i, j), (k, l) = pair, comp
    return Binomial(
        _monomial(q, ((i, 1), (j, 1))), _monomial(q, ((k, 1), (l, 1)))
    )


def eq2_binomial(q: QVector, k: int) -> Binomial:
    """z_{k+1} y_1..y_{r1-1} - z_{r1+1}^{r1-k} z_{r1+3}^k, 0 <= k <= r1-1."""
    _check_k(k, q.r1 - 1)
    r1 = q.r1
    return Binomial(
        _monomial(q, ((k + 1, 1),), range(1, r1)),
        _monomial(q, ((r1 + 1, r1 - k), (r1 + 3, k))),
    )


def eq3_lead(q: QVector, k: int) -> tuple[int, ...]:
    """Shared lead z_{r1-k} y_{r1}..y_d of the k-th eq3/eq3* binomial."""
    _check_k(k, q.r1 - 1)
    return _monomial(q, ((q.r1 - k, 1),), range(q.r1, q.d + 1))


def eq3_binomial(q: QVector, k: int) -> Binomial:
    """z_{r1-k} y_{r1}..y_d - z_{r1}^k z_{r1+2}^{x1+1-k}.

    Only defined for k <= x1 + 1; beyond that the z_{r1+2} exponent
    would go negative and the eq3* tail takes over.
    """
    _check_k(k, q.r1 - 1)
    if k > q.x1 + 1:
        raise IndexOutOfRange(
            f"k={k} exceeds x1+1={q.x1 + 1}; use the sliding-tail variant"
        )
    tail = _monomial(q, ((q.r1, k), (q.r1 + 2, q.x1 + 1 - k)))
    return Binomial(eq3_lead(q, k), tail)


def eq3star_binomial(q: QVector, k: int) -> Binomial:
    """Same lead as eq3; tail support slides down the a-block as k grows.

    For k <= x1 + 1 the tail agrees with eq3.  For larger k, write
    k = s*(x1+1) + a with 1 <= a <= x1 + 1; the tail is
    z_{r1-s}^a z_{r1-s+1}^{x1+1-a}, the unique degree-(x1+1) monomial on
    two adjacent a-columns with the required pushforward.  (For
    k <= 2*x1 + 2 this is the two-variable tail on z_{r1-1}, z_{r1};
    deeper k keeps sliding, one a-column per x1+1 steps.)
    """
    _check_k(k, q.r1 - 1)
    if k <= q.x1 + 1:
        return eq3_binomial(q, k)
    s = (k - 1) // (q.x1 + 1)
    a = k - s * (q.x1 + 1)
    tail = _monomial(q, ((q.r1 - s, a), (q.r1 - s + 1, q.x1 + 1 - a)))
    return Binomial(eq3_lead(q, k), tail)


def eq4_binomial(q: QVector) -> Binomial:
    """z_{r1+2} y_1..y_{r1-1} - z_{r1+3}^{r1}."""
    r1 = q.r1
    return Binomial(
        _monomial(q, ((r1 + 2, 1),), range(1, r1)),
        _monomial(q, ((r1 + 3, r1),)),
    )


def eq5_binomial(q: QVector) -> Binomial:
    """z_{r1+1} y_{r1}..y_d - z_{r1+2}^{x1} z_{r1+3}."""
    r1 = q.r1
    return Binomial(
        _monomial(q, ((r1 + 1, 1),), range(r1, q.d + 1)),
        _monomial(q, ((r1 + 2, q.x1), (r1 + 3, 1))),
    )


# -- the assembled family -------------------------------------------------------

class GroebnerFamily(NamedTuple):
    """The full rewrite family for one parameter point, with provenance.

    ``tags[i]`` records which group generator i came from; ``b_pairs``
    lists each eq1 pair with its companion.  Generators are pi-balanced
    and lex-oriented (lead > tail): ``groebner_family`` audits both.
    """

    q: QVector
    columns: tuple[tuple[int, ...], ...]
    generators: tuple[Binomial, ...]
    tags: tuple[str, ...]
    b_pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    @property
    def nvars(self) -> int:
        return len(self.columns)


@lru_cache(maxsize=1)
def pi_balance_failures(family: GroebnerFamily) -> tuple[int, ...]:
    """Indices of generators that are not pi-balanced (empty when sound).

    Cached for the last family only: the construction audit and the
    family stage of one point share one audit.  A family changed by a
    sabotage hook is a new object, audited afresh after the original.

    The columns are packed once, for the highest lead degree, so each
    generator costs two sums over its words."""
    gens = family.generators
    packed = _packed_columns(
        family.columns, max((len(g.lead) for g in gens), default=0)
    )
    return tuple(i for i, g in enumerate(gens) if not _balanced(packed, g))


def orientation_failures(family: GroebnerFamily) -> tuple[int, ...]:
    """Indices of generators whose lead is not lex-greater than their
    tail: check (b), for the construction audit and the family stage.

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
    """Construct the family and audit every generator.  Nothing is kept:
    a command builds one family per point and passes it along.

    Raises InternalConsistency if any emitted binomial fails pi-balance
    or is not lex-oriented; either would mean a transcription bug, never
    a data-dependent condition.
    """
    r1, x1 = q.r1, q.x1
    columns = lattice_points_formula(q).homogenized
    gens: list[Binomial] = []
    tags: list[str] = []

    b_pairs = tuple(((i, j), companion(i, j, r1)) for i, j in build_B(r1))
    for pair, comp in b_pairs:
        gens.append(_quadric(q, pair, comp))
        tags.append("eq1")
    for k in range(r1):
        gens.append(eq2_binomial(q, k))
        tags.append("eq2")
    # below the depth eq3* is eq3: k <= r1 - 1 <= x1 + 1
    tag = "eq3star" if x1 < r1 - 2 else "eq3"
    for k in range(r1):
        gens.append(eq3star_binomial(q, k))
        tags.append(tag)
    gens.append(eq4_binomial(q))
    tags.append("eq4")
    gens.append(eq5_binomial(q))
    tags.append("eq5")

    family = GroebnerFamily(
        q=q,
        columns=columns,
        generators=tuple(gens),
        tags=tuple(tags),
        b_pairs=b_pairs,
    )
    unbalanced = pi_balance_failures(family)
    if unbalanced:
        idx = unbalanced[0]
        raise InternalConsistency(
            f"generator {idx} ({tags[idx]}) {binomial_text(gens[idx], r1)} "
            f"is not pi-balanced"
        )
    misoriented = orientation_failures(family)
    if misoriented:
        idx = misoriented[0]
        raise InternalConsistency(f"generator {idx} ({tags[idx]}) is not lex-oriented")
    return family


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
    return family._replace(
        generators=family.generators + (bad,),
        tags=family.tags + ("eq1",),
    )
