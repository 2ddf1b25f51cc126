"""The initial ideal, the standard monomials and their support shapes.

Everything here works on the exponent tuples of a binomial rewrite
family, ordered by pure lex (z_1 > ... > z_{r1+3} > y_1 > ... > y_d, the
column order), which is Python's tuple order on the exponents.  The
family is certified as a lex Groebner basis of the toric ideal I_A by
the triangulation argument of Sturmfels (*Groebner Bases and Convex
Polytopes*, 1996, Thm 8.3 and Cor 8.9), from four checks that
``wpsimplex.pipeline`` composes:

  (a) every generator is pi-balanced, so the family lies in I_A;
  (b) the weight certificate w makes every lex lead strictly heavier
      than its tail;
  (c) the minimal leads are squarefree; their supports are the minimal
      non-faces of a complex Delta (``initial_ideal`` here);
  (d) every facet of Delta is a lower cell of the w-lift, and the facet
      volumes are all 1 and sum to N.

By (d), Delta is the regular unimodular triangulation Delta_w; for w
refined by lex, Cor 8.9 gives the initial ideal I_Delta, which by (b)
and (c) the lex leads generate.  So the family is a Groebner basis of
I_A for that order, hence generates I_A, and its lead ideal, an initial
ideal of I_A inside in_lex(I_A) with the same Hilbert function, equals
in_lex(I_A): the family is a lex Groebner basis, in every degree.

No S-pair is reduced: the S-pair oracle and rewriting to normal form
live in ``wpsimplex.oracles``, for the tests and the demos.  Counting
standard monomials per degree against the dilation polynomial
(``injectivity_check``) stays as a bounded-degree smoke test.

The standard monomials form an order ideal: every divisor of a standard
monomial is standard.  ``_order_ideal`` therefore grows degree t from
degree t - 1 instead of scanning all C(n + t - 1, t) monomials: w is
standard exactly when it is not itself a lead and every divisor w / x_v
is standard.  The test is exact for any lead set, Groebner or not,
squarefree or not, because a lead that properly divides w divides one
of those degree-(t - 1) divisors.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import groupby
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .errors import BudgetExceeded
from .ehrhart import ehrhart_value, hstar
from .simplex import QVector, resolve_enum_budget
from .toric import GroebnerFamily, zsupport


def _support_mask(exponents) -> int:
    """Bit i set exactly when variable i occurs."""
    return sum(1 << i for i, e in enumerate(exponents) if e)


class InitialIdeal(NamedTuple):
    """Inclusion-minimal lead monomials of the family."""

    generators: tuple[tuple[int, ...], ...]
    squarefree: bool


@lru_cache(maxsize=64)
def initial_ideal(family: GroebnerFamily) -> InitialIdeal:
    """Collect the lead monomials and drop the non-minimal ones, lex-largest
    first.  Cached per family, so the family and triangulation stages of
    one point share a single build.

    A distinct monomial of equal or higher total degree cannot divide a
    lead, so the leads are decided by degree, lowest first, each against
    the minimal leads of strictly lower degree: a lower lead that divides
    it is divided by one of those."""
    leads = sorted({g.lead for g in family.generators}, reverse=True)
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for le in leads:
        by_degree.setdefault(sum(le), []).append(le)
    kept: list[tuple[tuple[int, ...], int]] = []  # (lead, support mask)
    for degree in sorted(by_degree):
        batch = [(le, _support_mask(le)) for le in by_degree[degree]]
        kept += [
            (le, mask)
            for le, mask in batch
            if not any(
                not other_mask & ~mask
                and all(a <= b for a, b in zip(other, le))
                for other, other_mask in kept
            )
        ]
    minimal = sorted((le for le, _ in kept), reverse=True)
    return InitialIdeal(
        generators=tuple(minimal),
        squarefree=all(e <= 1 for m in minimal for e in m),
    )


def _check_budget(nvars: int, degree: int, budget: int | None) -> None:
    """Raise BudgetExceeded when the C(n + degree - 1, degree) monomials
    of the degree exceed the enumeration budget."""
    candidates = comb(nvars + degree - 1, degree)
    limit = resolve_enum_budget(budget)
    if candidates > limit:
        raise BudgetExceeded(
            f"{candidates} degree-{degree} monomials exceed the budget {limit}"
        )


def _order_ideal(family: GroebnerFamily):
    """Yield the standard monomials degree by degree, from degree 0 up,
    each layer a list of sorted tuples of variable indices in
    ``combinations_with_replacement`` order.

    Every standard w = c + (v,) of degree t >= 2, with c = w[:-1] and
    v >= c[-1], drops to c[:-1] + (v,): a standard *sibling* of c, with
    the same prefix, that sits in c's run of the previous layer.  So the
    candidates v come from the last variables of c's siblings from c on
    (the Apriori join of Agrawal and Srikant, 1994), and each is kept by
    the lead test and the drop tests of the module docstring that the
    join does not settle.  Each layer is built only when asked for.
    """
    n = family.nvars
    leads = {
        tuple(i for i, e in enumerate(g.lead) if e for _ in range(e))
        for g in family.generators
    }
    layer = [] if () in leads else [()]
    yield layer
    layer = [(v,) for v in range(n) if (v,) not in leads] if layer else []
    while True:
        yield layer
        standard = set(layer)
        grown = []
        for prefix, run in groupby(layer, itemgetter(slice(-1))):
            # dropping either of the last two variables gives c or a
            # sibling; the other drops leave a shorter prefix, then u, v
            shorter = [prefix[:i] + prefix[i + 1:] for i in range(len(prefix))]
            lasts = [c[-1] for c in run]
            for k, u in enumerate(lasts):
                c = prefix + (u,)
                for v in lasts[k:]:
                    w = c + (v,)
                    if w in leads:
                        continue
                    for p in shorter:
                        if p + (u, v) not in standard:
                            break
                    else:
                        grown.append(w)
        layer = grown


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
    return [sum(x * radix**k for k, x in enumerate(col)) for col in columns]


def injectivity_check(
    family: GroebnerFamily,
    max_degree: int = 3,
    budget: int | None = None,
) -> bool:
    """Bounded-degree completeness check.

    For every degree t <= max_degree the standard monomials must have
    pairwise distinct pushforwards AND their count must equal the
    dilation polynomial at t.  The count equality is what ties the
    family to the full relation ideal: it says no relation at that
    degree is missing.  Each degree is checked against the enumeration
    budget before it is built.  Each pushforward is its parent's plus
    one column, packed into one exact integer by ``_packed_columns``
    (whose radix exceeds twice any coordinate up to ``max_degree``), so
    the distinctness test compares integers and stays exact.
    """
    packed = _packed_columns(family.columns, max_degree)
    h = hstar(family.q)
    layers = _order_ideal(family)
    images = dict.fromkeys(next(layers), 0)
    for t in range(1, max_degree + 1):
        _check_budget(family.nvars, t, budget)
        layer = next(layers)
        if len(layer) != ehrhart_value(h, t):
            return False
        images = {w: images[w[:-1]] + packed[w[-1]] for w in layer}
        if len(set(images.values())) != len(layer):
            return False
    return True


class SupportCase(Enum):
    """Shape classes for the z-support of a standard monomial.

    EMPTY: no z-variable occurs.  CASE1: minimal z-index m <= r1 - 1 and
    support within {m, m+1, r1+1}.  CASE2: m = r1 and support within
    {r1, r1+1, r1+2}.  CASE3: m >= r1 + 1 (support then automatically
    sits inside {r1+1, r1+2, r1+3}).  VIOLATION: none of the above.
    """

    EMPTY = 0
    CASE1 = 1
    CASE2 = 2
    CASE3 = 3
    VIOLATION = -1


class ZSupportShape(NamedTuple):
    case: SupportCase
    zsupport: frozenset[int]


def zsupport_shape(m: tuple[int, ...], q: QVector) -> ZSupportShape:
    """Classify the z-support of a monomial (meaningful for standard ones).

    Every standard monomial with nonempty z-support must land in exactly
    one of the three cases; VIOLATION never occurs for them, and the
    sweep tests assert exactly that.
    """
    supp = zsupport(m, q.r1)
    if not supp:
        return ZSupportShape(SupportCase.EMPTY, supp)
    mn = min(supp)
    r1 = q.r1
    if mn <= r1 - 1:
        case = (
            SupportCase.CASE1
            if supp <= {mn, mn + 1, r1 + 1}
            else SupportCase.VIOLATION
        )
    elif mn == r1:
        case = (
            SupportCase.CASE2
            if supp <= {r1, r1 + 1, r1 + 2}
            else SupportCase.VIOLATION
        )
    else:
        case = SupportCase.CASE3
    return ZSupportShape(case, supp)
