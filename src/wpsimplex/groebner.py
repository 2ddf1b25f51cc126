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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb
from operator import add

from .errors import BudgetExceeded
from .ehrhart import ehrhart_value, hstar
from .simplex import QVector, resolve_enum_budget
from .toric import GroebnerFamily, Monomial, zsupport


def _support_mask(exponents) -> int:
    """Bit i set exactly when variable i occurs."""
    return sum(1 << i for i, e in enumerate(exponents) if e)


@dataclass(frozen=True)
class InitialIdeal:
    """Inclusion-minimal lead monomials of the family."""

    generators: tuple[Monomial, ...]
    squarefree: bool


@lru_cache(maxsize=64)
def initial_ideal(family: GroebnerFamily) -> InitialIdeal:
    """Collect the lead monomials and drop the non-minimal ones, lex-largest
    first.  Cached per family, so the family and triangulation stages of
    one point share a single build."""
    leads = sorted({g.lead.exponents for g in family.generators}, reverse=True)
    masks = [_support_mask(le) for le in leads]
    minimal = [
        Monomial(le)
        for le, mask in zip(leads, masks)
        if not any(
            not other_mask & ~mask
            and other != le
            and all(a <= b for a, b in zip(other, le))
            for other, other_mask in zip(leads, masks)
        )
    ]
    return InitialIdeal(
        generators=tuple(minimal),
        squarefree=all(m.is_squarefree() for m in minimal),
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

    Every standard w of degree t is c + (v,) for the standard c = w[:-1]
    and a variable v >= c[-1]; the candidate is kept by the order-ideal
    test of the module docstring.  Each layer is built only when asked
    for.
    """
    n = family.nvars
    leads = {
        tuple(i for i, e in enumerate(g.lead.exponents) for _ in range(e))
        for g in family.generators
    }
    layer = [] if () in leads else [()]
    while True:
        yield layer
        standard = set(layer)
        grown = []
        for c in layer:
            # dropping the last variable gives c, standard by construction
            drops = range(len(c))
            for v in range(c[-1] if c else 0, n):
                w = c + (v,)
                if w not in leads and all(
                    w[:i] + w[i + 1:] in standard for i in drops
                ):
                    grown.append(w)
        layer = grown


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
    budget before it is built, and each pushforward is its parent's
    plus one column, in exact integers.
    """
    columns = family.columns
    h = hstar(family.q)
    layers = _order_ideal(family)
    images = {w: (0,) * len(columns[0]) for w in next(layers)}
    for t in range(1, max_degree + 1):
        _check_budget(family.nvars, t, budget)
        layer = next(layers)
        if len(layer) != ehrhart_value(h, t):
            return False
        images = {
            w: tuple(map(add, images[w[:-1]], columns[w[-1]])) for w in layer
        }
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


@dataclass(frozen=True)
class ZSupportShape:
    case: SupportCase
    zsupport: frozenset[int]


def zsupport_shape(m: Monomial, q: QVector) -> ZSupportShape:
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
