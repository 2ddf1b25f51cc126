"""Lex order, binomial rewriting, the initial ideal and the standard
monomials.

Everything here works on exponent tuples with coefficients +-1, which is
all a binomial rewrite family needs.  The family is certified as a lex
Groebner basis of the toric ideal I_A by the triangulation argument of
Sturmfels (*Groebner Bases and Convex Polytopes*, 1996, Thm 8.3 and
Cor 8.9), from four checks that ``wpsimplex.pipeline`` composes:

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

``buchberger_verify``, the all-pairs S-pair reduction, is kept as an
independent oracle for the tests and the demos; no certificate runs it.
Counting standard monomials per degree against the dilation polynomial
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
from itertools import islice
from math import comb
from operator import add

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InternalConsistency,
    ParameterOutOfRange,
)
from .ehrhart import ehrhart_value, hstar
from .simplex import QVector, resolve_enum_budget
from .toric import (
    Binomial,
    GroebnerFamily,
    Monomial,
    zsupport,
)

LESS, EQUAL, GREATER = -1, 0, 1

#: Hard cap on rewrite steps for a single monomial; hitting it means a
#: mis-oriented generator slipped past construction.
_MAX_REWRITE_STEPS = 100_000


def lex_cmp(m1: Monomial, m2: Monomial) -> int:
    """Compare in pure lex (z_1 > ... > z_{r1+3} > y_1 > ... > y_d, the
    column order); returns LESS, EQUAL or GREATER."""
    a, b = m1.exponents, m2.exponents
    if len(a) != len(b):
        raise DimensionMismatch("monomials over different variable counts")
    return (a > b) - (a < b)


def _support_mask(exponents) -> int:
    """Bit i set exactly when variable i occurs."""
    return sum(1 << i for i, e in enumerate(exponents) if e)


@lru_cache(maxsize=64)
def _prepared(family: GroebnerFamily):
    """Generators as raw tuples, lex-largest lead first, with support
    masks for fast divisibility rejection."""
    entries = []
    for g in family.generators:
        le = g.lead.exponents
        support = tuple(i for i, e in enumerate(le) if e)
        entries.append((le, g.tail.exponents, _support_mask(le), support))
    entries.sort(key=lambda ent: ent[0], reverse=True)
    return tuple(entries)


def _divisor(exps, prepared) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Lead and tail of the first prepared generator whose lead divides
    ``exps``, or None."""
    # the mask is built inline, not by _support_mask: this runs once per
    # rewrite step, where the extra call costs measurably
    mask = sum(1 << i for i, e in enumerate(exps) if e)
    for le, te, lmask, support in prepared:
        if lmask & ~mask:
            continue
        if all(exps[i] >= le[i] for i in support):
            return le, te
    return None


def _reduce_tuple(exps: tuple[int, ...], prepared) -> tuple[int, ...]:
    steps = 0
    while (rule := _divisor(exps, prepared)) is not None:
        exps = tuple(e - a + b for e, a, b in zip(exps, *rule))
        steps += 1
        if steps > _MAX_REWRITE_STEPS:
            raise InternalConsistency(
                "rewrite did not terminate; a generator must be mis-oriented"
            )
    return exps


def normal_form(m: Monomial, family: GroebnerFamily) -> Monomial:
    """Fully rewrite a monomial: while some generator's lead divides it,
    swap that lead for the tail.  The applicable generator with the
    lex-largest lead is used at every step (construction order breaks
    ties), so results are reproducible; each step strictly decreases the
    monomial in lex, so the loop terminates."""
    if m.nvars != family.nvars:
        raise DimensionMismatch(f"monomial in {m.nvars} variables, not {family.nvars}")
    return Monomial(_reduce_tuple(m.exponents, _prepared(family)))


def is_standard(m: Monomial, family: GroebnerFamily) -> bool:
    """True when no generator's lead divides m."""
    if m.nvars != family.nvars:
        raise DimensionMismatch(f"monomial in {m.nvars} variables, not {family.nvars}")
    return _divisor(m.exponents, _prepared(family)) is None


def s_polynomial(g1: Binomial, g2: Binomial) -> Binomial | None:
    """The S-pair binomial, lex-oriented, or None when it cancels.

    Cross-multiplying the tails up to the lead lcm keeps everything a
    difference of two monomials; if the two products coincide the S-pair
    is identically zero.
    """
    if g1 == g2:
        return None
    l1, l2 = g1.lead.exponents, g2.lead.exponents
    lcm = tuple(max(a, b) for a, b in zip(l1, l2))
    p1 = tuple(c - a + b for c, a, b in zip(lcm, l1, g1.tail.exponents))
    p2 = tuple(c - a + b for c, a, b in zip(lcm, l2, g2.tail.exponents))
    if p1 == p2:
        return None
    if p1 > p2:
        return Binomial(Monomial(p1), Monomial(p2))
    return Binomial(Monomial(p2), Monomial(p1))


@dataclass(frozen=True)
class BuchbergerReport:
    """Outcome of the all-pairs S-pair reduction."""

    pairs_total: int
    pairs_reduced_to_zero: int
    failures: tuple[tuple[int, int], ...]
    passed: bool


def buchberger_verify(family: GroebnerFamily) -> BuchbergerReport:
    """Reduce every S-pair and report.

    PASS certifies the family is a Groebner basis of the ideal it
    generates.  This is the reference oracle: quadratic in the
    generators, and run by the tests and demos only.
    """
    prepared = _prepared(family)
    gens = family.generators
    total = 0
    zero = 0
    failures: list[tuple[int, int]] = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            total += 1
            s = s_polynomial(gens[i], gens[j])
            if s is None:
                zero += 1
                continue
            nf1 = _reduce_tuple(s.lead.exponents, prepared)
            nf2 = _reduce_tuple(s.tail.exponents, prepared)
            if nf1 == nf2:
                zero += 1
            else:
                failures.append((i, j))
    return BuchbergerReport(
        pairs_total=total,
        pairs_reduced_to_zero=zero,
        failures=tuple(failures),
        passed=not failures,
    )


@dataclass(frozen=True)
class InitialIdeal:
    """Inclusion-minimal lead monomials of the family."""

    generators: tuple[Monomial, ...]
    squarefree: bool


@lru_cache(maxsize=64)
def initial_ideal(family: GroebnerFamily) -> InitialIdeal:
    """Collect the lead monomials and drop the non-minimal ones, lex-largest
    first.  Cached per family, like ``_prepared``, so the family and
    triangulation stages of one point share a single build."""
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


def standard_monomials(
    family: GroebnerFamily, degree: int, budget: int | None = None
) -> list[Monomial]:
    """All monomials of the given total degree divisible by no lead, in
    ``combinations_with_replacement`` order of their variables.

    The candidate count C(n + degree - 1, degree) is checked against the
    enumeration budget up front; the monomials themselves are grown from
    the lower degrees as an order ideal (``_order_ideal``).
    """
    if degree < 0:
        raise ParameterOutOfRange(f"degree must be >= 0, got {degree}")
    n = family.nvars
    _check_budget(n, degree, budget)
    out = []
    for w in next(islice(_order_ideal(family), degree, None)):
        exps = [0] * n
        for v in w:
            exps[v] += 1
        out.append(Monomial(exps))
    return out


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
