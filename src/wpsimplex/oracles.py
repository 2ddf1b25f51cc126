"""Independent reference oracles, for the tests and the demos only.

``buchberger_verify``, the all-pairs S-pair reduction, is kept as an
independent oracle for the tests and the demos; no certificate runs it,
and no module of the certified path imports this one.  Beside it sit
rewriting to normal form, the standard monomials of one degree, a
facet's volume eliminated from scratch, the facet-wise regularity check
of a given triangulation and weight certificate, and the lower envelope
found by testing every column subset.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    InternalConsistency,
    ParameterOutOfRange,
    SingularFacet,
)
from .groebner import _check_budget, _order_ideal, _support_mask
from .toric import Binomial, GroebnerFamily
from .triangulation import (
    Triangulation,
    WeightCertificate,
    _checked_volume,
    _eliminate,
    _is_lower_cell,
    _walk_facets,
)

#: Hard cap on rewrite steps for a single monomial; hitting it means a
#: mis-oriented generator slipped past construction.
_MAX_REWRITE_STEPS = 100_000


@lru_cache(maxsize=64)
def _prepared(family: GroebnerFamily):
    """Generators as raw tuples, lex-largest lead first, with support
    masks for fast divisibility rejection."""
    entries = []
    for g in family.generators:
        le = g.lead
        support = tuple(i for i, e in enumerate(le) if e)
        entries.append((le, g.tail, _support_mask(le), support))
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


def normal_form(m: tuple[int, ...], family: GroebnerFamily) -> tuple[int, ...]:
    """Fully rewrite a monomial: while some generator's lead divides it,
    swap that lead for the tail.  The applicable generator with the
    lex-largest lead is used at every step (construction order breaks
    ties), so results are reproducible; each step strictly decreases the
    monomial in lex, so the loop terminates."""
    if len(m) != family.nvars:
        raise DimensionMismatch(f"monomial in {len(m)} variables, not {family.nvars}")
    return _reduce_tuple(m, _prepared(family))


def is_standard(m: tuple[int, ...], family: GroebnerFamily) -> bool:
    """True when no generator's lead divides m."""
    if len(m) != family.nvars:
        raise DimensionMismatch(f"monomial in {len(m)} variables, not {family.nvars}")
    return _divisor(m, _prepared(family)) is None


def s_polynomial(g1: Binomial, g2: Binomial) -> Binomial | None:
    """The S-pair binomial, lex-oriented, or None when it cancels.

    Cross-multiplying the tails up to the lead lcm keeps everything a
    difference of two monomials; if the two products coincide the S-pair
    is identically zero.
    """
    if g1 == g2:
        return None
    l1, l2 = g1.lead, g2.lead
    lcm = tuple(max(a, b) for a, b in zip(l1, l2))
    p1 = tuple(c - a + b for c, a, b in zip(lcm, l1, g1.tail))
    p2 = tuple(c - a + b for c, a, b in zip(lcm, l2, g2.tail))
    if p1 == p2:
        return None
    return Binomial(p1, p2) if p1 > p2 else Binomial(p2, p1)


class BuchbergerReport(NamedTuple):
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
            nf1 = _reduce_tuple(s.lead, prepared)
            nf2 = _reduce_tuple(s.tail, prepared)
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


def standard_monomials(
    family: GroebnerFamily, degree: int, budget: int | None = None
) -> list[tuple[int, ...]]:
    """All monomials of the given total degree divisible by no lead, in
    ``combinations_with_replacement`` order of their variables.

    The candidate count C(n + degree - 1, degree) is checked against the
    enumeration budget up front; the monomials themselves are grown from
    the lower degrees as an order ideal (``groebner._order_ideal``).
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
        out.append(tuple(exps))
    return out


def facet_volume(
    columns: tuple[tuple[int, ...], ...], facet: tuple[int, ...]
) -> int:
    """Absolute determinant of the homogenized columns selected by a
    (1-based) facet; SingularFacet when the columns are affinely
    dependent."""
    height = len(columns[0])
    if len(facet) != height:
        raise ParameterOutOfRange(
            f"facet must select {height} columns, got {len(facet)}"
        )
    det, _ = _eliminate([list(columns[p - 1]) for p in facet])
    return _checked_volume(det, facet)


def regularity_check(
    tri: Triangulation,
    certificate: WeightCertificate,
    columns: tuple[tuple[int, ...], ...],
) -> bool:
    """Facet-wise lower-envelope condition.

    True certifies that the lifted lower envelope induces exactly these
    facets.  Equality anywhere raises DegenerateLift; a point lifting
    below a facet's hyperplane makes the check return False.  Facets are
    tested in walk order but decided in facet order: the first facet
    that is not a lower cell gives the verdict or the error.
    """
    _, lower = _walk_facets(columns, certificate.weights, tri.facets)
    return tri._replace(lower=lower).regular


def regular_subdivision_bruteforce(
    columns: tuple[tuple[int, ...], ...], weights: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """From-scratch oracle: the full-dimensional lower-envelope cells of
    the lifted configuration, found by testing every column subset of the
    right size.  Guarded to ambient dimension <= 4 (the check is
    exponential); ``regularity_check`` and the triangulation's own
    lower-cell outcomes are the scalable path."""
    height = len(columns[0])
    if height - 1 > 4:
        raise ParameterOutOfRange(
            "the from-scratch subdivision oracle is limited to dimension 4"
        )
    facets = []
    for subset in combinations(range(1, len(columns) + 1), height):
        try:
            if _is_lower_cell(columns, weights, subset):
                facets.append(subset)
        except SingularFacet:
            pass
    return tuple(facets)
