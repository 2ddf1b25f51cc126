"""Independent reference oracles and the paper's lemma checks, for the
tests and the demos only.

``buchberger_verify``, the all-pairs S-pair reduction, is kept as an
independent oracle for the tests and the demos; no certificate runs it,
and no module of the certified path imports this one.  Beside it sit
rewriting to normal form, the standard monomials of one degree by a
plain scan of every monomial (the oracle of the smoke test's join), the
maximal faces of any hypergraph by Berge's dualization without the twin
quotient, the family's faces from their closed form, reading no lead, a
facet's volume eliminated from scratch, the lex weight certificate
M^(n-1), ..., M, 1 of a family, one facet's lower-cell test under
explicit weights by dense reduced costs, the regularity check of a facet
list as that test on each facet, the lower envelope found by testing
every column subset, the h*-vector tallied one residue at a time, and
the points of a dilate listed over the checked slices of the walk in
``wpsimplex.simplex``, which the commands only count.  None of them
runs the twin quotient, the clique listing or the face walk of
``wpsimplex.triangulation``, which reads the lex lift symbolically and
takes no weights; they share with it only the fraction-free
elimination and its singular-facet check and the facet size check.

The oracles read a monomial as its exponent tuple over the family's n
variables, where Python's tuple order is pure lex: each one that takes
a family converts its generators' words at entry
(``dense_generators``), and every monomial given or returned is such a
tuple.

The lemma checks follow: the facet functionals' values and tightness
at a point, the point count read off h*_1, a monomial's pushforward and
the pi-balance of one binomial, and the z-support shapes of standard
monomials.  No command calls them; the tests check the paper's lemmas
with them.

The exceptions that only the oracles raise, ``PointOutsideSimplex``,
``DimensionMismatch`` and ``DegenerateLift``, are defined here.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement
from math import comb
from operator import mul
from typing import NamedTuple

from .ehrhart import HStarVector, hstar, weight
from .errors import (
    InternalConsistency,
    ParameterOutOfRange,
    SingularFacet,
    WpsimplexError,
)
from .simplex import (
    QVector, _dilation_slices, _walk_frame, build_q, charge, h_description,
)
from .toric import Binomial, GroebnerFamily
from .triangulation import (
    _check_facet_size,
    _checked_volume,
    _eliminate,
)


class PointOutsideSimplex(WpsimplexError, ValueError):
    """A point violates one of the simplex's defining inequalities."""


class DimensionMismatch(WpsimplexError, ValueError):
    """Operands disagree on dimension or variable count."""


class DegenerateLift(WpsimplexError, RuntimeError):
    """Lifted heights are not generic: a point lies on a facet hyperplane."""


#: Hard cap on rewrite steps for a single monomial; hitting it means a
#: mis-oriented generator, one the family stage's check (b) refuses.
_MAX_REWRITE_STEPS = 100_000


def dense_generators(family: GroebnerFamily) -> tuple[Binomial, ...]:
    """The family's generators, each word as its exponent tuple over the
    family's n variables."""
    n = family.nvars

    def dense(word):
        exps = [0] * n
        for v in word:
            exps[v] += 1
        return tuple(exps)

    return tuple(Binomial(dense(g.lead), dense(g.tail)) for g in family.generators)


@lru_cache(maxsize=64)
def _prepared(family: GroebnerFamily):
    """Generators as exponent tuples, lex-largest lead first, with
    support masks for fast divisibility rejection."""
    entries = []
    for le, te in dense_generators(family):
        support = tuple(i for i, e in enumerate(le) if e)
        entries.append((le, te, sum(1 << i for i in support), support))
    entries.sort(key=lambda ent: ent[0], reverse=True)
    return tuple(entries)


def _divisor(exps, prepared) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Lead and tail of the first prepared generator whose lead divides
    ``exps``, or None."""
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
    lex-largest lead is used at every step (build order breaks ties),
    so results are reproducible; each step strictly decreases the
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
    gens = dense_generators(family)
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


def standard_monomials(family: GroebnerFamily, degree: int) -> list[tuple[int, ...]]:
    """All monomials of the given total degree divisible by no lead, in
    ``combinations_with_replacement`` order of their variables.

    The plain scan: the candidate count C(n + degree - 1, degree) is
    charged against the enumeration budget up front, then every
    candidate is kept when ``_divisor`` finds no lead dividing it, with
    no use of the order-ideal join of ``groebner._standard_images``,
    which the tests hold against this scan.
    """
    if degree < 0:
        raise ParameterOutOfRange(f"degree must be >= 0, got {degree}")
    n = family.nvars
    monomials = comb(n + degree - 1, degree)
    charge(monomials, f"{monomials} degree-{degree} monomials")
    prepared = _prepared(family)
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for v in combo:
            exps[v] += 1
        if _divisor(exps, prepared) is None:
            out.append(tuple(exps))
    return out


def _minimal_transversals(n: int, support_masks: list[int]) -> list[int]:
    """The minimal subsets of {0..n-1} meeting every support mask, by
    Berge's incremental dualization (Berge, *Hypergraphs*, 1989, ch. 2):
    from the empty transversal, each support ``e`` keeps the transversals
    meeting it and grows each one missing it by every vertex v of ``e``.
    A grown t + v is dropped when it contains a kept set, which must pass
    through v; it cannot contain another grown t' + v', as both meet
    ``e`` only in v and the earlier transversals are minimal.  Small
    supports go first, in a stable sort, to keep the intermediate
    families small; a repeated support changes nothing.
    """
    transversals = [0]
    for e in sorted(support_masks, key=int.bit_count):
        kept = [t for t in transversals if t & e]
        missed = [t for t in transversals if not t & e]
        grown = []
        for v in (1 << i for i in range(n) if e >> i & 1):
            through = [k for k in kept if k & v]
            grown += [
                t | v for t in missed
                if not any(k & (t | v) == k for k in through)
            ]
        transversals = kept + grown
    return transversals


def _maximal_faces(n: int, support_masks: list[int]) -> list[int]:
    """The reference facet enumeration: the maximal subsets of {0..n-1}
    containing no support mask, of any size, as the complements of the
    minimal transversals of the supports themselves, by Berge, with no
    twin quotient.  The certified path lists the cliques of the
    quotient's graph and expands its faces; the tests hold the two
    against each other and this one against a filter of every vertex
    subset."""
    full = (1 << n) - 1
    return [full ^ t for t in _minimal_transversals(n, support_masks)]


def family_faces_closed_form(
    r1: int, x1: int
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """The family's faces read off their closed form, as the certificate
    writes them (``(full, choices)``, see ``wpsimplex.triangulation``)
    and in its order, by first member.  The twin classes are z_1, ...,
    z_{r1+3}, Y1 = {y_1, ..., y_{r1-1}} and Y2 = {y_{r1}, ..., y_d}, and
    the r1 + 4 cliques of classes no lead joins are the triangles
    {z_i, z_{i+1}, z_{r1+1}} for i < r1, {z_{r1}, z_{r1+1}, z_{r1+2}},
    {z_{r1+1}, z_{r1+2}, z_{r1+3}}, {z_{r1+1}, z_{r1+3}, Y1},
    {z_{r1+2}, z_{r1+3}, Y2} and {z_{r1+3}, Y1, Y2}.  A face keeps its
    clique's classes whole and omits one column of every other class.
    No lead is read."""
    d = build_q(r1, x1).d
    # the classes as 1-based columns: z_1, ..., z_{r1+3}, Y1, Y2
    classes = [(p,) for p in range(1, r1 + 4)]
    classes += [tuple(range(r1 + 4, 2 * r1 + 3)), tuple(range(2 * r1 + 3, r1 + d + 4))]
    y1, y2 = r1 + 3, r1 + 4
    cliques = [(i, i + 1, r1) for i in range(r1 - 1)] + [
        (r1 - 1, r1, r1 + 1), (r1, r1 + 1, r1 + 2), (r1, r1 + 2, y1),
        (r1 + 1, r1 + 2, y2), (r1 + 2, y1, y2),
    ]
    faces = []
    for clique in cliques:
        kept = [c for i, c in enumerate(classes) if i in clique or len(c) > 1]
        full = tuple(sorted(chain.from_iterable(kept)))
        choices = tuple(
            tuple(map(full.index, c))
            for i, c in enumerate(classes) if i not in clique and len(c) > 1
        )
        faces.append((full, choices))

    def first_member(face):
        full, choices = face
        lasts = {choice[-1] for choice in choices}
        return tuple(p for i, p in enumerate(full) if i not in lasts)

    return tuple(sorted(faces, key=first_member))


def facet_volume(
    columns: tuple[tuple[int, ...], ...], facet: tuple[int, ...]
) -> int:
    """Absolute determinant of the homogenized columns selected by a
    (1-based) facet; SingularFacet when the columns are affinely
    dependent."""
    _check_facet_size(len(facet), len(columns[0]))
    det, _ = _eliminate([list(columns[p - 1]) for p in facet])
    return _checked_volume(det, facet)


class WeightCertificate(NamedTuple):
    """Per-variable lifting heights that weigh every lead and tail of
    the family as pure lex orders them, so they pick every lex lead."""

    weights: tuple[int, ...]


def make_weight_certificate(family: GroebnerFamily) -> WeightCertificate:
    """Geometric weights M^(n-1), ..., M, 1 with M one more than the
    largest degree of any lead or tail (unit weights for no generators),
    the reference weights of ``is_lower_cell``, ``regularity_check`` and
    ``regular_subdivision_bruteforce``.

    Every exponent of a lead or a tail is then a base-M digit, so
    w . a > w . b exactly when a > b in tuple order, which is pure lex:
    the weights pick a generator's lead exactly when it is lex-greater
    than its tail.
    """
    gens = dense_generators(family)
    m_base = 1 + max(map(sum, chain.from_iterable(gens)), default=0)
    weights = tuple(m_base ** i for i in reversed(range(family.nvars)))
    return WeightCertificate(weights=weights)


def _check_weight_count(count: int, ncolumns: int) -> None:
    if count != ncolumns:
        raise DimensionMismatch(f"{count} weights for {ncolumns} columns")


def is_lower_cell(
    columns: tuple[tuple[int, ...], ...],
    weights: tuple[int, ...],
    cell: tuple[int, ...],
) -> bool:
    """The reference lower-cell test: eliminate the cell's full columns
    with the weights as right-hand side, which gives integers (scale, c)
    with scale = |det| and c . column_p = scale * w_p on the cell, and
    compute every other column's reduced cost scale * w_p - c . column_p
    as a dense dot product, in column order.  A cell that does not
    select one column per coordinate raises ParameterOutOfRange, a weight
    count other than the column count DimensionMismatch, a zero
    determinant SingularFacet, a zero reduced cost DegenerateLift; a
    column lifting below makes the cell not lower.  It shares only
    ``_eliminate`` and the facet size check with the walk, which reads
    the lex lift without weights."""
    _check_weight_count(len(weights), len(columns))
    _check_facet_size(len(cell), len(columns[0]))
    det, c = _eliminate([[*columns[p - 1], weights[p - 1]] for p in cell])
    if det == 0:
        raise SingularFacet(f"columns {cell} are affinely dependent")
    scale = abs(det)
    if det < 0:
        c = tuple(-x for x in c)
    inside = set(cell)
    for p, col in enumerate(columns, start=1):
        if p in inside:
            continue
        gap = scale * weights[p - 1] - sum(map(mul, c, col))
        if gap == 0:
            raise DegenerateLift(
                f"column {p} lies on the lifted hyperplane of {cell}"
            )
        if gap < 0:
            return False
    return True


def regularity_check(
    columns: tuple[tuple[int, ...], ...],
    weights: tuple[int, ...],
    facets: tuple[tuple[int, ...], ...],
) -> bool:
    """Facet-wise lower-envelope condition, ``is_lower_cell`` on each
    facet in the order given.

    True certifies that the lifted lower envelope induces exactly these
    facets.  The first facet that is not a lower cell decides: a point
    lifting below its hyperplane makes the check return False, and its
    SingularFacet or DegenerateLift is raised.  The weight count is
    checked first, so an empty facet list cannot hide a wrong one.
    """
    _check_weight_count(len(weights), len(columns))
    return all(is_lower_cell(columns, weights, f) for f in facets)


def regular_subdivision_bruteforce(
    columns: tuple[tuple[int, ...], ...], weights: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """From-scratch oracle: the full-dimensional lower-envelope cells of
    the lifted configuration, found by testing every column subset of the
    right size.  Guarded to ambient dimension <= 4 (the check is
    exponential); ``regularity_check`` and the walk of
    ``summarize_triangulation`` are the scalable paths."""
    height = len(columns[0])
    if height - 1 > 4:
        raise ParameterOutOfRange(
            "the from-scratch subdivision oracle is limited to dimension 4"
        )
    facets = []
    for subset in combinations(range(1, len(columns) + 1), height):
        try:
            if is_lower_cell(columns, weights, subset):
                facets.append(subset)
        except SingularFacet:
            pass
    return tuple(facets)


def enumerate_dilation_points(q: QVector, t: int) -> frozenset[tuple[int, ...]]:
    """All integer points with every facet functional at most t: the
    points of the checked slices of ``_dilation_slices``, listed."""
    slot = _walk_frame(h_description(q))[2]
    found: list[tuple[int, ...]] = []
    for low, remaining in _dilation_slices(q, t):
        lows = tuple(map(low.__getitem__, slot))
        for combo in combinations_with_replacement(range(q.d), remaining):
            point = list(lows)
            for i in combo:
                point[i] += 1
            found.append(tuple(point))
    return frozenset(found)


def hstar_by_residues(q: QVector) -> HStarVector:
    """Independent oracle: the h*-vector tallied one residue at a time,
    coeffs[i] = #{b in [0, N) : weight(q, b) = i}, in O(N) steps where
    ``ehrhart.hstar`` adds whole runs; a weight outside [0, d] raises
    InternalConsistency naming the first such b."""
    coeffs = [0] * (q.d + 1)
    for b in range(q.volume):
        w = weight(q, b)
        if not 0 <= w <= q.d:
            raise InternalConsistency(f"weight {w} at b={b} outside [0, {q.d}]")
        coeffs[w] += 1
    return HStarVector(coeffs=tuple(coeffs))


# -- the paper's lemma checks ---------------------------------------------------

def functional_values(q: QVector, p: tuple[int, ...]) -> tuple[int, ...]:
    """Evaluate all d + 1 facet functionals at p."""
    return tuple(sum(c * v for c, v in zip(row, p)) for row in h_description(q))


def tightness_profile(q: QVector, p: tuple[int, ...]) -> frozenset[int]:
    """Indices k (1-based) whose inequality p satisfies with equality.

    Raises PointOutsideSimplex if any functional exceeds 1.
    """
    values = functional_values(q, p)
    for k, val in enumerate(values, start=1):
        if val > 1:
            raise PointOutsideSimplex(
                f"functional {k} takes value {val} > 1 at {p}"
            )
    return frozenset(k for k, val in enumerate(values, start=1) if val == 1)


def lattice_point_count_from_h1(q: QVector) -> int:
    """Lattice point count of the simplex recovered from the linear
    coefficient: h*_1 + d + 1, which equals r1 + d + 3 for this family."""
    return hstar(q).coeffs[1] + q.d + 1


def zsupport(m: tuple[int, ...], r1: int) -> frozenset[int]:
    """1-based z-indices with positive exponent."""
    return frozenset(i + 1 for i in range(r1 + 3) if m[i] > 0)


def pi_image(
    columns: tuple[tuple[int, ...], ...], m: tuple[int, ...]
) -> tuple[int, ...]:
    """Push a monomial forward: the matrix-vector product of the column
    matrix with the exponent vector."""
    if len(columns) != len(m):
        raise DimensionMismatch(
            f"monomial has {len(m)} variables, configuration has {len(columns)}"
        )
    height = len(columns[0])
    acc = [0] * height
    for col, e in zip(columns, m):
        if e:
            for t in range(height):
                acc[t] += e * col[t]
    return tuple(acc)


def is_toric_member(columns: tuple[tuple[int, ...], ...], b: Binomial) -> bool:
    """True iff the binomial is pi-balanced (hence a valid relation): both
    sides have one pushforward, whose last coordinate is the degree."""
    return pi_image(columns, b.lead) == pi_image(columns, b.tail)


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
