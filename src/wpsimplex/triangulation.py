"""Facet extraction from the lead monomials, with exact volume and
regularity certification.

The supports of the rewrite family's minimal leads, squarefree by
check (c) of ``wpsimplex.groebner``, are the minimal non-faces of a
simplicial complex on the configuration columns.  Its maximal faces,
the complements of the minimal transversals of those supports, are the
facets of a triangulation of the simplex.  A set meets every lead
support exactly when it meets those of the minimal leads, so the
transversals are read from all the leads and none is dropped first.
Facet volumes are exact integer determinants, and regularity is
certified by exhibiting one weight vector whose lifted lower envelope
induces exactly these facets.

Two columns are twins when they lie in exactly the same supports.  The
minimal transversals are those of the twin quotient, with each class in
them replaced by any one of its columns (Berge, *Hypergraphs*, 1989,
ch. 2), so the facets come in faces: a face omits one column of each
class of one quotient transversal, and its members are its facets, one
per way to pick the omitted columns.  The family's supports fall into
r1 + 5 twin classes and its facets into r1 + 4 faces.  A triangulation
is its facet list, and ``summarize_triangulation`` is its one reader: it
reads the family's faces and counts a face's members without listing
them, or walks a given facet list facet by facet.  Only
``family_facets``, for ``triangulate``, expands the faces into the
sorted facet list, after checking its length against the enumeration
budget.

Both are read in the slack coordinates y = (x_0, ..., x_{d-1},
h - sum(x)) of the homogenized columns, a change of determinant 1 that
keeps every determinant and reduced cost.  There the unit vectors
b_j = (e_t, 1) and the origin (0, 1) of the family become the d + 1 unit
columns of y, the simplex method's slack basis (Chvatal, *Linear
Programming*, 1983).  A facet's slacks cover rows T; on the other k rows
R it has as many other columns K, its determinant is +-det Y[R, K], and
its affine function is fixed on T by the slack weights and on R by one
fraction-free elimination of the k x k system with the weights less
their slack part as right-hand side.  Each other column's reduced cost
then costs k products against a base computed once per configuration,
and every family facet has k <= 3.

The walk solves and scans once per face, on its first member: r1 + 4
solves for the family.  A row's kind is its tuple of entries on the
non-slack columns; when the columns a face chooses between are slacks of
rows of one kind, its members share K and the kinds of their rows R, so
the k x k system, the volume and every reduced cost, and the face is
decided whole.  Any other face is walked member by member.  A
configuration without slacks gets k = d + 1, the full elimination; all
arithmetic is on plain integers, so any configuration is exact.
The from-scratch checks that the tests hold this against, one facet's
volume and the brute-force lower envelope among them, are in
``wpsimplex.oracles``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, compress, filterfalse, product, repeat
from math import prod
from operator import mul, sub
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    DegenerateLift,
    DimensionMismatch,
    IndexOutOfRange,
    NonPureComplex,
    ParameterOutOfRange,
    SingularFacet,
    WpsimplexError,
)
from .simplex import QVector, resolve_enum_budget
from .toric import GroebnerFamily


class TriangulationSummary(NamedTuple):
    """What the certificate reads of a triangulation: the facet count,
    the volume sum, whether every volume is 1, and the lower-cell
    outcome of the first facet in facet order that is not a lower cell,
    True when every facet is one."""

    num_facets: int
    volume_sum: int
    all_unimodular: bool
    outcome: bool | WpsimplexError

    @property
    def regular(self) -> bool:
        """The outcome, raised when it is an error."""
        if isinstance(self.outcome, WpsimplexError):
            raise self.outcome
        return self.outcome


class WeightCertificate(NamedTuple):
    """Per-variable lifting heights that weigh every lead and tail of
    the family as pure lex orders them, so they pick every lex lead."""

    weights: tuple[int, ...]


def _support_mask(exponents) -> int:
    """Bit i set exactly when variable i occurs."""
    return sum(1 << i for i, e in enumerate(exponents) if e)


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


def _twin_quotient(
    n: int, support_masks: list[int]
) -> tuple[list[list[int]], list[int]]:
    """The twin classes of {0..n-1} under the supports, each an ascending
    list, in the order of their first vertices (the vertices in no
    support make one class), and the supports as masks over the classes,
    each kept once in first-seen order.  Each mask's bits are read once."""
    edges_of: list[list[int]] = [[] for _ in range(n)]
    for j, e in enumerate(support_masks):
        while e:
            low = e & -e
            edges_of[low.bit_length() - 1].append(j)
            e ^= low
    ids: dict[tuple[int, ...], int] = {}
    classes: list[list[int]] = []
    for v, edges in enumerate(map(tuple, edges_of)):
        c = ids.setdefault(edges, len(ids))
        if c == len(classes):
            classes.append([])
        classes[c].append(v)
    quotient = [0] * len(support_masks)
    for edges, c in ids.items():
        for j in edges:
            quotient[j] |= 1 << c
    return classes, list(dict.fromkeys(quotient))


#: A face of the lead-support complex, as ``(full, choices)``: ``full``
#: is the sorted tuple of the columns (1-based) of every twin class that
#: the face does not omit outright, and each choice holds the positions
#: in ``full`` of one class of two or more columns of which every member
#: omits exactly one.  The members are the facets; a plain facet is a
#: face without choices.
_Face = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _member(full: tuple[int, ...], omit) -> tuple[int, ...]:
    """``full`` without the positions ``omit``."""
    member, start = (), 0
    for i in sorted(omit):
        member += full[start:i]
        start = i + 1
    return member + full[start:]


def _members(face: _Face):
    """Every member of the face, one omitted position per choice, last
    positions first: the first member in facet order comes first."""
    full, choices = face
    lasts_first = [choice[::-1] for choice in choices]
    return (_member(full, omit) for omit in product(*lasts_first))


def _first_member(face: _Face) -> tuple[int, ...]:
    """The member first in facet order: each choice omits its last
    position, so the smaller columns stay."""
    full, choices = face
    return _member(full, [choice[-1] for choice in choices])


def _face_size(face: _Face) -> int:
    return prod(map(len, face[1]))


@lru_cache(maxsize=64)
def _lead_faces(
    leads: tuple[tuple[int, ...], ...], n: int, dim: int
) -> tuple[_Face, ...]:
    """The maximal faces of the complex on {1..n} whose non-faces are
    the sets holding a lead's support, as faces of members of size
    ``dim``, ordered by their first members.  The leads need not be
    minimal (see the module docstring): their distinct supports are
    dualized, lex-largest lead first.  Cached, so the certificate and the
    facet list of one point share a single dualization.

    Twins, vertices in exactly the same supports, are interchangeable: a
    minimal transversal holds at most one vertex of a class, and any
    twin can take its place.  So the minimal transversals T of the twin
    quotient give every maximal face, as the members that omit one
    vertex of each class in T, and a face's members have n - |T|
    vertices.  A face of any other size raises NonPureComplex, naming
    its member without the first vertex of each class in T: purity is
    part of what is being verified and is never repaired silently.
    """
    ordered = sorted(set(leads), reverse=True)
    masks = list(dict.fromkeys(map(_support_mask, ordered)))
    classes, quotient = _twin_quotient(n, masks)
    faces = []
    for t in _minimal_transversals(len(classes), quotient):
        omitted = [c for i, c in enumerate(classes) if t >> i & 1]
        if n - len(omitted) != dim:
            firsts = {c[0] for c in omitted}
            members = tuple(v + 1 for v in range(n) if v not in firsts)
            raise NonPureComplex(
                f"maximal face {members} has {len(members)} vertices, "
                f"expected {dim}"
            )
        gone = {c[0] for c in omitted if len(c) == 1}
        full = tuple(v + 1 for v in range(n) if v not in gone)
        position = {p: i for i, p in enumerate(full)}
        faces.append((full, tuple(
            tuple(position[v + 1] for v in c) for c in omitted if len(c) > 1
        )))
    return tuple(sorted(faces, key=_first_member))


def initial_complex(
    leads: tuple[tuple[int, ...], ...], n: int, dim: int
) -> tuple[tuple[int, ...], ...]:
    """Facets of the complex whose minimal non-faces are the supports of
    the minimal leads: all maximal F within {1..n} containing no lead's
    support, each of size exactly ``dim``, sorted.  The faces of
    ``_lead_faces`` expanded, after their facet count is checked against
    the enumeration budget; a maximal face of any other size raises
    NonPureComplex.
    """
    faces = _lead_faces(leads, n, dim)
    count, limit = sum(map(_face_size, faces)), resolve_enum_budget()
    if count > limit:
        raise BudgetExceeded(f"{count} facets exceed the budget {limit}")
    return tuple(sorted(chain.from_iterable(map(_members, faces))))


def _leads(family: GroebnerFamily) -> tuple[tuple[int, ...], ...]:
    return tuple(g.lead for g in family.generators)


def family_facets(family: GroebnerFamily) -> tuple[tuple[int, ...], ...]:
    """The family's facets, sorted: its ``initial_complex``."""
    return initial_complex(_leads(family), family.nvars, family.q.d + 1)


def _eliminate(rows: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Gauss-Jordan elimination without fractions (Bareiss, 1968) of an
    n x n integer matrix A augmented by a block B of any width (none, a
    right-hand side, or the identity); ``rows`` is overwritten.  Returns
    det A and det A * A^-1 B read row by row, which for B the identity
    is the adjugate (empty without B or when det A is 0).  Every entry
    stays a minor of [A | B], so each division is exact."""
    size, sign, prev = len(rows), 1, 1
    for k in range(size):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if swap is None:
                return 0, ()
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows:
            if row is not pivot_row:
                factor = row[k]
                row[k + 1:] = [
                    (pivot * a - factor * b) // prev
                    for a, b in zip(row[k + 1:], pivot_row[k + 1:])
                ]
        prev = pivot
    # prev is now the determinant of the row-permuted A, and block B
    # holds prev times the solution
    return sign * prev, tuple(sign * x for row in rows for x in row[size:])


def _checked_volume(det: int, facet: tuple[int, ...]) -> int:
    if det == 0:
        raise SingularFacet(f"columns {facet} span a degenerate simplex")
    return abs(det)


#: A configuration in the slack coordinates y = (x_0, ..., x_{d-1},
#: h - sum(x)) of its homogenized columns x = (x_0, ..., x_{d-1}, h), as
#: ``(rows, slack, base)``: ``rows[t]`` holds y_t of every column,
#: ``slack`` maps each slack column (1-based) to its row t, the first
#: column whose y is the unit vector e_t, and ``base[q]`` is
#: w_q - sum_t h_t * y_t(q) for the slack heights h_t, the weight of row
#: t's slack (0 for a row without one).  The change to y has
#: determinant 1, so it keeps every determinant and reduced cost.
_SlackFrame = tuple[list[tuple[int, ...]], dict[int, int], list[int]]


def _slack_frame(
    columns: tuple[tuple[int, ...], ...], weights: tuple[int, ...]
) -> _SlackFrame:
    ys = [(*col[:-1], col[-1] - sum(col[:-1])) for col in columns]
    first: dict[int, int] = {}
    for p, y in enumerate(ys, start=1):
        if sum(map(abs, y)) == 1 and 1 in y:
            first.setdefault(y.index(1), p)
    heights = [0] * len(ys[0]) if ys else []
    for t, p in first.items():
        heights[t] = weights[p - 1]
    base = [w - sum(map(mul, heights, y)) for w, y in zip(weights, ys)]
    return list(zip(*ys)), {p: t for t, p in first.items()}, base


def _check_facet_size(size: int, height: int) -> None:
    if size != height:
        raise ParameterOutOfRange(
            f"facet must select {height} columns, got {size}"
        )


def _check_weight_count(count: int, ncolumns: int) -> None:
    if count != ncolumns:
        raise DimensionMismatch(f"{count} weights for {ncolumns} columns")


#: The walk's verdict on a face: every member of ``face`` has ``volume``
#: and ``outcome``.  A face walked member by member gives one cell per
#: member, as a face without choices.
_Cell = tuple[_Face, int, bool | WpsimplexError]


def _walk_faces(
    columns: tuple[tuple[int, ...], ...], weights: tuple[int, ...],
    faces: Sequence[_Face],
) -> list[_Cell]:
    """Each face's volume (0 when singular) and lower-cell outcome under
    ``weights``, as cells in face order, from one ``facet_support_function``
    solve per face.  A facet's solve gives every column q off it the
    reduced cost scale * base_q - delta . y(q); a slack of a free row t
    has base 0 and y = e_t, so it costs exactly -delta_t.  The first
    column off the facet in column order whose cost is not positive
    decides: zero gives DegenerateLift (heights not generic), below zero
    a facet that is not a lower cell.  Every error names its own facet.

    A face whose first member is a lower cell is decided by it, in one
    cell, when every choice is slack columns whose rows share one kind:
    its members then have the same non-slack columns and the same kinds
    of free rows, so the same volume, the same gaps and the same costs
    on their free slacks.  Every other face is walked member by member,
    in member order, one solve per member after the first.
    """
    _check_weight_count(len(weights), len(columns))
    frame = _slack_frame(columns, weights)
    rows, slack, base = frame
    for full, choices in faces:
        _check_facet_size(len(full) - len(choices), len(rows))
    plain = [p not in slack for p in range(1, len(columns) + 1)]
    kind_ids: dict[tuple[int, ...], int] = {}
    kinds = [
        kind_ids.setdefault(tuple(compress(row, plain)), len(kind_ids))
        for row in rows
    ]

    def walk(facet):
        try:
            scale, delta = facet_support_function(columns, weights, facet, frame)
        except SingularFacet as exc:
            return 0, exc
        gaps = base if scale == 1 else map(mul, base, repeat(scale))
        for t, x in delta.items():
            gaps = map(sub, gaps, map(mul, rows[t], repeat(x)))
        on = set(facet)
        p, gap = next((
            (p, gap) for p, gap in enumerate(gaps, start=1)
            if gap <= 0 and p not in on
        ), (0, 1))
        return scale, gap > 0 if gap else DegenerateLift(
            f"column {p} lies on the lifted hyperplane of {facet}"
        )

    def one_kind(full, choice):
        # the choice is slack columns, and their rows are of one kind
        ts = [slack.get(full[i]) for i in choice]
        return None not in ts and len({kinds[t] for t in ts}) == 1

    cells: list[_Cell] = []
    for face in faces:
        first = _first_member(face)
        volume, outcome = walk(first)
        full, choices = face
        if outcome is True and all(one_kind(full, c) for c in choices):
            cells.append((face, volume, True))
            continue
        members = _members(face)
        next(members)  # the first member, walked above
        cells.append(((first, ()), volume, outcome))
        cells += [((m, ()), *walk(m)) for m in members]
    return cells


def _family_faces(family: GroebnerFamily) -> tuple[_Face, ...]:
    return _lead_faces(_leads(family), family.nvars, family.q.d + 1)


def summarize_triangulation(
    family: GroebnerFamily, facets: Sequence[tuple[int, ...]] | None = None
) -> TriangulationSummary:
    """The triangulation certified under the family's weight certificate.
    With ``facets`` None these are the family's faces, read without
    listing their facets: a face of m members counts m facets and m
    times its volume.  A given facet list, an empty one included, is
    walked facet by facet, each facet a face without choices.  Only a
    facet walked on its own is singular or not a lower cell, and the
    first such facet in facet order, the sorted order, decides.  No
    generator's orientation is read here: the weights pick every lex
    lead (see ``make_weight_certificate``) of a family that passes check
    (b), which the family stage reads (``toric.orientation_failures``).
    Raises NonPureComplex for the family's faces, or SingularFacet for
    the first singular facet in facet order."""
    faces = _family_faces(family) if facets is None else [(f, ()) for f in facets]
    weights = make_weight_certificate(family).weights
    cells = _walk_faces(family.columns, weights, faces)
    singular = [face[0] for face, volume, _ in cells if not volume]
    if singular:
        _checked_volume(0, min(singular))
    sizes = [_face_size(face) for face, _, _ in cells]
    failing = {face[0]: lower for face, _, lower in cells if lower is not True}
    return TriangulationSummary(
        num_facets=sum(sizes),
        volume_sum=sum(map(mul, sizes, (volume for _, volume, _ in cells))),
        all_unimodular=all(volume == 1 for _, volume, _ in cells),
        outcome=failing[min(failing)] if failing else True,
    )


def verify_unimodular(summary: TriangulationSummary, q: QVector) -> bool:
    """True iff every facet has volume 1 and the volumes sum to N(q)."""
    return summary.all_unimodular and summary.volume_sum == q.volume


def drop_facet(
    facets: tuple[tuple[int, ...], ...], index: int
) -> tuple[tuple[int, ...], ...]:
    """Sabotage hook: the facets without facet ``index``, whose volumes
    then sum to less than N."""
    if not facets:
        raise IndexOutOfRange(
            f"cannot drop facet {index}: the facet list is empty"
        )
    if not 0 <= index < len(facets):
        raise IndexOutOfRange(
            f"facet index must lie in [0, {len(facets) - 1}]"
        )
    return facets[:index] + facets[index + 1:]


def make_weight_certificate(family: GroebnerFamily) -> WeightCertificate:
    """Geometric weights M^(n-1), ..., M, 1 with M one more than the
    largest degree of any lead or tail (unit weights for no generators).

    Every exponent of a lead or a tail is then a base-M digit, so
    w . a > w . b exactly when a > b in tuple order, which is pure lex:
    the weights pick a generator's lead exactly when it is lex-greater
    than its tail.
    """
    m_base = 1 + max(map(sum, chain.from_iterable(family.generators)), default=0)
    weights = tuple(m_base ** i for i in reversed(range(family.nvars)))
    return WeightCertificate(weights=weights)


def facet_support_function(
    columns: tuple[tuple[int, ...], ...],
    weights: tuple[int, ...],
    facet: tuple[int, ...],
    frame: _SlackFrame | None = None,
) -> tuple[int, dict[int, int]]:
    """The affine function through the lifted facet points, as integers
    ``(scale, delta)`` with scale > 0 the facet volume: in the slack
    coordinates of ``frame`` it is psi_t = h_t + delta.get(t, 0) / scale,
    so every column q has the reduced cost

        scale * w_q - scale * psi . y(q) = scale * base_q - delta . y(q),

    which is zero on the facet.  The facet's slacks fix psi on their rows
    T; on the other rows R it solves Y[R, K]^T delta = scale * base_K for
    the other facet columns K, one elimination of a k x k system with
    k = |R| = |K|, whose determinant is +- that of the facet's
    homogenized columns.  The frame is built from ``columns`` and
    ``weights`` when not given.  The walk calls this once per face, on
    its first member, and once per further member of a face it walks
    member by member; a facet that does not select one column per row
    raises ParameterOutOfRange.
    """
    rows, slack, base = frame or _slack_frame(columns, weights)
    _check_facet_size(len(facet), len(rows))
    free = sorted(set(range(len(rows))).difference(map(slack.get, facet)))
    det, scaled = _eliminate([
        [*(rows[t][p - 1] for t in free), base[p - 1]]
        for p in filterfalse(slack.__contains__, facet)
    ])
    if det == 0:
        raise SingularFacet(f"columns {facet} are affinely dependent")
    sign = 1 if det > 0 else -1
    return abs(det), {t: sign * x for t, x in zip(free, scaled) if x}
