"""Facet extraction from the lead monomials, with exact volume and
regularity certification.

The supports of the rewrite family's minimal leads, squarefree by
check (c) of ``wpsimplex.groebner``, are the minimal non-faces of a
simplicial complex on the configuration columns.  Its maximal faces,
the complements of the minimal transversals of those supports, are the
facets of a triangulation of the simplex.  A set meets every lead
support exactly when it meets those of the minimal leads, so the
transversals are read from all the leads and none is dropped first.
The twin classes below are read from every support too, so a lead that
is not minimal can split a class and get the complex refused with
NonGraphSupport: a failed certificate, never a false pass (over the
(2,1) columns, the leads z5*y2, z5*y1*y2 and z4*y1*y2).  No family
reaches this.
Facet volumes are exact integer determinants.  Regularity is read
symbolically: the facets are the lower cells of Delta_lex, the placing
triangulation of the column order, which the weights
w(M) = (M^(n-1), ..., M, 1) induce for every large M (Sturmfels,
*Groebner Bases and Convex Polytopes*, 1996, Thm 8.3 and Cor 8.9;
De Loera, Rambau and Santos, *Triangulations*, 2010, sec. 4.3).

Two columns are twins when they lie in exactly the same supports.  The
minimal transversals are those of the twin quotient, each class in them
replaced by any one of its columns, so the facets come in faces: a face
omits one column of each class of one quotient transversal, and its
members are its facets.  Each minimal support of the family meets two
classes, so those transversals are the complements of the maximal
cliques of the graph joining two classes that no support joins (Bron
and Kerbosch, CACM 16, 1973); a minimal support meeting another number
of classes raises NonGraphSupport.  The family has r1 + 5 twin classes
and r1 + 4 faces.  A triangulation is its facet list, read only by
``summarize_triangulation``, which counts a face's members without
listing them or walks a given facet list facet by facet; only
``family_facets``, for ``triangulate``, lists the facets, after charging
d + 1 entries per facet against the enumeration budget.

Write a column q off a facet F in F's columns, a_q = sum_p lambda_p(q)
* a_p.  Under w(M), q's reduced cost w_q - sum_p lambda_p(q) * w_p is a
polynomial in M whose leading coefficient is -lambda_p(q) for the first
p < q of F, in column order, with lambda_p(q) != 0, else q's own 1; it
is never zero.  So q lifts above F exactly when that lambda_p(q) is
negative or there is no such p, and F is a lower cell when every q does.
The lambdas are read in the slack coordinates y = (x_0, ..., x_{d-1},
h - sum(x)) of the homogenized columns, a change of determinant 1.
There the unit vectors b_j = (e_t, 1) and the origin (0, 1) of the
family are the d + 1 unit columns of y, the simplex method's slack basis
(Chvatal, *Linear Programming*, 1983).  A facet's slacks cover rows T;
on the other k rows R it has as many other columns K, and its
determinant is +-det Y[R, K].  One fraction-free elimination of that
k x k system against the identity gives the adjugate, so det *
lambda_p(q) costs k products for p in K, and for the slack p of row t it
is det * y_t(q) - sum_K y_t(a_K) * det * lambda_K(q).  Every family
facet has k <= 3.

The walk solves and scans once per face, on its first member: r1 + 4
solves for the family.  A row's kind is its tuple of entries on the
non-slack columns; when the columns a face chooses between are slacks of
rows of one kind, its members share K and the kinds of their rows R, so
the volume and the verdict, and the face is decided whole.  Any other
face is walked member by member.  A configuration without slacks gets
k = d + 1, the full elimination; all arithmetic is on plain integers, so
any configuration is exact.  The from-scratch checks that the tests hold
this against, one facet's volume and the lower-cell test under explicit
weights among them, are in ``wpsimplex.oracles``.
"""

from bisect import bisect_left
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, compress, filterfalse, product, repeat
from math import prod
from operator import add, mul, not_
from typing import NamedTuple

from .errors import (
    IndexOutOfRange,
    NonGraphSupport,
    NonPureComplex,
    ParameterOutOfRange,
    SingularFacet,
)
from .simplex import QVector, charge
from .toric import GroebnerFamily


class TriangulationSummary(NamedTuple):
    """What the certificate reads of a triangulation: the facet count,
    the volume sum, whether every volume is 1, and whether every facet
    is a lower cell of the lex lift."""

    num_facets: int
    volume_sum: int
    all_unimodular: bool
    regular: bool


def _twin_quotient(
    n: int, supports: Sequence[tuple[int, ...]]
) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The twin classes of {0..n-1} under the distinct supports, each an
    ascending list, in the order of their first vertices (the vertices in
    no support make one class), and each support as the ascending tuple
    of the classes it meets, in support order."""
    edges_of: list[list[int]] = [[] for _ in range(n)]
    for j, support in enumerate(supports):
        for v in support:
            edges_of[v].append(j)
    ids: dict[tuple[int, ...], int] = {}
    class_of = [ids.setdefault(tuple(edges), len(ids)) for edges in edges_of]
    classes: list[list[int]] = [[] for _ in ids]
    for v, c in enumerate(class_of):
        classes[c].append(v)
    return classes, [tuple(sorted({class_of[v] for v in s})) for s in supports]


def _minimal_covers(
    classes: list[list[int]], edges: list[tuple[int, ...]]
) -> list[int]:
    """The minimal sets of classes meeting every edge, as masks, when each
    minimal edge is a pair: the complements of the maximal cliques of the
    graph joining two classes that no pair joins, by Bron-Kerbosch on a
    stack (CACM 16, 1973).  The edges go by size, so an edge holding no
    pair is minimal; it raises NonGraphSupport, naming its columns."""
    full, joined = (1 << len(classes)) - 1, [0] * len(classes)
    for edge in sorted(edges, key=len):
        if len(edge) == 2:
            a, b = edge
            joined[a] |= 1 << b
            joined[b] |= 1 << a
        elif not any(joined[a] >> b & 1 for a in edge for b in edge):
            columns = tuple(sorted(v + 1 for c in edge for v in classes[c]))
            raise NonGraphSupport(
                f"lead support {columns} meets {len(edge)} twin classes, not 2"
            )
    apart = [full & ~j for j in joined]
    covers, stack = [], [(0, full, 0)]
    while stack:
        clique, candidates, seen = stack.pop()
        if not candidates | seen:
            covers.append(full ^ clique)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            c = low.bit_length() - 1
            stack.append((clique | low, candidates & apart[c], seen & apart[c]))
            seen |= low
    return covers


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


@lru_cache(maxsize=1)
def _lead_faces(
    leads: tuple[tuple[int, ...], ...], n: int, dim: int
) -> tuple[_Face, ...]:
    """The maximal faces of the complex on {1..n} whose non-faces are
    the sets holding a lead's support, as faces of members of size
    ``dim``, ordered by their first members.  The leads need not be
    minimal, though one that is not can split a twin class and get the
    complex refused (see the module docstring).  The last call is cached,
    so the certificate and the facet list of one point share one
    dualization.

    A minimal transversal holds at most one vertex of a twin class, and
    any twin can take its place, so the minimal covers T of the twin
    quotient give every maximal face, as the members that omit one vertex
    of each class in T, of n - |T| vertices.  A face of any other size
    raises NonPureComplex, naming its member without the first vertex of
    each class in T: purity is part of what is being verified and is
    never repaired silently.
    """
    supports = dict.fromkeys(tuple(dict.fromkeys(lead)) for lead in leads)
    classes, edges = _twin_quotient(n, supports)
    faces = []
    for t in _minimal_covers(classes, edges):
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
    ``_lead_faces`` expanded, after the list's entries, ``dim`` per
    facet, are charged against the enumeration budget; a maximal face of
    any other size raises NonPureComplex.
    """
    faces = _lead_faces(leads, n, dim)
    count = sum(map(_face_size, faces))
    charge(count * dim, f"{count} facets of {dim} columns ({count * dim} entries)")
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
#: ``(rows, slack)``: ``rows[t]`` holds y_t of every column, and
#: ``slack`` maps each slack column (1-based) to its row t, the first
#: column whose y is the unit vector e_t.  The change to y has
#: determinant 1, so it keeps every determinant and every coefficient
#: of one column in the others.
_SlackFrame = tuple[list[tuple[int, ...]], dict[int, int]]


def _slack_frame(columns: tuple[tuple[int, ...], ...]) -> _SlackFrame:
    ys = [(*col[:-1], col[-1] - sum(col[:-1])) for col in columns]
    first: dict[int, int] = {}
    for p, y in enumerate(ys, start=1):
        if sum(map(abs, y)) == 1 and 1 in y:
            first.setdefault(y.index(1), p)
    return list(zip(*ys)), {p: t for t, p in first.items()}


def _check_facet_size(size: int, height: int) -> None:
    if size != height:
        raise ParameterOutOfRange(
            f"facet must select {height} columns, got {size}"
        )


#: The walk's verdict on a face: every member of ``face`` has ``volume``,
#: 0 when singular, and is a lower cell exactly when ``lower``.  A face
#: walked member by member gives one cell per member, as a face without
#: choices.
_Cell = tuple[_Face, int, bool]


def _walk_faces(
    columns: tuple[tuple[int, ...], ...], faces: Sequence[_Face]
) -> list[_Cell]:
    """Each face's volume (0 when singular) and lower-cell verdict under
    the lex lift, as cells in face order, from one
    ``facet_support_function`` solve per face and the sign rule of the
    module docstring.  The first facet column's coefficients are built
    for every column in at most k + 1 passes; a later one's are read only
    at a column q where the first one's is 0.

    A face whose first member is a lower cell is decided by it, in one
    cell, when every choice is slack columns whose rows share one kind:
    its members then have the same non-slack columns and the same kinds
    of free rows, so the same volume and, under any weights w, the same
    reduced cost at every non-slack column and at their free slacks: a
    slack's base w_q - sum_t w(slack_t) * y_t(q) is 0, and rows of one
    kind agree on every non-slack column.  That holds under w(M) for every
    large M, so for the lex verdict too.  Every other face is walked
    member by member, in member order, one solve per member after the
    first.
    """
    frame = _slack_frame(columns)
    rows, slack = frame
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
            scale, inverse = facet_support_function(columns, facet, frame)
        except SingularFacet:
            return 0, False

        def terms(p):
            # scale * lambda_p as (row, coefficient) pairs: the solve's
            # for a non-slack p; for the slack of row t, scale * y_t less
            # the non-slack facet columns' share of row t
            if p not in slack:
                return inverse[p]
            t = slack[p]
            row, share = rows[t], {t: scale}
            for k, pairs in inverse.items():
                for r, c in pairs:
                    share[r] = share.get(r, 0) - row[k - 1] * c
            return [(r, c) for r, c in share.items() if c]

        # the 0-based columns after the first facet column, less those
        # decided: each facet column in turn decides where it is nonzero
        first = facet[0]
        undecided, on = range(first, len(columns)), {p - 1 for p in facet}

        def entries(t):
            # row t at the undecided columns, a slice while that is all
            row = rows[t]
            return row[first:] if p == first else map(row.__getitem__, undecided)

        for p in facet:
            undecided = undecided[bisect_left(undecided, p):]
            (t, c), *rest = terms(p)
            values = map(mul, entries(t), repeat(c))
            for t, c in rest:
                values = map(add, values, map(mul, entries(t), repeat(c)))
            values = list(values)
            if max(values, default=0) > 0:
                return scale, False
            undecided = list(filterfalse(
                on.__contains__, compress(undecided, map(not_, values))
            ))
            if not undecided:
                break
        return scale, True

    def one_kind(full, choice):
        # the choice is slack columns, and their rows are of one kind
        ts = [slack.get(full[i]) for i in choice]
        return None not in ts and len({kinds[t] for t in ts}) == 1

    cells: list[_Cell] = []
    for face in faces:
        first = _first_member(face)
        volume, lower = walk(first)
        full, choices = face
        if lower and all(one_kind(full, c) for c in choices):
            cells.append((face, volume, True))
            continue
        members = _members(face)
        next(members)  # the first member, walked above
        cells.append(((first, ()), volume, lower))
        cells += [((m, ()), *walk(m)) for m in members]
    return cells


def _family_faces(family: GroebnerFamily) -> tuple[_Face, ...]:
    return _lead_faces(_leads(family), family.nvars, family.q.d + 1)


def summarize_triangulation(
    family: GroebnerFamily, facets: Sequence[tuple[int, ...]] | None = None
) -> TriangulationSummary:
    """The triangulation certified as the lex triangulation of the
    family's columns.  With ``facets`` None these are the family's faces,
    read without listing their facets: a face of m members counts m
    facets and m times its volume.  A given facet list, an empty one
    included, is walked facet by facet, each facet a face without
    choices.  It is regular when every facet is a lower cell of the lex
    lift.  No generator's orientation is read here: the leads of a
    family that passes check (b), which the family stage reads
    (``toric.orientation_failures``), are its lex leads.  Raises
    NonGraphSupport or NonPureComplex for the family's faces, or
    SingularFacet for the first singular facet in sorted order."""
    faces = _family_faces(family) if facets is None else [(f, ()) for f in facets]
    cells = _walk_faces(family.columns, faces)
    singular = [face[0] for face, volume, _ in cells if not volume]
    if singular:
        _checked_volume(0, min(singular))
    sizes = [_face_size(face) for face, _, _ in cells]
    return TriangulationSummary(
        num_facets=sum(sizes),
        volume_sum=sum(map(mul, sizes, (volume for _, volume, _ in cells))),
        all_unimodular=all(volume == 1 for _, volume, _ in cells),
        regular=all(lower for _, _, lower in cells),
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


def facet_support_function(
    columns: tuple[tuple[int, ...], ...],
    facet: tuple[int, ...],
    frame: _SlackFrame | None = None,
) -> tuple[int, dict[int, list[tuple[int, int]]]]:
    """The facet's columns as a basis, as integers ``(scale, inverse)``
    with scale > 0 the facet volume: every column q is
    a_q = sum_p lambda_p(q) * a_p over the facet columns p, and for each
    p that is not a slack of ``frame``

        scale * lambda_p(q) = sum(c * y_t(q) for t, c in inverse[p])

    over the rows t that the facet's slacks leave free.  That is one
    elimination of Y[R, K] against the identity, for the free rows R and
    the other facet columns K, a k x k system with k = |R| = |K| whose
    determinant is +- that of the facet's homogenized columns; a slack's
    coefficients follow from these (see ``_walk_faces``).  The frame is
    built from ``columns`` when not given.  The walk calls this once per
    face, on its first member, and once per further member of a face it
    walks member by member; a facet that does not select one column per
    row raises ParameterOutOfRange, a singular one SingularFacet.
    """
    rows, slack = frame or _slack_frame(columns)
    _check_facet_size(len(facet), len(rows))
    free = sorted(set(range(len(rows))).difference(map(slack.get, facet)))
    plain = [p for p in facet if p not in slack]
    k = len(free)
    det, adjugate = _eliminate([
        [rows[t][p - 1] for p in plain] + [0] * i + [1] + [0] * (k - 1 - i)
        for i, t in enumerate(free)
    ])
    if det == 0:
        raise SingularFacet(f"columns {facet} are affinely dependent")
    if det < 0:
        adjugate = [-x for x in adjugate]
    return abs(det), {
        p: [(t, x) for t, x in zip(free, adjugate[i * k:i * k + k]) if x]
        for i, p in enumerate(plain)
    }
