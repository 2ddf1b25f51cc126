"""Facet extraction from the squarefree lead monomials, with exact volume
and regularity certification.

The lead supports of the rewrite family are the minimal non-faces of a
simplicial complex on the configuration columns; its maximal faces,
the complements of the minimal transversals of the supports, are the
facets of a triangulation of the simplex.  Facet volumes are exact
integer determinants, and regularity is certified by exhibiting one
weight vector whose lifted lower envelope induces exactly these facets.

Both rest on the inverse of each facet's column matrix, found by one
walk over the facets' dual graph (facets are neighbours when they share
a ridge).  A start facet is inverted by one fraction-free elimination;
each step to a neighbour swaps one column, and when the new determinant
is again +-1 the inverse follows by a plain integer rank-1 pivot, the
simplex method's basis update.  A facet of other volume, or one the
walk cannot reach, is eliminated from scratch.  Each row of an inverse
is stored sparse, as its nonzero entries by coordinate, so a pivot and
the weight contraction cost what the nonzeros cost; rows a pivot leaves
alone are shared with the facet it came from, never changed in place.
All arithmetic is on plain integers.  One walk gives each facet's
volume and lower cell.
The from-scratch checks that the tests hold this against, one facet's
volume and the brute-force lower envelope among them, are in
``wpsimplex.oracles``.
"""

from __future__ import annotations

from collections import deque
from operator import mul
from typing import NamedTuple

from .errors import (
    CertificateFailure,
    DegenerateLift,
    IndexOutOfRange,
    NonPureComplex,
    SingularFacet,
    WpsimplexError,
)
from .groebner import InitialIdeal, _support_mask, initial_ideal
from .simplex import QVector
from .toric import GroebnerFamily


class Triangulation(NamedTuple):
    """Facets as sorted tuples of 1-based column indices, with their
    normalized volumes (absolute homogenized determinants) and, when
    built from a family, each facet's lower-cell outcome under its weight
    certificate: True, False, or the DegenerateLift or SingularFacet the
    test raised."""

    facets: tuple[tuple[int, ...], ...]
    volumes: tuple[int, ...]
    lower: tuple[bool | WpsimplexError, ...] = ()

    @property
    def regular(self) -> bool:
        """The outcomes decided in facet order: the first error is raised,
        the first False returned.  False without an outcome for every
        facet, as for a hand-built triangulation."""
        if len(self.lower) != len(self.facets):
            return False
        for outcome in self.lower:
            if isinstance(outcome, WpsimplexError):
                raise outcome
            if not outcome:
                return False
        return True


class WeightCertificate(NamedTuple):
    """Per-variable lifting heights; valid when every generator's lead is
    strictly heavier than its tail."""

    weights: tuple[int, ...]


def _maximal_faces(n: int, support_masks: list[int]) -> list[int]:
    """Maximal subsets of {0..n-1} containing no support mask, of any size.

    They are the complements of the minimal transversals of the supports,
    built by Berge's incremental dualization (Berge, *Hypergraphs*, 1989,
    ch. 2): from the empty transversal, each support ``e`` keeps the
    transversals meeting it and grows each one missing it by every vertex
    v of ``e``.  A grown t + v is dropped when it contains a kept set,
    which must pass through v; it cannot contain another grown t' + v',
    as both meet ``e`` only in v and the earlier transversals are minimal.
    Small supports go first to keep the intermediate families small.
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
    return [((1 << n) - 1) ^ t for t in transversals]


def initial_complex(
    in_ideal: InitialIdeal, n: int, dim: int
) -> tuple[tuple[int, ...], ...]:
    """Facets of the complex whose minimal non-faces are the generator
    supports: all maximal F within {1..n} containing no support, each of
    size exactly ``dim``.

    A maximal face of any other size raises NonPureComplex: purity is
    part of what is being verified and is never repaired silently.
    """
    masks = [_support_mask(m) for m in in_ideal.generators]
    facets = []
    for face_mask in _maximal_faces(n, masks):
        members = tuple(i + 1 for i in range(n) if face_mask >> i & 1)
        if len(members) != dim:
            raise NonPureComplex(
                f"maximal face {members} has {len(members)} vertices, "
                f"expected {dim}"
            )
        facets.append(members)
    facets.sort()
    return tuple(facets)


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


#: A facet's inverse: the volume |det B| of the matrix B of its
#: homogenized columns, and the rows of |det B| * B^-1 keyed by facet
#: column, so column p's row n_p has n_p . column_p = |det B| and
#: n_p . column_q = 0 for the other facet columns q.  Each row is sparse,
#: a dict from coordinate to nonzero entry; a row with no nonzero entry
#: cannot occur, as B^-1 is invertible.  (0, {}) when B is singular.
FacetInverse = tuple[int, dict[int, dict[int, int]]]


def _facet_inverse(
    columns: tuple[tuple[int, ...], ...], facet: tuple[int, ...]
) -> FacetInverse:
    """One elimination of B augmented by the identity."""
    size = len(facet)
    rows = [
        [*coords, *(int(r == k) for k in range(size))]
        for r, coords in enumerate(zip(*(columns[p - 1] for p in facet)))
    ]
    det, adjugate = _eliminate(rows)
    if det == 0:
        return 0, {}
    sign = 1 if det > 0 else -1
    return abs(det), {
        p: {
            k: sign * x
            for k, x in enumerate(adjugate[i * size:(i + 1) * size]) if x
        }
        for i, p in enumerate(facet)
    }


def _pivot(
    inverse: dict[int, dict[int, int]], leaving: int, entering: int,
    column: tuple[int, ...],
) -> FacetInverse | None:
    """The inverse of a unimodular facet with column ``leaving`` swapped
    for ``entering``, or None when the swap is not unimodular.

    With u_p = n_p . column, the new determinant is u_leaving times the
    old one; when u_leaving is +-1 the new rows are n_entering =
    n_leaving / u_leaving and n_p - u_p * n_entering for the others.
    Both products run over the nonzero entries only.  A row with u_p = 0
    is shared with ``inverse``, so no row of it is changed in place."""
    entering_row = inverse[leaving]
    ratio = sum([x * column[k] for k, x in entering_row.items()])
    if ratio not in (1, -1):
        return None
    if ratio == -1:
        entering_row = {k: -x for k, x in entering_row.items()}
    rows = {entering: entering_row}
    for p, row in inverse.items():
        if p == leaving:
            continue
        f = sum([x * column[k] for k, x in row.items()])
        if f:
            row = dict(row)
            for k, x in entering_row.items():
                y = row.get(k, 0) - f * x
                if y:
                    row[k] = y
                else:
                    del row[k]
        rows[p] = row
    return 1, rows


def _walk_inverses(
    columns: tuple[tuple[int, ...], ...], facets: tuple[tuple[int, ...], ...]
):
    """Yield ``(index, inverse)`` once for every facet, in walk order.

    The walk goes breadth first over the dual graph from the first facet
    not yet reached, which is inverted from scratch; a neighbour found
    across a ridge of a unimodular facet is inverted by a pivot when the
    swap keeps the determinant at +-1 and from scratch otherwise, and
    only unimodular facets are walked on.  Only the frontier holds
    inverses.  Pivots need no more than a correct neighbour, so the
    ridge map is kept lean: each ridge maps to the XOR of (index + 1)
    over the facets containing it, which names the other facet exactly
    when at most two do; a name that does not contain the ridge is
    skipped, and a facet missed that way is reached across another
    ridge or starts a walk of its own.
    """
    masks = [sum(1 << p for p in facet) for facet in facets]
    owners: dict[int, int] = {}
    for index, (facet, mask) in enumerate(zip(facets, masks)):
        for p in facet:
            ridge = mask ^ (1 << p)
            owners[ridge] = owners.get(ridge, 0) ^ (index + 1)
    reached = bytearray(len(facets))
    for start, facet in enumerate(facets):
        if reached[start]:
            continue
        reached[start] = 1
        inverse = _facet_inverse(columns, facet)
        yield start, inverse
        frontier = deque([(start, inverse[1])] if inverse[0] == 1 else [])
        while frontier:
            index, rows = frontier.popleft()
            mask = masks[index]
            for p in facets[index]:
                ridge = mask ^ (1 << p)
                other = (owners[ridge] ^ (index + 1)) - 1
                if not 0 <= other < len(facets) or reached[other]:
                    continue
                new = masks[other] ^ ridge
                if new & ridge or new.bit_count() != 1:
                    continue
                reached[other] = 1
                entering = new.bit_length() - 1
                step = _pivot(rows, p, entering, columns[entering - 1])
                if step is None:
                    step = _facet_inverse(columns, facets[other])
                yield other, step
                if step[0] == 1:
                    frontier.append((other, step[1]))


def _checked_volume(det: int, facet: tuple[int, ...]) -> int:
    if det == 0:
        raise SingularFacet(f"columns {facet} span a degenerate simplex")
    return abs(det)


def _walk_facets(
    columns: tuple[tuple[int, ...], ...], weights: tuple[int, ...],
    facets: tuple[tuple[int, ...], ...],
) -> tuple[list[int], tuple[bool | WpsimplexError, ...]]:
    """Each facet's volume (0 when singular) and lower-cell outcome under
    ``weights``, in facet order, both from the facet's inverse."""
    volumes = [0] * len(facets)
    lower: list[bool | WpsimplexError] = [True] * len(facets)
    for index, inverse in _walk_inverses(columns, facets):
        volumes[index] = inverse[0]
        try:
            lower[index] = _is_lower_cell(columns, weights, facets[index], inverse)
        except (DegenerateLift, SingularFacet) as exc:
            lower[index] = exc
    return volumes, tuple(lower)


def triangulation_from_family(family: GroebnerFamily) -> Triangulation:
    """Pipeline: lead monomials -> facets -> volumes and lower cells under
    the family's weight certificate, whose failure is every facet's
    outcome; the first singular facet in facet order raises SingularFacet."""
    in_ideal = initial_ideal(family)
    facets = initial_complex(in_ideal, family.nvars, family.q.d + 1)
    try:
        weights, failure = make_weight_certificate(family).weights, None
    except CertificateFailure as exc:
        weights, failure = (0,) * family.nvars, exc
    volumes, lower = _walk_facets(family.columns, weights, facets)
    return Triangulation(
        facets=facets,
        volumes=tuple(map(_checked_volume, volumes, facets)),
        lower=(failure,) * len(facets) if failure else lower,
    )


def verify_unimodular(tri: Triangulation, q: QVector) -> bool:
    """True iff every facet has volume 1 and the volumes sum to N(q)."""
    return all(v == 1 for v in tri.volumes) and sum(tri.volumes) == q.volume


def drop_facet(tri: Triangulation, index: int) -> Triangulation:
    """Sabotage hook: the triangulation without facet ``index``, which
    leaves the volumes summing to less than N."""
    if not 0 <= index < len(tri.facets):
        raise IndexOutOfRange(
            f"facet index must lie in [0, {len(tri.facets) - 1}]"
        )
    return Triangulation(
        facets=tri.facets[:index] + tri.facets[index + 1:],
        volumes=tri.volumes[:index] + tri.volumes[index + 1:],
        lower=tri.lower[:index] + tri.lower[index + 1:],
    )


def make_weight_certificate(family: GroebnerFamily) -> WeightCertificate:
    """Geometric weights M^(n-1), ..., M, 1 with M one more than the top
    generator degree.

    Exponents in any monomial of degree < M are valid base-M digits, so
    these weights order every homogeneous binomial of the family exactly
    as lex does, and no other M could change that.  The strictness check
    on every generator is still run: CertificateFailure names the first
    generator whose lead is not heavier than its tail, which means an
    orientation bug upstream.
    """
    if not family.generators:
        raise CertificateFailure("cannot certify an empty family")
    m_base = 1 + max(sum(g.lead) for g in family.generators)
    weights = tuple(m_base ** i for i in reversed(range(family.nvars)))
    for index, g in enumerate(family.generators):
        lead, tail = (sum(w * e for w, e in zip(weights, m)) for m in g)
        if lead <= tail:
            raise CertificateFailure(
                f"generator {index}'s lead is not heavier than its tail"
            )
    return WeightCertificate(weights=weights)


def facet_support_function(
    columns: tuple[tuple[int, ...], ...],
    weights: tuple[int, ...],
    facet: tuple[int, ...],
    inverse: FacetInverse | None = None,
) -> tuple[int, tuple[int, ...]]:
    """The affine function through the lifted facet points, as integers
    ``(scale, c)`` with scale > 0 and c . column_p == scale * weight_p
    for every p in the facet (affine functions on the points are linear
    functions of the homogenized columns); scale is the facet volume.

    c is the sum of weight_p * n_p over the nonzero entries of the rows
    of the facet's ``inverse``, which is eliminated from scratch when not
    given.
    """
    scale, rows = inverse if inverse is not None else _facet_inverse(columns, facet)
    if scale == 0:
        raise SingularFacet(f"columns {facet} are affinely dependent")
    c = [0] * len(columns[0])
    for p, row in rows.items():
        w = weights[p - 1]
        for k, x in row.items():
            c[k] += w * x
    return scale, tuple(c)


def _is_lower_cell(
    columns: tuple[tuple[int, ...], ...],
    weights: tuple[int, ...],
    cell: tuple[int, ...],
    inverse: FacetInverse | None = None,
) -> bool:
    """Interpolate the weights on the cell's columns and test whether
    every other column lifts strictly above that hyperplane: the simplex
    method's reduced costs scale * w_p - c . column_p, in column order.
    Equality raises DegenerateLift (heights not generic); a column
    lifting below makes the cell not lower."""
    scale, psi = facet_support_function(columns, weights, cell, inverse)
    inside = set(cell)
    for p, col in enumerate(columns, start=1):
        if p in inside:
            continue
        gap = scale * weights[p - 1] - sum(map(mul, psi, col))
        if gap == 0:
            raise DegenerateLift(
                f"column {p} lies on the lifted hyperplane of {cell}"
            )
        if gap < 0:
            return False
    return True
