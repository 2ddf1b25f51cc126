"""Facet extraction from the squarefree lead monomials, with exact volume
and regularity certification.

The lead supports of the rewrite family are the minimal non-faces of a
simplicial complex on the configuration columns; its maximal faces,
the complements of the minimal transversals of the supports, are the
facets of a triangulation of the simplex.  Facet volumes are exact
integer determinants, and regularity is certified by exhibiting one
weight vector whose lifted lower envelope induces exactly these facets.
Both rest on one fraction-free elimination, so all arithmetic is on
plain integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    CertificateFailure,
    DegenerateLift,
    IndexOutOfRange,
    NonPureComplex,
    ParameterOutOfRange,
    SingularFacet,
)
from .groebner import InitialIdeal, _support_mask, initial_ideal
from .simplex import QVector
from .toric import GroebnerFamily


@dataclass(frozen=True)
class Triangulation:
    """Facets as sorted tuples of 1-based column indices, with their
    normalized volumes (absolute homogenized determinants)."""

    facets: tuple[tuple[int, ...], ...]
    volumes: tuple[int, ...]


@dataclass(frozen=True)
class WeightCertificate:
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
    masks = [_support_mask(m.exponents) for m in in_ideal.generators]
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
    n x n integer matrix A, optionally augmented by a column b; ``rows``
    is overwritten.  Returns det A and det A * A^-1 b (empty without b or
    when det A is 0).  Every entry stays a minor of [A | b], so each
    division is exact."""
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
    # prev is now the determinant of the row-permuted A, and column b
    # holds prev times the solution
    return sign * prev, tuple(sign * row[size] for row in rows if len(row) > size)


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
    if det == 0:
        raise SingularFacet(f"columns {facet} span a degenerate simplex")
    return abs(det)


def triangulation_from_family(family: GroebnerFamily) -> Triangulation:
    """Pipeline: lead monomials -> facets -> volumes."""
    in_ideal = initial_ideal(family)
    facets = initial_complex(in_ideal, family.nvars, family.q.d + 1)
    volumes = tuple(facet_volume(family.columns, f) for f in facets)
    return Triangulation(facets=facets, volumes=volumes)


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
    m_base = 1 + max(g.lead.degree for g in family.generators)
    weights = tuple(m_base ** i for i in reversed(range(family.nvars)))
    for index, g in enumerate(family.generators):
        lead, tail = (
            sum(w * e for w, e in zip(weights, m.exponents))
            for m in (g.lead, g.tail)
        )
        if lead <= tail:
            raise CertificateFailure(
                f"generator {index}'s lead is not heavier than its tail"
            )
    return WeightCertificate(weights=weights)


def facet_support_function(
    columns: tuple[tuple[int, ...], ...],
    weights: tuple[int, ...],
    facet: tuple[int, ...],
) -> tuple[int, tuple[int, ...]]:
    """The affine function through the lifted facet points, as integers
    ``(scale, c)`` with scale > 0 and c . column_p == scale * weight_p
    for every p in the facet (affine functions on the points are linear
    functions of the homogenized columns); scale is the facet volume.
    """
    det, c = _eliminate([[*columns[p - 1], weights[p - 1]] for p in facet])
    if det == 0:
        raise SingularFacet(f"columns {facet} are affinely dependent")
    return (det, c) if det > 0 else (-det, tuple(-v for v in c))


def _is_lower_cell(
    columns: tuple[tuple[int, ...], ...],
    weights: tuple[int, ...],
    cell: tuple[int, ...],
) -> bool:
    """Interpolate the weights on the cell's columns and test whether
    every other column lifts strictly above that hyperplane.  Equality
    raises DegenerateLift (heights not generic); a column lifting below
    makes the cell not lower."""
    scale, psi = facet_support_function(columns, weights, cell)
    inside = set(cell)
    for p, col in enumerate(columns, start=1):
        if p in inside:
            continue
        gap = scale * weights[p - 1] - sum(c * v for c, v in zip(psi, col))
        if gap == 0:
            raise DegenerateLift(
                f"column {p} lies on the lifted hyperplane of {cell}"
            )
        if gap < 0:
            return False
    return True


def regularity_check(
    tri: Triangulation,
    certificate: WeightCertificate,
    columns: tuple[tuple[int, ...], ...],
) -> bool:
    """Facet-wise lower-envelope condition.

    True certifies that the lifted lower envelope induces exactly these
    facets.  Equality anywhere raises DegenerateLift; a point lifting
    below a facet's hyperplane makes the check return False.
    """
    return all(
        _is_lower_cell(columns, certificate.weights, facet) for facet in tri.facets
    )


def regular_subdivision_bruteforce(
    columns: tuple[tuple[int, ...], ...], weights: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """From-scratch oracle: the full-dimensional lower-envelope cells of
    the lifted configuration, found by testing every column subset of the
    right size.  Guarded to ambient dimension <= 4 (the check is
    exponential); the facet-wise check above is the scalable path."""
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
