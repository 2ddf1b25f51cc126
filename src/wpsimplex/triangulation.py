"""Facet extraction from the squarefree lead monomials, with exact volume
and regularity certification.

The lead supports of the rewrite family are the minimal non-faces of a
simplicial complex on the configuration columns; its maximal faces are
the facets of a triangulation of the simplex.  Facet volumes are exact
integer determinants, and regularity is certified by exhibiting one
weight vector whose lifted lower envelope induces exactly these facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    CertificateFailure,
    DegenerateLift,
    IndexOutOfRange,
    NonPureComplex,
    ParameterOutOfRange,
    SingularFacet,
)
from .groebner import InitialIdeal, initial_ideal
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
    """Maximal subsets of {0..n-1} containing no support mask.

    Depth-first over sorted vertex chains: every face of the complex is
    visited exactly once (each prefix of a face is a face), and a face is
    recorded when no vertex at all can extend it.
    """
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for mask in support_masks:
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            by_vertex[v].append(mask)
            m &= m - 1

    def addable(face_mask: int, v: int) -> bool:
        grown = face_mask | (1 << v)
        return all((s & grown) != s for s in by_vertex[v])

    results: list[int] = []

    def walk(face_mask: int, last: int, candidates: list[int]) -> None:
        if not candidates:
            results.append(face_mask)
            return
        for v in candidates:
            if v <= last:
                continue
            grown = face_mask | (1 << v)
            rest = [
                u
                for u in candidates
                if u != v and addable(grown, u)
            ]
            walk(grown, v, rest)

    walk(0, -1, [v for v in range(n) if addable(0, v)])
    return results


def initial_complex(
    in_ideal: InitialIdeal, n: int, dim: int
) -> tuple[tuple[int, ...], ...]:
    """Facets of the complex whose minimal non-faces are the generator
    supports: all maximal F within {1..n} containing no support, each of
    size exactly ``dim``.

    A maximal face of any other size raises NonPureComplex: purity is
    part of what is being verified and is never repaired silently.
    """
    masks = []
    for m in in_ideal.generators:
        mask = 0
        for i, e in enumerate(m.exponents):
            if e:
                mask |= 1 << i
        masks.append(mask)
    facets = []
    for face_mask in _maximal_faces(n, masks):
        members = tuple(
            i + 1 for i in range(n) if face_mask >> i & 1
        )
        if len(members) != dim:
            raise NonPureComplex(
                f"maximal face {members} has {len(members)} vertices, "
                f"expected {dim}"
            )
        facets.append(members)
    facets.sort()
    return tuple(facets)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


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
    rows = [[columns[p - 1][t] for p in facet] for t in range(height)]
    det = _bareiss_det(rows)
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
    these weights realize lex on all monomials the family touches; the
    strictness check on every generator is still run, with a doubling
    retry, and CertificateFailure signals an orientation bug upstream.
    """
    if not family.generators:
        raise CertificateFailure("cannot certify an empty family")
    n = family.nvars
    m_base = 1 + max(g.lead.degree for g in family.generators)
    for _ in range(8):
        weights = tuple(m_base ** (n - 1 - i) for i in range(n))
        ok = all(
            sum(w * e for w, e in zip(weights, g.lead.exponents))
            > sum(w * e for w, e in zip(weights, g.tail.exponents))
            for g in family.generators
        )
        if ok:
            return WeightCertificate(weights=weights)
        m_base *= 2
    raise CertificateFailure(
        "no geometric weight vector separates every generator"
    )


def facet_support_function(
    columns: tuple[tuple[int, ...], ...],
    weights: tuple[int, ...],
    facet: tuple[int, ...],
) -> tuple[Fraction, ...]:
    """Coefficients of the unique affine function through the lifted
    facet points, solved exactly over the rationals.

    Returned as a vector c with c . column_p = weight_p for every p in
    the facet (affine functions on the points are linear functions of
    the homogenized columns).
    """
    height = len(columns[0])
    aug = [
        [Fraction(columns[p - 1][t]) for t in range(height)]
        + [Fraction(weights[p - 1])]
        for p in facet
    ]
    size = len(aug)
    for col in range(height):
        pivot_row = next(
            (r for r in range(col, size) if aug[r][col] != 0), None
        )
        if pivot_row is None:
            raise SingularFacet(f"columns {facet} are affinely dependent")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / pivot
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[t][height] / aug[t][t] for t in range(height))


def _is_lower_cell(
    columns: tuple[tuple[int, ...], ...],
    weights: tuple[int, ...],
    cell: tuple[int, ...],
) -> bool:
    """Interpolate the weights on the cell's columns and test whether
    every other column lifts strictly above that hyperplane.  Equality
    raises DegenerateLift (heights not generic); a column lifting below
    makes the cell not lower."""
    psi = facet_support_function(columns, weights, cell)
    inside = set(cell)
    for p, col in enumerate(columns, start=1):
        if p in inside:
            continue
        value = sum(c * v for c, v in zip(psi, col))
        if value == weights[p - 1]:
            raise DegenerateLift(
                f"column {p} lies on the lifted hyperplane of {cell}"
            )
        if value > weights[p - 1]:
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
        rows = [[columns[p - 1][t] for p in subset] for t in range(height)]
        if _bareiss_det(rows) != 0 and _is_lower_cell(columns, weights, subset):
            facets.append(subset)
    return tuple(facets)
