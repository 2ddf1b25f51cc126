"""Facet extraction from the squarefree lead monomials, with exact volume
and regularity certification.

The lead supports of the rewrite family are the minimal non-faces of a
simplicial complex on the configuration columns; its maximal faces,
the complements of the minimal transversals of the supports, are the
facets of a triangulation of the simplex.  Facet volumes are exact
integer determinants, and regularity is certified by exhibiting one
weight vector whose lifted lower envelope induces exactly these facets.

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

A row's kind is its tuple of entries on the non-slack columns, and a
facet's class is its K with the kinds of its rows R in row order.  The
class fixes the k x k system, so the determinant and the reduced cost
of every non-slack column are shared by its facets: they are solved and
scanned once per class, r1 + 4 classes for the family's facets.  A
slack column off the facet costs minus the solution on its row, read
per facet.  A configuration without slacks gets k = d + 1, the full
elimination, and one facet per class; all arithmetic is on plain
integers, so any configuration is exact.
The from-scratch checks that the tests hold this against, one facet's
volume and the brute-force lower envelope among them, are in
``wpsimplex.oracles``.
"""

from __future__ import annotations

from itertools import compress, filterfalse, repeat
from operator import mul, sub
from typing import NamedTuple

from .errors import (
    CertificateFailure,
    DegenerateLift,
    DimensionMismatch,
    IndexOutOfRange,
    NonPureComplex,
    ParameterOutOfRange,
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


def _check_facet_size(facet: tuple[int, ...], height: int) -> None:
    if len(facet) != height:
        raise ParameterOutOfRange(
            f"facet must select {height} columns, got {len(facet)}"
        )


def _facet_class(
    columns: tuple[tuple[int, ...], ...], weights: tuple[int, ...],
    frame: _SlackFrame, facet: tuple[int, ...], free: list[int],
) -> tuple[int, tuple[int, int], tuple[tuple[int, int], ...]]:
    """What every facet of ``facet``'s class shares, from one
    ``facet_support_function`` solve: the volume (0 when singular); the
    first non-slack column off the facet in column order whose reduced
    cost scale * base_q - delta . y(q) is not positive, as (column,
    cost), or a column past the last with cost 1 when there is none; and
    (i, -delta) for each position i of the free rows whose slack would
    cost at most 0 off the facet."""
    rows, slack, base = frame
    try:
        scale, delta = facet_support_function(columns, weights, facet, frame)
    except SingularFacet:
        return 0, (0, 0), ()
    gaps = base if scale == 1 else map(mul, base, repeat(scale))
    for t, x in delta.items():
        gaps = map(sub, gaps, map(mul, rows[t], repeat(x)))
    first = next((
        (p, gap) for p, gap in enumerate(gaps, start=1)
        if gap <= 0 and p not in slack and p not in facet
    ), (len(columns) + 1, 1))
    costs = (-delta.get(t, 0) for t in free)
    return scale, first, tuple((i, c) for i, c in enumerate(costs) if c <= 0)


def _walk_facets(
    columns: tuple[tuple[int, ...], ...], weights: tuple[int, ...],
    facets: tuple[tuple[int, ...], ...],
) -> tuple[list[int], tuple[bool | WpsimplexError, ...]]:
    """Each facet's volume (0 when singular) and lower-cell outcome under
    ``weights``, in facet order, from one ``_facet_class`` per class.
    Per facet only the slacks of its rows R are left: row t's slack is
    y = e_t with base 0, so off the facet it costs exactly -delta_t.  The
    first column off the facet in column order whose cost is not
    positive decides: zero gives DegenerateLift (heights not generic),
    below zero a facet that is not a lower cell.  Every error names its
    own facet.
    """
    if len(weights) != len(columns):
        raise DimensionMismatch(
            f"{len(weights)} weights for {len(columns)} columns"
        )
    frame = _slack_frame(columns, weights)
    rows, slack, _ = frame
    for facet in facets:
        _check_facet_size(facet, len(rows))
    slack_of = {t: p for p, t in slack.items()}
    plain = [p not in slack for p in range(1, len(columns) + 1)]
    kind_ids: dict[tuple[int, ...], int] = {}
    kinds = [
        kind_ids.setdefault(tuple(compress(row, plain)), len(kind_ids))
        for row in rows
    ]
    all_rows = set(range(len(rows)))
    classes: dict[tuple, tuple] = {}
    volumes = []
    lower: list[bool | WpsimplexError] = []
    for facet in facets:
        free = sorted(all_rows.difference(map(slack.get, facet)))
        key = (
            tuple(filterfalse(slack.__contains__, facet)),
            tuple(map(kinds.__getitem__, free)),
        )
        shared = classes.get(key)
        if shared is None:
            shared = classes[key] = _facet_class(
                columns, weights, frame, facet, free
            )
        volume, (p, gap), risky = shared
        volumes.append(volume)
        if not volume:
            lower.append(
                SingularFacet(f"columns {facet} are affinely dependent")
            )
            continue
        for i, cost in risky:
            if slack_of.get(free[i], p) < p:
                p, gap = slack_of[free[i]], cost
        lower.append(gap > 0 if gap else DegenerateLift(
            f"column {p} lies on the lifted hyperplane of {facet}"
        ))
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
    ``weights`` when not given.  The walk calls this once per facet
    class, on the first facet of the class in facet order; a facet that
    does not select one column per row raises ParameterOutOfRange.
    """
    rows, slack, base = frame or _slack_frame(columns, weights)
    _check_facet_size(facet, len(rows))
    free = sorted(set(range(len(rows))).difference(map(slack.get, facet)))
    det, scaled = _eliminate([
        [*(rows[t][p - 1] for t in free), base[p - 1]]
        for p in filterfalse(slack.__contains__, facet)
    ])
    if det == 0:
        raise SingularFacet(f"columns {facet} are affinely dependent")
    sign = 1 if det > 0 else -1
    return abs(det), {t: sign * x for t, x in zip(free, scaled) if x}
