from math import isqrt, prod

import pytest

from wpsimplex import Binomial, build_q, groebner_family, toric
from wpsimplex.ehrhart import ehrhart_value, hstar
from wpsimplex.oracles import pi_image, standard_monomials
from wpsimplex.triangulation import _walk_faces

# Small sweep used by the unit tests; the acceptance suite runs the full
# 2 <= r1 <= 6, 1 <= x1 <= 5 grid.
SMALL_GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 2), (6, 1)]


def row_sabotages(q):
    """The raised cells (row, column) of two sabotaged facet row sets.
    The slice bounds read only the diagonal of each row, so raising
    off-diagonal entries makes the slices hold points a raised row
    rejects.  The first raises one cell of row 0; the second raises
    column 0 of every other row, the last one too."""
    return [(0, 1)], [(k, 0) for k in range(1, q.d + 1)]


def sabotaged_rows(rows, cells):
    """The facet rows with each (row, column) of ``cells`` raised by one."""
    rows = [list(row) for row in rows]
    for k, j in cells:
        rows[k][j] += 1
    return tuple(map(tuple, rows))


def dense(m, n):
    """A word (``wpsimplex.toric``) as its exponent tuple over n
    variables, the oracles' format."""
    return tuple(m.count(v) for v in range(n))


def word(exps):
    """An exponent tuple as its word: each variable index repeated by its
    exponent, ascending."""
    return tuple(v for v, e in enumerate(exps) for _ in range(e))


def dense_binomial(b, n):
    """A binomial of words as one of exponent tuples over n variables."""
    return Binomial(dense(b.lead, n), dense(b.tail, n))


@pytest.fixture(scope="session")
def family21():
    return groebner_family(build_q(2, 1))


def without(family, k):
    """The family with generator k deleted."""
    return family._replace(
        generators=family.generators[:k] + family.generators[k + 1:]
    )


def tags(q):
    """The group tag of each generator of the family at ``q``, in order,
    as its builder writes them."""
    return tuple(tag for tag, _ in toric.tagged_generators(q))


def replacing(tag, make):
    """A stand-in for ``toric.tagged_generators`` that writes
    ``make(q, g)`` for each generator g of group ``tag`` and the rest as
    they are, to be set with monkeypatch: a defect injected into the
    build."""
    build = toric.tagged_generators

    def generators(q):
        for t, g in build(q):
            yield t, make(q, g) if t == tag else g
    return generators


def in_order(family, order):
    """The family with column ``order[i]`` (0-based) moved to position i,
    in its columns and in every lead and tail: the same points and the
    same complex, relabelled, so read under another lex order."""
    position = {v: i for i, v in enumerate(order)}

    def moved(m):
        return tuple(sorted(map(position.__getitem__, m)))

    return family._replace(
        columns=tuple(family.columns[v] for v in order),
        generators=tuple(
            Binomial(moved(g.lead), moved(g.tail)) for g in family.generators
        ),
    )


def scanned_injectivity(family, max_degree=3):
    """The smoke test's verdict from the plain scan of
    ``oracles.standard_monomials``, one ``pi_image`` per standard
    monomial: per degree, the count against the dilation value, then
    distinct pushforwards."""
    h = hstar(family.q)
    for t in range(1, max_degree + 1):
        std = standard_monomials(family, t)
        if len(std) != ehrhart_value(h, t):
            return False
        if len({pi_image(family.columns, m) for m in std}) != len(std):
            return False
    return True


def walk_facets(columns, facets):
    """The face walk over a plain facet list, each facet a face without
    choices: the volumes as a list and the lower-cell verdicts as a
    tuple, in facet order."""
    cells = _walk_faces(columns, [(f, ()) for f in facets])
    return [v for _, v, _ in cells], tuple(x for _, _, x in cells)


def lex_weights(columns):
    """Explicit weights M^(n-1), ..., M, 1 under which every cell of the
    configuration lifts as the lex lift does: each det * lambda_p(q) is a
    minor of the columns, at most the product of the d + 1 largest column
    norms (Hadamard), and M exceeds twice that bound."""
    norms = sorted((isqrt(sum(x * x for x in c)) + 1 for c in columns), reverse=True)
    m_base = 2 * prod(norms[:len(columns[0])]) + 1
    return tuple(m_base ** i for i in reversed(range(len(columns))))
