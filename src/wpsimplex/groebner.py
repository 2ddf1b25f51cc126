"""The Groebner basis argument and the standard monomials.

Everything here works on the words of a binomial rewrite family (see
``wpsimplex.toric``), under pure lex (z_1 > ... > z_{r1+3} > y_1 > ... >
y_d, the column order), as ``toric.orientation_failures`` reads it.  The
family is certified as a lex Groebner basis of the toric ideal I_A by
the triangulation argument of Sturmfels (*Groebner Bases and Convex
Polytopes*, 1996, Thm 8.3 and Cor 8.9), from four checks that
``wpsimplex.pipeline`` composes:

  (a) every generator is pi-balanced, so the family lies in I_A;
  (b) every lead is lex-greater than its tail, a property of the family
      (``toric.orientation_failures``), so for every large M the weights
      w(M) = (M^(n-1), ..., M, 1) make every lead heavier than its tail:
      w(M) . lead > w(M) . tail;
  (c) the minimal leads are squarefree: every lead that is not
      squarefree is properly divided by another lead.  Their supports
      are the minimal non-faces of a complex Delta, which
      ``wpsimplex.triangulation`` dualizes from all the lead supports:
      a set meets every support exactly when it meets the minimal ones;
  (d) every facet of Delta is a lower cell of the w(M)-lift for every
      large M, read by the sign rule of ``wpsimplex.triangulation``, and
      the facet volumes are all 1 and sum to N.

Fix one M large enough for (b) and (d), and w = w(M).  By (d), Delta is
the regular unimodular triangulation Delta_w; for w refined by lex,
Cor 8.9 gives the initial ideal I_Delta, which by (b) and (c) the lex
leads generate.  So the family is a Groebner basis of I_A for that
order, hence generates I_A, and its lead ideal, an initial ideal of I_A
inside in_lex(I_A) with the same Hilbert function, equals in_lex(I_A):
the family is a lex Groebner basis, in every degree.

No S-pair is reduced: the S-pair oracle, rewriting to normal form and
the z-support shapes of standard monomials (a lemma of the paper) live
in ``wpsimplex.oracles``, for the tests and the demos.  Counting
standard monomials per degree against the dilation polynomial
(``injectivity_check``) stays as a bounded-degree smoke test.

The standard monomials form an order ideal: every divisor of a standard
monomial is standard.  ``_standard_images`` therefore grows degree t
from degree t - 1 instead of scanning all C(n + t - 1, t) monomials, as
the tests' oracle ``wpsimplex.oracles.standard_monomials`` does: w is
standard exactly when it is not itself a lead and every divisor w / x_v
is standard.  The test is exact for any lead set, Groebner or not,
squarefree or not, because a lead that properly divides w divides one
of those degree-(t - 1) divisors.
"""

from __future__ import annotations

from itertools import groupby
from math import comb
from operator import itemgetter

from .ehrhart import ehrhart_value, hstar
from .simplex import charge
from .toric import GroebnerFamily, _packed_columns

#: The smoke test's degree bound, unless a caller names another.
DEFAULT_MAX_DEGREE = 3


def _standard_images(family: GroebnerFamily, max_degree: int):
    """Yield, for each degree t = 1 .. max_degree, the packed
    pushforwards of the degree-t standard monomials, one per monomial in
    ``combinations_with_replacement`` order of its variables.  Each
    degree is charged its C(n + t - 1, t) monomials before it is built.

    Degree t >= 2 is joined from the standard words of degree t - 1,
    kept only while a next degree joins them.  Every standard w = c +
    (v,), with c = w[:-1] and v >= c[-1], drops to c[:-1] + (v,): a
    standard *sibling* of c, with the same prefix, that sits in c's run
    of the previous degree.  So the candidates v come from the last
    variables of c's siblings from c on (the Apriori join of Agrawal and
    Srikant, 1994), and each is kept by the lead test and the drop tests
    of the module docstring that the join does not settle.  A kept w's pushforward is c's plus column v, read where
    the join finds c, each column packed once into one exact integer by
    ``toric._packed_columns``, whose radix exceeds twice any coordinate
    up to ``max_degree``.
    """
    n = family.nvars
    packed = _packed_columns(family.columns, max_degree)
    leads = {g.lead for g in family.generators}
    for t in range(1, max_degree + 1):
        monomials = comb(n + t - 1, t)
        charge(monomials, f"{monomials} degree-{t} monomials")
        if t == 1:
            # a constant lead divides every monomial
            layer = [(v,) for v in range(n) if () not in leads and (v,) not in leads]
            images = [packed[v] for (v,) in layer]
            yield images
            continue
        standard = set(layer)
        grown, grown_images = [], []
        start = 0
        for prefix, run in groupby(layer, itemgetter(slice(-1))):
            # dropping either of the last two variables gives c or a
            # sibling; the other drops leave a shorter prefix, then u, v
            shorter = [prefix[:i] + prefix[i + 1:] for i in range(len(prefix))]
            lasts = [c[-1] for c in run]
            for k, u in enumerate(lasts):
                c = prefix + (u,)
                image = images[start + k]
                for v in lasts[k:]:
                    w = c + (v,)
                    if w in leads:
                        continue
                    for p in shorter:
                        if p + (u, v) not in standard:
                            break
                    else:
                        if t < max_degree:
                            grown.append(w)
                        grown_images.append(image + packed[v])
            start += len(lasts)
        layer, images = grown, grown_images
        yield images


def injectivity_check(
    family: GroebnerFamily, max_degree: int = DEFAULT_MAX_DEGREE
) -> bool:
    """Bounded-degree completeness check.

    For every degree t <= max_degree the standard monomials must have
    pairwise distinct pushforwards AND their count must equal the
    dilation polynomial at t.  The count equality is what ties the
    family to the full relation ideal: it says no relation at that
    degree is missing.  Both are read off the exact packed pushforwards
    of ``_standard_images``, so the distinctness test compares integers.
    """
    h = hstar(family.q)
    for t, images in enumerate(_standard_images(family, max_degree), start=1):
        if len(images) != ehrhart_value(h, t) or len(set(images)) != len(images):
            return False
    return True
