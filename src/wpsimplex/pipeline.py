"""The certificate checks, one function per stage, and the per-point run
that composes them.

Each stage returns a ``Stage``: its flags, each True (passed), False
(failed) or None (skipped because the enumeration budget ran out), plus
the numbers the command line prints.  The family and triangulation
stages take the object they check as an argument, so a caller can inject
a known defect first.  ``evaluate_point`` runs all four stages and
returns the sweep's per-point entry; failures are collected rather than
raised so a sweep can report every point.

The family is certified as a lex Groebner basis of the toric ideal by
the triangulation, in every degree and without S-pairs (Sturmfels,
*Groebner Bases and Convex Polytopes*, 1996, Thm 8.3 and Cor 8.9; the
argument is written out in ``wpsimplex.groebner``).  It combines four
checks.  Three are read from the family in ``check_family``: (a) every
generator is pi-balanced (``toric.pi_balance_failures``); (b) every
lead is lex-greater than its tail (``toric.orientation_failures``), so
the lex weights w(M) make every lead heavier than its tail for every
large M; (c) the minimal leads are squarefree: every lead that is not
squarefree is properly divided by another lead
(``_minimal_leads_squarefree``, which lists no minimal lead).  (d),
every facet of the lead-support complex is a lower cell of the lex
lift, with unit volumes summing to N, is read from the triangulation
by ``check_triangulation``, in one pass over the faces that counts each
face's facets without listing them.
So the triangulation stage runs first, and ``check_family`` takes it:
``buchbergerPass``, named for the S-pair run it replaced, holds exactly
when (a), (b), (c) and the triangulation verdict all hold.
"""

import time
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .errors import BudgetExceeded, WpsimplexError
from .ehrhart import ehrhart_bruteforce, ehrhart_value, hstar
from .groebner import DEFAULT_MAX_DEGREE, injectivity_check
from .simplex import QVector, build_q, lattice_points_formula, within_dilate
from .toric import (
    GroebnerFamily, groebner_family, orientation_failures, pi_balance_failures
)
from .triangulation import summarize_triangulation, verify_unimodular

DEFAULT_GRID_R1 = (2, 6)
DEFAULT_GRID_X1 = (1, 5)

FAMILY_FLAGS = ("gbConstructed", "buchbergerPass", "squarefree", "injectivityPass")
TIMINGS = ("points_ms", "hstar_ms", "gb_ms", "triangulate_ms")

#: Keys of a per-point entry that are not certificate flags.
_NOT_FLAGS = ("timings", "skipped", "errors")


def grid_points(
    r1_range: tuple[int, int], x1_range: tuple[int, int]
) -> list[tuple[int, int]]:
    """Every (r1, x1) with both in their closed ranges, r1 major."""
    (r1_lo, r1_hi), (x1_lo, x1_hi) = r1_range, x1_range
    return [
        (r1, x1)
        for r1 in range(r1_lo, r1_hi + 1)
        for x1 in range(x1_lo, x1_hi + 1)
    ]


def verdict(flags: Iterable[bool | None]) -> bool | None:
    """False if any check failed, else None if any was skipped, else True."""
    flags = tuple(flags)
    if any(f is False for f in flags):
        return False
    return None if None in flags else True


class Stage(NamedTuple):
    """Outcome of one certificate stage.

    ``skipped`` maps each check skipped over budget to the budget
    message; ``failure`` names the check that failed, as ``gb verify``
    prints it; ``errors`` holds the messages of exceptions the stage
    caught.  ``report`` and ``skipped`` default to None, read as empty.
    """

    flags: dict[str, bool | None]
    report: dict | None = None
    skipped: dict[str, str] | None = None
    failure: dict | None = None
    errors: tuple[str, ...] = ()

    @property
    def verdict(self) -> bool | None:
        return verdict(self.flags.values())


def check_points(q: QVector) -> Stage:
    """The closed-form point list is every lattice point of the simplex:
    r1 + d + 3 distinct columns, each inside it, as many as the walk
    counts at t = 1.  A column is inside when it lies in the t = 1 slice
    of its coordinate sum and that slice passes the walk's row check, run
    once per distinct sum.  That is the set equality with the walk's
    points, which lie under every facet row, without listing them; the
    count is the h* check's t = 1 count."""
    columns = lattice_points_formula(q).columns
    try:
        count = ehrhart_bruteforce(q, 1)
    except BudgetExceeded as exc:
        return Stage({"latticePointsOK": None}, skipped={"latticePoints": str(exc)})
    ok = (
        len(set(columns)) == len(columns) == q.r1 + q.d + 3 == count
        and within_dilate(q, columns, 1)
    )
    return Stage({"latticePointsOK": ok})


def check_hstar(q: QVector) -> Stage:
    """h*_0 = 1, h*_1 = r1 + 2, sum N, unimodal, and the counting
    polynomial matches the slice count at t = 1, 2."""
    h = hstar(q)
    ok = (
        h.coeffs[0] == 1
        and h.coeffs[1] == q.r1 + 2
        and sum(h.coeffs) == q.volume
        and h.is_unimodal()
    )
    checked, skipped = [], {}
    for t in (1, 2):
        try:
            if ehrhart_value(h, t) != ehrhart_bruteforce(q, t):
                ok = False
            checked.append(t)
        except BudgetExceeded as exc:
            skipped[f"dilation_t{t}"] = str(exc)
    return Stage(
        {"hstarOK": None if ok and skipped else ok},
        report={"dilations_checked": checked},
        skipped=skipped,
    )


def _minimal_leads_squarefree(leads: Sequence[tuple[int, ...]]) -> bool:
    """True when every lead that is not squarefree is properly divided
    by another lead: exactly when the minimal leads are squarefree.  One
    pass when every lead is squarefree, as in the family."""
    return all(
        any(m != lead and Counter(m) <= Counter(lead) for m in leads)
        for lead in leads
        if len(set(lead)) < len(lead)
    )


def check_family(
    family: GroebnerFamily, triangulation: Stage, max_degree: int = DEFAULT_MAX_DEGREE
) -> Stage:
    """Pi-balance and lex orientation of every generator, squarefree
    minimal leads, and ``triangulation``, the triangulation stage of the
    same family: together they certify a lex Groebner basis of the toric
    ideal.  Completeness up to ``max_degree`` runs as a smoke test.  An
    unbalanced family fails every flag without running the rest; a
    mis-oriented one fails at ``orientation``, naming its generators."""
    unbalanced = pi_balance_failures(family)
    if unbalanced:
        return Stage(
            dict.fromkeys(FAMILY_FLAGS, False),
            report={"num_generators": len(family.generators)},
            failure={"stage": "pi_balance", "generators": list(unbalanced)},
        )
    misoriented = orientation_failures(family)
    squarefree = _minimal_leads_squarefree([g.lead for g in family.generators])
    triangulated = triangulation.verdict is True
    skipped = {}
    try:
        injective = injectivity_check(family, max_degree=max_degree)
    except BudgetExceeded as exc:
        injective = None
        skipped["injectivity"] = str(exc)
    failure = None
    if misoriented:
        failure = {"stage": "orientation", "generators": list(misoriented)}
    elif not triangulated:
        failed = [name for name, ok in triangulation.flags.items() if not ok]
        detail = triangulation.errors[0] if triangulation.errors else ", ".join(failed)
        failure = {"stage": "triangulation", "detail": detail}
    elif not squarefree:
        failure = {"stage": "squarefree"}
    elif injective is False:
        failure = {"stage": "injectivity"}
    certified = not misoriented and triangulated and squarefree
    return Stage(
        dict(zip(FAMILY_FLAGS, (True, certified, squarefree, injective))),
        report={
            "num_generators": len(family.generators),
            "num_facets": (triangulation.report or {}).get("num_facets"),
            "squarefree": squarefree,
            "injectivity_max_degree": max_degree,
        },
        skipped=skipped,
        failure=failure,
    )


def check_triangulation(
    family: GroebnerFamily, facets: tuple[tuple[int, ...], ...] | None = None
) -> Stage:
    """Unimodular facets whose volumes sum to N, each a lower cell of the
    lex lift, as ``summarize_triangulation`` reads them: by default the
    family's initial complex, certified face by face without listing its
    facets, else the given facets, each walked on its own."""
    try:
        summary = summarize_triangulation(family, facets)
        unimodular = verify_unimodular(summary, family.q)
    except WpsimplexError as exc:
        return Stage(
            {"triangulationUnimodular": False, "regularCertified": False},
            errors=(str(exc),),
        )
    return Stage(
        {"triangulationUnimodular": unimodular, "regularCertified": summary.regular},
        report={
            "num_facets": summary.num_facets,
            "all_unimodular": summary.all_unimodular,
            "volume_sum": summary.volume_sum,
            "regular_certified": summary.regular,
        },
    )


def point_flags(entry: dict) -> dict[str, bool | None]:
    """The certificate flags of a per-point entry, in stage order."""
    return {k: v for k, v in entry.items() if k not in _NOT_FLAGS}


def evaluate_point(r1: int, x1: int, max_degree: int = DEFAULT_MAX_DEGREE) -> dict:
    """Run every stage at (r1, x1) and return the sweep's per-point
    entry: the flags and timings in stage order, and the skipped checks
    and caught errors when there are any.  The triangulation stage runs
    before the family stage, which takes its verdict."""
    seconds = dict.fromkeys(TIMINGS, 0.0)

    def timed(key, check, *args):
        t0 = time.perf_counter()
        try:
            return check(*args)
        finally:
            seconds[key] += time.perf_counter() - t0

    q = build_q(r1, x1)
    stages = [
        timed("points_ms", check_points, q),
        timed("hstar_ms", check_hstar, q),
    ]
    family = timed("gb_ms", groebner_family, q)
    triangulation = timed("triangulate_ms", check_triangulation, family)
    stages += [timed("gb_ms", check_family, family, triangulation, max_degree),
               triangulation]

    entry: dict = {k: v for stage in stages for k, v in stage.flags.items()}
    entry["timings"] = {k: int(s * 1000) for k, s in seconds.items()}
    for key in ("skipped", "errors"):
        found = [item for stage in stages for item in getattr(stage, key) or ()]
        if found:
            entry[key] = found
    return entry
