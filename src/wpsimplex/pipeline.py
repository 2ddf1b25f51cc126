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
checks: (a) every generator is pi-balanced (``check_pi_balance``);
(b) the weight certificate makes every lex lead strictly heavier than
its tail, and (d) every facet of the lead-support complex is a lower
cell of the lift, with unit volumes summing to N (both in
``check_triangulation``, which reads the volumes and the lower-cell
outcomes that one walk over the facets gave); (c) the minimal leads
are squarefree.  So the triangulation stage runs first, and
``check_family`` takes it: ``buchbergerPass``, named for the S-pair run
it replaced, holds exactly when (a), (c) and the triangulation verdict
all hold.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping
from typing import NamedTuple

from .errors import BudgetExceeded, InternalConsistency, WpsimplexError
from .ehrhart import ehrhart_bruteforce, ehrhart_value, hstar
from .groebner import initial_ideal, injectivity_check
from .simplex import QVector, build_q, lattice_points_bruteforce, lattice_points_formula
from .toric import GroebnerFamily, groebner_family, pi_balance_failures
from .triangulation import Triangulation, triangulation_from_family, verify_unimodular

DEFAULT_GRID_R1 = (2, 6)
DEFAULT_GRID_X1 = (1, 5)

FAMILY_FLAGS = ("gbConstructed", "buchbergerPass", "squarefree", "injectivityPass")
TRIANGULATION_FLAGS = ("triangulationUnimodular", "regularCertified")
TIMINGS = ("points_ms", "hstar_ms", "gb_ms", "triangulate_ms")

#: Keys of a per-point entry that are not certificate flags.
_NOT_FLAGS = ("timings", "skipped", "errors")


class _EmptyMapping(Mapping):
    """The default ``report`` and ``skipped`` of a ``Stage``.  Every such
    stage shares one instance, so it is read-only; unlike an empty
    ``types.MappingProxyType`` it pickles."""

    __slots__ = ()

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "_EmptyMapping()"


_NOTHING = _EmptyMapping()


def default_grid() -> list[tuple[int, int]]:
    return [
        (r1, x1)
        for r1 in range(DEFAULT_GRID_R1[0], DEFAULT_GRID_R1[1] + 1)
        for x1 in range(DEFAULT_GRID_X1[0], DEFAULT_GRID_X1[1] + 1)
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
    caught.  ``report`` and ``skipped`` default to an empty read-only
    mapping.
    """

    flags: dict[str, bool | None]
    report: Mapping = _NOTHING
    skipped: Mapping[str, str] = _NOTHING
    failure: dict | None = None
    errors: tuple[str, ...] = ()

    @property
    def verdict(self) -> bool | None:
        return verdict(self.flags.values())


def check_points(q: QVector, budget: int | None = None) -> Stage:
    """The closed-form point list equals the enumerated one, has
    r1 + d + 3 entries and no repeated column."""
    columns = lattice_points_formula(q).columns
    try:
        brute = lattice_points_bruteforce(q, budget)
    except BudgetExceeded as exc:
        return Stage({"latticePointsOK": None}, skipped={"latticePoints": str(exc)})
    ok = (
        set(columns) == brute
        and len(columns) == q.r1 + q.d + 3
        and len(set(columns)) == len(columns)
    )
    return Stage({"latticePointsOK": ok})


def check_hstar(q: QVector, budget: int | None = None) -> Stage:
    """h*_0 = 1, h*_1 = r1 + 2, sum N, unimodal, and the counting
    polynomial matches enumeration at t = 1, 2."""
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
            if ehrhart_value(h, t) != ehrhart_bruteforce(q, t, budget):
                ok = False
            checked.append(t)
        except BudgetExceeded as exc:
            skipped[f"dilation_t{t}"] = str(exc)
    return Stage(
        {"hstarOK": None if ok and skipped else ok},
        report={"hstar": h.to_json_list(), "dilations_checked": checked},
        skipped=skipped,
    )


def check_pi_balance(family: GroebnerFamily) -> Stage | None:
    """The family stage of a family with an unbalanced generator, which
    fails every flag, or None when every generator is pi-balanced."""
    unbalanced = pi_balance_failures(family)
    if not unbalanced:
        return None
    return Stage(
        dict.fromkeys(FAMILY_FLAGS, False),
        report={"num_generators": len(family.generators)},
        failure={"stage": "pi_balance", "generators": list(unbalanced)},
    )


def check_family(
    family: GroebnerFamily,
    triangulation: Stage,
    max_degree: int = 3,
    budget: int | None = None,
) -> Stage:
    """Pi-balance of every generator, squarefree minimal leads, and
    ``triangulation``, the triangulation stage of the same family:
    together they certify a lex Groebner basis of the toric ideal.
    Completeness up to ``max_degree`` runs as a smoke test.  An
    unbalanced family fails every flag without running the rest."""
    unbalanced = check_pi_balance(family)
    if unbalanced:
        return unbalanced
    squarefree = initial_ideal(family).squarefree
    triangulated = triangulation.verdict is True
    skipped = {}
    try:
        injective = injectivity_check(family, max_degree=max_degree, budget=budget)
    except BudgetExceeded as exc:
        injective = None
        skipped["injectivity"] = str(exc)
    failure = None
    if not triangulated:
        failed = [name for name, ok in triangulation.flags.items() if not ok]
        detail = triangulation.errors[0] if triangulation.errors else ", ".join(failed)
        failure = {"stage": "triangulation", "detail": detail}
    elif not squarefree:
        failure = {"stage": "squarefree"}
    elif injective is False:
        failure = {"stage": "injectivity"}
    certified = triangulated and squarefree
    return Stage(
        dict(zip(FAMILY_FLAGS, (True, certified, squarefree, injective))),
        report={
            "num_generators": len(family.generators),
            "num_facets": triangulation.report.get("num_facets"),
            "squarefree": squarefree,
            "injectivity_max_degree": max_degree,
        },
        skipped=skipped,
        failure=failure,
    )


def check_triangulation(
    family: GroebnerFamily, tri: Triangulation | None = None
) -> Stage:
    """Unimodular facets whose volumes sum to N, and a weight vector
    whose lower envelope induces exactly these facets.  ``tri`` defaults
    to the family's initial complex; its lower-cell outcomes are read,
    so one built by hand, which has none, is never certified regular."""
    flags: dict[str, bool | None] = {}
    try:
        if tri is None:
            tri = triangulation_from_family(family)
        flags["triangulationUnimodular"] = verify_unimodular(tri, family.q)
        flags["regularCertified"] = tri.regular
    except WpsimplexError as exc:
        flags.setdefault("triangulationUnimodular", False)
        flags["regularCertified"] = False
        return Stage(flags, errors=(str(exc),))
    return Stage(
        flags,
        report={
            "num_facets": len(tri.facets),
            "all_unimodular": all(v == 1 for v in tri.volumes),
            "volume_sum": sum(tri.volumes),
            "regular_certified": flags["regularCertified"],
            "facets": [list(f) for f in tri.facets],
        },
    )


def point_flags(entry: dict) -> dict[str, bool | None]:
    """The certificate flags of a per-point entry, in stage order."""
    return {k: v for k, v in entry.items() if k not in _NOT_FLAGS}


def evaluate_point(
    r1: int, x1: int, max_degree: int = 3, budget: int | None = None
) -> dict:
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
        timed("points_ms", check_points, q, budget),
        timed("hstar_ms", check_hstar, q, budget),
    ]
    try:
        family = timed("gb_ms", groebner_family, q)
    except InternalConsistency as exc:
        flags = dict.fromkeys(FAMILY_FLAGS + TRIANGULATION_FLAGS, False)
        stages.append(Stage(flags, errors=(str(exc),)))
    else:
        triangulation = timed("triangulate_ms", check_triangulation, family)
        stages.append(
            timed("gb_ms", check_family, family, triangulation, max_degree, budget)
        )
        stages.append(triangulation)

    entry: dict = {k: v for stage in stages for k, v in stage.flags.items()}
    entry["timings"] = {k: int(s * 1000) for k, s in seconds.items()}
    for key in ("skipped", "errors"):
        found = [item for stage in stages for item in getattr(stage, key)]
        if found:
            entry[key] = found
    return entry
