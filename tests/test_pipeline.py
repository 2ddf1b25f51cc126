"""The family stage certifies the Groebner basis through the triangulation
stage, and that certificate has teeth: a family missing any one
generator fails it, including the deletions that the all-pairs S-pair
run and the degree <= 3 completeness count both let through."""

import tracemalloc

import pytest

import wpsimplex
from wpsimplex import (
    binomial_text,
    build_q,
    cli,
    ehrhart,
    groebner,
    groebner_family,
    injectivity_check,
    oracles,
    pipeline,
    simplex,
    toric,
    triangulation,
)
from wpsimplex.pipeline import (
    check_family,
    check_triangulation,
    evaluate_point,
    point_flags,
)
from wpsimplex.oracles import buchberger_verify

from conftest import SMALL_GRID, replacing, scanned_injectivity, without


def _family_stage(family):
    return check_family(family, check_triangulation(family))


def test_every_single_generator_deletion_fails_the_family_stage():
    deletions = 0
    for r1, x1 in SMALL_GRID:
        family = groebner_family(build_q(r1, x1))
        assert _family_stage(family).verdict is True
        for k in range(len(family.generators)):
            stage = _family_stage(without(family, k))
            assert stage.verdict is False, (r1, x1, k)
            assert stage.flags["buchbergerPass"] is False, (r1, x1, k)
            deletions += 1
    assert deletions == 137


def _reversed_at(family, k):
    """The family with generator k's lead and tail swapped."""
    g = family.generators[k]
    generators = list(family.generators)
    generators[k] = toric.Binomial(g.tail, g.lead)
    return family._replace(generators=tuple(generators))


def test_every_single_generator_reversal_fails_at_orientation():
    # a reversed generator stays balanced, so the family stage reaches
    # check (b) and names it, whatever the triangulation stage read: the
    # family's own faces, or an empty facet list, which walks nothing
    reversals = 0
    for r1, x1 in SMALL_GRID:
        family = groebner_family(build_q(r1, x1))
        for k in range(len(family.generators)):
            flipped = _reversed_at(family, k)
            for facets in (None, ()):
                stage = check_family(flipped, check_triangulation(flipped, facets))
                assert stage.failure == {
                    "stage": "orientation", "generators": [k],
                }, (r1, x1, k, facets)
                assert stage.flags["buchbergerPass"] is False, (r1, x1, k)
            reversals += 1
    assert reversals == 137


def test_every_single_generator_deletion_gets_the_scanned_smoke_verdict():
    verdicts = []
    for r1, x1 in SMALL_GRID:
        family = groebner_family(build_q(r1, x1))
        for k in range(len(family.generators)):
            dropped = without(family, k)
            verdict = injectivity_check(dropped, max_degree=3)
            assert verdict == scanned_injectivity(dropped, 3), (r1, x1, k)
            verdicts.append(verdict)
    assert len(verdicts) == 137
    # the count catches most deletions and misses a few
    assert 0 < verdicts.count(True) < 137


@pytest.mark.parametrize("r1,x1,k,text", [
    (2, 3, 6, "z1*y2*y3*y4 - z2*z4^3"),
    (4, 1, 10, "z1*y1*y2*y3 - z5^4"),
    (5, 2, 15, "z1*y1*y2*y3*y4 - z6^5"),
    (6, 1, 21, "z1*y1*y2*y3*y4*y5 - z7^6"),
])
def test_deletions_the_s_pair_run_misses_fail_the_triangulation(r1, x1, k, text):
    family = groebner_family(build_q(r1, x1))
    assert binomial_text(family.generators[k], r1) == text
    dropped = without(family, k)
    # every S-pair reduces to zero and the counts agree up to degree 3:
    # the missing relation has a higher degree
    assert buchberger_verify(dropped).passed
    assert injectivity_check(dropped, max_degree=3)
    stage = _family_stage(dropped)
    assert stage.verdict is False
    assert stage.failure["stage"] == "triangulation"
    assert stage.failure["detail"]


def test_the_pipeline_runs_no_s_pair_reduction(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("buchberger_verify ran in the pipeline")

    monkeypatch.setattr(oracles, "buchberger_verify", fail)
    assert not hasattr(pipeline, "buchberger_verify")
    assert not hasattr(cli, "buchberger_verify")
    entry = evaluate_point(2, 1)
    assert all(v is True for v in point_flags(entry).values())
    assert cli.main(["gb", "verify", "2", "1"]) == 0
    assert '"pass": true' in capsys.readouterr().out


def test_the_certified_path_leaves_the_oracles_to_their_module():
    names = [name for name, value in vars(oracles).items()
             if getattr(value, "__module__", None) == oracles.__name__]
    assert "buchberger_verify" in names and "facet_volume" in names
    for module in (wpsimplex, simplex, ehrhart, toric, groebner,
                   triangulation, pipeline, cli):
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)


def test_a_point_enumerates_the_t1_dilation_once(monkeypatch):
    # the point check counts the t = 1 dilation and the h* check reads
    # that count again, then counts t = 2: one walk each, and nothing is
    # listed
    walked, listed = [], []
    walk, enumerate_points = simplex._dilation_slices, simplex.enumerate_dilation_points

    def walk_spy(q, t):
        walked.append(t)
        return walk(q, t)

    def list_spy(q, t):
        listed.append(t)
        return enumerate_points(q, t)

    # every binding of the walk and the lister in the command modules,
    # so a call by any name is seen; no count is kept from an earlier test
    for module in (simplex, ehrhart, pipeline):
        for name, value in list(vars(module).items()):
            if value is walk:
                monkeypatch.setattr(module, name, walk_spy)
            elif value is enumerate_points:
                monkeypatch.setattr(module, name, list_spy)
    simplex._walk_count.cache_clear()
    entry = evaluate_point(3, 2)
    assert entry["latticePointsOK"] is True and entry["hstarOK"] is True
    assert (walked, listed) == ([1, 2], [])


def test_a_failed_family_build_fails_the_family_and_triangulation(monkeypatch):
    # an eq5 generator replaced by the excluded pair's binomial is built
    # unaudited; the entry holds the stages' own verdicts on that family
    monkeypatch.setattr(
        toric, "tagged_generators",
        replacing("eq5", lambda q, g: wpsimplex.excluded_pair_binomial(q)),
    )
    entry = evaluate_point(2, 1)
    assert set(entry["timings"]) == set(pipeline.TIMINGS)
    del entry["timings"]
    triangulated = check_triangulation(groebner_family(build_q(2, 1)))
    assert triangulated.errors == (
        "maximal face (3, 5, 6, 7) has 4 vertices, expected 3",
    )
    assert entry == {
        "latticePointsOK": True,
        "hstarOK": True,
        **dict.fromkeys(pipeline.FAMILY_FLAGS, False),
        **triangulated.flags,
        "errors": list(triangulated.errors),
    }


@pytest.mark.parametrize("cached", [
    toric.groebner_family,
    simplex.lattice_points_formula,
    simplex.h_description,
    simplex._walk_frame,
    simplex._walk_count,
    ehrhart.hstar,
    toric.pi_balance_failures,
    triangulation._lead_faces,
], ids=lambda f: f.__name__)
def test_per_point_caches_are_bounded(cached):
    # every reuse falls inside one point, so one entry keeps every hit
    # and a sweep keeps only its last point; no command reads a family
    # twice, and the family stage audits each family once, so neither
    # is kept
    if cached in (toric.groebner_family, toric.pi_balance_failures):
        assert not hasattr(cached, "cache_info")
    else:
        assert cached.cache_info().maxsize == 1


def test_a_run_keeps_one_point():
    # the memory traced after each later point stays near the first
    # point's: the caches do not pile up the points a sweep has seen
    tracemalloc.start()
    try:
        evaluate_point(24, 3)
        first, _ = tracemalloc.get_traced_memory()
        for r1 in (25, 26, 27):
            evaluate_point(r1, 3)
            current, _ = tracemalloc.get_traced_memory()
            assert current < 2 * first, (r1, current, first)
    finally:
        tracemalloc.stop()
