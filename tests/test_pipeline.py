"""The family stage certifies the Groebner basis through the triangulation
stage, and that certificate has teeth: a family missing any one
generator fails it, including the deletions that the all-pairs S-pair
run and the degree <= 3 completeness count both let through."""

import pytest

from wpsimplex import (
    binomial_text,
    buchberger_verify,
    build_q,
    cli,
    groebner,
    groebner_family,
    injectivity_check,
    pipeline,
)
from wpsimplex.pipeline import (
    check_family,
    check_triangulation,
    evaluate_point,
    point_flags,
)

from conftest import SMALL_GRID, scanned_injectivity, without


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

    monkeypatch.setattr(groebner, "buchberger_verify", fail)
    assert not hasattr(pipeline, "buchberger_verify")
    assert not hasattr(cli, "buchberger_verify")
    entry = evaluate_point(2, 1)
    assert all(v is True for v in point_flags(entry).values())
    assert cli.main(["gb", "verify", "2", "1"]) == 0
    assert '"pass": true' in capsys.readouterr().out
