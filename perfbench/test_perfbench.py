"""Tests for the benchmark's own arithmetic, checker and launcher."""

import json
import os
import subprocess
import sys

import pytest

import expect
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def span(name, start, end, parent=-1, raised=0):
    return [name, start, end, parent, raised]


def test_self_times_subtract_covered_child_intervals():
    tree = [
        span("cli.main", 0, 100),                 # 0
        span("toric.groebner_family", 10, 40, 0),  # 1
        span("toric.build_B", 20, 30, 1),          # 2
        span("groebner.initial_ideal", 50, 60, 0),  # 3
        # overlaps child 3 and runs past the parent's end: only the
        # uncovered, in-parent part [60, 100) counts
        span("groebner.initial_ideal", 55, 120, 0),  # 4
    ]
    assert spans.self_times(tree) == [100 - 30 - 50, 20, 10, 10, 65]


def test_operation_metrics_sum_self_time_and_errors():
    record = {
        "t_spawn": 0,
        "spans": [
            span("cli.main", 1_000_000_000, 4_000_000_000),
            span("groebner.buchberger_verify", 1_500_000_000,
                 3_500_000_000, 0, raised=1),
        ],
        "counters": {"groebner.spairs_total": 36},
    }
    m = spans.operation_metrics(record, scale=0.5)
    assert m["cli.startup_s"] == 0.5
    assert m["cli.self_s"] == 0.5
    assert m["groebner.buchberger_verify.s"] == 1.0
    assert m["groebner.buchberger_verify.calls"] == 1
    assert m["groebner.errors"] == 1 and m["triangulation.errors"] == 0
    assert m["groebner.spairs_total"] == 36


def test_combine_takes_median_per_operation_then_sums():
    samples = {
        0: [{"a.s": 1.0, "proc.rss_mb": 20}, {"a.s": 3.0, "proc.rss_mb": 22},
            {"a.s": 2.0, "proc.rss_mb": 21}],
        1: [{"a.s": 5.0, "proc.rss_mb": 30, "b.calls": 4}],
    }
    total = spans.combine(samples)
    assert total == {"a.s": 7.0, "proc.rss_mb": 30, "b.calls": 4}


def _tri_payload(facets, **overrides):
    payload = {
        "schema": 1, "params": {"r1": 2, "x1": 1}, "num_facets": 6,
        "all_unimodular": True, "volume_sum": 6,
        "regular_certified": True, "facets": facets, "pass": True,
    }
    payload.update(overrides)
    return json.dumps(payload)


FACETS_21 = [[1, 2, 3], [1, 2, 4], [1, 3, 5], [2, 4, 6], [3, 5, 6], [4, 5, 6]]
PINNED_21 = {"num_facets": 6, "facets_sha256": expect.facet_digest(FACETS_21)}


def test_triangulate_checker_accepts_the_pinned_payload():
    assert expect.check_triangulate(0, _tri_payload(FACETS_21), 2, 1,
                                    PINNED_21).ok


@pytest.mark.parametrize("code, stdout", [
    (0, _tri_payload(FACETS_21, volume_sum=7)),
    (0, _tri_payload(FACETS_21, regular_certified=False)),
    (0, _tri_payload(FACETS_21[:-1] + [[3, 4, 6]])),
    (0, _tri_payload(FACETS_21[:-1], num_facets=5, volume_sum=5)),
    (0, _tri_payload(FACETS_21, params={"r1": 2, "x1": 2})),
    (0, _tri_payload(None)),
    (2, _tri_payload(FACETS_21)),
    (0, "Traceback (most recent call last):"),
])
def test_triangulate_checker_rejects_tampered_output(code, stdout):
    assert not expect.check_triangulate(code, stdout, 2, 1, PINNED_21).ok


def test_gb_checker_rejects_wrong_generator_count():
    payload = {"params": {"r1": 2, "x1": 1}, "num_generators": 9,
               "spairs_total": 36, "spairs_reduced_to_zero": 36,
               "squarefree": True, "pass": True}
    pinned = {"num_generators": 9, "squarefree": True}
    assert expect.check_gb_verify(0, json.dumps(payload), 2, 1, pinned).ok
    payload["num_generators"] = 12
    assert not expect.check_gb_verify(0, json.dumps(payload), 2, 1, pinned).ok


def test_sabotage_that_exits_zero_is_a_failure():
    rejected = json.dumps({"pass": False})
    assert expect.check_sabotage(2, rejected).ok
    assert not expect.check_sabotage(0, rejected).ok
    assert not expect.check_sabotage(2, json.dumps({"pass": True})).ok


def test_sweep_checker_counts_skips_and_rejects_false_flags():
    pinned = {"grid": [[2, 1]], "flags": ["hstarOK"]}
    point = {"hstarOK": True, "timings": {}, "skipped": ["dilation_t2"]}
    payload = {"grid": [[2, 1]], "perPoint": {"2,1": point},
               "overallPass": True}
    verdict = expect.check_sweep(0, json.dumps(payload), pinned)
    assert verdict.ok
    assert (verdict.checks, verdict.skipped) == (len(expect.OPPORTUNISTIC), 1)
    point["hstarOK"] = False
    assert not expect.check_sweep(0, json.dumps(payload), pinned).ok


def test_pinned_values_cover_every_point_and_match_the_volume():
    pinned = expect.load_expected()
    for key, entry in pinned["triangulate"].items():
        r1, x1 = map(int, key.split(","))
        assert entry["num_facets"] == r1 * (r1 * x1 + 1)
    assert len(pinned["sweep"]["grid"]) == 25
    assert set(pinned["gb_verify"]) == {"16,1", "14,2", "12,3"}


def test_launcher_records_nested_spans_and_counters(tmp_path):
    out = tmp_path / "spans.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "launcher.py"), str(out), "0",
         "--", "triangulate", "2", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    names = [s[0] for s in record["spans"]]
    assert names[0] == "cli.main" and record["spans"][0][3] == -1
    assert "triangulation.initial_complex" in names
    assert "triangulation.facet_support_function" not in names
    assert record["counters"]["triangulation.facets"] == 6
    assert record["counters"]["triangulation.facet_support_function.calls"] == 6
    metrics = spans.operation_metrics(record)
    assert metrics["triangulation.errors"] == 0
    assert all(v >= 0 for k, v in metrics.items() if k.endswith(".s"))
