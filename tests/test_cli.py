import argparse
import errno
import functools
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wpsimplex
from wpsimplex import (
    Binomial,
    HStarVector,
    build_q,
    cli,
    ehrhart,
    groebner_family,
    pipeline,
    toric,
)
from wpsimplex.oracles import dense_generators
from wpsimplex.toric import mutate_tail
from wpsimplex.pipeline import Stage, evaluate_point, point_flags, verdict

from conftest import SMALL_GRID, in_order, replacing, tags, without


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def _assert_integers_only(node):
    if isinstance(node, bool) or node is None or isinstance(node, (int, str)):
        return
    if isinstance(node, float):
        raise AssertionError(f"float in JSON payload: {node}")
    if isinstance(node, list):
        for item in node:
            _assert_integers_only(item)
    elif isinstance(node, dict):
        for value in node.values():
            _assert_integers_only(value)
    else:
        raise AssertionError(f"unexpected JSON node: {node!r}")


def test_points_2_1(capsys):
    code, payload = run_json(capsys, "points", "2", "1")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["d"] == 2
    coords = [tuple(c["coords"]) for c in payload["columns"]]
    assert coords == [(-2, -3), (-1, -2), (-1, -1), (0, -1), (0, 0), (0, 1), (1, 0)]
    _assert_integers_only(payload)


def test_points_verify(capsys):
    code, payload = run_json(capsys, "points", "2", "1", "--verify")
    assert code == 0
    assert payload["verified"] is True


def test_points_bad_params(capsys):
    code = cli.main(["points", "1", "1"])
    assert code == 1


def test_points_budget_exhausted(capsys, monkeypatch):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "1")
    code = cli.main(["points", "2", "1", "--verify"])
    assert code == 3


@functools.lru_cache(maxsize=None)
def _fresh_verify(command, budget):
    """``<command> 2 1 --verify`` in a fresh process: its exit code,
    stdout and stderr, under ``budget``, the budget the caller has set."""
    assert os.environ["WPSIMPLEX_ENUM_BUDGET"] == budget
    proc = _module_run(command, "2", "1", "--verify", capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("first", ["points", "hstar"])
@pytest.mark.parametrize("second", ["points", "hstar"])
def test_a_kept_count_is_charged_as_a_fresh_walk(capsys, monkeypatch, first, second):
    # the first check passes and keeps its last count, of 14 steps at
    # t = 1 or 32 at t = 2; under a lower budget the next check that
    # reads it passes or exits 3 exactly as a fresh process does
    for budget in ("13", "14", "31", "32"):
        monkeypatch.delenv("WPSIMPLEX_ENUM_BUDGET", raising=False)
        assert cli.main([first, "2", "1", "--verify"]) == 0
        capsys.readouterr()
        monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", budget)
        code = cli.main([second, "2", "1", "--verify"])
        assert (code, *capsys.readouterr()) == _fresh_verify(second, budget), budget


def _moved_out(columns):
    # a1 = -q pushed further along its ray, out of the simplex
    return (tuple(2 * v for v in columns[0]), *columns[1:])


def _copied(columns):
    return (columns[0], columns[0], *columns[2:])


def _dropped(columns):
    return columns[:-1]


def _replaced_outside(columns):
    # the origin replaced by (1, ..., 1): an integer point outside the
    # simplex, so the count of distinct columns stays r1 + d + 3
    return (*columns[:-1], (1,) * len(columns[-1]))


@pytest.mark.parametrize("defect", [_moved_out, _copied, _dropped, _replaced_outside],
                         ids=lambda f: f.__name__.strip("_"))
def test_the_point_check_catches_a_planted_defect(capsys, monkeypatch, defect):
    formula = pipeline.lattice_points_formula

    def planted(q):
        config = formula(q)
        return config._replace(columns=defect(config.columns))

    monkeypatch.setattr(pipeline, "lattice_points_formula", planted)
    code, payload = run_json(capsys, "points", "2", "1", "--verify")
    assert (code, payload["verified"]) == (2, False)
    code, payload = run_json(capsys, "sweep", "--r1", "2", "--x1", "1")
    assert (code, payload["perPoint"]["2,1"]["latticePointsOK"]) == (2, False)


def test_points_json_file(capsys, tmp_path):
    target = tmp_path / "points.json"
    code = cli.main(["points", "2", "1", "--json", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["r1"] == 2
    assert capsys.readouterr().out == ""


def test_hstar(capsys):
    code, payload = run_json(capsys, "hstar", "2", "1")
    assert code == 0
    assert payload["hstar"] == [1, 4, 1]


def test_hstar_h1(capsys):
    code, payload = run_json(capsys, "hstar", "3", "1")
    assert code == 0
    assert payload["hstar"][1] == 5  # r1 + 2


def test_hstar_verify(capsys):
    code, payload = run_json(capsys, "hstar", "2", "1", "--verify")
    assert code == 0
    assert payload["verified"] is True
    assert payload["dilations_checked"] == [1, 2]


def test_gb_dump(capsys):
    code, payload = run_json(capsys, "gb", "dump", "2", "1")
    assert code == 0
    texts = [g["text"] for g in payload["generators"]]
    assert "z4*y1 - z5^2" in texts
    assert payload["num_generators"] == 9
    assert {"pair": [1, 4], "companion": [2, 2]} in payload["b_pairs"]
    _assert_integers_only(payload)


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_gb_dump_prints_the_oracles_exponent_tuples(capsys, r1, x1):
    # the dump is one of the two places a word becomes an exponent list;
    # the oracles' conversion at their entry is the other
    code, payload = run_json(capsys, "gb", "dump", str(r1), str(x1))
    assert code == 0
    dense = dense_generators(groebner_family(build_q(r1, x1)))
    assert [(g["lead"], g["tail"]) for g in payload["generators"]] == [
        (list(g.lead), list(g.tail)) for g in dense
    ]


@pytest.mark.parametrize("r1,x1", SMALL_GRID + [(20, 10)])
def test_gb_dump_lists_the_pair_set_with_its_companions(capsys, r1, x1):
    # the family keeps no pair list: the dump reads each pair and its
    # companion off an eq1 generator's words
    code, payload = run_json(capsys, "gb", "dump", str(r1), str(x1))
    assert code == 0
    assert payload["b_pairs"] == [
        {"pair": [i, j], "companion": list(wpsimplex.companion(i, j, r1))}
        for i, j in wpsimplex.build_B(r1)
    ]


def test_gb_verify(capsys):
    code, payload = run_json(capsys, "gb", "verify", "2", "1")
    assert code == 0
    assert payload["pass"] is True
    assert payload["num_generators"] == 9
    assert payload["num_facets"] == 6
    assert payload["squarefree"] is True
    assert payload["injectivity_max_degree"] == 3
    _assert_integers_only(payload)


def test_gb_verify_degree_zero(capsys):
    code, payload = run_json(capsys, "gb", "verify", "2", "1", "--max-degree", "0")
    assert code == 0
    assert payload["pass"] is True


def test_gb_verify_sabotaged_tail(capsys):
    code, payload = run_json(capsys, "gb", "verify", "2", "1", "--sabotage-tail", "0")
    assert code == 2
    assert payload["pass"] is False
    assert payload["failure"]["stage"] == "pi_balance"


def test_gb_verify_excluded_pair(capsys):
    code, payload = run_json(
        capsys, "gb", "verify", "2", "1", "--include-excluded-pair"
    )
    assert code == 2
    assert payload["failure"]["stage"] == "pi_balance"
    assert payload["failure"]["generators"] == [9]


@pytest.fixture
def audited(monkeypatch):
    """The generators the pi-balance audit (``toric._balanced``) is asked
    about, in order."""
    calls = []
    balanced = toric._balanced

    def counted(packed, b):
        calls.append(b)
        return balanced(packed, b)

    monkeypatch.setattr(toric, "_balanced", counted)
    return calls


def test_gb_verify_audits_the_family_once(capsys, audited):
    code, payload = run_json(capsys, "gb", "verify", "16", "1")
    assert code == 0 and payload["pass"] is True
    # the builder audits nothing; the family stage audits each generator
    family = groebner_family(build_q(16, 1))
    assert sorted(audited) == sorted(family.generators)
    assert len(audited) == payload["num_generators"] == 170


@pytest.mark.parametrize("switch, generator", [
    (("--sabotage-tail", "0"), 0),
    (("--include-excluded-pair",), 170),
])
def test_gb_verify_audits_a_sabotaged_family_afresh(capsys, audited, switch, generator):
    code, payload = run_json(capsys, "gb", "verify", "16", "1", *switch)
    assert code == 2 and payload["pass"] is False
    assert payload["failure"] == {"stage": "pi_balance", "generators": [generator]}
    # the builder audits nothing, so only the sabotaged family is
    # audited: the 170 built generators with one changed, or with the
    # excluded pair appended as generator 170
    calls = 171 if generator == 170 else 170
    assert len(audited) == payload["num_generators"] == calls
    built = list(groebner_family(build_q(16, 1)).generators)
    assert audited.pop(generator) not in built
    del built[generator:generator + 1]
    assert audited == built


@pytest.mark.parametrize("r1,x1", SMALL_GRID)
def test_gb_verify_names_each_sabotaged_generator(capsys, r1, x1):
    # a sabotaged family is triangulated too, and the family stage
    # refuses it at pi_balance before it reads the triangulation stage
    point = (str(r1), str(x1))
    n = len(groebner_family(build_q(r1, x1)).generators)
    runs = [(("--sabotage-tail", str(k)), k) for k in range(n)]
    runs.append((("--include-excluded-pair",), n))
    for switch, generator in runs:
        code = cli.main(["gb", "verify", *point, *switch])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, ""), switch
        payload = json.loads(captured.out)
        assert payload["pass"] is False, switch
        assert payload["failure"] == {
            "stage": "pi_balance", "generators": [generator]
        }, switch


def test_gb_verify_triangulates_a_sabotaged_family(capsys, monkeypatch):
    # gb verify composes the certificate as evaluate_point does: the
    # family stage takes the triangulation stage of the same family
    seen = []
    check_triangulation = cli.check_triangulation

    def spy(family, *args):
        seen.append(family)
        return check_triangulation(family, *args)

    monkeypatch.setattr(cli, "check_triangulation", spy)
    code, payload = run_json(capsys, "gb", "verify", "2", "1", "--sabotage-tail", "3")
    assert code == 2
    assert payload["failure"] == {"stage": "pi_balance", "generators": [3]}
    [family] = seen
    assert toric.pi_balance_failures(family) == (3,)


def test_gb_verify_sabotage_fails_without_a_budget(capsys, monkeypatch):
    # a failure wins over a skip, and the triangulation stage of the
    # sabotaged family needs no budget
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "0")
    code = cli.main(["gb", "verify", "3", "2", "--sabotage-tail", "0"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    payload = json.loads(captured.out)
    assert payload["failure"] == {"stage": "pi_balance", "generators": [0]}


@pytest.fixture
def built_as(monkeypatch):
    """Set ``cli.groebner_family`` to build the family and pass it
    through ``change``: a defect injected where no switch reaches."""
    build = cli.groebner_family

    def set_change(change):
        monkeypatch.setattr(cli, "groebner_family", lambda q: change(build(q)))
    return set_change


def _reversed(k):
    """Swap generator k's lead and tail: still balanced, mis-oriented."""
    def change(family):
        g = family.generators[k]
        generators = list(family.generators)
        generators[k] = Binomial(g.tail, g.lead)
        return family._replace(generators=tuple(generators))
    return change


def _failing(monkeypatch, *checks):
    for name in checks:
        monkeypatch.setattr(pipeline, name, lambda *args, **kwargs: False)


def _gb_verify_failure(capsys, *point):
    code = cli.main(["gb", "verify", *point])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    payload = json.loads(captured.out)
    assert payload["pass"] is False
    return payload["failure"]


@pytest.mark.parametrize("point, change, failing, failure", [
    (("3", "2"), _reversed(3), (), {"stage": "orientation", "generators": [3]}),
    # generator 6 deleted at (2,3) passes every S-pair and the smoke
    # test; its complex is not pure
    (("2", "3"), lambda family: without(family, 6), (), {
        "stage": "triangulation",
        "detail": "maximal face (1, 7, 8, 9) has 4 vertices, expected 5",
    }),
    # no balanced family fails these two checks alone, so each is made
    # to fail
    (("3", "2"), None, ("_minimal_leads_squarefree",), {"stage": "squarefree"}),
    (("3", "2"), None, ("injectivity_check",), {"stage": "injectivity"}),
], ids=["orientation", "triangulation", "squarefree", "injectivity"])
def test_gb_verify_names_each_documented_failure(
    capsys, monkeypatch, built_as, point, change, failing, failure
):
    if change:
        built_as(change)
    _failing(monkeypatch, *failing)
    assert _gb_verify_failure(capsys, *point) == failure


def test_gb_verify_failure_precedence(capsys, monkeypatch, built_as):
    # orientation, then triangulation, then squarefree, then injectivity:
    # the defects accumulate, and the earliest failed check is named
    _failing(monkeypatch, "injectivity_check")
    assert _gb_verify_failure(capsys, "3", "2") == {"stage": "injectivity"}
    _failing(monkeypatch, "_minimal_leads_squarefree")
    assert _gb_verify_failure(capsys, "3", "2") == {"stage": "squarefree"}
    built_as(lambda family: without(family, 6))
    assert _gb_verify_failure(capsys, "2", "3")["stage"] == "triangulation"
    # the reversed generator's complex is refused too
    change = _reversed(3)
    refused = pipeline.check_triangulation(change(groebner_family(build_q(3, 2))))
    assert refused.verdict is False
    built_as(change)
    assert _gb_verify_failure(capsys, "3", "2") == {
        "stage": "orientation", "generators": [3]
    }


def test_triangulate(capsys):
    code, payload = run_json(capsys, "triangulate", "2", "1")
    assert code == 0
    assert payload["num_facets"] == 6
    assert payload["all_unimodular"] is True
    assert payload["volume_sum"] == 6
    assert payload["regular_certified"] is True
    assert [3, 5, 6] in payload["facets"]
    _assert_integers_only(payload)


def test_triangulate_3_1(capsys):
    code, payload = run_json(capsys, "triangulate", "3", "1")
    assert code == 0
    assert payload["num_facets"] == 12


def test_triangulate_off_format(capsys):
    code, out = run(capsys, "triangulate", "2", "1", "--format", "off")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "7 6 0"
    assert lines[2] == "-2 -3"
    assert lines[-1].startswith("3 ")


def test_triangulate_off_format_json_file(capsys, tmp_path):
    _, printed = run(capsys, "triangulate", "2", "1", "--format", "off")
    target = tmp_path / "tri.off"
    code, out = run(
        capsys, "triangulate", "2", "1", "--format", "off", "--json", str(target)
    )
    assert (code, out) == (0, "")
    assert target.read_text() == printed


def test_triangulate_drop_facet(capsys):
    code, payload = run_json(capsys, "triangulate", "2", "1", "--drop-facet", "0")
    assert code == 2
    assert payload["pass"] is False
    assert payload["volume_sum"] == 5


def test_triangulate_drop_facet_bad_index(capsys):
    assert cli.main(["triangulate", "2", "1", "--drop-facet", "17"]) == 1


def test_triangulate_reports_a_cell_that_is_not_lower(capsys, built_as):
    # the same complex read under another column order: unimodular
    # facets summing to N, one of them not a lower cell of the lex lift
    built_as(lambda family: in_order(family, [7, 4, 2, 5, 0, 1, 3, 6]))
    code = cli.main(["triangulate", "2", "2"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    payload = json.loads(captured.out)
    assert payload["all_unimodular"] is True
    assert payload["volume_sum"] == 10
    assert payload["regular_certified"] is False
    assert payload["pass"] is False


def test_triangulate_reports_a_refused_complex(capsys, built_as):
    built_as(lambda family: without(family, 0))
    code = cli.main(["triangulate", "2", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert json.loads(captured.out) == {
        "schema": 1,
        "params": {"r1": 2, "x1": 1},
        "pass": False,
        "failure": "maximal face (1, 2, 3, 4) has 4 vertices, expected 3",
    }


def test_sweep(capsys):
    code, payload = run_json(capsys, "sweep", "--r1", "2..3", "--x1", "1..2")
    assert code == 0
    assert payload["overallPass"] is True
    assert payload["grid"] == [[2, 1], [2, 2], [3, 1], [3, 2]]
    point = payload["perPoint"]["2,1"]
    for flag in (
        "latticePointsOK",
        "hstarOK",
        "gbConstructed",
        "buchbergerPass",
        "squarefree",
        "injectivityPass",
        "triangulationUnimodular",
        "regularCertified",
    ):
        assert point[flag] is True
    assert all(isinstance(v, int) for v in point["timings"].values())
    _assert_integers_only(payload)


def test_sweep_single_value_ranges(capsys):
    code, payload = run_json(capsys, "sweep", "--r1", "2", "--x1", "1")
    assert code == 0
    assert payload["grid"] == [[2, 1]]


class InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: records the worker count
    asked for in ``requested`` and maps in this process."""

    requested: list = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def in_process_pool(monkeypatch):
    """``InProcessPool`` in place of the process pool, with no worker
    count asked for yet."""
    import concurrent.futures

    monkeypatch.setattr(InProcessPool, "requested", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return InProcessPool


def _usable_cpus(monkeypatch, cpus):
    """Pins the usable CPUs, whatever machine runs the test."""
    monkeypatch.setattr(cli.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def test_sweep_asks_for_no_more_workers_than_points(
    capsys, monkeypatch, in_process_pool
):
    requested = in_process_pool.requested

    def sweep(x1, jobs, cpus):
        _usable_cpus(monkeypatch, cpus)
        code, payload = run_json(capsys, "sweep", "--r1", "2", "--x1", x1,
                                 "--jobs", jobs)
        assert code == 0
        return list(payload["perPoint"])

    assert sweep("1..2", "64", 8) == ["2,1", "2,2"]
    assert requested == [2]
    # one point needs one worker, which runs in this process
    assert sweep("1", "64", 8) == ["2,1"]
    assert requested == [2]
    # so does one usable CPU
    assert sweep("1..2", "64", 1) == ["2,1", "2,2"]
    assert requested == [2]
    # the CPUs cap the workers below the points
    assert sweep("1..4", "64", 2) == ["2,1", "2,2", "2,3", "2,4"]
    assert requested == [2, 2]


def test_sweep_whose_worker_dies_exits_1(capsys, monkeypatch, in_process_pool):
    # a worker killed after the first point, say by the out-of-memory
    # killer, breaks the pool: one error line and exit 1, no traceback
    from concurrent.futures.process import BrokenProcessPool

    def map_then_die(self, fn, *iterables):
        entries = map(fn, *iterables)
        yield next(entries)
        raise BrokenProcessPool("A child process terminated abruptly")

    monkeypatch.setattr(in_process_pool, "map", map_then_die)
    _usable_cpus(monkeypatch, 2)
    code = cli.main(["sweep", "--r1", "2", "--x1", "1..2", "--jobs", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: a sweep worker died (BrokenProcessPool)\n"
    assert in_process_pool.requested == [2]


def test_sweep_without_sched_getaffinity_reads_the_cpu_count(
    capsys, monkeypatch, in_process_pool
):
    # a platform without sched_getaffinity, such as macOS, counts the
    # CPUs by os.cpu_count, and one that returns None counts as one CPU:
    # the sweep then runs serially, with the serial sweep's payload
    argv = ["sweep", "--r1", "2..3", "--x1", "1"]
    serial = _main_output(capsys, argv)
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert _main_output(capsys, [*argv, "--jobs", "2"]) == serial
    assert serial[0] == 0
    assert in_process_pool.requested == []


#: Grid refusals, each its options and its one line on stderr: an empty
#: grid, a point outside the family and a range with no upper end.
_GRID_REFUSALS = [
    (["--r1", "3..2"], "error: empty sweep grid\n"),
    (["--r1", "1..3", "--x1", "1"],
     "error: grid point (1, 1) outside r1 >= 2, x1 >= 1\n"),
    (["--r1", "5..", "--x1", "1"],
     "error: bad range: invalid literal for int() with base 10: ''\n"),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("options, err", _GRID_REFUSALS,
                         ids=[" ".join(o) for o, _ in _GRID_REFUSALS])
def test_sweep_refuses_a_bad_grid_before_any_pool_starts(
    capsys, monkeypatch, in_process_pool, options, err, jobs
):
    # the refusal is raised and printed by main as every command's is,
    # before the sweep asks for a worker
    _usable_cpus(monkeypatch, 2)
    code = cli.main(["sweep", *options, "--jobs", jobs])
    assert (code, *capsys.readouterr()) == (1, "", err)
    assert in_process_pool.requested == []


def test_sweep_json_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = cli.main(
        ["sweep", "--r1", "2..2", "--x1", "1..2", "--json", str(target)]
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["overallPass"] is True
    assert set(payload["perPoint"]) == {"2,1", "2,2"}


def test_usage_error_exit_code(capsys):
    assert cli.main(["points", "2"]) == 1
    assert cli.main(["nonsense"]) == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wpsimplex", "hstar", "2", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["hstar"] == [1, 4, 1]


@pytest.mark.parametrize("outcome, code", [
    (SystemExit(0), 0),  # --help exits inside main
    (2, 2),
])
def test_entry_flushes_both_streams_then_exits_on_every_way_out(
    monkeypatch, outcome, code
):
    events = []

    class Stream:
        def __init__(self, name):
            self.name = name

        def write(self, text):
            events.append((self.name, text))

        def flush(self):
            events.append(self.name)

    def fake_main():
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))
    # the real os._exit would end the test run
    monkeypatch.setattr(cli.os, "_exit", lambda status: events.append(status))
    cli.entry()
    assert events == ["stdout", "stderr", code]


def _module_run(*argv, flags=(), **kwargs):
    """``python <flags> -m wpsimplex`` on argv, its environment holding
    no PYTHON* variable but the path to the package, so stdout is
    buffered as it is by default."""
    package_root = os.path.dirname(os.path.dirname(wpsimplex.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return subprocess.run(
        [sys.executable, *flags, "-m", "wpsimplex", *argv], text=True,
        env={**env, "PYTHONPATH": package_root}, **kwargs,
    )


def test_a_pooled_sweep_leaves_no_process_holding_stdout():
    # the pipe reaches its end only when every process holding it has
    # exited, so a pool worker left behind by os._exit would hang the read
    proc = _module_run("sweep", "--r1", "2..3", "--x1", "1..2", "--jobs", "2",
                       capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert set(json.loads(proc.stdout)["perPoint"]) == {"2,1", "2,2", "3,1", "3,2"}


def test_a_json_file_holds_the_whole_payload_after_the_exit(capsys, tmp_path):
    target = tmp_path / "out.json"
    proc = _module_run("triangulate", "4", "12", "--json", str(target),
                       capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert run(capsys, "triangulate", "4", "12") == (0, target.read_text())


@pytest.mark.parametrize("fds, argv, stderr", [
    ((1,), ["points", "2", "1"], ""),
    ((1,), ["--help"], "usage: wpsimplex"),
    ((1, 2), ["points", "2", "1"], None),
], ids=["stdout-points", "stdout-help", "both-points"])
def test_a_stream_closed_from_the_start_is_no_traceback(fds, argv, stderr):
    # Python reads a stdout closed at start as a stream of None, and a
    # stderr closed with it too; print skips it, and so does the flush
    # on the way out
    def close():
        for fd in fds:
            os.close(fd)

    proc = _module_run(*argv, preexec_fn=close,
                       stderr=None if stderr is None else subprocess.PIPE)
    assert proc.returncode == 0
    if stderr is not None:
        assert proc.stderr.startswith(stderr) and "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_help_on_a_full_stdout_is_one_error_line():
    # on a buffered stdout argparse leaves the help page in the buffer,
    # so the write fails only at the flush on the way out; on an
    # unbuffered one (-u) the page's own write fails
    for flags in ((), ("-u",)):
        for argv in (["--help"], ["gb", "verify", "--help"]):
            with open("/dev/full", "w") as full:
                proc = _module_run(*argv, flags=flags, stdout=full,
                                   stderr=subprocess.PIPE)
            assert (proc.returncode, proc.stderr) == (
                1, "error: cannot write stdout: No space left on device\n"
            ), (flags, argv)


def test_every_argument_has_help():
    # every option and positional of every subcommand says what it takes;
    # a subparsers group is read through its subcommands, whose one-line
    # help the top-level --help lists
    parsers = [cli.build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if isinstance(action, argparse._SubParsersAction):
                for choice in action._choices_actions:
                    assert choice.help, (parser.prog, choice.dest)
                parsers.extend(action.choices.values())
            else:
                assert action.help, (parser.prog, action.dest)


# -- the plain reader against argparse -------------------------------------------

_FLAGS = sorted({option.flag for _, _, _, options in cli._COMMANDS
                 for option in options or ()})
#: Spellings argparse reads and the plain reader leaves to it.
_OTHER_SPELLINGS = [
    "--max", "--js", "--sab", "--inc", "--fail", "--form", "--drop", "--jo",
    "--ver", "--r", "-h", "--help", "--", "-1", "--json=out",
    "--format=off", "--max-degree=2", "--jobs=2", "--r1=2..3",
]
_INTS = ["2", "1", "0", "3", "+1", " 3", "3 ", "1_0", "\u0663", "007"]
_STRINGS = ["out", "2..3", "1", ""]
_ODD_VALUES = ["-1", "", "x", "1.5", "1__0", "xml", "JSON", "-3..2", "3 1"]
_ALPHABET = sorted({
    *(word for words, _, _, _ in cli._COMMANDS for word in words),
    *_FLAGS, *_OTHER_SPELLINGS, *_INTS, *_STRINGS, *_ODD_VALUES,
})


@st.composite
def command_lines(draw):
    """A well-formed line of one subcommand, positionals and options in
    any order and options repeated, then up to three tokens inserted,
    replaced or deleted: extra or missing positionals, abbreviations,
    = forms, --, -h, signed, padded or non-ASCII ints, bad choices."""
    words, _, positionals, options = draw(
        st.sampled_from([command for command in cli._COMMANDS if command[3]]))
    chunks = [[draw(st.sampled_from(_INTS))] for _ in positionals]
    for option in draw(st.lists(st.sampled_from(options), max_size=4)):
        if option.convert is None:
            chunks.append([option.flag])
        else:
            values = option.choices or (_INTS if option.convert is int else _STRINGS)
            chunks.append([option.flag, draw(st.sampled_from(values))])
    line = [*words, *(t for chunk in draw(st.permutations(chunks)) for t in chunk)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        token = draw(st.sampled_from(_ALPHABET))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or at == len(line):
            line.insert(at, token)
        elif edit == "replace":
            line[at] = token
        else:
            del line[at]
    return line


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(["gb", "verify", "16", "--max-degree", "2", "1"])
@example(["points", " 3", "+1", "--verify", "--verify"])
@example(["triangulate", "1_0", "\u0663", "--format", "off", "--format", "json"])
@example(["sweep", "--jobs", "2", "--r1", "2..3", "--json", "", "--fail-fast"])
def test_the_plain_reader_reads_what_argparse_reads(argv):
    args = cli._plain_args(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


_TIMINGS = re.compile(r'("\w*_ms": )\d+')


def _main_output(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out, err = capsys.readouterr()
    return code, _TIMINGS.sub(r"\g<1>0", out), err


@pytest.mark.parametrize("argv", [
    ["points", "2", "1"], ["points", "2", "1", "--verify", "--verify"],
    ["points", " 2", "+1"], ["points", "2", "\u0661"], ["points", "1", "1"],
    ["points", "2", "1", "3"], ["points", "2", "1", "--json", ""],
    ["hstar", "2", "1"], ["hstar", "2", "1", "--verify"],
    ["gb", "dump", "2", "1"], ["gb", "verify", "2", "1"],
    ["gb", "verify", "2", "--max-degree", "2", "1"],
    ["gb", "verify", "2", "1", "--max-degree", "1", "--max-degree", "0"],
    ["gb", "verify", "2", "1", "--max-degree", "-1"],
    ["gb", "verify", "2", "1", "--sabotage-tail", "0"],
    ["gb", "verify", "2", "1", "--include-excluded-pair"],
    ["gb", "verify", "2", "1", "--max", "2"], ["gb", "verify", "x", "1"],
    ["gb", "verify", "2", "1", "--", "3"], ["gb", "verify", "2"], ["gb"],
    ["triangulate", "2", "1"], ["triangulate", "2", "1", "--format", "off"],
    ["triangulate", "2", "1", "--format=off"],
    ["triangulate", "2", "1", "--format", "xml"],
    ["triangulate", "2", "1", "--drop-facet", "0"],
    ["triangulate", "2", "1", "--drop-facet", "-1"],
    ["triangulate", "2", "1", "--drop-facet"],
    ["sweep", "--r1", "2", "--x1", "1"],
    ["sweep", "--r1", "2", "--x1", "1", "--fail-fast", "--jobs", "1"],
    ["sweep", "--r1", "3..2", "--x1", "1"], ["sweep", "--r1", "-3..2"],
    ["sweep", "--jobs", "0"], [], ["nonsense"], ["points", "2"],
    ["--help"], ["-h"], ["points", "--help"], ["hstar", "--help"],
    ["gb", "--help"], ["gb", "dump", "--help"], ["gb", "verify", "--help"],
    ["triangulate", "--help"], ["sweep", "--help"],
], ids=" ".join)
def test_main_prints_the_same_through_argparse(capsys, monkeypatch, argv):
    plain = _main_output(capsys, argv)
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    assert _main_output(capsys, argv) == plain


def test_help_through_the_module_entry_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "wpsimplex", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.startswith("usage: wpsimplex")
    assert proc.stderr == ""


def test_closed_stdout_is_one_error_line_not_a_traceback():
    # the reader goes away after one line, as `| head -1` does; the dump
    # (about 300 kB) is larger than a pipe holds, so the write must fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "wpsimplex", "gb", "dump", "20", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_is_one_error_line_not_a_traceback():
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "wpsimplex", "points", "2", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


class _FullStdout:
    """A stdout on a device with no space left: every write fails."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        pass


def test_a_full_stdout_is_refused_and_left_on_the_null_device(
    capsys, monkeypatch, tmp_path
):
    # the in-process twin of the /dev/full run: one error line, exit 1,
    # and the stdout descriptor now writes to the null device
    with open(tmp_path / "out", "w") as out:
        monkeypatch.setattr(sys, "stdout", _FullStdout(out.fileno()))
        assert cli.main(["points", "2", "1"]) == 1
        assert os.path.samestat(os.fstat(out.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == (
        "error: cannot write stdout: No space left on device\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["points", "2", "1"], ["triangulate", "2", "1", "--format", "off"],
], ids=" ".join)
def test_a_json_file_that_fails_at_the_write_is_one_error_line(
    capsys, monkeypatch, argv
):
    # /dev/full passes the up-front probe, so the command does its work
    # and only the payload's write fails: exit 1, nothing on stdout and
    # one error line
    emitted, emit = [], cli._emit

    def spy(payload, path, code=cli.EXIT_PASS):
        emitted.append(path)
        return emit(payload, path, code)

    monkeypatch.setattr(cli, "_emit", spy)
    assert cli.main([*argv, "--json", "/dev/full"]) == 1
    assert emitted == ["/dev/full"]
    assert capsys.readouterr() == (
        "", "error: cannot write /dev/full: No space left on device\n"
    )


# -- the JSON writer ---------------------------------------------------------------

# a payload's strings: printable ASCII with no " or \
_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                              exclude_characters='"\\'), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | _TEXT,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
@example({"": [], "a": {}, "b": (), "c": [[1, -2], [True, 3]], "d": [None]})
@example(["", " ~a!", {"tag": "eq1", "text": "z1*z4 - z2^2"}])
def test_the_writer_prints_what_json_dumps_prints(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.0, [0, 1.5], {"a": float("nan")}, {1, 2}, {"a": frozenset()}, {1: 2},
    {None: 0}, {"a": {(1, 2): 3}}, b"bytes", object(),
    '"', "\\", "\n", "\x7f", "\xe9", "\U0001f600", {'a"': 0},
])
def test_the_writer_refuses_what_the_payloads_never_hold(value):
    with pytest.raises(TypeError):
        cli._json(value)


@pytest.mark.parametrize("argv", [
    ["points", "2", "1"], ["points", "2", "1", "--verify"],
    ["hstar", "2", "1"], ["hstar", "2", "1", "--verify"],
    ["gb", "dump", "2", "1"], ["gb", "verify", "2", "1"],
    ["gb", "verify", "2", "1", "--sabotage-tail", "0"],
    ["triangulate", "2", "1"], ["triangulate", "2", "1", "--drop-facet", "0"],
    ["triangulate", "4", "12"], ["sweep", "--r1", "2", "--x1", "1"],
], ids=" ".join)
def test_every_command_prints_what_json_dumps_prints(capsys, argv):
    code, out = run(capsys, *argv)
    assert code in (0, 2)
    assert out == _payload_text(json.loads(out))


_STARTUP_PROBE = """
import contextlib, io, sys
from wpsimplex import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["triangulate", "2", "1"]) == 0
    assert cli.main(["gb", "verify", "2", "1"]) == 0
    assert cli.main(["sweep", "--r1", "2", "--x1", "1", "--jobs", "4"]) == 0
print(sorted(m for m in ("concurrent.futures", "multiprocessing", "tempfile",
                         "wpsimplex.oracles")
             if m in sys.modules))
"""


def test_single_point_commands_import_no_process_pool():
    # -S keeps site from preloading modules the commands must not need;
    # only a sweep with more than one worker imports the pool, a one-point
    # grid needs one whatever --jobs says, and no command loads the oracles
    package_root = os.path.dirname(os.path.dirname(wpsimplex.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _STARTUP_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


#: The modules ``triangulate`` and ``--help`` run on: all but the oracles.
_COMMAND_MODULES = {
    "wpsimplex", "wpsimplex.cli", "wpsimplex.errors", "wpsimplex.simplex",
    "wpsimplex.ehrhart", "wpsimplex.toric", "wpsimplex.groebner",
    "wpsimplex.triangulation", "wpsimplex.pipeline",
}


def _cold_start(argv):
    """The exit code of ``python -m wpsimplex`` on argv, and the modules
    it imported.  -X importtime lists every module the process imports;
    -S keeps the .pth files of site-packages out of the list."""
    proc = _module_run(*argv, flags=("-S", "-X", "importtime"), capture_output=True)
    imported = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, imported


@pytest.mark.parametrize("argv", [
    ["--help"], ["triangulate", "2", "1"], ["gb", "verify", "2", "1"],
    ["sweep", "--r1", "2", "--x1", "1"],
])
def test_cold_start_imports_no_dataclasses_inspect_or_ast(argv):
    code, imported = _cold_start(argv)
    assert code == 0
    assert not imported & {"dataclasses", "inspect", "ast"}
    # the payload is written by cli._json, not by the json module
    assert "json" not in imported
    assert {m for m in imported if m.startswith("wpsimplex")} == _COMMAND_MODULES


@pytest.mark.parametrize("argv, code, parser", [
    (["triangulate", "2", "1"], 0, False),
    (["gb", "verify", "2", "1"], 0, False),
    (["sweep", "--r1", "2", "--x1", "1"], 0, False),
    # help and a usage error still go through argparse
    (["--help"], 0, True),
    (["gb", "verify", "2"], 1, True),
])
def test_a_plain_command_line_imports_no_argparse(argv, code, parser):
    exited, imported = _cold_start(argv)
    assert exited == code
    assert ("argparse" in imported) == parser
    if not parser:
        assert not imported & {"argparse", "gettext", "locale"}


# -- one implementation per check ------------------------------------------------

def test_cli_imports_no_check_primitive():
    for name in (
        "lattice_points_bruteforce",
        "ehrhart_bruteforce",
        "buchberger_verify",
        "injectivity_check",
        "check_pi_balance",
        "pi_balance_failures",
        "orientation_failures",
        "summarize_triangulation",
        "verify_unimodular",
        "make_weight_certificate",
        "regularity_check",
    ):
        assert not hasattr(cli, name), name


def test_hstar_verify_and_sweep_share_the_unimodality_test(capsys, monkeypatch):
    monkeypatch.setattr(HStarVector, "is_unimodal", lambda self: False)
    code, payload = run_json(capsys, "hstar", "2", "1", "--verify")
    assert code == 2
    assert payload["verified"] is False
    code, payload = run_json(capsys, "sweep", "--r1", "2", "--x1", "1")
    assert code == 2
    assert payload["perPoint"]["2,1"]["hstarOK"] is False
    assert payload["overallPass"] is False


def test_hstar_verify_fails_on_unimodality_alone(capsys, monkeypatch):
    # h* at (3,2) is (1, 5, 9, 5, 1); swapping its last two entries keeps
    # h*_0, h*_1, the sum 21 and the t = 1, 2 counts, so only the
    # unimodality test can fail it
    stand_in = HStarVector((1, 5, 9, 1, 5))
    assert ehrhart.hstar(build_q(3, 2)).coeffs == (1, 5, 9, 5, 1)
    assert not stand_in.is_unimodal()
    monkeypatch.setattr(cli, "hstar", lambda q: stand_in)
    monkeypatch.setattr(pipeline, "hstar", lambda q: stand_in)
    stage = pipeline.check_hstar(build_q(3, 2))
    assert (stage.flags, stage.report) == (
        {"hstarOK": False}, {"dilations_checked": [1, 2]}
    )
    code = cli.main(["hstar", "3", "2", "--verify"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert out == _payload_text({
        "schema": 1,
        "params": {"r1": 3, "x1": 2},
        "hstar": [1, 5, 9, 1, 5],
        "verified": False,
        "dilations_checked": [1, 2],
    })


# -- a skip is never a pass ------------------------------------------------------

def test_evaluate_point_2_1():
    entry = evaluate_point(2, 1)
    assert list(point_flags(entry)) == [
        "latticePointsOK",
        "hstarOK",
        "gbConstructed",
        "buchbergerPass",
        "squarefree",
        "injectivityPass",
        "triangulationUnimodular",
        "regularCertified",
    ]
    assert all(v is True for v in point_flags(entry).values())
    assert set(entry["timings"]) == {
        "points_ms", "hstar_ms", "gb_ms", "triangulate_ms"
    }
    assert "skipped" not in entry and "errors" not in entry


def test_evaluate_point_budget_skips_are_null(monkeypatch):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "0")
    entry = evaluate_point(2, 1)
    assert entry["latticePointsOK"] is None
    assert entry["hstarOK"] is None
    assert entry["injectivityPass"] is None
    assert entry["skipped"] == [
        "latticePoints", "dilation_t1", "dilation_t2", "injectivity"
    ]
    # checks that need no enumeration still run
    assert entry["buchbergerPass"] is True
    assert entry["regularCertified"] is True
    assert verdict(point_flags(entry).values()) is None


def test_verdict_failure_beats_skip():
    assert verdict([True, True]) is True
    assert verdict([True, None]) is None
    assert verdict([None, False, True]) is False
    assert verdict([]) is True


def test_sweep_budget_skip_is_not_a_pass(capsys, monkeypatch):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "50")
    code, payload = run_json(capsys, "sweep", "--r1", "2", "--x1", "1")
    assert code == 3
    point = payload["perPoint"]["2,1"]
    assert point["injectivityPass"] is None
    assert point["skipped"] == ["injectivity"]
    assert point["buchbergerPass"] is True
    assert payload["overallPass"] is False


def test_hstar_verify_dilation_skip_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "30")  # t = 1 fits, t = 2 does not
    code, out = run(capsys, "hstar", "2", "1", "--verify")
    assert code == 3
    assert out == ""


def test_gb_verify_injectivity_skip_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "50")
    code, out = run(capsys, "gb", "verify", "2", "1")
    assert code == 3
    assert out == ""


def test_injectivity_skip_names_the_degree_over_budget(capsys, monkeypatch):
    # degrees 1 and 2 fit a budget of 50 at (2, 1) and (3, 1); degree 3
    # has C(9, 3) = 84 and C(11, 3) = 165 candidates
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "50")
    assert cli.main(["gb", "verify", "2", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "error: 84 degree-3 monomials exceed the budget 50\n"
    code, payload = run_json(capsys, "sweep", "--r1", "2..3", "--x1", "1")
    assert code == 3
    skipped = {k: point["skipped"] for k, point in payload["perPoint"].items()}
    assert skipped == {
        "2,1": ["injectivity"],
        "3,1": ["dilation_t2", "injectivity"],
    }
    assert all(
        point["injectivityPass"] is None for point in payload["perPoint"].values()
    )


def test_gb_verify_failure_beats_skip(capsys, monkeypatch):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "50")
    code, payload = run_json(
        capsys, "gb", "verify", "2", "1", "--include-excluded-pair"
    )
    assert code == 2
    assert payload["pass"] is False


def test_sweep_jobs_fail_fast_stops_at_first_skip(capsys, monkeypatch):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "50")
    argv = ("sweep", "--r1", "2..3", "--x1", "1..2", "--jobs", "2")
    code, payload = run_json(capsys, *argv, "--fail-fast")
    assert code == 3
    assert list(payload["perPoint"]) == ["2,1"]
    assert payload["perPoint"]["2,1"]["skipped"] == ["injectivity"]
    code, payload = run_json(capsys, *argv)
    assert code == 3
    assert list(payload["perPoint"]) == ["2,1", "2,2", "3,1", "3,2"]


def test_sweep_fail_fast_stops_at_first_failure(capsys, monkeypatch):
    check_points = pipeline.check_points
    monkeypatch.setattr(pipeline, "check_points", lambda q: (
        Stage({"latticePointsOK": False}) if q.x1 == 2 else check_points(q)
    ))
    argv = ("sweep", "--r1", "2", "--x1", "1..3")
    code, payload = run_json(capsys, *argv, "--fail-fast")
    assert code == 2
    assert list(payload["perPoint"]) == ["2,1", "2,2"]
    assert payload["perPoint"]["2,2"]["latticePointsOK"] is False
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert list(payload["perPoint"]) == ["2,1", "2,2", "2,3"]


# -- bad input exits 1 with one line ---------------------------------------------

def _assert_one_line_error(capsys, argv, code=1):
    assert cli.main(list(argv)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["points", "99999999999999999999", "1"],
    ["sweep", "--r1", "99999999999999999999", "--x1", "1"],
])
def test_parameters_past_the_index_range_exit_1(capsys, argv):
    # build_q cannot repeat an entry more times than an index holds, and
    # fails before it allocates
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: parameters too large (OverflowError)\n")


@pytest.mark.parametrize("argv", [["points", "2", "1"], ["hstar", "2", "1"]])
def test_parameters_past_the_memory_exit_1(capsys, monkeypatch, argv):
    def refuse(r1, x1):
        raise MemoryError

    monkeypatch.setattr(cli, "build_q", refuse)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: parameters too large (MemoryError)\n")


@pytest.mark.parametrize("budget", ["many", "-5", "2.5"])
def test_bad_budget_exits_1(capsys, monkeypatch, budget):
    # the variable is checked before any work, so the subcommands that
    # never enumerate reject it too, and none prints a payload
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", budget)
    for argv in (
        ["points", "2", "1"],
        ["points", "2", "1", "--verify"],
        ["hstar", "2", "1"],
        ["hstar", "2", "1", "--verify"],
        ["gb", "dump", "2", "1"],
        ["gb", "verify", "2", "1"],
        ["gb", "verify", "2", "1", "--max-degree", "0"],
        ["triangulate", "2", "1"],
        ["triangulate", "2", "1", "--format", "off"],
        ["sweep", "--r1", "2", "--x1", "1"],
    ):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == (
            "error: the enumeration budget (WPSIMPLEX_ENUM_BUDGET) must be "
            f"a non-negative integer, got {budget!r}\n"
        ), argv


@pytest.mark.parametrize("index", ["99", "-1"])
def test_gb_verify_sabotage_tail_bad_index(capsys, index):
    _assert_one_line_error(
        capsys, ["gb", "verify", "2", "1", "--sabotage-tail", index]
    )


@pytest.mark.parametrize("argv", [
    ["gb", "verify", "2", "1", "--max-degree", "-5"],
    ["sweep", "--r1", "2", "--x1", "1", "--max-degree", "-1"],
    ["sweep", "--r1", "2", "--x1", "1", "--jobs", "0"],
    ["sweep", "--r1", "2", "--x1", "1", "--jobs", "-4"],
])
def test_bad_max_degree_or_jobs_exits_1(capsys, argv):
    _assert_one_line_error(capsys, argv)


def test_unwritable_json_path_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    _assert_one_line_error(capsys, ["points", "2", "1", "--json", str(target)])
    assert not target.exists()


def test_unwritable_json_path_exits_before_work(capsys, monkeypatch, tmp_path):
    def fail(*args):
        raise AssertionError("evaluate_point ran before the --json check")

    monkeypatch.setattr(cli, "evaluate_point", fail)
    target = tmp_path / "missing" / "x.json"
    argv = ["sweep", "--r1", "2..4", "--x1", "1..3", "--json", str(target)]
    _assert_one_line_error(capsys, argv)
    assert not target.exists()


def test_budget_skip_leaves_no_json_file(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", "50")
    target = tmp_path / "gb.json"
    assert cli.main(["gb", "verify", "2", "1", "--json", str(target)]) == 3
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["gb", "dump", "2", "1"],
    ["sweep", "--r1", "2..3", "--x1", "1..2"],
])
def test_empty_json_path_exits_1_before_work(capsys, monkeypatch, tmp_path, argv):
    def fail(*args):
        raise AssertionError("work ran before the --json check")

    monkeypatch.setattr(cli, "evaluate_point", fail)
    monkeypatch.setattr(cli, "groebner_family", fail)
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--json", ""]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


# -- the caught failures: exact output and exit code ---------------------------

def _payload_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def test_gb_verify_reports_a_failed_family_build(capsys, monkeypatch):
    # an eq5 generator replaced by the excluded pair's binomial is built
    # unaudited, and the family stage names it
    monkeypatch.setattr(
        toric, "tagged_generators",
        replacing("eq5", lambda q, g: wpsimplex.excluded_pair_binomial(q)),
    )
    code = cli.main(["gb", "verify", "2", "1"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert out == _payload_text({
        "schema": 1,
        "params": {"r1": 2, "x1": 1},
        "num_generators": 9,
        "pass": False,
        "failure": {"stage": "pi_balance", "generators": [8]},
    })


#: Defects at (2, 1), each a group tag and the generator written in place
#: of each generator of that group: eq5 as the excluded pair's binomial,
#: eq4 with its tail z5^2 cut to z5, eq2 as z3^2 - z3^2.
_DEFECTS = [
    ("eq5", lambda q, g: wpsimplex.excluded_pair_binomial(q)),
    ("eq4", lambda q, g: Binomial(g.lead, g.tail[:1])),
    ("eq2", lambda q, g: Binomial((2, 2), (2, 2))),
]


@pytest.mark.parametrize("tag, make", _DEFECTS, ids=[t for t, _ in _DEFECTS])
def test_a_defect_reads_the_same_built_in_or_swapped_in(capsys, monkeypatch, tag, make):
    # one path for a defective family: injected into the build, or
    # swapped into a sound family after it, the family stage reports it
    def swapped(q):
        family = groebner_family(q)
        return family._replace(generators=tuple(
            make(q, g) if t == tag else g
            for t, g in zip(tags(q), family.generators)
        ))

    runs = []
    for target, name, stand_in in (
        (toric, "tagged_generators", replacing(tag, make)),
        (cli, "groebner_family", swapped),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, stand_in)
            code = cli.main(["gb", "verify", "2", "1"])
            runs.append((code, *capsys.readouterr()))
    built, swapped_in = runs
    assert built == swapped_in
    assert built[0] == 2 and built[2] == ""


@pytest.mark.parametrize("r1,x1", SMALL_GRID + [(4, 12)])
def test_triangulate_reads_only_the_leads(capsys, monkeypatch, r1, x1):
    # a family with every tail changed triangulates as the sound one, and
    # triangulate runs neither family audit
    point = (str(r1), str(x1))
    assert cli.main(["triangulate", *point]) == 0
    sound = capsys.readouterr().out

    def every_tail_changed(q):
        family = groebner_family(q)
        for k in range(len(family.generators)):
            family = mutate_tail(family, k)
        return family

    audits = []
    for module in (toric, pipeline):
        for name in ("pi_balance_failures", "orientation_failures"):
            monkeypatch.setattr(module, name, lambda *a, name=name: audits.append(name))
    monkeypatch.setattr(cli, "groebner_family", every_tail_changed)
    q = build_q(r1, x1)
    pairs = zip(every_tail_changed(q).generators, groebner_family(q).generators)
    assert all(g.tail != h.tail for g, h in pairs)
    assert cli.main(["triangulate", *point]) == 0
    assert capsys.readouterr().out == sound
    assert audits == []


def test_triangulate_reports_the_error_its_stage_caught(capsys, monkeypatch):
    # without generator 0 the lead-support complex is not pure
    family = without(groebner_family(build_q(2, 1)), 0)
    monkeypatch.setattr(cli, "groebner_family", lambda q: family)
    code = cli.main(["triangulate", "2", "1"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert out == _payload_text({
        "schema": 1,
        "params": {"r1": 2, "x1": 1},
        "pass": False,
        "failure": "maximal face (1, 2, 3, 4) has 4 vertices, expected 3",
    })


def test_sweep_bad_range_exits_1(capsys):
    code = cli.main(["sweep", "--r1", "a..b"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: bad range: invalid literal for int() with base 10: 'a'\n"


def test_hstar_verify_wrong_dilation_count_exits_2(capsys, monkeypatch):
    def one_too_many(q, t):
        return ehrhart.ehrhart_bruteforce(q, t) + (t == 2)

    monkeypatch.setattr(pipeline, "ehrhart_bruteforce", one_too_many)
    code = cli.main(["hstar", "2", "1", "--verify"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert out == _payload_text({
        "schema": 1,
        "params": {"r1": 2, "x1": 1},
        "hstar": [1, 4, 1],
        "verified": False,
        "dilations_checked": [1, 2],
    })
