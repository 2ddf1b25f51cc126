import json
import os
import subprocess
import sys

import pytest

import wpsimplex
from wpsimplex import HStarVector, build_q, cli, groebner_family, toric
from wpsimplex.pipeline import evaluate_point, point_flags, verdict


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
    """The generators ``toric.is_toric_member`` is asked about, counted
    from an empty pi-balance cache with the (16, 1) family already
    built."""
    calls = []
    member = toric.is_toric_member

    def counted(columns, b):
        calls.append(b)
        return member(columns, b)

    groebner_family(build_q(16, 1))
    monkeypatch.setattr(toric, "is_toric_member", counted)
    toric.pi_balance_failures.cache_clear()
    return calls


def test_gb_verify_audits_the_family_once(capsys, audited):
    code, payload = run_json(capsys, "gb", "verify", "16", "1")
    assert code == 0 and payload["pass"] is True
    # the command line's guard and the family stage share one audit
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
    assert len(audited) == payload["num_generators"]


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


def test_sweep_asks_for_no_more_workers_than_points(capsys, monkeypatch):
    import concurrent.futures

    requested = []

    class InProcessPool:
        """Records the worker count asked for and maps in this process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    code, payload = run_json(capsys, "sweep", "--r1", "2", "--x1", "1..2",
                             "--jobs", "64")
    assert code == 0
    assert list(payload["perPoint"]) == ["2,1", "2,2"]
    assert requested == [2]
    # one point needs one worker, which runs in this process
    code, payload = run_json(capsys, "sweep", "--r1", "2", "--x1", "1",
                             "--jobs", "64")
    assert code == 0
    assert requested == [2]


def test_sweep_empty_range(capsys):
    assert cli.main(["sweep", "--r1", "3..2", "--x1", "1..1"]) == 1


def test_sweep_bad_grid_point(capsys):
    assert cli.main(["sweep", "--r1", "1..2", "--x1", "1..1"]) == 1


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


@pytest.mark.parametrize("argv", [["--help"], ["triangulate", "2", "1"]])
def test_cold_start_imports_no_dataclasses_inspect_or_ast(argv):
    # -X importtime lists every module the process imports; -S keeps the
    # .pth files of site-packages out of the list, and the environment
    # holds no PYTHON* variable but the path to the package
    package_root = os.path.dirname(os.path.dirname(wpsimplex.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "wpsimplex", *argv],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert not imported & {"dataclasses", "inspect", "ast"}
    assert {m for m in imported if m.startswith("wpsimplex")} == _COMMAND_MODULES


# -- one implementation per check ------------------------------------------------

def test_cli_imports_no_check_primitive():
    for name in (
        "lattice_points_bruteforce",
        "ehrhart_bruteforce",
        "buchberger_verify",
        "initial_ideal",
        "injectivity_check",
        "pi_balance_failures",
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


def test_evaluate_point_budget_skips_are_null():
    entry = evaluate_point(2, 1, budget=0)
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


# -- bad input exits 1 with one line ---------------------------------------------

def _assert_one_line_error(capsys, argv, code=1):
    assert cli.main(list(argv)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("budget", ["many", "-5", "2.5"])
def test_bad_budget_exits_1(capsys, monkeypatch, budget):
    monkeypatch.setenv("WPSIMPLEX_ENUM_BUDGET", budget)
    _assert_one_line_error(capsys, ["points", "2", "1", "--verify"])
    _assert_one_line_error(capsys, ["sweep", "--r1", "2", "--x1", "1"])


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
