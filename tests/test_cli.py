import argparse
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
    HStarVector,
    build_q,
    cli,
    ehrhart,
    groebner_family,
    pipeline,
    toric,
)
from wpsimplex.oracles import dense_generators
from wpsimplex.pipeline import Stage, evaluate_point, point_flags, verdict

from conftest import SMALL_GRID, without


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
    about, in order, counted from an empty pi-balance cache."""
    calls = []
    balanced = toric._balanced

    def counted(packed, b):
        calls.append(b)
        return balanced(packed, b)

    monkeypatch.setattr(toric, "_balanced", counted)
    toric.pi_balance_failures.cache_clear()
    return calls


def test_gb_verify_audits_the_family_once(capsys, audited):
    code, payload = run_json(capsys, "gb", "verify", "16", "1")
    assert code == 0 and payload["pass"] is True
    # the constructor's audit and the family stage share one audit
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
    # the constructor audits the family's 170 generators; what follows is
    # the sabotaged family, audited afresh, which differs from the
    # family at the named generator alone
    constructed, sabotaged = audited[:170], audited[170:]
    assert constructed == list(groebner_family(build_q(16, 1)).generators)
    assert len(sabotaged) == payload["num_generators"]
    assert sabotaged.pop(generator) not in constructed
    del constructed[generator:generator + 1]
    assert sabotaged == constructed


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

    def sweep(x1, jobs, cpus):
        # pins the usable CPUs, whatever machine runs the test
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        code, payload = run_json(capsys, "sweep", "--r1", "2", "--x1", x1,
                                 "--jobs", jobs)
        assert code == 0
        return list(payload["perPoint"])

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
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


@pytest.mark.parametrize("outcome, code", [
    (SystemExit(0), 0),  # --help exits inside main
    (2, 2),
])
def test_entry_freezes_the_heap_on_every_way_out(monkeypatch, outcome, code):
    frozen = []

    def fake_main():
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == code
    assert frozen == [True]


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
    -S keeps the .pth files of site-packages out of the list, and the
    environment holds no PYTHON* variable but the path to the package."""
    package_root = os.path.dirname(os.path.dirname(wpsimplex.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "wpsimplex", *argv],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": package_root},
    )
    imported = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, imported


@pytest.mark.parametrize("argv", [["--help"], ["triangulate", "2", "1"]])
def test_cold_start_imports_no_dataclasses_inspect_or_ast(argv):
    code, imported = _cold_start(argv)
    assert code == 0
    assert not imported & {"dataclasses", "inspect", "ast"}
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
    # an eq5 constructor that emits the excluded pair's binomial stops the
    # build; no family is cached, so the constructor runs
    monkeypatch.setattr(toric, "eq5_binomial", wpsimplex.excluded_pair_binomial)
    code = cli.main(["gb", "verify", "2", "1"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert out == _payload_text({
        "schema": 1,
        "params": {"r1": 2, "x1": 1},
        "pass": False,
        "failure": {
            "stage": "construction",
            "detail": "generator 8 (eq5) z2*z4 - z2*z3 is not pi-balanced",
        },
    })


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
