"""wpsimplex benchmark: time to certificate, one fresh interpreter per
operation.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Every operation is a real CLI invocation (``python -m wpsimplex ...``)
in a new process, because ``build_q``, ``lattice_points_formula``,
``hstar`` and ``groebner_family`` are cached per process: a repeat inside
one interpreter would be nearly free.  The loop is closed with one
client: the next operation starts when the previous one has exited.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates traced (``launcher.py``) and untraced runs of
each operation and prints the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from statistics import median
from typing import Callable

import expect
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")

#: Timed ``--help`` runs per benchmark run; their median is ``setup_s``.
SETUP_REPS = 15
#: An operation still running after this long (wall clock) is killed and
#: counted failed.
OP_TIMEOUT_S = 150


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[int, str], expect.Verdict]


@dataclass(frozen=True)
class Result:
    code: int
    stdout: str
    seconds: float  # reference-core seconds, see Runner
    wall: float
    rss_mb: float
    cpu_s: float


def _point_ops(command, points, checker, table) -> list[Op]:
    return [
        Op((*command, str(r1), str(x1)),
           partial(checker, r1=r1, x1=x1, expected=table[f"{r1},{x1}"]))
        for r1, x1 in points
    ]


def workloads(expected: dict) -> dict[str, tuple[list[Op], Op]]:
    """Workload name -> (timed operations, sabotage operation)."""
    sabotage_tri = Op(("triangulate", "6", "5", "--drop-facet", "0"),
                      expect.check_sabotage)
    sabotage_gb = Op(("gb", "verify", "6", "5", "--include-excluded-pair"),
                     expect.check_sabotage)
    sweep = Op(("sweep", "--r1", "2..6", "--x1", "1..5", "--max-degree", "3",
                "--jobs", "1"),
               partial(expect.check_sweep, expected=expected["sweep"]))
    return {
        "grid": ([sweep], sabotage_tri),
        "gb_wide": (_point_ops(("gb", "verify"), [(16, 1), (14, 2), (12, 3)],
                               expect.check_gb_verify,
                               expected["gb_verify"]), sabotage_gb),
        "tri_ladder": (_point_ops(("triangulate",), [(4, 12), (6, 7), (8, 4)],
                                  expect.check_triangulate,
                                  expected["triangulate"]),
                       sabotage_tri),
    }


#: Rows of the reference loop; one ``_reference_chunk`` takes about 1 ms
#: on a 2.1 GHz Xeon core.
_REF_ROWS = [tuple((i * 7 + j) % 13 for j in range(24)) for i in range(19)]
#: Reference chunks per reference-core second: the unit of every time.
REF_CHUNKS_PER_S = 1000


def _reference_chunk() -> int:
    """A fixed slice of interpreter work like the certificate kernels'
    (divisibility tests over exponent tuples, new tuples from zipped
    differences, set inserts) whose rate measures how fast the core runs
    that kind of Python right now."""
    seen = set()
    for a in _REF_ROWS:
        for b in _REF_ROWS:
            if all(x >= y for x, y in zip(a, b)):
                seen.add(a)
            seen.add(tuple(x - y for x, y in zip(a, b)))
    return len(seen)


class Runner:
    """Runs one child at a time on the benchmark's core and times it in
    reference-core seconds.

    The core's speed drifts by up to 2x within seconds on a shared host,
    and another core's speed does not follow it.  So while the child runs,
    this process runs the reference loop on the same core: the scheduler
    interleaves the two, both see the same speed, and the child's CPU time
    times the loop's rate (chunks per CPU second of this process) over
    REF_CHUNKS_PER_S is the child's time on a reference core.  The child
    is single-threaded and CPU-bound, so that is its time to certificate.
    """

    def __init__(self, workdir: str) -> None:
        self.stdout_path = os.path.join(workdir, "stdout")
        self.stderr_path = os.path.join(workdir, "stderr")
        self.env = {
            k: v for k, v in os.environ.items()
            if not k.startswith(("PYTHON", "WPSIMPLEX_"))
        }
        self.env["PYTHONPATH"] = SRC

    def spawn(self, args: list[str]) -> Result:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, self.stdout_path, flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, self.stderr_path, flags, 0o600),
        ]
        start, own_start = time.perf_counter(), time.process_time()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args],
                             self.env, file_actions=actions)
        chunks = 0
        try:
            while True:
                done, status, usage = os.wait4(pid, os.WNOHANG)
                if done:
                    break
                if time.perf_counter() - start > OP_TIMEOUT_S:
                    os.kill(pid, signal.SIGKILL)
                    _, status, usage = os.wait4(pid, 0)
                    break
                _reference_chunk()
                chunks += 1
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        wall = time.perf_counter() - start
        rate = max(chunks, 1) / (time.process_time() - own_start)
        cpu = usage.ru_utime + usage.ru_stime
        with open(self.stdout_path, encoding="utf-8") as fh:
            out = fh.read()
        return Result(os.waitstatus_to_exitcode(status), out,
                      cpu * rate / REF_CHUNKS_PER_S, wall,
                      usage.ru_maxrss / 1024, cpu)

    def untraced(self, argv) -> Result:
        return self.spawn(["-m", "wpsimplex", *argv])

    def traced(self, argv, span_path: str) -> Result:
        return self.spawn([LAUNCHER, span_path, str(time.monotonic_ns()),
                           "--", *argv])

class Tally:
    """Operations attempted and failed, and certificate checks skipped."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.checks = self.skipped = 0

    def record(self, op: Op, result: Result, counts_checks: bool) -> bool:
        verdict = op.check(result.code, result.stdout)
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            print(f"FAIL {' '.join(op.argv)}: {'; '.join(verdict.problems)}",
                  file=sys.stderr)
        if counts_checks:
            self.checks += verdict.checks
            self.skipped += verdict.skipped
        return verdict.ok


def _git_sha() -> str:
    """HEAD of the checkout, read from .git if there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> tuple[Tally, dict[str, float], dict]:
    ops, sabotage = workloads(expect.load_expected())[workload]
    rng = random.Random(seed)
    runner = Runner(workdir)
    tally = Tally()
    help_op = Op(("--help",), expect.check_help)

    # The first start compiles bytecode and warms the file cache; users
    # pay that once per install, so it is checked but not timed.
    tally.record(help_op, runner.untraced(help_op.argv), False)
    setup = []
    if not trace:
        for _ in range(SETUP_REPS):
            result = runner.untraced(help_op.argv)
            tally.record(help_op, result, False)
            setup.append(result.seconds)

    tally.record(sabotage, runner.untraced(sabotage.argv), False)

    plain: list[list[Result]] = [[] for _ in ops]
    traced: list[list[Result]] = [[] for _ in ops]
    layer_samples: list[list[dict]] = [[] for _ in ops]
    cost = [0.0] * len(ops)
    span_path = os.path.join(workdir, "spans.json")

    def run_plain(i: int) -> None:
        result = runner.untraced(ops[i].argv)
        tally.record(ops[i], result, True)
        plain[i].append(result)

    def run_traced(i: int) -> None:
        if os.path.exists(span_path):
            os.remove(span_path)
        result = runner.traced(ops[i].argv, span_path)
        if tally.record(ops[i], result, False) and os.path.exists(span_path):
            with open(span_path, encoding="utf-8") as fh:
                metrics = spans.operation_metrics(
                    json.load(fh), result.seconds / result.wall)
            metrics["proc.cpu_s"] = result.cpu_s
            metrics["proc.rss_mb"] = result.rss_mb
            layer_samples[i].append(metrics)
        traced[i].append(result)

    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        ran = False
        for i in order:
            if rounds > 0 and time.perf_counter() + cost[i] > deadline:
                continue
            start = time.perf_counter()
            if trace:
                steps = [run_plain, run_traced]
                rng.shuffle(steps)
                for step in steps:
                    step(i)
            else:
                run_plain(i)
            cost[i] = time.perf_counter() - start
            ran = True
        rounds += 1
        if not ran:
            break

    def wall(samples: list[list[Result]]) -> float:
        return sum(median(r.seconds for r in s) for s in samples)

    values = {
        "ok_ratio": 1 - tally.failed / tally.attempted,
        "checked_ratio": 1 - tally.skipped / tally.checks,
        "fail_ratio": tally.failed / tally.attempted,
        "skip_ratio": tally.skipped / tally.checks,
    }
    if trace:
        values.update(spans.combine(dict(enumerate(layer_samples))))
        total = values.get("groebner.spairs_total", 0)
        formed = values.get("groebner.s_polynomial.calls", 0)
        values["groebner.spairs_formed_ratio"] = formed / total if total else 0
        values["trace.overhead_ratio"] = wall(traced) / wall(plain)
    else:
        values["setup_s"] = median(setup)
        values["wall_s"] = wall(plain)
        values["peak_rss_mb"] = max(r.rss_mb for s in plain for r in s)
    samples = {" ".join(op.argv): len(s) for op, s in zip(ops, plain)}
    return tally, values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "gb_wide", "tri_ladder"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wpsimplex", "cli.py")):
        print(f"error: no wpsimplex sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    os.chdir(ROOT)
    # One core for this process and its children (which inherit it), so
    # the reference loop shares the core it measures.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: not pinned to one core, times drift: {exc}",
              file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        tally, values, samples = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), work)

    # A layer the workload never enters reports zero work; an end-to-end
    # metric must always be measured.
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not args.trace:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": samples, "fail_ratio": values["fail_ratio"],
        "skip_ratio": values["skip_ratio"], "machine": platform.machine(),
        "platform": platform.platform(), "cpus": os.cpu_count(),
        "python": platform.python_version(), "git_sha": _git_sha(),
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
