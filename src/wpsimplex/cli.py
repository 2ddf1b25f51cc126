"""Command-line front end.

Subcommands: points, hstar, gb (dump | verify), triangulate, sweep.
Each verifying subcommand runs the same stage check from
``wpsimplex.pipeline`` that the sweep runs; this module only renders.
Exit codes are a stable contract: 0 pass, 1 usage or parameter error,
2 verification failure, 3 a check skipped over the enumeration budget
while none failed.  All JSON output carries "schema": 1 and contains
exact integers only, never floats.

The gb and triangulate verifiers expose sabotage switches
(--sabotage-tail, --include-excluded-pair, --drop-facet) that inject a
known defect and must drive the exit code to 2; they exist to prove the
verifiers have teeth.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    InternalConsistency,
    ParameterOutOfRange,
    WpsimplexError,
)
from .ehrhart import hstar
from .pipeline import (
    DEFAULT_GRID_R1,
    DEFAULT_GRID_X1,
    Stage,
    check_family,
    check_hstar,
    check_points,
    check_triangulation,
    evaluate_point,
    grid_points,
    point_flags,
    verdict,
)
from .simplex import build_q, lattice_points_formula, resolve_enum_budget
from .toric import (
    binomial_text, exponents, groebner_family, include_excluded_pair, mutate_tail
)
from .triangulation import drop_facet, family_facets

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise _UsageError(message)


def _exit_code(ok: bool | None) -> int:
    if ok is None:
        return EXIT_BUDGET
    return EXIT_PASS if ok else EXIT_VERIFICATION


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
    return EXIT_USAGE


def _probe(path: str) -> None:
    """Raise OSError unless ``path`` can be written.  Creates nothing, so
    a run that ends without a payload leaves no file behind.  An empty
    path names no file, so opening it raises."""
    import tempfile

    if not path or os.path.exists(path):
        open(path, "a", encoding="utf-8").close()
    else:
        tempfile.TemporaryFile(dir=os.path.dirname(path) or ".").close()


def _emit(payload: dict | str, path: str | None, code: int = EXIT_PASS) -> int:
    """Print the payload, as JSON unless it is already text, or write it
    to ``path``; return ``code``, or 1 when the file or stdout cannot be
    written.  A reader that closed stdout leaves it pointed at the null
    device, so the flush at exit stays silent."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if path is None:
        try:
            print(text, flush=True)
        except BrokenPipeError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return _cannot_write("stdout", exc)
        return code
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        return _cannot_write(path, exc)
    return code


def _conclude(payload: dict, stage: Stage, json_path: str | None) -> int:
    """A skipped stage prints its budget message and exits 3 without a
    payload; otherwise the payload is emitted with exit 0 or 2."""
    if stage.verdict is None:
        print(f"error: {next(iter(stage.skipped.values()))}", file=sys.stderr)
        return EXIT_BUDGET
    return _emit(payload, json_path, _exit_code(stage.verdict))


def _parse_range(spec: str) -> tuple[int, int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return int(lo), int(hi)
    value = int(spec)
    return value, value


def cmd_points(args) -> int:
    q = build_q(args.r1, args.x1)
    payload = {"schema": 1, **lattice_points_formula(q).to_json_dict()}
    if not args.verify:
        return _emit(payload, args.json)
    stage = check_points(q)
    payload["verified"] = stage.verdict
    return _conclude(payload, stage, args.json)


def cmd_hstar(args) -> int:
    q = build_q(args.r1, args.x1)
    payload = {
        "schema": 1,
        "params": {"r1": q.r1, "x1": q.x1},
        "hstar": hstar(q).to_json_list(),
    }
    if not args.verify:
        return _emit(payload, args.json)
    stage = check_hstar(q)
    payload["verified"] = stage.verdict
    payload["dilations_checked"] = stage.report["dilations_checked"]
    return _conclude(payload, stage, args.json)


def cmd_gb_dump(args) -> int:
    q = build_q(args.r1, args.x1)
    family = groebner_family(q)
    payload = {
        "schema": 1,
        "params": {"r1": q.r1, "x1": q.x1},
        "num_generators": len(family.generators),
        "generators": [
            {
                "tag": tag,
                "text": binomial_text(g, q.r1),
                "lead": exponents(g.lead, family.nvars),
                "tail": exponents(g.tail, family.nvars),
            }
            for g, tag in zip(family.generators, family.tags)
        ],
        "b_pairs": [
            {"pair": list(pair), "companion": list(comp)}
            for pair, comp in family.b_pairs
        ],
    }
    return _emit(payload, args.json)


def _at_least(value: int, lower: int, flag: str) -> None:
    if value < lower:
        raise ParameterOutOfRange(f"{flag} must be >= {lower}, got {value}")


def cmd_gb_verify(args) -> int:
    _at_least(args.max_degree, 0, "--max-degree")
    q = build_q(args.r1, args.x1)
    payload = {"schema": 1, "params": {"r1": q.r1, "x1": q.x1}}
    try:
        family = groebner_family(q)
        if args.sabotage_tail is not None:
            family = mutate_tail(family, args.sabotage_tail)
        if args.include_excluded_pair:
            family = include_excluded_pair(family)
    except InternalConsistency as exc:
        payload["pass"] = False
        payload["failure"] = {"stage": "construction", "detail": str(exc)}
        return _emit(payload, args.json, EXIT_VERIFICATION)
    stage = check_family(
        family, check_triangulation(family), max_degree=args.max_degree
    )
    payload.update(stage.report)
    payload["pass"] = stage.verdict
    if stage.failure:
        payload["failure"] = stage.failure
    return _conclude(payload, stage, args.json)


def cmd_triangulate(args) -> int:
    q = build_q(args.r1, args.x1)
    family = groebner_family(q)
    dropped = None
    if args.drop_facet is not None:
        dropped = drop_facet(family_facets(family), args.drop_facet)
    stage = check_triangulation(family, dropped)
    payload = {"schema": 1, "params": {"r1": q.r1, "x1": q.x1}}
    if stage.errors:
        payload.update({"pass": False, "failure": stage.errors[0]})
        return _emit(payload, args.json, EXIT_VERIFICATION)
    payload.update(stage.report)
    # only this command lists the facets; a dropped facet's list is the
    # triangulation it checked
    facets = family_facets(family) if dropped is None else dropped
    payload["facets"] = [list(f) for f in facets]
    payload["pass"] = stage.verdict
    code = _exit_code(stage.verdict)
    if args.format == "json":
        return _emit(payload, args.json, code)
    columns = lattice_points_formula(q).columns
    lines = ["OFF", f"{len(columns)} {len(facets)} 0"]
    lines += [" ".join(str(v) for v in col) for col in columns]
    lines += [
        f"{len(facet)} " + " ".join(str(p - 1) for p in facet)
        for facet in facets
    ]
    return _emit("\n".join(lines), args.json, code)


def cmd_sweep(args) -> int:
    _at_least(args.max_degree, 0, "--max-degree")
    _at_least(args.jobs, 1, "--jobs")
    try:
        grid = grid_points(_parse_range(args.r1), _parse_range(args.x1))
    except ValueError as exc:
        print(f"error: bad range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not grid:
        print("error: empty sweep grid", file=sys.stderr)
        return EXIT_USAGE
    for r1, x1 in grid:
        if r1 < 2 or x1 < 1:
            print(
                f"error: grid point ({r1}, {x1}) outside r1 >= 2, x1 >= 1",
                file=sys.stderr,
            )
            return EXIT_USAGE

    t0 = time.perf_counter()
    r1s, x1s = zip(*grid)
    degrees = [args.max_degree] * len(grid)
    # the pool starts every worker at once, so ask for no more than the
    # grid has points; only a parallel sweep pays for importing it
    workers = min(args.jobs, len(grid))
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    per_point = {}
    flags = []
    try:
        # The built-in map evaluates points on demand, and the pool's
        # pending points are cancelled on shutdown, so a break stops both.
        entries = (pool.map if pool else map)(evaluate_point, r1s, x1s, degrees)
        for (r1, x1), entry in zip(grid, entries):
            per_point[f"{r1},{x1}"] = entry
            point = point_flags(entry).values()
            flags.extend(point)
            if args.fail_fast and verdict(point) is not True:
                break
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    overall = verdict(flags)
    payload = {
        "schema": 1,
        "grid": [list(p) for p in grid],
        "perPoint": per_point,
        "overallPass": overall is True,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }
    return _emit(payload, args.json, _exit_code(overall))


def build_parser() -> _Parser:
    parser = _Parser(prog="wpsimplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_args(p):
        p.add_argument("r1", type=int, help="r1 >= 2")
        p.add_argument("x1", type=int, help="x1 >= 1")
        p.add_argument("--json", metavar="FILE", default=None,
                       help="write the output to FILE instead of stdout")

    p_points = sub.add_parser("points", help="lattice point list")
    add_point_args(p_points)
    p_points.add_argument("--verify", action="store_true",
                          help="cross-check against the brute-force enumerator")
    p_points.set_defaults(func=cmd_points)

    p_hstar = sub.add_parser("hstar", help="h*-vector")
    add_point_args(p_hstar)
    p_hstar.add_argument("--verify", action="store_true",
                         help="check sum, linear coefficient, and dilation counts")
    p_hstar.set_defaults(func=cmd_hstar)

    p_gb = sub.add_parser("gb", help="binomial rewrite family")
    gb_sub = p_gb.add_subparsers(dest="gb_command", required=True)
    p_dump = gb_sub.add_parser("dump", help="emit the generators")
    add_point_args(p_dump)
    p_dump.set_defaults(func=cmd_gb_dump)
    p_verify = gb_sub.add_parser("verify", help="run the verification stack")
    add_point_args(p_verify)
    p_verify.add_argument("--max-degree", type=int, default=3,
                          help="completeness smoke-test degree bound, >= 0 "
                               "(default 3)")
    p_verify.add_argument("--sabotage-tail", type=int, default=None,
                          metavar="K", help="mutate generator K's tail")
    p_verify.add_argument("--include-excluded-pair", action="store_true",
                          help="append the excluded pair's literal binomial")
    p_verify.set_defaults(func=cmd_gb_verify)

    p_tri = sub.add_parser("triangulate", help="facets, volumes, regularity")
    add_point_args(p_tri)
    p_tri.add_argument("--format", choices=("json", "off"), default="json",
                       help="json (default) or off, the plain-text OFF facet list")
    p_tri.add_argument("--drop-facet", type=int, default=None, metavar="K",
                       help="drop facet K before verification")
    p_tri.set_defaults(func=cmd_triangulate)

    p_sweep = sub.add_parser("sweep", help="full pipeline over a grid")
    for flag, bounds in (("--r1", DEFAULT_GRID_R1), ("--x1", DEFAULT_GRID_X1)):
        default = "{}..{}".format(*bounds)
        p_sweep.add_argument(flag, default=default, help=f"range, e.g. {default}")
    p_sweep.add_argument("--max-degree", type=int, default=3,
                         help="completeness smoke-test degree bound, >= 0 "
                              "(default 3)")
    p_sweep.add_argument("--fail-fast", action="store_true",
                         help="stop after the first point that fails or "
                              "skips a check")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes, >= 1 (default 1)")
    p_sweep.add_argument("--json", metavar="FILE", default=None,
                         help="write the output to FILE instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json is not None:
        try:
            _probe(args.json)
        except OSError as exc:
            return _cannot_write(args.json, exc)
    try:
        # a malformed budget is a usage error for every subcommand, also
        # one that never enumerates
        resolve_enum_budget()
        return args.func(args)
    except (ParameterOutOfRange, IndexOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, MemoryError) as exc:
        # a parameter past the index range or the memory of this machine
        print(f"error: parameters too large ({type(exc).__name__})", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except WpsimplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def entry() -> None:
    """The console script and ``python -m wpsimplex``.  The heap is
    frozen on the way out, ``--help``'s SystemExit included, so that
    interpreter teardown does not run full collections over every
    long-lived object; atexit handlers, stream flushes and finalizers
    still run."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()
