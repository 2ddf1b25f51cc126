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

A command line with options spelled in full, each value the next
argument, is read without argparse; --help, abbreviations, --opt=value
and usage errors load it, a few milliseconds more at start.
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    ParameterOutOfRange,
    WpsimplexError,
)
from .ehrhart import hstar
from .groebner import DEFAULT_MAX_DEGREE
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
    binomial_text, exponents, groebner_family, include_excluded_pair, mutate_tail,
    tagged_generators,
)
from .triangulation import drop_facet, family_facets

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


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


#: ``ensure_ascii``'s escapes for the ASCII characters that have one.
_ESCAPES = {
    **{chr(i): f"\\u{i:04x}" for i in (*range(0x20), 0x7F)},
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
    "\r": "\\r", "\t": "\\t",
}


def _escape(char: str) -> str:
    n = ord(char)
    if n < 0x80:
        return _ESCAPES.get(char, char)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _json_string(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(map(_escape, text)) + '"'


def _json(value, indent: str = "\n") -> str:
    """``value`` byte for byte as ``json.dumps(value, indent=2)`` writes
    it, so that no command imports ``json``; ``indent`` is the newline
    and indentation of the enclosing lines.  Takes dicts with str keys,
    lists, tuples, ints, True, False, None and str; anything else raises
    TypeError, a float included, since a payload holds exact integers
    only.  A list of plain ints is joined at once: the facet lists."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON key {key!r} is not a str")
            items.append(f"{_json_string(key)}: {_json(item, inner)}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(item) is int for item in value):
            items = map(str, value)
        else:
            items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"{type(value).__name__} {value!r} is not written as JSON")


def _flush_stdout(text: str | None = None, code: int = EXIT_PASS) -> int:
    """Print ``text``, if any, and flush stdout; return ``code``, or 1
    when stdout cannot be written.  A stdout that cannot be written,
    because its reader closed it or its device is full, is left pointed
    at the null device, so a later flush stays silent."""
    try:
        if text is not None:
            # print writes the newline on its own: on an unbuffered
            # stdout whose reader closes mid-payload, the payload's write
            # stops short without an error, and only the next one fails
            print(text, flush=True)
        elif sys.stdout is not None:  # None: closed when the process began
            sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _cannot_write("stdout", exc)
    return code


def _emit(payload: dict | str, path: str | None, code: int = EXIT_PASS) -> int:
    """Print the payload, as JSON unless it is already text, or write it
    to ``path``; return ``code``, or 1 when the file or stdout cannot be
    written."""
    text = payload if isinstance(payload, str) else _json(payload)
    if path is None:
        return _flush_stdout(text, code)
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
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return int(lo), int(hi)
        value = int(spec)
        return value, value
    except ValueError as exc:
        raise ParameterOutOfRange(f"bad range: {exc}") from None


def cmd_points(args) -> int:
    q = build_q(args.r1, args.x1)
    config = lattice_points_formula(q)
    columns = [{"label": label, "coords": list(col)}
               for label, col in zip(config.labels, config.columns)]
    payload = {"schema": 1, "r1": q.r1, "x1": q.x1, "d": q.d, "columns": columns}
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
        "hstar": list(hstar(q).coeffs),
    }
    if not args.verify:
        return _emit(payload, args.json)
    stage = check_hstar(q)
    payload["verified"] = stage.verdict
    payload["dilations_checked"] = stage.report["dilations_checked"]
    return _conclude(payload, stage, args.json)


def cmd_gb_dump(args) -> int:
    q = build_q(args.r1, args.x1)
    n = len(lattice_points_formula(q).columns)
    tagged = tuple(tagged_generators(q))
    payload = {
        "schema": 1,
        "params": {"r1": q.r1, "x1": q.x1},
        "num_generators": len(tagged),
        "generators": [
            {
                "tag": tag,
                "text": binomial_text(g, q.r1),
                "lead": exponents(g.lead, n),
                "tail": exponents(g.tail, n),
            }
            for tag, g in tagged
        ],
        "b_pairs": [
            {"pair": [v + 1 for v in g.lead], "companion": [v + 1 for v in g.tail]}
            for tag, g in tagged
            if tag == "eq1"
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
    family = groebner_family(q)
    if args.sabotage_tail is not None:
        family = mutate_tail(family, args.sabotage_tail)
    if args.include_excluded_pair:
        family = include_excluded_pair(family)
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
    grid = grid_points(_parse_range(args.r1), _parse_range(args.x1))
    if not grid:
        raise ParameterOutOfRange("empty sweep grid")
    for r1, x1 in grid:
        if r1 < 2 or x1 < 1:
            raise ParameterOutOfRange(
                f"grid point ({r1}, {x1}) outside r1 >= 2, x1 >= 1"
            )

    t0 = time.perf_counter()
    r1s, x1s = zip(*grid)
    degrees = [args.max_degree] * len(grid)
    # the pool starts every worker at once, so ask for no more than the
    # points and usable CPUs; only a parallel sweep pays for importing it
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(args.jobs, len(grid), cpus)
    pool, broken = None, ()
    if workers > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        pool, broken = ProcessPoolExecutor(max_workers=workers), BrokenExecutor
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
    except broken as exc:
        # a pool worker that died, say out of memory, ends as the serial
        # sweep's MemoryError does; without a pool, () catches nothing
        print(f"error: a sweep worker died ({type(exc).__name__})", file=sys.stderr)
        return EXIT_USAGE
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


class _Option(NamedTuple):
    """An option or int positional of a subcommand; a converter of None
    makes a store_true switch.  read() raises ValueError where argparse
    refuses the token or might read it as an option."""

    flag: str
    help: str
    convert: object = None
    default: object = False
    metavar: str | None = None
    choices: tuple[str, ...] | None = None

    def read(self, token: str):
        if token.startswith("-") or self.choices and token not in self.choices:
            raise ValueError(token)
        return self.convert(token)


_POINT = (_Option("r1", "r1 >= 2", int, None), _Option("x1", "x1 >= 1", int, None))
_JSON = _Option("--json", "write the output to FILE instead of stdout",
                str, None, "FILE")
_MAX_DEGREE = _Option(
    "--max-degree",
    f"completeness smoke-test degree bound, >= 0 (default {DEFAULT_MAX_DEGREE})",
    int, DEFAULT_MAX_DEGREE)
_R1, _X1 = ("{}..{}".format(*bounds) for bounds in (DEFAULT_GRID_R1, DEFAULT_GRID_X1))

#: The subcommands in --help order: (words, help, positionals, options).
#: A group has options None and reads its subcommand into <word>_command.
#: cmd_<words> handles a subcommand, looked up by name so a rebound one runs.
_COMMANDS = (
    (("points",), "lattice point list", _POINT, (_JSON, _Option(
        "--verify", "cross-check against the brute-force enumerator"))),
    (("hstar",), "h*-vector", _POINT, (_JSON, _Option(
        "--verify", "check sum, linear coefficient, and dilation counts"))),
    (("gb",), "binomial rewrite family", (), None),
    (("gb", "dump"), "emit the generators", _POINT, (_JSON,)),
    (("gb", "verify"), "run the verification stack", _POINT, (
        _JSON, _MAX_DEGREE,
        _Option("--sabotage-tail", "mutate generator K's tail", int, None, "K"),
        _Option("--include-excluded-pair",
                "append the excluded pair's literal binomial"))),
    (("triangulate",), "facets, volumes, regularity", _POINT, (
        _JSON,
        _Option("--format", "json (default) or off, the plain-text OFF facet list",
                str, "json", None, ("json", "off")),
        _Option("--drop-facet", "drop facet K before verification", int, None, "K"))),
    (("sweep",), "full pipeline over a grid", (), (
        _Option("--r1", f"range, e.g. {_R1}", str, _R1),
        _Option("--x1", f"range, e.g. {_X1}", str, _X1),
        _MAX_DEGREE,
        _Option("--fail-fast",
                "stop after the first point that fails or skips a check"),
        _Option("--jobs", "worker processes, >= 1 (default 1)", int, 1),
        _JSON)),
)


def _plain_args(argv) -> SimpleNamespace | None:
    """A well-formed line's arguments as argparse reads them, or None to
    leave the line to argparse: --help, abbreviations, --opt=value, --,
    any value or positional starting with "-", and every usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    for words, _, positionals, options in _COMMANDS:
        if options is not None and argv[:len(words)] == list(words):
            break
    else:
        return None
    by_flag = {option.flag: option for option in options}
    values = {option: option.default for option in options}
    given = []
    tokens = iter(argv[len(words):])
    try:
        for token in tokens:
            if not token.startswith("-"):
                given.append(token)
                continue
            option = by_flag[token]
            values[option] = (True if option.convert is None
                              else option.read(next(tokens, "-")))
        if len(given) != len(positionals):
            return None
        values.update((p, p.read(token)) for p, token in zip(positionals, given))
    except (KeyError, ValueError):
        return None
    names = dict(zip(("command", f"{words[0]}_command"), words))
    names.update((o.flag.lstrip("-").replace("-", "_"), v) for o, v in values.items())
    return SimpleNamespace(**names, func=globals()["cmd_" + "_".join(words)])


def build_parser():
    """The argparse reader of ``_COMMANDS``, for the lines that
    ``_plain_args`` leaves: help, abbreviations and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would exit(2); we reserve 2
            raise _UsageError(message)

    parser = _Parser(prog="wpsimplex", description=__doc__)
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, summary, positionals, options in _COMMANDS:
        p = groups[words[:-1]].add_parser(words[-1], help=summary)
        if options is None:
            groups[words] = p.add_subparsers(dest=f"{words[-1]}_command", required=True)
            continue
        for o in positionals + options:
            kind = {"action": "store_true"} if o.convert is None else {
                "type": o.convert, "choices": o.choices, "default": o.default,
                "metavar": o.metavar}
            p.add_argument(o.flag, help=o.help, **kind)
        p.set_defaults(func=globals()["cmd_" + "_".join(words)])
    return parser


def main(argv=None) -> int:
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
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
    """The console script and ``python -m wpsimplex``.  Runs ``main()``,
    or ``--help``, which exits inside it, flushes stdout and stderr, and
    ends the process with ``os._exit``: the interpreter's teardown, its
    atexit handlers, finalizers and collections, is skipped, since no
    command leaves work for it.  A stdout that cannot be flushed is one
    error line and exit 1, as in ``_emit``.  An uncaught exception
    still ends the normal way, with its traceback."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    code = _flush_stdout(code=code)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)
