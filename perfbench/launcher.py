"""Traced launcher: run one wpsimplex CLI command with every public
function of the package wrapped at its layer boundary.

Usage: python perfbench/launcher.py OUT_JSON T_SPAWN_NS -- CLI_ARGS...

Each public function defined in a ``wpsimplex.*`` module is replaced by a
wrapper in every ``wpsimplex.*`` module global that is bound to that
function object, so calls between modules of the package are caught too.
Spans (name, start, end, parent, raised) and counters stay in memory and
are written to OUT_JSON when the command returns.  T_SPAWN_NS is the
parent's ``time.monotonic_ns()`` just before it started this process,
which gives the start-up time up to the first wrapped call.

Nothing under ``src/`` is changed: the wrapping happens from outside,
after import, in this process only.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from inspect import signature
from math import comb

USAGE = "usage: python perfbench/launcher.py OUT_JSON T_SPAWN_NS -- CLI_ARGS..."

#: Counted, not given spans, so their time stays in the caller's self
#: time: hot helpers called thousands of times per operation, whose spans
#: would swamp the layers they serve, and the shared enumerator, whose
#: cost belongs to the point check or the dilation check that calls it.
COUNTED_ONLY = frozenset({
    "groebner.s_polynomial",
    "triangulation.facet_support_function",
    "toric.pi_image",
    "ehrhart.weight",
    "simplex.enumerate_dilation_points",
})


def _regular_tests(tri, certificate, columns):
    return len(tri.facets) * (len(columns) - len(columns[0]))


def _std_candidates(family, degree, budget=None):
    return comb(family.nvars + degree - 1, degree)


#: Work counters read from arguments and return values at the boundary:
#: span name -> (counter name, function of (bound arguments, result)).
COUNTERS = {
    "simplex.lattice_points_bruteforce": [
        ("simplex.enum_points", lambda a, r: len(r)),
    ],
    "ehrhart.ehrhart_bruteforce": [
        ("ehrhart.dilation_points", lambda a, r: r),
    ],
    "toric.groebner_family": [
        ("toric.generators", lambda a, r: len(r.generators)),
    ],
    "groebner.buchberger_verify": [
        ("groebner.spairs_total", lambda a, r: r.pairs_total),
    ],
    "groebner.standard_monomials": [
        ("groebner.std_monomials", lambda a, r: len(r)),
        ("groebner.std_candidates", lambda a, r: _std_candidates(*a)),
    ],
    "triangulation.initial_complex": [
        ("triangulation.facets", lambda a, r: len(r)),
    ],
    "triangulation.regularity_check": [
        ("triangulation.regular_tests", lambda a, r: _regular_tests(*a)),
    ],
}

#: Counters that keep the largest value seen instead of a sum.
MAX_COUNTERS = {
    "triangulation.make_weight_certificate": [
        ("triangulation.weight_bits",
         lambda a, r: max(w.bit_length() for w in r.weights)),
    ],
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, key: str, value: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def keep_max(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name: str, fn):
        if name in COUNTED_ONLY:
            calls = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(calls)
                return fn(*args, **kwargs)

            return counted

        hooks = COUNTERS.get(name, [])
        max_hooks = MAX_COUNTERS.get(name, [])
        sig = signature(fn) if hooks or max_hooks else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, time.monotonic_ns(), 0, parent, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = 1
                raise
            finally:
                span[2] = time.monotonic_ns()
                stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                values = tuple(bound.arguments.values())
                for key, read in hooks:
                    self.count(key, read(values, result))
                for key, read in max_hooks:
                    self.keep_max(key, read(values, result))
            return result

        return spanned

    def install(self, package) -> None:
        """Wrap every public function of the package's modules and rebind
        each module global that refers to one of them."""
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("_")
        ]
        modules.append(package)
        replaced = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    replaced[id(value)] = self.wrap(f"{short}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    def dump(self, path: str, t_spawn: int) -> None:
        record = {
            "t_spawn": t_spawn,
            "t_exit": time.monotonic_ns(),
            "spans": self.spans,
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(USAGE, file=sys.stderr)
        return 1
    out_path, t_spawn = argv[0], int(argv[1])
    import wpsimplex
    import wpsimplex.cli

    tracer = Tracer()
    tracer.install(wpsimplex)
    try:
        return wpsimplex.cli.main(argv[3:])
    finally:
        tracer.dump(out_path, t_spawn)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
