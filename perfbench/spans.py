"""Per-layer numbers from the span records the traced launcher writes.

A span is ``[name, start_ns, end_ns, parent_index, raised]`` with names
``<module>.<function>``; parent -1 marks a root.  A span's self time is
its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

from statistics import median

#: Modules whose spans are counted in ``<layer>.errors``.
LAYERS = ("cli", "pipeline", "simplex", "ehrhart", "toric", "groebner",
          "triangulation")

#: Metrics that keep the largest value over operations instead of a sum.
MAX_METRICS = frozenset({"triangulation.weight_bits", "proc.rss_mb"})


def self_times(spans: list) -> list[int]:
    """Self time of every span, in the order given."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        clipped = sorted(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(index, ())
        )
        covered = 0
        run_lo = run_hi = None
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        result.append(end - start - covered)
    return result


def operation_metrics(record: dict, scale: float = 1.0) -> dict[str, float]:
    """Layer metrics of one traced operation: ``<span>.s`` (self seconds),
    ``<span>.calls``, ``<layer>.errors``, the recorded counters, and
    ``cli.startup_s`` / ``cli.self_s``.  Span times are multiplied by
    ``scale``, which converts the operation's wall clock to the unit of
    the end-to-end times."""
    spans = record["spans"]
    ns = scale / 1e9
    out: dict[str, float] = {f"{layer}.errors": 0 for layer in LAYERS}
    cli_self = 0
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        out[name + ".s"] = out.get(name + ".s", 0) + own * ns
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        layer = name.partition(".")[0]
        if span[4]:
            out[f"{layer}.errors"] = out.get(f"{layer}.errors", 0) + 1
        if layer == "cli":
            cli_self += own
    out.update(record["counters"])
    if spans:
        out["cli.startup_s"] = (min(s[1] for s in spans) - record["t_spawn"]) * ns
    out["cli.self_s"] = cli_self * ns
    out["pipeline.evaluate_point.self_s"] = out.get("pipeline.evaluate_point.s", 0)
    return out


def combine(samples_by_op: dict[int, list[dict[str, float]]]) -> dict[str, float]:
    """One value per metric for the whole input set: the median over an
    operation's repeats, then the sum over operations (the largest value
    for MAX_METRICS).  A metric an operation never reports counts as 0;
    an operation without samples (all its traced runs failed) is left out."""
    names = {k for samples in samples_by_op.values() for s in samples for k in s}
    total: dict[str, float] = {}
    for name in sorted(names):
        per_op = [
            median(s.get(name, 0) for s in samples)
            for samples in samples_by_op.values() if samples
        ]
        total[name] = max(per_op) if name in MAX_METRICS else sum(per_op)
    return total
