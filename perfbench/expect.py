"""Output checker for the benchmark's operations.

Every operation's exit code and JSON payload are compared with values
pinned in ``expected.json`` (recorded from the CLI as first benchmarked).
The lex initial complex is unique, so any correct implementation
reproduces the pinned facet digest.  A mismatch of any kind is a failed
operation; it is never timed as a success.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

#: Checks the sweep may report as skipped when the enumeration budget runs
#: out; each grid point attempts all of them.
OPPORTUNISTIC = ("latticePoints", "dilation_t1", "dilation_t2", "injectivity")

#: Certificate fields that must be present and true, per command.
GB_CHECKS = ("pass",)
TRI_CHECKS = ("pass", "all_unimodular", "regular_certified")


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    checks: int = 0
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def facet_digest(facets) -> str:
    canonical = sorted(sorted(f) for f in facets)
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _payload(stdout: str, verdict: Verdict) -> dict | None:
    try:
        payload = json.loads(stdout)
    except ValueError:
        verdict.problems.append("stdout is not one JSON document")
        return None
    if not isinstance(payload, dict):
        verdict.problems.append("payload is not a JSON object")
        return None
    return payload


def _require_true(payload: dict, keys, verdict: Verdict) -> None:
    for key in keys:
        if payload.get(key) is not True:
            verdict.problems.append(f"{key} is {payload.get(key)!r}, not true")


def check_help(code: int, stdout: str) -> Verdict:
    verdict = Verdict(checks=1)
    if code != 0:
        verdict.problems.append(f"exit {code}, expected 0")
    if not stdout.startswith("usage:"):
        verdict.problems.append("help text does not start with 'usage:'")
    return verdict


def check_sabotage(code: int, stdout: str) -> Verdict:
    """A sabotaged certificate must be rejected: exit 2, pass false."""
    verdict = Verdict(checks=1)
    if code != 2:
        verdict.problems.append(f"sabotage exited {code}, expected 2")
    payload = _payload(stdout, verdict)
    if payload is not None and payload.get("pass") is not False:
        verdict.problems.append("sabotaged payload does not report pass=false")
    return verdict


def check_sweep(code: int, stdout: str, expected: dict) -> Verdict:
    grid = expected["grid"]
    verdict = Verdict(checks=len(OPPORTUNISTIC) * len(grid))
    if code != 0:
        verdict.problems.append(f"exit {code}, expected 0")
    payload = _payload(stdout, verdict)
    if payload is None:
        return verdict
    _require_true(payload, ("overallPass",), verdict)
    if payload.get("grid") != grid:
        verdict.problems.append("sweep grid differs from the pinned grid")
    per_point = payload.get("perPoint", {})
    for r1, x1 in grid:
        key = f"{r1},{x1}"
        point = per_point.get(key)
        if point is None:
            verdict.problems.append(f"point {key} missing")
            continue
        _require_true(point, expected["flags"], verdict)
        for name, value in point.items():
            if isinstance(value, bool) and value is not True:
                verdict.problems.append(f"point {key}: {name} is false")
        if point.get("errors"):
            verdict.problems.append(f"point {key}: errors {point['errors']}")
        verdict.skipped += len(point.get("skipped", ()))
    return verdict


def _point_payload(code: int, stdout: str, r1: int, x1: int,
                   verdict: Verdict) -> dict | None:
    if code != 0:
        verdict.problems.append(f"exit {code}, expected 0")
    payload = _payload(stdout, verdict)
    if payload is not None and payload.get("params") != {"r1": r1, "x1": x1}:
        verdict.problems.append(f"params {payload.get('params')!r}")
    return payload


def check_gb_verify(code: int, stdout: str, r1: int, x1: int,
                    expected: dict) -> Verdict:
    verdict = Verdict(checks=len(GB_CHECKS))
    payload = _point_payload(code, stdout, r1, x1, verdict)
    if payload is None:
        return verdict
    _require_true(payload, GB_CHECKS, verdict)
    if payload.get("num_generators") != expected["num_generators"]:
        verdict.problems.append(
            f"num_generators {payload.get('num_generators')!r}, "
            f"expected {expected['num_generators']}"
        )
    if payload.get("squarefree") != expected["squarefree"]:
        verdict.problems.append(
            f"squarefree {payload.get('squarefree')!r}, "
            f"expected {expected['squarefree']}"
        )
    if payload.get("spairs_reduced_to_zero") != payload.get("spairs_total"):
        verdict.problems.append("not every S-pair reduced to zero")
    return verdict


def check_triangulate(code: int, stdout: str, r1: int, x1: int,
                      expected: dict) -> Verdict:
    verdict = Verdict(checks=len(TRI_CHECKS))
    payload = _point_payload(code, stdout, r1, x1, verdict)
    if payload is None:
        return verdict
    _require_true(payload, TRI_CHECKS, verdict)
    volume = r1 * (r1 * x1 + 1)
    counts = (payload.get("num_facets"), payload.get("volume_sum"),
              expected["num_facets"])
    if any(c != volume for c in counts):
        verdict.problems.append(
            f"num_facets, volume_sum, pinned = {counts}, expected {volume}"
        )
    try:
        digest = facet_digest(payload.get("facets"))
    except TypeError:
        digest = None
    if digest != expected["facets_sha256"]:
        verdict.problems.append("facet list differs from the pinned digest")
    return verdict
