"""Output oracle and digests for one benchmark operation.

The checks read only what the CLI printed and wrote, so they hold for any
implementation of the program:

* the exit code matches the expected one;
* every exported joint law has mass plus pruned mass equal to 1 within 1e-9;
* a sample run's integral-identity mean lies within 5 stderr of 1, its dump
  has one line per shot and its empirical law sums to 1;
* verify, entropy and validate reports agree with the exit code, and
  validate's unitarity checks pass.

The digest covers stdout without the wall-clock ``elapsed:`` line and every
file the operation wrote, so equal documents and seeds must give equal
digests in any process.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from workloads import Op

MASS_TOL = 1e-9
IDENTITY_STDERRS = 5.0

_PRUNED = re.compile(r"^(forward|backward): .* pruned (\S+)$", re.M)
_IDENTITY = re.compile(r"= (\S+) \+- (\S+) \(expected 1\)")


def digest(op: Op, stdout: str, workdir: Path) -> str:
    h = hashlib.sha256()
    kept = [line for line in stdout.splitlines() if not line.startswith("elapsed:")]
    h.update("\n".join(kept).encode())
    for name in op.outputs:
        path = workdir / name
        h.update(f"\0{name}\0".encode())
        if path.is_file():
            h.update(path.read_bytes())
    return h.hexdigest()


def _csv_mass(path: Path) -> float:
    lines = path.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("probability")
    return math.fsum(float(line.split(",")[column]) for line in lines[1:] if line)


def _json_law(path: Path) -> tuple[float, float]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return math.fsum(e["probability"] for e in doc["entries"]), doc["pruned_mass"]


def _check_exact(op: Op, stdout: str, workdir: Path) -> str | None:
    pruned_printed = {m.group(1): float(m.group(2)) for m in _PRUNED.finditer(stdout)}
    for direction, name in zip(("forward", "backward"), op.outputs):
        path = workdir / name
        if name.endswith(".json"):
            mass, pruned = _json_law(path)
        else:
            mass, pruned = _csv_mass(path), pruned_printed.get(direction, math.nan)
        if not abs(mass + pruned - 1.0) <= MASS_TOL:
            return f"{direction} mass {mass!r} + pruned {pruned!r} is not 1"
    return None


def _check_sample(op: Op, stdout: str, workdir: Path) -> str | None:
    match = _IDENTITY.search(stdout)
    if match is None:
        return "no integral-identity line on stdout"
    mean, stderr = float(match.group(1)), float(match.group(2))
    if not (stderr > 0.0 and abs(mean - 1.0) <= IDENTITY_STDERRS * stderr):
        return f"integral identity mean {mean} +- {stderr} is not 1"
    if op.dump:
        dump, law = (workdir / name for name in op.outputs)
        with dump.open("rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != op.shots:
            return f"dump has {lines} lines for {op.shots} shots"
        mass = _csv_mass(law)
        if not abs(mass - 1.0) <= MASS_TOL:
            return f"empirical mass {mass!r} is not 1"
    return None


def _check_report(op: Op, stdout: str, workdir: Path) -> str | None:
    report = json.loads((workdir / op.outputs[0]).read_text(encoding="utf-8"))
    if report["passed"] != (op.expected_exit == 0):
        return f"report says passed={report['passed']}"
    if op.command == "validate":
        bad = [c["name"] for c in report["checks"] if c["name"].startswith("unitarity") and not c["passed"]]
        if bad:
            return f"unitarity fails: {bad[0]}"
    return None


_CHECKS = {
    "exact": _check_exact,
    "sample": _check_sample,
    "verify": _check_report,
    "entropy": _check_report,
    "validate": _check_report,
}


def check(op: Op, code: int, stdout: str, workdir: Path) -> str | None:
    """Return why the operation's output is wrong, or None when it is right."""
    if code != op.expected_exit:
        return f"exit {code}, expected {op.expected_exit}"
    try:
        return _CHECKS[op.command](op, stdout, workdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
