"""heatchain benchmark: closed-loop CLI operations, one client, one thread.

    python3 perfbench/run.py --workload resonant-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each operation calls ``heatchain.cli.dispatch`` in this process on its own
generated model document, with stdout captured, after every cache in the
package has been cleared.  It therefore pays what a one-shot ``heatchain``
process pays, except interpreter and numpy start-up, which ``setup_s``
measures in fresh interpreters.  Rounds of the workload's fixed operation
mix repeat until ``--seconds`` is spent; every output goes through the
oracle, and a wrong output counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
listed in BENCHMARK.json; with ``--trace 1`` each operation is dispatched
untraced and then replayed span by span (see tracing.py), and the last line
carries the per-layer metrics.  The line before it is a JSON ``detail``
object: environment, raw seconds per subcommand, digests and defect probes.
A copy of both, and of the spans of a traced run, is written to
``perfbench/out/``.  ``--workload all`` runs every workload both ways in
child processes and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_SETUPS = 5
FIRST_ROUND_UNITS = ("count", "B", "prob")  # exact per-round counts: taken from round 0
REFERENCE_CDF = [0.1, 0.3, 0.6, 1.0]


def _load_program():
    """Import heatchain from this checkout's sources, and nowhere else."""
    if not (SRC / "heatchain" / "__init__.py").is_file():
        sys.exit(f"error: no heatchain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import heatchain

    if Path(heatchain.__file__).resolve().parent != (SRC / "heatchain").resolve():
        sys.exit(f"error: heatchain imported from {heatchain.__file__}, not {SRC}")
    return heatchain


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _clear_caches(package) -> None:
    """Empty every functools cache in the package, so no operation is served warm."""
    for name, module in list(sys.modules.items()):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "note": "one client, one process, one thread; sample runs with --workers 1 "
        "because --workers only interleaves streams on one thread today, so no "
        "parallel scaling is reported",
    }


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing heatchain.cli (Python, numpy, package)."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import heatchain.cli"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=60,
    )
    return time.perf_counter() - started


def reference_seconds() -> float:
    """Time a fixed stdlib-and-numpy loop: the host's current speed for this kind of work.

    On a shared virtual machine, other tenants can change how fast Python
    runs by up to half, in bursts of seconds and in drifts of minutes, and
    wall and CPU time move alike.  The loop is timed before every operation
    and after the last; each operation is divided by the mean of the samples
    on either side of it (``host_speed``), which cancels the drift.  Raw seconds stay in the
    detail line.  The loop does what the program's hot loops do: draws
    scalar uniforms from a numpy generator, bisects a CDF, builds
    Fraction-keyed tuples, hashes them into a dict and takes float
    logarithms.
    """
    import numpy

    rng = numpy.random.Generator(numpy.random.Philox(0))  # the same draws every call
    started = time.perf_counter()
    acc: dict = {}
    for i in range(4000):
        key = (Fraction(i % 7, 3), Fraction(i % 5, 3), bisect.bisect_right(REFERENCE_CDF, rng.random()))
        acc[key] = acc.get(key, 0.0) + math.log(i + 1.0)
    return time.perf_counter() - started


def host_speed(references: list[float], i: int) -> float:
    """Mean of the reference times taken just before and just after operation ``i``."""
    return (references[i] + references[i + 1]) / 2


def dispatch(cli, op, workdir: Path) -> tuple[int, float, str]:
    """Run one operation in-process; returns exit code, seconds and stdout."""
    workdir.joinpath(op.model_file).write_text(json.dumps(op.document), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(op.argv)
    except Exception:  # the run keeps going; the oracle counts the failure
        traceback.print_exc(file=err)
        code = -1
    seconds = time.perf_counter() - started
    return code, seconds, out.getvalue() + err.getvalue()


def _cleanup(op, workdir: Path) -> None:
    for name in (op.model_file, *op.outputs):
        workdir.joinpath(name).unlink(missing_ok=True)


def _tail(values: list[float]) -> dict:
    """Median plus the highest of p75/p90/p99 with at least ten samples beyond it."""
    summary = {"n": len(values), "median_s": statistics.median(values)}
    ordered = sorted(values)
    for q in (99, 90, 75):
        cut = int(len(values) * q / 100)
        if len(values) - cut >= 10:
            summary[f"p{q}_s"] = ordered[cut]
            break
    return summary


@dataclass
class RunRecord:
    """Everything one run observed, in run order."""

    timed: list = field(default_factory=list)  # (operation, seconds)
    references: list[float] = field(default_factory=list)  # before each operation, and after the last
    setups: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    layer_rounds: list[dict] = field(default_factory=list)  # traced runs: per-round layer metrics
    rounds: int = 0
    peak_rss_mb: float = 0.0


def _run_probes(heatchain, cli, workload, workdir: Path) -> dict:
    probes = {}
    for op in workload.probes():
        _clear_caches(heatchain)
        code, _, _ = dispatch(cli, op, workdir)
        probes[op.op_id] = {"exit": code, "expected": op.expected_exit}
        _cleanup(op, workdir)
    return probes


def _traced_replay(heatchain, tracer, op, workdir: Path, counts: dict) -> str | None:
    """Replay ``op`` with spans; its exports must match the dispatch byte for byte."""
    import tracing

    exports = op.command in ("exact", "sample")
    before = [workdir.joinpath(n).read_bytes() for n in op.outputs] if exports else None
    _clear_caches(heatchain)
    gc.collect()
    tracing.replay(tracer, op, workdir, counts)
    if exports and before != [workdir.joinpath(n).read_bytes() for n in op.outputs]:
        return "traced replay wrote different bytes than the CLI"
    return None


def _run_rounds(args, heatchain, workload, workdir: Path, tracer) -> RunRecord:
    """Repeat the workload's round until ``args.seconds`` is spent (at least once)."""
    from heatchain import cli
    from heatchain.chain import realize_model

    import oracle
    import tracing

    rec = RunRecord()
    round_walls: list[float] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer is None:
            rec.setups.append(setup_seconds())  # spread over the run, like the operations
        first_span = len(tracer.spans) if tracer else 0
        counts: dict = defaultdict(int)
        dispatch_s = 0.0
        for op in workload.round_ops(args.seed, rec.rounds):
            _clear_caches(heatchain)
            gc.collect()
            rec.references.append(reference_seconds())
            misses = realize_model.cache_info().misses
            code, seconds, stdout = dispatch(cli, op, workdir)
            counts["chain.realize_calls"] += realize_model.cache_info().misses - misses
            dispatch_s += seconds
            rec.timed.append((op, seconds))
            problem = oracle.check(op, code, stdout, workdir)
            rec.digests[op.op_id] = oracle.digest(op, stdout, workdir)
            if problem is None and tracer is not None:
                problem = _traced_replay(heatchain, tracer, op, workdir, counts)
            if problem is not None:
                rec.failures.append(f"{op.op_id} ({op.slot}): {problem}")
            _cleanup(op, workdir)
        if tracer is not None:
            own = tracing.self_times(tracer.spans)[first_span:]
            rec.layer_rounds.append(
                tracing.round_metrics(tracer.spans[first_span:], own, counts, dispatch_s)
            )
        if rec.rounds == 0:
            # Later rounds only add allocator fragmentation, which varies run to run.
            rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rec.rounds += 1
        round_walls.append(time.perf_counter() - round_start)
        if time.perf_counter() - started + statistics.median(round_walls) / 2 >= args.seconds:
            break
    rec.references.append(reference_seconds())
    while tracer is None and len(rec.setups) < MIN_SETUPS:
        rec.setups.append(setup_seconds())
    return rec


def _detail(workload, args, rec: RunRecord, probes: dict) -> dict:
    kind_times: dict[str, list[float]] = defaultdict(list)
    slot_times: dict[str, list[float]] = defaultdict(list)
    for op, seconds in rec.timed:
        kind_times[op.kind].append(seconds)
        slot_times[op.slot].append(seconds)
    attempted, failed = len(rec.timed), len(rec.failures)
    probes_failing = sum(p["exit"] != p["expected"] for p in probes.values())
    first_round = [f"{op_id}:{d}\n" for op_id, d in rec.digests.items() if op_id.startswith("r0-")]
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": environment(args.seed),
        "rounds": rec.rounds,
        "wall_s": sum(seconds for _, seconds in rec.timed),
        "fail_ratio": failed / attempted,
        "defect_probes": probes,
        "fail_ratio_with_probes": (failed + probes_failing) / (attempted + len(probes)),
        "failures": rec.failures[:20],
        "subcommands": {kind: _tail(v) for kind, v in sorted(kind_times.items())},
        "slots": {slot: _tail(v) for slot, v in slot_times.items()},
        # One pass over the operation mix in raw seconds: each slot's median, summed.
        "round_s": sum(statistics.median(v) for v in slot_times.values()),
        "reference_ms": 1000.0 * statistics.median(rec.references),
        "digest_round0": hashlib.sha256("".join(first_round).encode()).hexdigest(),
        "digests": rec.digests,
    }
    shots = sum(op.shots for op, _ in rec.timed)
    if shots:
        detail["shots_per_s"] = shots / (sum(kind_times["sample"]) + sum(kind_times["sample_dump"]))
    return detail


def _end_to_end(rec: RunRecord) -> dict:
    slot_refs: dict[str, list[float]] = defaultdict(list)
    for i, (op, seconds) in enumerate(rec.timed):
        slot_refs[op.slot].append(seconds / host_speed(rec.references, i))
    return {
        # One pass over the operation mix in reference units: each slot's median, summed.
        "round_ref": sum(statistics.median(v) for v in slot_refs.values()),
        "peak_rss_mb": rec.peak_rss_mb,
        "setup_s": statistics.median(rec.setups),
    }


def _per_layer(spec: dict, rec: RunRecord) -> dict:
    metrics = {}
    for m in spec["per_layer"]:
        values = [r.get(m["name"], 0.0) for r in rec.layer_rounds]
        metrics[m["name"]] = values[0] if m["unit"] in FIRST_ROUND_UNITS else statistics.median(values)
    return metrics


def run_workload(args, heatchain, workload) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail)."""
    from heatchain import cli

    import tracing

    spec = _spec()
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)  # documents are named relative to it, so reports are too
        try:
            probes = _run_probes(heatchain, cli, workload, workdir)
            rec = _run_rounds(args, heatchain, workload, workdir, tracer)
        finally:
            os.chdir(ROOT)

    detail = _detail(workload, args, rec, probes)
    failed = len(rec.failures)
    if tracer is None:
        metrics, wanted = _end_to_end(rec), spec["end_to_end"]
    else:
        detail["trace_problems"] = tracer.problems
        failed += len(tracer.problems)
        metrics, wanted = _per_layer(spec, rec), spec["per_layer"]
        _write_out(f"spans-{workload.name}-seed{args.seed}.json", tracer.spans)
    result = {
        "correct": failed == 0,
        "attempted": len(rec.timed),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    _write_out(
        f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json",
        {"detail": detail, "result": result},
    )
    return result, detail


def _write_out(name: str, payload) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / name).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process."""
    ok = True
    for name in (w["name"] for w in _spec()["workloads"]):
        lines = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            detail_line, result_line = done.stdout.strip().splitlines()[-2:]
            lines[trace] = (json.loads(detail_line)["detail"], json.loads(result_line))
        if len(lines) < 2:
            continue
        (detail, result), (traced_detail, traced) = lines[0], lines[1]
        # The traced run dispatches the same operations untraced, in another process.
        same = detail["digest_round0"] == traced_detail["digest_round0"]
        correct = result["correct"] and traced["correct"]
        ok = ok and correct and same
        print(f"== {name}: correct={correct} attempted={result['attempted']} "
              f"failed={result['failed']} rounds={detail['rounds']} "
              f"byte-identical across processes={same}")
        for metric, v in {**result["metrics"], **traced["metrics"]}.items():
            print(f"  {metric:40s} {v['value']:>16.6g} {v['unit']}")
        for kind, s in detail["subcommands"].items():
            print(f"  {kind + '_s':40s} {s['median_s']:>16.6g} s (median of {s['n']})")
        if "shots_per_s" in detail:
            print(f"  {'shots_per_s':40s} {detail['shots_per_s']:>16.6g} 1/s")
        print(f"  {'round_s':40s} {detail['round_s']:>16.6g} s")
        print(f"  {'wall_s':40s} {detail['wall_s']:>16.6g} s")
        print(f"  {'fail_ratio':40s} {detail['fail_ratio']:>16.6g} ratio")
        for probe, outcome in detail["defect_probes"].items():
            print(f"  defect probe {probe}: exit {outcome['exit']} (expected {outcome['expected']})")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    heatchain = _load_program()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    result, detail = run_workload(args, heatchain, WORKLOADS[args.workload])
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
