"""Traced replay of benchmark operations, span by span.

A traced operation repeats what the CLI handler does as the same sequence
of public calls, with a span around each call.  Spans are recorded from
the benchmark only; the program itself is not instrumented.  A few spans
are marked ``extra``: work the handler does not do, added to time a layer
on its own (a cold ``realize_model`` after ``cache_clear()``, its per-stage
parts, ``iter_augmented_paths`` consumed alone, and the pieces of
``average_entropy_production``).  Extra spans are left out when the traced
time is compared with the untraced dispatch of the same operation.

Work counts come from integer dynamic programming over the zero patterns of
the realized propagators and jump tensors, in this file, and the augmented
count is cross-checked against the items ``iter_augmented_paths`` yields.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from heatchain import cli
from heatchain.chain import assert_detailed_balance, realize_model
from heatchain.heatstats import (
    compare_distributions,
    distribution_to_csv,
    distribution_to_json,
    exact_backward_joint,
    exact_forward_joint,
    exact_forward_joint_via_ancilla_paths,
    iter_augmented_paths,
    single_collision_distribution,
    verify_joint_ft,
    verify_partial_decomposition,
    verify_product_relation,
)
from heatchain.sampler import (
    SamplerConfig,
    ancilla_post_state,
    average_entropy_production,
    iter_trajectories,
    summarize_samples,
)
from heatchain.unitaries import (
    build_energy_shells,
    realize_unitary,
    transition_tensor,
    validate_energy_preservation,
)

from workloads import Op

# Spans whose summed duration is reported as the per-layer metric "<name>_s".
TIMED_SPANS = (
    "cli.load_model",
    "cli.export_write",
    "cli.dump_write",
    "chain.realize_model",
    "unitaries.build_energy_shells",
    "unitaries.realize_unitary",
    "unitaries.transition_tensor",
    "heatstats.forward",
    "heatstats.backward",
    "heatstats.augmented",
    "heatstats.via_ancilla",
    "heatstats.singles",
    "heatstats.compare",
    "heatstats.verify_joint",
    "heatstats.verify_product",
    "heatstats.verify_partial",
    "heatstats.to_csv",
    "heatstats.to_json",
    "sampler.first_shot",
    "sampler.summarize",
    "sampler.entropy",
)
LAYERS = ("cli", "chain", "unitaries", "heatstats", "sampler", "bench")


class Tracer:
    """Spans kept in memory: name, start, end, parent index and operation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: str | None = None
        self.problems: list[str] = []  # failed cross-checks, with their operation

    @contextmanager
    def span(self, name: str, extra: bool = False):
        record = {
            "name": name,
            "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "extra": extra,
            "start": None,
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its children cover.

    Children run one after another on one thread, so their durations do
    not overlap and their sum is the covered time.
    """
    own = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


# ---------------------------------------------------------------------------
# Independent work counts


def _nonzero_starts(realized) -> list[int]:
    return [1 if p > 0.0 else 0 for p in realized.system_state.populations]


def system_path_count(realized, backward: bool = False) -> int:
    """Number of system paths with no zero factor, the paths enumeration visits."""
    counts = _nonzero_starts(realized)
    stages = reversed(realized.stages) if backward else realized.stages
    for stage in stages:
        m = stage.propagator.matrix
        d = len(counts)
        counts = [sum(counts[a] for a in range(d) if m[b, a] != 0.0) for b in range(d)]
    return sum(counts)


def augmented_path_count(realized) -> int:
    """Number of (system level, ancilla in, ancilla out) paths with no zero factor."""
    counts = _nonzero_starts(realized)
    for stage in realized.stages:
        q = stage.ancilla_state.populations
        nxt = [0] * len(counts)
        for shell, probs in zip(stage.tensor.shells, stage.tensor.probs):
            for j, (a_in, n_in) in enumerate(shell.members):
                if q[n_in] == 0.0 or not counts[a_in]:
                    continue
                for i, (a_out, _) in enumerate(shell.members):
                    if probs[i, j] != 0.0:
                        nxt[a_out] += counts[a_in]
        counts = nxt
    return sum(counts)


# ---------------------------------------------------------------------------
# Replays, one per subcommand


def _write(t: Tracer, path: Path, text: str) -> None:
    with t.span("cli.export_write"):
        path.write_text(text, encoding="utf-8", newline="\n")


def _report(t: Tracer, op: Op, workdir: Path, report: dict) -> None:
    _write(t, workdir / op.outputs[0], json.dumps(report, indent=2) + "\n")


def _count_augmented(t: Tracer, config, cap: int, realized, counts: dict) -> None:
    with t.span("heatstats.augmented", extra=True):
        yielded = sum(1 for _ in iter_augmented_paths(config, cap))
    expected = augmented_path_count(realized)
    counts["heatstats.augmented_paths"] += expected
    if yielded != expected:
        t.problems.append(f"{t.op_id}: iter_augmented_paths yielded {yielded} of {expected} paths")


def _forward(t: Tracer, config, cap: int, realized, counts: dict, extra: bool = False):
    with t.span("heatstats.forward", extra=extra):
        forward = exact_forward_joint(config, cap)
    counts["heatstats.system_paths"] += system_path_count(realized)
    counts["heatstats.keys"] += len(forward)
    counts["heatstats.pruned_mass"] += forward.pruned_mass
    if abs(forward.total_mass() + forward.pruned_mass - 1.0) > 1e-9:
        t.problems.append(f"{t.op_id}: forward mass plus pruned mass is not 1")
    return forward


def _backward(t: Tracer, config, cap: int, realized, counts: dict):
    with t.span("heatstats.backward"):
        backward = exact_backward_joint(config, cap)
    counts["heatstats.system_paths"] += system_path_count(realized, backward=True)
    return backward


def _replay_exact(t, op, workdir, config, settings, realized, counts):
    cap = settings.enumeration_cap
    dists = (
        _forward(t, config, cap, realized, counts),
        _backward(t, config, cap, realized, counts),
    )
    as_json = op.outputs[0].endswith(".json")
    for dist, name in zip(dists, op.outputs):
        if as_json:
            with t.span("heatstats.to_json"):
                text = json.dumps(distribution_to_json(dist), indent=2) + "\n"
        else:
            with t.span("heatstats.to_csv"):
                text = distribution_to_csv(dist, include_exact=True)
            counts["heatstats.csv_bytes"] += len(text.encode())
        _write(t, workdir / name, text)


def _replay_verify(t, op, workdir, config, settings, realized, counts):
    cap, tol = settings.enumeration_cap, settings.tolerance
    forward = _forward(t, config, cap, realized, counts)
    backward = _backward(t, config, cap, realized, counts)
    with t.span("heatstats.via_ancilla"):
        via = exact_forward_joint_via_ancilla_paths(config, cap)
    with t.span("heatstats.singles"):
        singles = [
            single_collision_distribution(config, i, cap)
            for i in range(1, config.n_collisions + 1)
        ]
    with t.span("heatstats.compare"):
        gap = compare_distributions(forward, via)
    checks = {}
    with t.span("heatstats.verify_joint"):
        checks["joint"] = verify_joint_ft(forward, backward, config, tol)
    with t.span("heatstats.verify_product"):
        checks["product"] = verify_product_relation(forward, backward, singles, tol)
    if config.n_collisions >= 2:
        with t.span("heatstats.verify_partial"):
            checks["partial"] = verify_partial_decomposition(config, tol, cap)
    for name, report in checks.items():
        counts[f"heatstats.verify_{name}_keys"] += report.checked_pairs
        counts["heatstats.support_mismatches"] += len(report.support_mismatches)
    _report(t, op, workdir, {
        "command": "verify",
        "route_gap": gap,
        "checks": {name: r.max_log_residual for name, r in checks.items()},
        "passed": all(r.passed for r in checks.values()),
    })
    _count_augmented(t, config, cap, realized, counts)


def _replay_sample(t, op, workdir, config, settings, realized, counts):
    records_iter = iter_trajectories(config, SamplerConfig(shots=op.shots, master_seed=op.seed))
    with t.span("sampler.first_shot"):
        records = [next(records_iter)]
    with t.span("sampler.shots"):
        records.extend(records_iter)
    if op.dump:
        dump_path = workdir / op.outputs[0]
        with t.span("cli.dump_write"), dump_path.open("w", encoding="utf-8", newline="\n") as sink:
            for record in records:
                sink.write(cli._dump_line(record) + "\n")
        counts["cli.dump_bytes"] += dump_path.stat().st_size
    with t.span("sampler.summarize"):
        summary = summarize_samples(records, op.shots)
    if op.dump:
        with t.span("heatstats.to_csv"):
            text = distribution_to_csv(summary.empirical.distribution, include_exact=True)
        counts["heatstats.csv_bytes"] += len(text.encode())
        _write(t, workdir / op.outputs[1], text)
    counts["sampler.operations"] += 1
    counts["sampler.shots"] += op.shots
    counts["sampler.uniforms"] += op.shots * (1 + 2 * config.n_collisions)
    counts["sampler.distinct_keys"] += len(summary.empirical.distribution)
    counts["streams.substreams"] += 1  # one worker stream


def _replay_entropy(t, op, workdir, config, settings, realized, counts):
    cap, tol = settings.enumeration_cap, settings.tolerance
    with t.span("sampler.entropy") as whole:
        report = average_entropy_production(config, tol, cap)
    _report(t, op, workdir, {
        "command": "entropy",
        "heat_average": report.heat_average,
        "trajectory_average": report.trajectory_average,
        "information_form": report.information_form,
        "passed": report.passed,
    })
    # The parts of average_entropy_production, timed alone, give its self time.
    first_part = len(t.spans)
    _forward(t, config, cap, realized, counts, extra=True)
    _count_augmented(t, config, cap, realized, counts)
    with t.span("sampler.ancilla_post_state", extra=True):
        for i in range(1, config.n_collisions + 1):
            ancilla_post_state(config, i)
    parts = sum(_duration(s) for s in t.spans[first_part:])
    counts["sampler.entropy_self_s"] += _duration(whole) - parts


def _replay_validate(t, op, workdir, config, settings, realized, counts):
    tolerance = getattr(cli, "DEFAULT_DETAILED_BALANCE_TOL", 1e-10)
    checks = []
    for stage in realized.stages:
        with t.span("unitaries.validate_energy_preservation"):
            unit = validate_energy_preservation(stage.unitary, tolerance=1e-10)
        with t.span("chain.detailed_balance"):
            balance = assert_detailed_balance(stage.propagator, stage.beta, config.system, tolerance)
        checks += [unit.passed, balance.passed]
    _report(t, op, workdir, {"command": "validate", "checks": checks, "passed": all(checks)})


_REPLAYS = {
    "exact": _replay_exact,
    "verify": _replay_verify,
    "sample": _replay_sample,
    "entropy": _replay_entropy,
    "validate": _replay_validate,
}


def _realize_cold(t: Tracer, config, counts: dict):
    """Time realize_model cold, then its per-stage parts one by one."""
    realize_model.cache_clear()
    with t.span("chain.realize_model", extra=True):
        realized = realize_model(config)
    for anc in config.ancillas:
        with t.span("unitaries.build_energy_shells", extra=True):
            shells = build_energy_shells(config.system, anc.spectrum)
        with t.span("unitaries.realize_unitary", extra=True):
            unitary = realize_unitary(shells, anc.unitary, config.master_seed)
        with t.span("unitaries.transition_tensor", extra=True):
            transition_tensor(unitary)
        if anc.unitary.kind == "haar":
            blocks = sum(1 for shell in shells if shell.size > 1)
            counts["unitaries.haar_blocks"] += blocks
            counts["streams.substreams"] += blocks
    return realized


def replay(t: Tracer, op: Op, workdir: Path, counts: dict) -> None:
    """Run ``op`` as the handler's public calls, each inside a span."""
    t.op_id = op.op_id
    with t.span("bench.op"):
        with t.span("cli.load_model"):
            config, settings = cli.load_model_file(workdir / op.model_file)
        realized = _realize_cold(t, config, counts)
        _REPLAYS[op.command](t, op, workdir, config, settings, realized, counts)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def round_metrics(spans: list[dict], own: list[float], counts: dict, dispatch_s: float) -> dict:
    """Per-layer metrics of one round from its spans, self times and counts.

    ``dispatch_s`` is the untraced time of the same operations; the traced
    time leaves out the extra spans, so their ratio is the tracing overhead.
    """
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s["name"]] += _duration(s)
    metrics = {f"{name}_s": total[name] for name in TIMED_SPANS}
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    for s, seconds in zip(spans, own):
        metrics[f"{s['name'].split('.')[0]}.self_s"] += seconds
    metrics.update(counts)
    metrics["heatstats.system_paths_per_s"] = _rate(
        counts["heatstats.system_paths"], total["heatstats.forward"] + total["heatstats.backward"]
    )
    metrics["heatstats.augmented_paths_per_s"] = _rate(
        counts["heatstats.augmented_paths"], total["heatstats.augmented"]
    )
    for check in ("joint", "product", "partial"):
        metrics[f"heatstats.verify_{check}_keys_per_s"] = _rate(
            counts[f"heatstats.verify_{check}_keys"], total[f"heatstats.verify_{check}"]
        )
    # The first shot of each operation builds the tables and is timed apart.
    metrics["sampler.shots_per_s"] = _rate(
        counts["sampler.shots"] - counts["sampler.operations"], total["sampler.shots"]
    )
    traced = total["bench.op"] - sum(_duration(s) for s in spans if s["extra"])
    metrics["trace.overhead_pct"] = 100.0 * (traced / dispatch_s - 1.0)
    metrics["trace.spans"] = len(spans)
    return metrics
