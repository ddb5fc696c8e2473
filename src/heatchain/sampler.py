"""Monte Carlo trajectory sampling and entropy-production accounting.

A shot draws the initial system level from its thermal state and then, for
each collision, a fresh thermal ancilla level followed by a joint jump
inside the energy shell of the current (system, ancilla) pair.  Only that
shell's row of transition probabilities is ever touched.

Worker ``w`` of ``worker_count`` owns the stream keyed by (master_seed, w);
shot ``j`` is served by worker ``j mod worker_count`` and results are
aggregated in shot order, so output depends only on (master_seed,
worker_count), never on scheduling.  The implementation runs the workers'
shots interleaved on one thread; the stream layout is what guarantees that
a parallel execution would reproduce the same numbers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from .chain import CollisionStage, evolve, realize_model
from .heatstats import (
    DEFAULT_ENUMERATION_CAP,
    HeatKey,
    JointHeatDistribution,
    exact_forward_joint,
    iter_augmented_paths,
)
from .model import (
    ConsistencyError,
    ModelConfig,
    kl_divergence,
    shannon_entropy,
)
from .streams import substream

__all__ = [
    "SamplerConfig",
    "AugmentedTrajectory",
    "TrajectoryRecord",
    "EmpiricalJoint",
    "SampleSummary",
    "EntropyReport",
    "sample_trajectory",
    "iter_trajectories",
    "heats_from_system_path",
    "heats_from_ancilla_path",
    "entropy_production",
    "ancilla_post_state",
    "average_entropy_production",
    "empirical_joint",
    "summarize_samples",
]

SIGMA_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class SamplerConfig:
    shots: int
    master_seed: int = 0
    worker_count: int = 1

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.worker_count < 1:
            raise ValueError("worker_count must be positive")


@dataclass(frozen=True)
class AugmentedTrajectory:
    """System levels plus the (in, out) ancilla levels of every collision."""

    alphas: tuple[int, ...]
    ancilla_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TrajectoryRecord:
    trajectory: AugmentedTrajectory
    heats: HeatKey
    sigma: float
    log_path_probability: float


@dataclass(frozen=True, eq=False)
class EmpiricalJoint:
    """Frequency estimate of the joint heat distribution."""

    distribution: JointHeatDistribution
    stderr: Mapping[HeatKey, float]
    shots: int


@dataclass(frozen=True, eq=False)
class SampleSummary:
    empirical: EmpiricalJoint
    integral_ft_mean: float  # sample mean of exp(-sigma)
    integral_ft_stderr: float
    shots: int


class _SamplerTables:
    """Flat lookup tables that make the per-shot work table-driven.

    Every distinct heat value (a difference of two levels) gets a small
    integer id in a shared registry, so the per-shot equality check between
    system-side and ancilla-side heat bookkeeping is an integer comparison
    while staying exact.
    """

    def __init__(self, model: ModelConfig) -> None:
        realized = realize_model(model)
        self.n = model.n_collisions
        self.beta_diff = [anc.beta - model.system_beta for anc in model.ancillas]

        p0 = realized.system_state.populations
        self.p0_cum = np.cumsum(p0).tolist()
        self.log_p0 = [math.log(p) if p > 0 else -math.inf for p in p0]

        registry: dict[Fraction, int] = {}

        def heat_id(value: Fraction) -> int:
            return registry.setdefault(value, len(registry))

        sys_levels = model.system.levels
        self.sys_heat_id = [
            [heat_id(e_a - e_b) for e_b in sys_levels] for e_a in sys_levels
        ]

        self.anc_cum: list[list[float]] = []
        self.log_q: list[list[float]] = []
        self.anc_heat_id: list[list[list[int]]] = []
        # rows[i][(alpha, n)] = (cumulative probs, stage.outcomes row, log probs)
        self.rows: list[dict[tuple[int, int], tuple[list[float], tuple, list[float]]]] = []
        for stage in realized.stages:
            q = stage.ancilla_state.populations
            self.anc_cum.append(np.cumsum(q).tolist())
            self.log_q.append([math.log(v) if v > 0 else -math.inf for v in q])
            levels = stage.spectrum.levels
            self.anc_heat_id.append(
                [[heat_id(e_out - e_in) for e_out in levels] for e_in in levels]
            )
            self.rows.append(
                {
                    member_in: (
                        np.cumsum([w for _, _, w in row]).tolist(),
                        row,
                        [math.log(w) for _, _, w in row],
                    )
                    for member_in, row in stage.outcomes.items()
                }
            )

        # Ids are handed out in insertion order, so position is the id.
        self.heat_fraction: list[Fraction] = list(registry)
        self.heat_value = [float(value) for value in self.heat_fraction]


@lru_cache(maxsize=64)
def _tables(model: ModelConfig) -> _SamplerTables:
    return _SamplerTables(model)


def _pick(cum: list[float], u: float) -> int:
    idx = bisect_right(cum, u)
    return idx if idx < len(cum) else len(cum) - 1


def _draw_record(tables: _SamplerTables, rng: np.random.Generator) -> TrajectoryRecord:
    random = rng.random
    alpha = _pick(tables.p0_cum, random())
    alphas = [alpha]
    pairs: list[tuple[int, int]] = []
    heat_ids: list[int] = []
    log_p = tables.log_p0[alpha]
    sigma = 0.0
    sigma_log_form = tables.log_p0[alpha]
    for i in range(tables.n):
        n_in = _pick(tables.anc_cum[i], random())
        cum, outcomes, logs = tables.rows[i][(alpha, n_in)]
        j = _pick(cum, random())
        alpha_next, n_out, _ = outcomes[j]
        hid = tables.sys_heat_id[alpha][alpha_next]
        if hid != tables.anc_heat_id[i][n_in][n_out]:
            raise ConsistencyError(
                "system-side and ancilla-side heats disagree on a sampled jump"
            )
        sigma += tables.beta_diff[i] * tables.heat_value[hid]
        sigma_log_form += tables.log_q[i][n_in] - tables.log_q[i][n_out]
        log_p += tables.log_q[i][n_in] + logs[j]
        heat_ids.append(hid)
        pairs.append((n_in, n_out))
        alphas.append(alpha_next)
        alpha = alpha_next
    sigma_log_form -= tables.log_p0[alpha]
    if abs(sigma - sigma_log_form) > SIGMA_CONSISTENCY_TOL:
        raise ConsistencyError(
            f"entropy production mismatch: heat form {sigma!r}, "
            f"log form {sigma_log_form!r}"
        )
    return TrajectoryRecord(
        trajectory=AugmentedTrajectory(tuple(alphas), tuple(pairs)),
        heats=tuple(tables.heat_fraction[h] for h in heat_ids),
        sigma=sigma,
        log_path_probability=log_p,
    )


def sample_trajectory(model: ModelConfig, rng: np.random.Generator) -> AugmentedTrajectory:
    """Draw one augmented trajectory from the forward process."""
    return _draw_record(_tables(model), rng).trajectory


def iter_trajectories(model: ModelConfig, config: SamplerConfig) -> Iterator[TrajectoryRecord]:
    """Generate ``config.shots`` records in shot order.

    Per-shot exact heat equivalence and the two entropy-production forms
    are asserted on the fly; a failure raises ConsistencyError.
    """
    tables = _tables(model)
    streams = [substream(config.master_seed, w) for w in range(config.worker_count)]
    workers = config.worker_count
    for shot in range(config.shots):
        yield _draw_record(tables, streams[shot % workers])


def heats_from_system_path(alphas: Iterable[int], system_spectrum) -> HeatKey:
    """Heat per collision read off the system path: level drops release heat."""
    levels = system_spectrum.levels
    path = list(alphas)
    return tuple(levels[a] - levels[b] for a, b in zip(path, path[1:]))


def heats_from_ancilla_path(
    ancilla_pairs: Iterable[tuple[int, int]], ancilla_spectra
) -> HeatKey:
    """Heat per collision read off the ancilla level changes."""
    heats = []
    for spec, (n_in, n_out) in zip(ancilla_spectra, ancilla_pairs):
        heats.append(spec.levels[n_out] - spec.levels[n_in])
    return tuple(heats)


def entropy_production(
    alphas: Iterable[int],
    ancilla_pairs: Iterable[tuple[int, int]],
    model: ModelConfig,
) -> float:
    """Trajectory entropy production ``sum (beta_i - beta_s) Q_i``.

    The equivalent log form (thermal weight ratios of the ancilla levels
    plus the initial-state ratio of the system endpoints) is evaluated as
    well and must agree to within ``SIGMA_CONSISTENCY_TOL``.
    """
    path = tuple(alphas)
    pairs = tuple(ancilla_pairs)
    heats = heats_from_system_path(path, model.system)
    sigma = sum(
        (anc.beta - model.system_beta) * float(q)
        for anc, q in zip(model.ancillas, heats)
    )
    realized = realize_model(model)
    with np.errstate(divide="ignore"):
        log_p0 = np.log(realized.system_state.populations)
        log_form = float(log_p0[path[0]] - log_p0[path[-1]])
        for stage, (n_in, n_out) in zip(realized.stages, pairs):
            log_q = np.log(stage.ancilla_state.populations)
            log_form += float(log_q[n_in] - log_q[n_out])
    if abs(sigma - log_form) > SIGMA_CONSISTENCY_TOL:
        raise ConsistencyError(
            f"entropy production mismatch: heat form {sigma!r}, log form {log_form!r}"
        )
    return sigma


def _ancilla_post(stage: CollisionStage, p: np.ndarray) -> np.ndarray:
    """Ancilla populations after ``stage``'s collision with system populations ``p``."""
    q = stage.ancilla_state.populations
    post = np.zeros(stage.spectrum.dim)
    for shell, probs in zip(stage.tensor.shells, stage.tensor.probs):
        weights = np.array([q[n] * p[a] for a, n in shell.members])
        exit_mass = probs @ weights
        for idx, (_, n_out) in enumerate(shell.members):
            post[n_out] += exit_mass[idx]
    return post


def ancilla_post_state(model: ModelConfig, i: int) -> np.ndarray:
    """Populations of ancilla ``i`` after its collision (1-based index)."""
    if not 1 <= i <= model.n_collisions:
        raise ValueError(f"collision index {i} out of range 1..{model.n_collisions}")
    realized = realize_model(model)
    p = realized.system_state.populations
    for stage in realized.stages[: i - 1]:
        p = evolve(p, stage.propagator)
    return _ancilla_post(realized.stages[i - 1], p)


@dataclass(frozen=True)
class EntropyReport:
    """Average entropy production computed three independent ways."""

    heat_average: float        # expectation over the exact joint heat law
    trajectory_average: float  # log-ratio form averaged over augmented paths
    information_form: float    # entropy changes plus relative entropies
    max_pairwise_gap: float
    tolerance: float
    passed: bool


def average_entropy_production(
    model: ModelConfig,
    tolerance: float = 1e-9,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> EntropyReport:
    """Average entropy production via three routes that must agree.

    (1) expectation of ``sum (beta_i - beta_s) Q_i`` under the exact joint
    heat distribution; (2) the log form averaged over the exact augmented
    path ensemble; (3) the information form: system entropy change plus
    relative entropy to the initial state, plus the same combination for
    every ancilla against its thermal state.  The report also checks that
    the information form is non-negative.
    """
    deltas = [anc.beta - model.system_beta for anc in model.ancillas]

    joint = exact_forward_joint(model, cap)
    heat_average = sum(
        p * sum(d * float(q) for d, q in zip(deltas, key))
        for key, p in joint.entries.items()
    )

    realized = realize_model(model)
    with np.errstate(divide="ignore"):
        log_p0 = np.log(realized.system_state.populations)
        log_qs = [np.log(stage.ancilla_state.populations) for stage in realized.stages]
    trajectory_average = 0.0
    for alphas, pairs, weight in iter_augmented_paths(model, cap):
        value = float(log_p0[alphas[0]] - log_p0[alphas[-1]])
        for i, (n_in, n_out) in enumerate(pairs):
            value += float(log_qs[i][n_in] - log_qs[i][n_out])
        trajectory_average += weight * value

    p = realized.system_state.populations
    q_posts = []
    for stage in realized.stages:
        q_posts.append(_ancilla_post(stage, p))
        p = evolve(p, stage.propagator)
    information_form = (
        shannon_entropy(p)
        - shannon_entropy(realized.system_state.populations)
        + kl_divergence(p, realized.system_state.populations)
    )
    for stage, q_post in zip(realized.stages, q_posts):
        q_pre = stage.ancilla_state.populations
        information_form += (
            shannon_entropy(q_post) - shannon_entropy(q_pre) + kl_divergence(q_post, q_pre)
        )

    values = (heat_average, trajectory_average, information_form)
    gap = max(abs(x - y) for x in values for y in values)
    passed = gap <= tolerance and information_form >= -1e-12
    return EntropyReport(
        heat_average=float(heat_average),
        trajectory_average=float(trajectory_average),
        information_form=float(information_form),
        max_pairwise_gap=float(gap),
        tolerance=tolerance,
        passed=passed,
    )


def empirical_joint(
    records: Iterable[TrajectoryRecord], shots: int | None = None
) -> EmpiricalJoint:
    """Frequency estimate with exact keys and per-key standard errors."""
    counts: dict[HeatKey, int] = {}
    seen = 0
    n_collisions = 0
    for record in records:
        n_collisions = len(record.heats)
        counts[record.heats] = counts.get(record.heats, 0) + 1
        seen += 1
    total = shots if shots is not None else seen
    if total != seen:
        raise ValueError(f"received {seen} records, expected {total}")
    if total == 0:
        raise ValueError("need at least one record")
    entries = {key: count / total for key, count in counts.items()}
    stderr = {key: math.sqrt(p * (1.0 - p) / total) for key, p in entries.items()}
    return EmpiricalJoint(
        distribution=JointHeatDistribution(
            entries=entries, direction="forward", n_collisions=n_collisions
        ),
        stderr=stderr,
        shots=total,
    )


def summarize_samples(
    records: Iterable[TrajectoryRecord], shots: int | None = None
) -> SampleSummary:
    """Aggregate records into the empirical law and the integral-identity mean.

    Single pass, nothing retained per shot, so arbitrarily long record
    streams can be summarized.
    """
    exp_sum = 0.0
    exp_sq_sum = 0.0

    def weighed() -> Iterator[TrajectoryRecord]:
        nonlocal exp_sum, exp_sq_sum
        for record in records:
            w = math.exp(-record.sigma)
            exp_sum += w
            exp_sq_sum += w * w
            yield record

    empirical = empirical_joint(weighed(), shots)
    total = empirical.shots
    mean = exp_sum / total
    variance = max(exp_sq_sum / total - mean * mean, 0.0)
    return SampleSummary(
        empirical=empirical,
        integral_ft_mean=mean,
        integral_ft_stderr=math.sqrt(variance / total),
        shots=total,
    )
