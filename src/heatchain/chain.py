"""System-level Markov chain induced by the collisions.

Averaging a collision's jump probabilities over the ancilla's thermal
populations leaves a column-stochastic propagator on the system levels
alone.  The chain of those propagators carries all path probabilities:
forward paths are weighted by the propagators applied in collision order
starting from the system's thermal state, backward paths by the same
matrices with reversed argument order and reversed application order,
starting again from the thermal state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .model import ModelConfig, ModelError, Spectrum, ThermalState, gibbs_state
from .unitaries import (
    CollisionUnitary,
    EnergyShell,
    TransitionTensor,
    build_energy_shells,
    realize_unitary,
    transition_tensor,
)

__all__ = [
    "Propagator",
    "DetailedBalanceReport",
    "propagator_from_tensor",
    "assert_detailed_balance",
    "evolve",
    "forward_path_probability",
    "backward_path_probability",
    "CollisionStage",
    "RealizedModel",
    "realize_model",
]


@dataclass(frozen=True, eq=False)
class Propagator:
    """Column-stochastic transition matrix ``matrix[out, in]`` of one collision."""

    matrix: np.ndarray
    collision_index: int

    def __post_init__(self) -> None:
        self.matrix.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def propagator_from_tensor(
    tensor: TransitionTensor, ancilla_thermal: ThermalState, collision_index: int = 1
) -> Propagator:
    """Average the jump probabilities over the ancilla's thermal populations.

    ``M[out, in] = sum over (n, n') of R(out, n' | in, n) q(n)``, computed
    shell by shell.
    """
    q = ancilla_thermal.populations
    if len(q) != tensor.d_ancilla:
        raise ModelError(
            f"ancilla state has {len(q)} levels, transition tensor expects "
            f"{tensor.d_ancilla}"
        )
    m = np.zeros((tensor.d_system, tensor.d_system))
    for shell, probs in zip(tensor.shells, tensor.probs):
        sys_labels = [a for a, _ in shell.members]
        weights = np.array([q[n] for _, n in shell.members])
        weighted = probs * weights  # column j scaled by q(n_j)
        for j, a_in in enumerate(sys_labels):
            for i, a_out in enumerate(sys_labels):
                m[a_out, a_in] += weighted[i, j]
    return Propagator(matrix=m, collision_index=collision_index)


@dataclass(frozen=True)
class DetailedBalanceReport:
    """Worst relative violation of thermal detailed balance."""

    max_residual: float
    worst_pair: tuple[int, int]
    tolerance: float
    passed: bool


def assert_detailed_balance(
    propagator: Propagator,
    beta: float,
    system: Spectrum,
    tolerance: float = 1e-10,
) -> DetailedBalanceReport:
    """Check ``M(a|b) exp(-beta E_b) = M(b|a) exp(-beta E_a)`` pairwise.

    The residual is relative: each side is compared against the larger of
    the two, and the Gibbs factors are shifted by the minimum energy so
    large |beta| cannot overflow.  beta is the *ancilla* temperature; it is
    what makes the system's Gibbs vector at that temperature stationary.
    """
    energies = system.as_floats()
    shifted = energies - energies.min()
    m = propagator.matrix
    worst = 0.0
    worst_pair = (0, 0)
    for b in range(len(energies)):
        for a in range(b + 1, len(energies)):
            lhs = float(m[a, b]) * math.exp(-beta * shifted[b])
            rhs = float(m[b, a]) * math.exp(-beta * shifted[a])
            scale = max(lhs, rhs)
            residual = 0.0 if scale == 0.0 else abs(lhs - rhs) / scale
            if residual > worst:
                worst = residual
                worst_pair = (b, a)
    return DetailedBalanceReport(
        max_residual=worst,
        worst_pair=worst_pair,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )


def evolve(populations: Sequence[float], propagator: Propagator) -> np.ndarray:
    """One collision step for the system populations."""
    p = np.asarray(populations, dtype=float)
    if p.shape != (propagator.dim,):
        raise ModelError(
            f"population vector has length {p.shape}, propagator is "
            f"{propagator.dim}-dimensional"
        )
    return propagator.matrix @ p


def forward_path_probability(
    levels: Sequence[int],
    propagators: Sequence[Propagator],
    initial: ThermalState,
) -> float:
    """Probability of one system path (alpha_0, ..., alpha_N)."""
    if len(levels) != len(propagators) + 1:
        raise ModelError("path must have one more level than there are collisions")
    weight = float(initial.populations[levels[0]])
    for step, prop in enumerate(propagators):
        weight *= float(prop.matrix[levels[step + 1], levels[step]])
    return weight


def backward_path_probability(
    levels: Sequence[int],
    propagators: Sequence[Propagator],
    initial: ThermalState,
) -> float:
    """Probability of the same labelled path under the reversed protocol.

    The propagators are reused with swapped arguments and applied in
    reverse order, with the thermal weight placed on the path's final
    level.
    """
    if len(levels) != len(propagators) + 1:
        raise ModelError("path must have one more level than there are collisions")
    weight = float(initial.populations[levels[-1]])
    for step, prop in enumerate(propagators):
        weight *= float(prop.matrix[levels[step], levels[step + 1]])
    return weight


@dataclass(frozen=True, eq=False)
class CollisionStage:
    """Everything realized for one collision of the chain."""

    index: int  # 1-based collision number
    spectrum: Spectrum
    beta: float
    shells: tuple[EnergyShell, ...]
    unitary: CollisionUnitary
    tensor: TransitionTensor
    ancilla_state: ThermalState
    propagator: Propagator

    @cached_property
    def outcomes(self) -> Mapping[tuple[int, int], tuple[tuple[int, int, float], ...]]:
        """Joint input ``(alpha, n)`` -> its shell's nonzero ``(alpha', n', prob)`` jumps."""
        table: dict[tuple[int, int], tuple[tuple[int, int, float], ...]] = {}
        for shell, probs in zip(self.tensor.shells, self.tensor.probs):
            for j, member_in in enumerate(shell.members):
                table[member_in] = tuple(
                    (member_out[0], member_out[1], float(probs[i, j]))
                    for i, member_out in enumerate(shell.members)
                    if probs[i, j] != 0.0
                )
        return table


@dataclass(frozen=True, eq=False)
class RealizedModel:
    """A config with all derived per-collision objects attached."""

    config: ModelConfig
    system_state: ThermalState
    stages: tuple[CollisionStage, ...]

    @property
    def propagators(self) -> tuple[Propagator, ...]:
        return tuple(stage.propagator for stage in self.stages)


@lru_cache(maxsize=128)
def realize_model(config: ModelConfig) -> RealizedModel:
    """Build shells, unitaries, tensors and propagators for every collision.

    Results are cached on the (immutable) config, so repeated queries about
    the same model reuse one realization.
    """
    system_state = gibbs_state(config.system, config.system_beta)
    stages = []
    for position, anc in enumerate(config.ancillas, start=1):
        shells = build_energy_shells(config.system, anc.spectrum)
        unitary = realize_unitary(shells, anc.unitary, config.master_seed)
        tensor = transition_tensor(unitary)
        ancilla_state = gibbs_state(anc.spectrum, anc.beta)
        propagator = propagator_from_tensor(tensor, ancilla_state, position)
        stages.append(
            CollisionStage(
                index=position,
                spectrum=anc.spectrum,
                beta=anc.beta,
                shells=shells,
                unitary=unitary,
                tensor=tensor,
                ancilla_state=ancilla_state,
                propagator=propagator,
            )
        )
    return RealizedModel(config=config, system_state=system_state, stages=tuple(stages))
