"""System-level Markov chain induced by the collisions.

Averaging a collision's jump probabilities over the ancilla's thermal
populations leaves a column-stochastic propagator on the system levels
alone.  The chain of those propagators carries all path probabilities:
forward paths are weighted by the propagators applied in collision order
starting from the system's thermal state, backward paths by the same
matrices with reversed argument order and reversed application order,
starting again from the thermal state.

Realization.  :func:`realize_model` groups the collisions by ancilla
spectrum once, and ``RealizedModel.groups`` keeps one read-only
:class:`SpectrumGroup` per distinct spectrum, in order of first use, which
the heat-id and sampler tables read.  What depends on the spectra alone is
built once per group and shared, read-only, by its collisions: the shells
tuple (cached by ``build_energy_shells``, so sub-models reuse it too), its
flat index arrays and its heat-id table.  What differs per collision is
stacked: each collision's blocks are one flat row, shell by shell; the
Haar shells of all collisions are drawn each from its own stream and put
through one QR and one phase fix per shell size; and the squared moduli,
the exit-sum check and the propagators (one ordered ``np.add.at``) are
computed for a whole group at once.  Stages hold read-only views of the
group's stacked rows.  Every number is the one a collision-by-collision
realization gives, bit for bit, whatever the other collisions of a stack
are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .model import ModelConfig, ModelError, Spectrum, ThermalState, gibbs_state
from .streams import substream
from .unitaries import (
    CollisionUnitary,
    EnergyShell,
    TransitionTensor,
    _ShellIndex,
    _fixed_blocks,
    _haar_stack,
    _jump_probabilities,
    _not_unitary,
    _row_blocks,
    _shell_index,
    _stream_tag,
    _tensors,
    build_energy_shells,
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
    probs = np.concatenate([mat.ravel() for mat in tensor.probs])[None]
    matrix = _propagator_stack(_shell_index(tensor.shells), tensor.d_system, probs, q[None])[0]
    return Propagator(matrix=matrix, collision_index=collision_index)


def _propagator_stack(
    index: _ShellIndex, d_system: int, probs: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """``M`` of each row of stacked flat jump probabilities, with ancilla populations ``q[row]``.

    One ``np.add.at`` adds the weighted entries in flat order, shell by
    shell.  Within a shell the members have distinct system levels, so each
    ``(out, in)`` pair of levels gets at most one entry per shell and every
    sum is formed in shell order.
    """
    cells = d_system * d_system
    target = index.system[index.out] * d_system + index.system[index.into]
    weighted = probs * q[:, index.ancilla[index.into]]
    m = np.zeros(len(probs) * cells)
    np.add.at(m, (np.arange(len(probs))[:, None] * cells + target).ravel(), weighted.ravel())
    return m.reshape(len(probs), d_system, d_system)


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
    the two, and the Gibbs factors are shifted by the minimum energy (the
    maximum for negative beta) so that every exponent is at most 0 and
    large |beta| cannot overflow.  beta is the *ancilla* temperature; it is
    what makes the system's Gibbs vector at that temperature stationary.
    """
    energies = system.as_floats()
    shifted = energies - (energies.max() if beta < 0 else energies.min())
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


class SpectrumGroup(NamedTuple):
    """The collisions on one ancilla spectrum, as :func:`realize_model` stacks them."""

    spectrum: Spectrum
    shells: tuple[EnergyShell, ...]
    collisions: tuple[int, ...]  # 0-based, ascending
    probs: np.ndarray  # read-only; row k is collision collisions[k]'s flat jump probabilities


@dataclass(frozen=True, eq=False)
class RealizedModel:
    """A config with all derived per-collision objects attached, grouped by ancilla spectrum."""

    config: ModelConfig
    system_state: ThermalState
    stages: tuple[CollisionStage, ...]
    groups: tuple[SpectrumGroup, ...]

    @property
    def propagators(self) -> tuple[Propagator, ...]:
        return tuple(stage.propagator for stage in self.stages)

    @cached_property
    def heat_values(self) -> tuple[Fraction, ...]:
        """The heat-id registry: every system and ancilla level difference, ascending.

        Id order is value order, and the registry is closed under negation,
        so the id of ``-Q`` is ``len(heat_values) - 1`` minus the id of ``Q``.
        """
        spectra = [self.config.system, *(group.spectrum for group in self.groups)]
        return tuple(sorted({a - b for spec in spectra for a in spec.levels for b in spec.levels}))

    @cached_property
    def _heat_ids(self) -> dict[Spectrum, np.ndarray]:
        """Per distinct spectrum, ``[a, b]`` is the heat id of ``E_a - E_b``; read-only."""
        lookup = {q: i for i, q in enumerate(self.heat_values)}
        tables = {}
        for spectrum in [self.config.system, *(group.spectrum for group in self.groups)]:
            if spectrum not in tables:
                levels = spectrum.levels
                ids = np.array(
                    [[lookup[a - b] for b in levels] for a in levels],
                    dtype=np.min_scalar_type(len(lookup) - 1),
                )
                ids.flags.writeable = False
                tables[spectrum] = ids
        return tables

    @cached_property
    def system_heat_ids(self) -> np.ndarray:
        """``[a, b]`` is the heat id of the system drop ``a -> b``, ``E_a - E_b``."""
        return self._heat_ids[self.config.system]

    @cached_property
    def ancilla_heat_ids(self) -> tuple[np.ndarray, ...]:
        """Per collision, ``[n, n']`` is the heat id of the ancilla move ``n -> n'``, ``E_n' - E_n``.

        The collisions of one group share one read-only table.
        """
        tables = [None] * len(self.stages)
        for group in self.groups:
            ids = self._heat_ids[group.spectrum].T
            for i in group.collisions:
                tables[i] = ids
        return tuple(tables)


class _Group:
    """A :class:`SpectrumGroup` being built: shared shells, and a flat block row per collision."""

    def __init__(self, shells: tuple[EnergyShell, ...]) -> None:
        self.shells = shells
        self.index = _shell_index(shells)
        self.identity = (self.index.out == self.index.into).astype(complex)
        self.positions: list[int] = []  # 0-based, ascending
        self.rows: list[np.ndarray] = []


@lru_cache(maxsize=128)
def realize_model(config: ModelConfig) -> RealizedModel:
    """Build shells, unitaries, tensors and propagators for every collision.

    Results are cached on the (immutable) config, so repeated queries about
    the same model reuse one realization.  Errors are raised in collision
    order, as realizing the collisions one by one would raise them: exit
    sums of explicit blocks are checked as each collision is met.
    """
    system_state = gibbs_state(config.system, config.system_beta)
    groups: dict[Spectrum, _Group] = {}
    draws: dict[int, list] = {}  # Haar shell size -> (row, flat offset, stream) per shell
    states = []
    for position, anc in enumerate(config.ancillas):
        group = groups.get(anc.spectrum)
        if group is None:
            group = groups[anc.spectrum] = _Group(build_energy_shells(config.system, anc.spectrum))
        states.append(gibbs_state(anc.spectrum, anc.beta))
        spec = anc.unitary
        if spec.kind == "haar":
            row = group.identity.copy()  # [[1]] on one-member shells
            for k, (first, size) in enumerate(group.index.spans):
                if size > 1:
                    stream = substream(config.master_seed, _stream_tag(spec), k)
                    draws.setdefault(size, []).append((row, first, stream))
        else:
            row = np.concatenate([block.ravel() for block in _fixed_blocks(group.shells, spec)])
            if spec.kind == "explicit":  # the one kind whose exit sums can miss 1
                failing = _jump_probabilities(group.shells, row[None])[1][0]
                if failing >= 0:
                    raise _not_unitary(group.shells[failing])
        group.positions.append(position)
        group.rows.append(row)
    for size, batch in draws.items():
        for (row, start, _), block in zip(batch, _haar_stack(size, [rng for *_, rng in batch])):
            row[start : start + size * size] = block.ravel()

    stages = [None] * config.n_collisions
    records = []
    for spectrum, group in groups.items():
        rows = np.array(group.rows)
        rows.flags.writeable = False
        probs, failing = _jump_probabilities(group.shells, rows)
        if (failing >= 0).any():  # a defect: only explicit blocks can miss, and they are checked above
            raise _not_unitary(group.shells[failing[failing >= 0][0]])
        tensors = _tensors(group.shells, probs)
        q = np.array([states[i].populations for i in group.positions])
        matrices = _propagator_stack(group.index, tensors[0].d_system, probs, q)
        for i, row, tensor, matrix in zip(group.positions, rows, tensors, matrices):
            anc = config.ancillas[i]
            blocks = _row_blocks(row, group.index)
            stages[i] = CollisionStage(
                index=i + 1,
                spectrum=anc.spectrum,
                beta=anc.beta,
                shells=group.shells,
                unitary=CollisionUnitary(shells=group.shells, blocks=blocks),
                tensor=tensor,
                ancilla_state=states[i],
                propagator=Propagator(matrix=matrix, collision_index=i + 1),
            )
        records.append(SpectrumGroup(spectrum, group.shells, tuple(group.positions), probs))
    return RealizedModel(config, system_state, tuple(stages), tuple(records))
