"""System-level Markov chain induced by the collisions.

Averaging a collision's jump probabilities over the ancilla's thermal
populations leaves a column-stochastic propagator on the system levels
alone.  The chain of those propagators carries all path probabilities:
forward paths are weighted by the propagators applied in collision order
starting from the system's thermal state, backward paths by the same
matrices with reversed argument order and reversed application order,
starting again from the thermal state.  Those are the reversed protocol's
weights only when every propagator keeps detailed balance at its ancilla's
beta; otherwise a time-reversed collision has its own propagator.

Realization.  :func:`realize_model` groups the collisions by ancilla
spectrum once, and ``RealizedModel.groups`` keeps one read-only
:class:`SpectrumGroup` per distinct spectrum, in order of first use, which
the heat-id and jump tables read.  What depends on the spectra alone is
built once per group and shared, read-only, by its collisions: the shells
tuple (cached by ``build_energy_shells``, so sub-models reuse it too), its
flat index arrays and its heat-id table.  What differs per collision is
stacked, one row per collision: its blocks as one flat row, shell by
shell, and its thermal populations.  The group's thermal states are the
rows of ``model._gibbs_rows`` over its betas, the one routine behind every
Gibbs state; its identity and partial-swap rows are filled at once, after
one check of the swap's shell structure; the Haar shells of all collisions
are drawn each from its own stream and put through one QR and one phase
fix per shell size; and the squared moduli and the propagators (one ordered
``np.add.at``) are computed for the whole group.  An explicit row's exit sums
are checked as its collision is met; the other kinds are unitary by
construction.  A stage's ``unitary`` and ``tensor`` are read-only views of its
group's rows, built when first read, so routes that never read them
(``sample``, ``exact``) never build them.  Every number is the one a
collision-by-collision realization gives, bit for bit, whatever the other
collisions of a stack are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .model import ModelConfig, ModelError, Spectrum, ThermalState, _gibbs_rows, gibbs_state
from .streams import substream
from .unitaries import (
    REALIZATION_TOL,
    CollisionUnitary,
    EnergyShell,
    TransitionTensor,
    _ShellIndex,
    _fixed_blocks,
    _haar_stack,
    _jump_probabilities,
    _not_unitary,
    _partial_swap_rows,
    _row_blocks,
    _shell_index,
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
    tolerance: float = REALIZATION_TOL,
) -> DetailedBalanceReport:
    """Check ``M(a|b) exp(-beta E_b) = M(b|a) exp(-beta E_a)`` pairwise.

    The residual is relative: each side is compared against the larger of
    the two, and the Gibbs factors are shifted by the minimum energy (the
    maximum for negative beta) so that every exponent is at most 0 and
    large |beta| cannot overflow.  beta is the *ancilla* temperature; it is
    what makes the system's Gibbs vector at that temperature stationary.
    A NaN entry gives a NaN residual, which is the worst and fails; the
    first pair to reach it is reported.
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
            residual = abs(lhs - rhs) / (max(lhs, rhs) or 1.0)  # divides by 1 when the larger side is 0
            if not residual <= worst and worst == worst:  # NaN wins, and then keeps the lead
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
    level.  That is the reversed protocol only under detailed balance.
    """
    if len(levels) != len(propagators) + 1:
        raise ModelError("path must have one more level than there are collisions")
    weight = float(initial.populations[levels[-1]])
    for step, prop in enumerate(propagators):
        weight *= float(prop.matrix[levels[step], levels[step + 1]])
    return weight


class SpectrumGroup(NamedTuple):
    """The collisions on one ancilla spectrum, as :func:`realize_model` stacks them.

    Row ``k`` of each stacked array belongs to collision ``collisions[k]``;
    every array is read-only.
    """

    spectrum: Spectrum
    shells: tuple[EnergyShell, ...]
    collisions: tuple[int, ...]  # 0-based, ascending
    probs: np.ndarray  # flat jump probabilities, shell by shell
    rows: np.ndarray  # flat unitary blocks, shell by shell
    populations: np.ndarray  # ancilla thermal populations


@dataclass(frozen=True, eq=False)
class CollisionStage:
    """Everything realized for one collision of the chain.

    ``unitary`` and ``tensor`` are read-only views of row ``row`` of the
    group's stacked blocks and jump probabilities, built on first read.
    """

    index: int  # 1-based collision number
    spectrum: Spectrum
    beta: float
    shells: tuple[EnergyShell, ...]
    ancilla_state: ThermalState
    propagator: Propagator
    group: SpectrumGroup = field(repr=False)
    row: int

    @cached_property
    def unitary(self) -> CollisionUnitary:
        blocks = _row_blocks(self.group.rows[self.row], _shell_index(self.shells))
        return CollisionUnitary(self.shells, blocks)

    @cached_property
    def tensor(self) -> TransitionTensor:
        index = _shell_index(self.shells)
        probs = _row_blocks(self.group.probs[self.row], index)
        return TransitionTensor(self.shells, probs, self.propagator.dim, self.spectrum.dim, index.position)


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
    def heat_ids(self) -> Mapping[Spectrum, np.ndarray]:
        """One read-only table per distinct spectrum, the system's and each group's.

        ``[a, b]`` is the heat id of ``E_a - E_b``: a system drop ``a -> b``.
        An ancilla move ``n -> n'`` has heat ``E_n' - E_n``, so it reads the
        transposed table.
        """
        lookup = {q: i for i, q in enumerate(self.heat_values)}
        dtype = np.min_scalar_type(len(lookup) - 1)
        tables = {
            s: np.array([[lookup[a - b] for b in s.levels] for a in s.levels], dtype=dtype)
            for s in [self.config.system, *(group.spectrum for group in self.groups)]
        }
        for ids in tables.values():
            ids.flags.writeable = False
        return MappingProxyType(tables)


class _Group:
    """A :class:`SpectrumGroup` being built: shared shells, and what differs per collision."""

    def __init__(self, shells: tuple[EnergyShell, ...]) -> None:
        self.shells = shells
        self.index = _shell_index(shells)
        self.positions: list[int] = []  # 0-based, ascending
        self.betas: list[float] = []
        self.fixed: list[tuple[int, np.ndarray]] = []  # (row, flat blocks) of permutation and explicit
        self.swaps: list[int] = []  # rows of partial swaps
        self.thetas: list[float] = []
        self.rows: np.ndarray | None = None  # stacked flat blocks, once every collision is met


@lru_cache(maxsize=128)
def realize_model(config: ModelConfig) -> RealizedModel:
    """Build shells, block rows, thermal states and propagators for every collision.

    Results are cached on the (immutable) config, so repeated queries about
    the same model reuse one realization.  Collisions are grouped in order,
    and a group's partial-swap structure and each explicit or permutation
    collision's blocks are checked as the collision is met, so the first
    faulty collision raises: its ``ModelError`` carries it, 1-based, as
    ``collision``.
    """
    system_state = gibbs_state(config.system, config.system_beta)
    groups: dict[Spectrum, _Group] = {}
    draws: dict[int, list] = {}  # Haar shell size -> (group, row, flat offset, stream) per shell
    for position, anc in enumerate(config.ancillas):
        try:
            group = groups.get(anc.spectrum)
            if group is None:
                group = groups[anc.spectrum] = _Group(build_energy_shells(config.system, anc.spectrum))
            k = len(group.positions)
            group.positions.append(position)
            group.betas.append(anc.beta)
            spec = anc.unitary
            if spec.kind == "partial_swap":
                if not group.swaps:  # check the group's shells here, in collision order
                    _partial_swap_rows(group.shells, ())
                group.swaps.append(k)
                group.thetas.append(spec.theta)
            elif spec.kind == "haar":  # one-member shells keep [[1]]
                for j, (first, size) in enumerate(group.index.spans):
                    if size > 1:
                        stream = substream(config.master_seed, spec.stream_tag or 0, j)
                        draws.setdefault(size, []).append((group, k, first, stream))
            elif spec.kind != "identity":
                row = np.concatenate([block.ravel() for block in _fixed_blocks(group.shells, spec)])
                if spec.kind == "explicit":  # the one kind whose exit sums can miss 1
                    failing = _jump_probabilities(group.shells, row[None])[1][0]
                    if failing >= 0:
                        raise _not_unitary(group.shells[failing])
                group.fixed.append((k, row))
        except ModelError as exc:
            exc.collision = position + 1
            raise
    for group in groups.values():
        index = group.index
        group.rows = np.zeros((len(group.positions), len(index.out)), dtype=complex)
        group.rows[:, index.out == index.into] = 1.0
        if group.swaps:
            group.rows[group.swaps] = _partial_swap_rows(group.shells, group.thetas)
        for k, row in group.fixed:
            group.rows[k] = row
    for size, batch in draws.items():
        for (group, k, start, _), block in zip(batch, _haar_stack(size, [rng for *_, rng in batch])):
            group.rows[k, start : start + size * size] = block.ravel()

    stages = [None] * config.n_collisions
    records = []
    for spectrum, group in groups.items():
        rows = group.rows
        probs = np.abs(rows) ** 2
        populations, log_zs = _gibbs_rows(spectrum, group.betas)
        matrices = _propagator_stack(group.index, config.system.dim, probs, populations)
        for array in (rows, probs, populations):
            array.flags.writeable = False
        record = SpectrumGroup(spectrum, group.shells, tuple(group.positions), probs, rows, populations)
        for k, (i, beta, matrix, log_z) in enumerate(zip(group.positions, group.betas, matrices, log_zs)):
            stages[i] = CollisionStage(
                index=i + 1,
                spectrum=spectrum,
                beta=beta,
                shells=group.shells,
                ancilla_state=ThermalState(float(beta), populations[k], log_z),
                propagator=Propagator(matrix=matrix, collision_index=i + 1),
                group=record,
                row=k,
            )
        records.append(record)
    return RealizedModel(config, system_state, tuple(stages), tuple(records))


def _jump_grid(realized: RealizedModel) -> tuple[np.ndarray, ...]:
    """Every collision's nonzero jumps on one grid ``[alpha, i, n, slot]``, padded with zeros.

    Its parts are the count of input ``(alpha, n)``'s jumps at collision
    ``i`` and, per slot in output-member order, each jump's weight and the
    system and ancilla levels it leads to.
    """
    width = max(group.spectrum.dim for group in realized.groups)
    widest = max(shell.size for group in realized.groups for shell in group.shells)
    weight = np.zeros((realized.config.system.dim, len(realized.stages), width, widest))
    level, ancilla = np.zeros((2, *weight.shape), dtype=np.intp)
    for group in realized.groups:
        index = _shell_index(group.shells)
        k, e = np.nonzero(group.probs)
        inputs = k * len(index.system) + index.into[e]  # by collision, then input member
        order = np.lexsort((index.out[e], inputs))
        k, e, inputs = k[order], e[order], inputs[order]
        into, out = index.into[e], index.out[e]
        slot = np.arange(len(e)) - np.searchsorted(inputs, inputs)  # place among its input's jumps
        cell = index.system[into], np.array(group.collisions)[k], index.ancilla[into], slot
        weight[cell] = group.probs[k, e]
        level[cell] = index.system[out]
        ancilla[cell] = index.ancilla[out]
    count = np.count_nonzero(weight, axis=-1)
    span = int(count.max())
    return count, weight[..., :span], level[..., :span], ancilla[..., :span]
