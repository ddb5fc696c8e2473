"""Total-energy shells and energy-preserving collision unitaries.

A collision unitary acts on one system-ancilla pair and commutes with the
sum of the two bare Hamiltonians.  In the joint energy eigenbasis it is
therefore block diagonal over *shells*: groups of basis states ``(alpha,
n)`` whose total energy ``E_alpha + E_n`` is exactly equal.  Shell
membership is computed with exact rational sums, so no floating comparison
ever decides the block structure, and the full joint matrix is never
materialized; everything downstream works shell by shell.

Shells depend on the two spectra alone, so they are built once per
spectrum pair (:func:`build_energy_shells` is cached) and shared, with
their flat index arrays (:func:`_shell_index`), by every collision on that
pair.  A collision's blocks can then be held as one flat row, shell by
shell, and many collisions' rows as one stacked array, which is how
``chain.realize_model`` squares, checks and averages them in one pass.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .model import ModelError, Spectrum, format_rational, parse_rational
from .streams import substream

__all__ = [
    "JointIndex",
    "EnergyShell",
    "UnitarySpec",
    "CollisionUnitary",
    "TransitionTensor",
    "UnitarityReport",
    "build_energy_shells",
    "haar_unitary",
    "realize_unitary",
    "validate_energy_preservation",
    "transition_tensor",
]

# (system level index, ancilla level index)
JointIndex = tuple[int, int]

UNITARY_KINDS = ("haar", "partial_swap", "permutation", "explicit", "identity")


@dataclass(frozen=True)
class EnergyShell:
    """All joint basis states sharing one exact total energy."""

    total_energy: Fraction
    members: tuple[JointIndex, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@lru_cache(maxsize=128)
def build_energy_shells(system: Spectrum, ancilla: Spectrum) -> tuple[EnergyShell, ...]:
    """Partition the joint basis by exact total energy.

    Shells are ordered by ascending total energy and members are ordered
    lexicographically in (system level, ancilla level), so the layout is
    deterministic.  The result is immutable and cached on the spectra, so
    collisions and sub-models with one spectrum pair share one tuple.
    """
    groups: dict[Fraction, list[JointIndex]] = {}
    for a, e_a in enumerate(system.levels):
        for n, e_n in enumerate(ancilla.levels):
            groups.setdefault(e_a + e_n, []).append((a, n))
    return tuple(
        EnergyShell(total_energy=total, members=tuple(sorted(groups[total])))
        for total in sorted(groups)
    )


class _ShellIndex(NamedTuple):
    """Read-only flat index arrays of one shells tuple.

    Members are numbered shell by shell in member order.  A collision's
    blocks flatten shell by shell, each row-major, into one row: with
    ``first, size = spans[k]``, the block of shell ``k`` is the ``size x
    size`` matrix at ``row[first:]``, and entry ``e`` of the row leads from
    input member ``into[e]`` to output member ``out[e]``.  ``chain._jump_grid``
    reads each input's nonzero jumps off such rows.
    """

    system: np.ndarray  # per member, its system level
    ancilla: np.ndarray  # per member, its ancilla level
    shell: np.ndarray  # per member, its shell
    out: np.ndarray
    into: np.ndarray
    spans: tuple[tuple[int, int], ...]
    position: Mapping[JointIndex, tuple[int, int]]  # member -> (shell, place in it)


@lru_cache(maxsize=128)
def _shell_index(shells: tuple[EnergyShell, ...]) -> _ShellIndex:
    """The :class:`_ShellIndex` of ``shells``, cached so collisions on them share it."""
    out: list[int] = []
    into: list[int] = []
    spans = []
    members = [member for shell in shells for member in shell.members]
    sizes = [shell.size for shell in shells]
    first = 0
    for size in sizes:
        spans.append((len(out), size))
        numbers = range(first, first + size)
        out += [i for i in numbers for _ in numbers]
        into += [j for _ in numbers for j in numbers]
        first += size
    arrays = [
        np.array([a for a, _ in members], dtype=np.intp),
        np.array([n for _, n in members], dtype=np.intp),
        np.repeat(np.arange(len(shells)), sizes),
        np.array(out, dtype=np.intp),
        np.array(into, dtype=np.intp),
    ]
    for array in arrays:
        array.flags.writeable = False
    position = {
        member: (k, j) for k, shell in enumerate(shells) for j, member in enumerate(shell.members)
    }
    return _ShellIndex(*arrays, spans=tuple(spans), position=MappingProxyType(position))


def _row_blocks(row: np.ndarray, index: _ShellIndex) -> tuple[np.ndarray, ...]:
    """Views of a flat row as the per-shell square blocks it holds."""
    return tuple(row[first : first + size * size].reshape(size, size) for first, size in index.spans)


@dataclass(frozen=True)
class UnitarySpec:
    """Recipe for the collision unitary of one ancilla.

    kind is one of ``haar`` (independent Haar block per shell),
    ``partial_swap`` (resonant two-level exchange by angle theta),
    ``permutation`` (a permutation of each shell's members), ``explicit``
    (user-supplied blocks keyed by total energy) or ``identity``.
    """

    kind: str
    theta: float = 0.0
    shift: int = 0
    # ((total energy, (cycle, ...)), ...) for permutation kind
    cycles: tuple[tuple[Fraction, tuple[tuple[int, ...], ...]], ...] = ()
    # ((total energy, row-major complex matrix), ...) for explicit kind
    blocks: tuple[tuple[Fraction, tuple[tuple[complex, ...], ...]], ...] = ()
    stream_tag: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in UNITARY_KINDS:
            raise ModelError(
                f"unknown unitary kind {self.kind!r}; expected one of {UNITARY_KINDS}"
            )
        if self.kind == "partial_swap" and not math.isfinite(self.theta):
            raise ModelError("partial_swap angle must be finite")
        if self.stream_tag is not None and self.stream_tag < 0:
            raise ModelError(f"stream_tag must be at least 0, got {self.stream_tag}")
        seen = set()
        for total, _ in (*self.cycles, *self.blocks):  # "1" and "2/2" are one total
            if total in seen:
                raise ModelError(f"total energy {format_rational(total)} is given twice")
            seen.add(total)
        for total, mat in self.blocks:
            for r, row in enumerate(mat):
                if len(row) != len(mat):
                    raise ModelError(
                        f"explicit block at total energy {format_rational(total)} must be "
                        f"square: row {r} has {len(row)} entries, the block has {len(mat)} rows"
                    )

    @classmethod
    def haar(cls, stream_tag: int | None = None) -> "UnitarySpec":
        return cls(kind="haar", stream_tag=stream_tag)

    @classmethod
    def partial_swap(cls, theta: float) -> "UnitarySpec":
        return cls(kind="partial_swap", theta=float(theta))

    @classmethod
    def permutation(
        cls,
        cycles: Mapping[object, Sequence[Sequence[int]]] | None = None,
        shift: int = 0,
    ) -> "UnitarySpec":
        packed = []
        for total, cycs in (cycles or {}).items():
            total = parse_rational(total)
            try:
                # index(), unlike int(), refuses the floats and strings it would
                # truncate or parse; booleans pass index() and are refused here.
                packed.append((total, tuple(tuple(map(operator.index, cyc)) for cyc in cycs)))
                if any(isinstance(v, bool) for cyc in cycs for v in cyc):
                    raise TypeError
            except TypeError:
                raise ModelError(
                    f"cycles at total energy {format_rational(total)} must be lists of "
                    "integer member indices"
                ) from None
        if isinstance(shift, bool) or not isinstance(shift, numbers.Integral):
            raise ModelError(f"permutation shift must be an integer, got {shift!r}")
        packed.sort(key=operator.itemgetter(0))
        return cls(kind="permutation", cycles=tuple(packed), shift=int(shift))

    @classmethod
    def explicit(cls, blocks: Mapping[object, Sequence[Sequence[complex]]]) -> "UnitarySpec":
        packed = sorted(
            (
                (parse_rational(total), tuple(tuple(complex(v) for v in row) for row in mat))
                for total, mat in blocks.items()
            ),
            key=operator.itemgetter(0),
        )
        return cls(kind="explicit", blocks=tuple(packed))

    @classmethod
    def identity(cls) -> "UnitarySpec":
        return cls(kind="identity")


@dataclass(frozen=True, eq=False)
class CollisionUnitary:
    """Per-shell unitary blocks; blocks[k] acts on shells[k].members.

    Entry ``blocks[k][out, in]`` is the amplitude connecting input member
    ``in`` to output member ``out`` of shell ``k``.  Amplitudes between
    different shells are zero by construction and never stored.
    """

    shells: tuple[EnergyShell, ...]
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.shells) != len(self.blocks):
            raise ModelError("one block per shell is required")
        for shell, block in zip(self.shells, self.blocks):
            if block.shape != (shell.size, shell.size):
                raise ModelError(
                    f"block for total energy {format_rational(shell.total_energy)} "
                    f"has shape {block.shape}, expected {(shell.size, shell.size)}"
                )
        for block in self.blocks:
            block.flags.writeable = False


@dataclass(frozen=True)
class UnitarityReport:
    """Per-shell residuals of the unitarity check ``max|B B^dag - I|``."""

    shell_residuals: tuple[float, ...]
    max_residual: float
    tolerance: float
    passed: bool


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed unitary via a Ginibre matrix and QR.

    The R-diagonal phases are divided out, which is what makes the QR
    output Haar rather than merely unitary.
    """
    return _haar_stack(dim, [rng])[0]


def _haar_stack(dim: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One :func:`haar_unitary` per generator, stacked, with one QR for the stack.

    Each generator draws the real and then the imaginary part of its
    Ginibre matrix in one call, which yields the numbers of two calls, and
    the stacked QR and phase fix act matrix by matrix, so an entry of the
    stack does not depend on the stack's other entries.
    """
    g = np.empty((len(rngs), 2, dim, dim))
    for rng, parts in zip(rngs, g):
        rng.standard_normal(out=parts)
    z = g[:, 0] + 1j * g[:, 1]
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _permutation_block(shell: EnergyShell, spec: UnitarySpec) -> np.ndarray:
    perm = list(range(shell.size))
    cycles = dict(spec.cycles).get(shell.total_energy)
    if cycles is not None:
        seen: set[int] = set()
        for cycle in cycles:
            for idx in cycle:
                if not 0 <= idx < shell.size:
                    raise ModelError(
                        f"permutation index {idx} out of range for the "
                        f"{shell.size}-member shell at total energy "
                        f"{format_rational(shell.total_energy)}"
                    )
                if idx in seen:
                    raise ModelError(f"permutation cycles reuse index {idx}")
                seen.add(idx)
            for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                perm[src] = dst
    elif spec.shift:
        perm = [(j + spec.shift) % shell.size for j in range(shell.size)]
    block = np.zeros((shell.size, shell.size), dtype=complex)
    for src, dst in enumerate(perm):
        block[dst, src] = 1.0
    return block


def _partial_swap_rows(shells: tuple[EnergyShell, ...], thetas: Sequence[float]) -> np.ndarray:
    """Stacked flat block rows of the partial swaps by ``thetas``; the shells are checked once.

    An empty ``thetas`` checks the shells alone.  The exchange shell is the
    middle one, so its block is entries 1 to 4 of a row.
    """
    sizes = [shell.size for shell in shells]
    exchange = [shell for shell in shells if shell.size == 2]
    total_members = sum(sizes)
    if total_members != 4 or sizes.count(1) != 2 or len(exchange) != 1:
        raise ModelError(
            "partial_swap needs two resonant two-level subsystems "
            f"(shell sizes must be [1, 2, 1], got {sizes})"
        )
    if exchange[0].members != ((0, 1), (1, 0)):
        raise ModelError(
            "partial_swap exchange shell must pair (ground, excited) with "
            f"(excited, ground); got members {exchange[0].members}"
        )
    rows = np.zeros((len(thetas), 6), dtype=complex)
    rows[:, [0, 5]] = 1.0
    swaps = []
    for theta in thetas:
        c, s = math.cos(theta), math.sin(theta)
        swaps.append((c, -1j * s, -1j * s, c))
    rows[:, 1:5] = np.array(swaps, dtype=complex).reshape(len(thetas), 4)
    return rows


def realize_unitary(
    shells: tuple[EnergyShell, ...], spec: UnitarySpec, master_seed: int
) -> CollisionUnitary:
    """Build the per-shell blocks described by ``spec``.

    Haar blocks are drawn from the stream keyed by (master_seed,
    stream_tag, shell index), so every shell of every collision has its own
    reproducible source of randomness.  One-member shells always get the
    trivial block [[1]]; any phase there is unobservable in the transition
    probabilities.
    """
    if spec.kind != "haar":
        return CollisionUnitary(shells=shells, blocks=tuple(_fixed_blocks(shells, spec)))
    blocks = [
        np.eye(1, dtype=complex)
        if shell.size == 1
        else haar_unitary(shell.size, substream(master_seed, spec.stream_tag or 0, k))
        for k, shell in enumerate(shells)
    ]
    return CollisionUnitary(shells=shells, blocks=tuple(blocks))


def _fixed_blocks(shells: tuple[EnergyShell, ...], spec: UnitarySpec) -> list[np.ndarray]:
    """The blocks of every kind but ``haar``, which draws random numbers."""
    if spec.kind == "identity":
        return [np.eye(shell.size, dtype=complex) for shell in shells]
    if spec.kind == "partial_swap":
        return list(_row_blocks(_partial_swap_rows(shells, [spec.theta])[0], _shell_index(shells)))
    if spec.kind == "permutation":
        return [_permutation_block(shell, spec) for shell in shells]
    if spec.kind != "explicit":  # pragma: no cover - kinds are validated at spec construction
        raise ModelError(f"unknown unitary kind {spec.kind!r}")
    supplied = dict(spec.blocks)
    known = {shell.total_energy for shell in shells}
    for total in supplied:
        if total not in known:
            raise ModelError(
                f"explicit block given for total energy {format_rational(total)}, "
                "which is not a shell of this collision"
            )
    blocks = []
    for shell in shells:
        mat = supplied.get(shell.total_energy)
        if mat is None:
            blocks.append(np.eye(shell.size, dtype=complex))
        else:
            blocks.append(np.array(mat, dtype=complex))
    report = validate_energy_preservation(
        CollisionUnitary(shells=shells, blocks=tuple(blocks)), tolerance=1e-10
    )
    if not report.passed:
        raise ModelError(f"explicit block fails unitarity: residual {report.max_residual:.3e}")
    return blocks


def validate_energy_preservation(
    unitary: CollisionUnitary, tolerance: float = 1e-10
) -> UnitarityReport:
    """Check each block's unitarity.

    Block-diagonality over shells (the energy-preservation constraint
    itself) holds structurally: cross-shell amplitudes are never stored, so
    only the per-shell residuals ``max|B B^dag - I|`` can fail.
    """
    residuals = []
    for block in unitary.blocks:
        gram = block @ block.conj().T
        residuals.append(float(np.abs(gram - np.eye(block.shape[0])).max()))
    worst = max(residuals)
    return UnitarityReport(
        shell_residuals=tuple(residuals),
        max_residual=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )


@dataclass(frozen=True, eq=False)
class TransitionTensor:
    """Jump probabilities |amplitude|^2, stored shell by shell.

    ``probs[k][out, in]`` is the probability that shell k's input member
    ``in`` exits as member ``out``.  Probabilities between different shells
    are structurally zero.
    """

    shells: tuple[EnergyShell, ...]
    probs: tuple[np.ndarray, ...]
    d_system: int
    d_ancilla: int
    position: Mapping[JointIndex, tuple[int, int]] = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.position is None:
            object.__setattr__(self, "position", _shell_index(self.shells).position)
        for mat in self.probs:
            mat.flags.writeable = False

    def entry(self, a_out: int, n_out: int, a_in: int, n_in: int) -> float:
        """R(a_out, n_out | a_in, n_in); zero across shells."""
        k_in, j_in = self.position[(a_in, n_in)]
        k_out, j_out = self.position[(a_out, n_out)]
        if k_in != k_out:
            return 0.0
        return float(self.probs[k_in][j_out, j_in])


def transition_tensor(unitary: CollisionUnitary) -> TransitionTensor:
    """Squared moduli of the unitary blocks.

    Unitarity makes every block doubly stochastic: each input's exit
    probabilities and each output's entry probabilities sum to one.
    """
    shells, index = unitary.shells, _shell_index(unitary.shells)
    rows = np.concatenate([block.ravel() for block in unitary.blocks])[None]
    probs, failing = _jump_probabilities(shells, rows)
    if failing[0] >= 0:
        raise _not_unitary(shells[failing[0]])
    dims = 1 + int(index.system.max()), 1 + int(index.ancilla.max())
    return TransitionTensor(shells, _row_blocks(probs[0], index), *dims, index.position)


def _jump_probabilities(
    shells: tuple[EnergyShell, ...], rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Squared moduli of stacked flat block rows, and each row's first failing shell.

    A shell fails when an input's exit probabilities miss 1 by more than
    1e-10 (NaN always misses); a row with no failing shell gets -1.  One
    ``np.add.at`` sums the exit probabilities of every input of every row.
    """
    index = _shell_index(shells)
    probs = np.abs(rows) ** 2
    members = len(index.system)
    sums = np.zeros(len(rows) * members)
    np.add.at(sums, (np.arange(len(rows))[:, None] * members + index.into).ravel(), probs.ravel())
    bad = ~(np.abs(sums - 1.0) <= 1e-10).reshape(len(rows), members)
    return probs, np.where(bad.any(axis=1), index.shell[bad.argmax(axis=1)], -1)


def _not_unitary(shell: EnergyShell) -> ModelError:
    return ModelError(
        f"block at total energy {format_rational(shell.total_energy)} is not "
        "unitary: exit probabilities do not sum to 1"
    )
