"""Monte Carlo trajectory sampling and entropy-production accounting.

A shot draws the initial system level from its thermal state and then, for
each collision, a fresh thermal ancilla level followed by a joint jump
inside the energy shell of the current (system, ancilla) pair.  Only that
shell's row of transition probabilities is ever touched.

Worker ``w`` of ``worker_count`` owns the stream keyed by (master_seed, w);
shot ``j`` is served by worker ``j mod worker_count`` and results are
aggregated in shot order, so output depends only on (master_seed,
worker_count), never on scheduling.  Every shot consumes exactly ``1 + 2N``
uniforms from its worker's stream, in order.  Shots are drawn in blocks:
each worker fills its rows of a ``(shots, 1 + 2N)`` uniform array from one
``random`` call, which reads the same uniforms as that many scalar draws,
so the size of a block moves no draw.  A block holds about ``_BLOCK_CELLS``
uniforms, and at least ``_BLOCK_SHOTS`` shots, so that each numpy call of
a long chain's walk still serves many shots.  A block picks the ancilla
levels of all collisions at once; only the jump picks walk the collisions
in turn, since a jump's CDF row depends on the current system level, and
what the picked jumps determine (levels, heat ids, both forms of sigma) is
then read for all collisions at once.
Everything runs on one thread; the stream layout is what guarantees that
a parallel execution would reproduce the same numbers.

The per-shot consistency checks (system-side against ancilla-side heat,
heat form against log form of the entropy production) are evaluated for a
whole block at once.  A block is cut into ``_BLOCK_SHOTS``-shot slices, and
a ConsistencyError is raised before anything of the offending slice is
counted, dumped or yielded, as if blocks held ``_BLOCK_SHOTS`` shots.

The command line samples without records: ``_sample`` weighs a block's
``exp(-sigma)`` in shot order and counts its heat-id rows as bytes in a
``_Tally``, once per block, building no per-shot object and no Fraction
key, and it sums no log path probability, which only a record reports.
The dump cells (levels, pairs, heats and sigmas) are laid out once for a
whole block and its lines written a slice at a time.  ``summarize_samples``
is the plain reference over the ``TrajectoryRecord`` values that
``iter_trajectories`` reads off the same blocks: a ``Counter`` of their
exact heats, and ``exp(-sigma)`` added a record at a time, so both routes
give the same law and the same sums.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .chain import CollisionStage, RealizedModel, _jump_grid, evolve, realize_model
from .heatstats import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_TOLERANCE,
    HeatKey,
    JointHeatDistribution,
    _augmented_layers,
    _Codes,
    _coded_law,
    _codes,
    _exponents,
    _float_cells,
    _json_floats,
    _list_cells,
    _list_tables,
    _logs,
    _path_blocks,
    _text_cells,
    exact_forward_joint,
)
from .model import (
    ConsistencyError,
    ModelConfig,
    ModelError,
    _collision_number,
    _integer_at_least,
    format_rational,
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

# Shots dumped together: a slice of a block.  Dump lines go out a slice at a
# time, and a failing shot leaves the slices before its own used, so results
# are those of blocks this size.
_BLOCK_SHOTS = 256
# Uniforms advanced together: a block is the most whole slices whose shots
# draw at most ``_BLOCK_CELLS`` uniforms (``1 + 2N`` a shot), but at least
# one slice: 2048 shots at N=30, 1024 at N=60, 256 from N=128 on.  That
# bounds the arrays held alive whatever the shot count.  Against 2**16, it
# raised the tracemalloc peak of a whole ``sample`` command on a qubit chain
# from 2.13 to 3.05 MiB at N=30 (5000 shots) and from 1.36 to 2.31 MiB at N=60
# (2500 shots); with ``--dump`` (N=40, and a d=3 chain at N=30) the peaks
# stayed at 3.14 and 2.10 MiB.  perfbench's ``peak_rss_mb`` on sample-long is
# set by its oracle reading a dump back, not by these arrays.  Blocks start
# on slice boundaries, so a failing shot leaves the same slices before it as
# blocks of ``_BLOCK_SHOTS`` would.
_BLOCK_CELLS = 2**17


@dataclass(frozen=True)
class SamplerConfig:
    shots: int
    master_seed: int = 0
    worker_count: int = 1

    def __post_init__(self) -> None:
        for name, least in (("shots", 1), ("master_seed", 0), ("worker_count", 1)):
            _integer_at_least(getattr(self, name), least, name)


@dataclass(frozen=True)
class AugmentedTrajectory:
    """System levels plus the (in, out) ancilla levels of every collision."""

    alphas: tuple[int, ...]
    ancilla_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TrajectoryRecord:
    """One sampled shot: its augmented trajectory, exact heats, sigma and log path probability."""

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

    def __getattr__(self, name: str):
        # Reached only for attributes never set: an estimate built from
        # counts builds its per-key standard errors when first touched.
        tallies = self.__dict__.get("_tallies")
        if name != "stderr" or tallies is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n, entries = self.shots, self.distribution.entries
        stderr = {key: math.sqrt(c / n * (1.0 - c / n) / n) for key, c in zip(entries, tallies)}
        object.__setattr__(self, "stderr", stderr)
        return stderr


@dataclass(frozen=True, eq=False)
class SampleSummary:
    empirical: EmpiricalJoint
    integral_ft_mean: float  # sample mean of exp(-sigma)
    integral_ft_stderr: float
    shots: int


class _SamplerTables:
    """Flat lookup arrays that let a block of shots walk the chain's jumps.

    Heats are small integer ids in the model's registry
    (``RealizedModel.heat_values``), so the per-shot equality check between
    system-side and ancilla-side heat bookkeeping is an integer comparison
    while staying exact, and a record's heat tuple is a short byte string.

    The CDFs are stored so that a pick needs no clamp: each row's last real
    entry is +inf, like its padding, so the count of entries ``<= u`` is
    ``bisect_right`` clamped to the row's last index.  ``anc_columns[c, i]``
    is entry ``c`` of collision ``i``'s ancilla CDF, one column per array
    row.  The slot tables are ``chain._jump_grid`` flattened: row ``(alpha *
    N + i) * width + n`` holds joint input ``(alpha, n)`` of collision ``i``
    in ``span`` slots, one per nonzero jump, so its first slot is found by
    arithmetic, and stepping on while ``cdf[slot] <= u`` stops on the pick
    within ``span - 1`` steps.  The other slot tables hold what a jump
    determines: its system level (also pre-scaled by ``N * width``, for the
    next row), its system-side heat id, its ancilla pair code, its heat-form
    term of sigma and its term of the log path probability.  The ancilla
    side of each consistency check, heat ids and the log form of sigma, is
    read from ``anc_heat_id`` and ``log_q`` at sampling time instead; they
    and the ancilla columns are filled from each spectrum group's stacked
    populations.
    """

    def __init__(self, model: ModelConfig) -> None:
        realized = realize_model(model)
        n = self.n = model.n_collisions
        dim = self.dim = model.system.dim
        beta_diff = np.array(model.beta_gaps)

        p0 = realized.system_state.populations
        self.p0_cum = np.cumsum(p0)
        self.log_p0 = _logs(p0)

        width = self.width = max(group.spectrum.dim for group in realized.groups)
        self.anc_columns = np.full((width - 1, n), np.inf)
        self.log_q = np.zeros((n, width))
        self.heat_fraction: tuple[Fraction, ...] = realized.heat_values
        self.code_dtype = realized.heat_ids[model.system].dtype
        self.anc_heat_id = np.zeros((n, width, width), dtype=self.code_dtype)
        for group in realized.groups:
            at, q = list(group.collisions), group.populations
            d = q.shape[1]
            self.anc_columns[: d - 1, at] = np.cumsum(q, axis=1)[:, :-1].T
            self.log_q[at, :d] = _logs(q.ravel()).reshape(q.shape)
            self.anc_heat_id[at, :d, :d] = realized.heat_ids[group.spectrum].T

        count, weight, level, n_out = _jump_grid(realized)
        span = self.span = weight.shape[-1]
        self.steps = span - 1
        alpha, i, n_in, slot = np.ogrid[:dim, :n, :width, :span]
        real = slot < count[..., None]
        cdf = np.cumsum(weight, axis=-1)
        cdf[slot >= count[..., None] - 1] = np.inf
        self.cdf = cdf.reshape(-1)
        heat = np.where(real, realized.heat_ids[model.system][alpha, level], 0)
        self.heat = heat.reshape(-1)
        level = level.reshape(-1)
        self.level_dtype = np.min_scalar_type(dim - 1)
        self.level = level.astype(self.level_dtype)
        stride = n * width
        self.scaled_level = (level * stride).astype(np.min_scalar_type((dim - 1) * stride))
        self.pair_dtype = np.min_scalar_type(width * width - 1)
        self.pair = np.where(real, n_in * width + n_out, 0).reshape(-1).astype(self.pair_dtype)
        heat_value = np.array([float(value) for value in self.heat_fraction])
        self.sigma_term = np.where(real, beta_diff[i] * heat_value[heat], 0.0).reshape(-1)
        logs = _logs(weight.reshape(-1)).reshape(weight.shape)
        self.log_p_term = np.where(real, self.log_q[i, n_in] + logs, 0.0).reshape(-1)
        self.cell_offset = np.arange(n) * width
        self.move_offset = self.cell_offset * width

        self.pairs = [(n_in, n_out) for n_in in range(width) for n_out in range(width)]

    @cached_property
    def dump_cells(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Dump-line run cells of the levels, ancilla pairs and heats, built on the first dump.

        Each item is JSON text followed by what comes after it in a line: a
        comma inside a list, the next key after the last item.  The tables
        are sized for a block of ``_BLOCK_SHOTS`` lines.
        """
        n, rows = self.n, _BLOCK_SHOTS
        levels = [json.dumps(a) for a in range(self.dim)]
        pairs = [json.dumps(pair) for pair in self.pairs]
        heats = [json.dumps(format_rational(value)) for value in self.heat_fraction]
        return (
            _list_tables(levels, ", ", '], "ancilla_pairs": [', n + 1, rows),
            _list_tables(pairs, ", ", '], "heats": [', n, rows),
            _list_tables(heats, ", ", '], "sigma": ', n, rows),
        )


@lru_cache(maxsize=64)
def _tables(model: ModelConfig) -> _SamplerTables:
    return _SamplerTables(model)


def _walk(
    tables: _SamplerTables, slots: np.ndarray, level: np.ndarray, jump_u: np.ndarray
) -> None:
    """Pick each collision's jump in turn: the one serial step of the sampler.

    On entry ``slots[i]`` holds collision ``i``'s ancilla entry cell, ``i *
    width + n_in``; ``level`` is the initial system level times ``N *
    width`` and ``jump_u[i]`` the jump uniforms of collision ``i``.  The cell
    plus the scaled level is the row, whose first slot is the row times
    ``span``; each collision steps on from there while the row's CDF entry
    is ``<= u``, and leaves the picked slot in ``slots[i]``.
    """
    for slot, u_i in zip(slots, jump_u):
        slot += level
        slot *= tables.span
        for _ in range(tables.steps):
            slot += tables.cdf.take(slot) <= u_i
        level = tables.scaled_level.take(slot)


def _advance_block(
    tables: _SamplerTables, u: np.ndarray, log_paths: bool = True
) -> tuple[tuple, tuple | None]:
    """Advance the shots whose uniforms are the rows of ``u`` through every collision.

    Column 0 picks the initial level, and columns ``1 + 2i`` and ``2 + 2i``
    the ancilla level and the jump of collision ``i``.  A level is the count
    of its CDF's entries before the last that are ``<= u``: ``bisect_right``
    clamped to the last level.  Only the jump picks are made one collision
    at a time (:func:`_walk`), since a jump's CDF row depends on the current
    system level.  The ancilla picks of all collisions come before that
    walk, and everything read off the picked slots after it, each for the
    whole ``(N, k)`` block in a few calls.
    The float sums add the same terms in the same order as a shot-by-shot
    loop, so every bit agrees with it, whatever the number of rows.  Returns
    per-shot arrays (system levels, ancilla (in, out) pair codes, heat ids,
    sigma and, with ``log_paths``, the log path probability) with ``None``,
    or with the first failing shot and its error: a ModelError naming the
    level if the shot reaches one of zero initial population, else a
    ConsistencyError.
    """
    k, n = len(u), tables.n
    alpha = (tables.p0_cum[:-1, None] <= u[:, 0]).sum(axis=0)
    slots = np.empty((n, k), dtype=np.intp)
    slots[:] = tables.cell_offset[:, None]
    for column in tables.anc_columns:
        slots += column[:, None] <= u[:, 1::2].T
    jump_u = u[:, 2::2].T.copy()
    del u  # the caller's block of uniforms is freed here if it holds no reference
    _walk(tables, slots, alpha * (n * tables.width), jump_u)
    del jump_u

    pairs = tables.pair.take(slots)
    heats = tables.heat.take(slots)
    alphas = np.empty((k, n + 1), dtype=tables.level_dtype)
    alphas[:, 0] = alpha
    alphas[:, 1:] = tables.level.take(slots).T
    # Flat index of each collision's ancilla move (i, n_in, n_out).
    moves = pairs + tables.move_offset[:, None]
    heats_agree = (heats == tables.anc_heat_id.reshape(-1).take(moves)).all(axis=0)
    log_q = tables.log_q[:, :, None]
    # Sigma, its log form and the log path probability (with ``log_paths``
    # alone; no check reads it), one at a time: row 0
    # of ``terms`` holds the starting value and row 1 + i collision i's term,
    # taken straight in (mode="clip" skips the buffering of mode="raise";
    # every index is in range).  Down the rows of a block of two or more
    # shots, np.add.reduce adds row after row, each into every shot's running
    # total, strictly in collision order as a loop adds; one shot's terms are
    # a single contiguous column, which it would add pairwise, so that column
    # is accumulated in order instead.
    terms = np.empty((n + 1, k))
    totals = []
    with np.errstate(invalid="ignore"):  # -inf logs of empty levels, as with floats
        log_ratio = (log_q - log_q.transpose(0, 2, 1)).reshape(-1)
        sums = [
            (0.0, tables.sigma_term, slots),  # all-zero heats then sum to +0.0, never -0.0
            (tables.log_p0[alpha], log_ratio, moves),
        ]
        if log_paths:
            sums.append((tables.log_p0[alpha], tables.log_p_term, slots))
        for first, table, index in sums:
            terms[0] = first
            table.take(index, out=terms[1:], mode="clip")
            totals.append(np.add.reduce(terms, axis=0) if k > 1 else np.add.accumulate(terms)[-1])
        sigma, sigma_log_form, *log_p = totals
        sigma_log_form -= tables.log_p0[alphas[:, -1]]
        failed = np.flatnonzero(~(heats_agree & (np.abs(sigma - sigma_log_form) <= SIGMA_CONSISTENCY_TOL)))
    block = alphas, pairs.T.copy(), heats.T.copy(), sigma, *log_p
    if not failed.size:
        return block, None
    # The first failing shot decides the message, as a shot-order loop would.
    shot = int(failed[0])
    if not heats_agree[shot]:
        error = ConsistencyError("system-side and ancilla-side heats disagree on a sampled jump")
    elif np.isinf(sigma_log_form[shot]):
        # Only a level of zero initial population has an infinite log weight.
        ends = [("system", alphas[shot, -1], tables.log_p0)] + [
            (f"ancilla {i + 1}", code % tables.width, logs)
            for i, (code, logs) in enumerate(zip(pairs[:, shot], tables.log_q))
        ]
        part, level = next((part, level) for part, level, logs in ends if np.isinf(logs[level]))
        error = ModelError(
            f"the log form of the entropy production is infinite because {part} level "
            f"{level} has zero initial population but is reached by a sampled trajectory"
        )
    else:
        error = ConsistencyError(
            f"entropy production mismatch: heat form {float(sigma[shot])!r}, "
            f"log form {float(sigma_log_form[shot])!r}"
        )
    return block, (shot, error)


def _records(
    tables: _SamplerTables,
    alphas: np.ndarray,
    pair_codes: np.ndarray,
    ids: np.ndarray,
    sigma: np.ndarray,
    log_p: np.ndarray,
) -> Iterator[TrajectoryRecord]:
    """One record per row of :func:`_advance_block`'s arrays."""
    pairs, values = tables.pairs, tables.heat_fraction
    for levels, moves, heat_ids, sig, log_path in zip(
        alphas.tolist(), pair_codes.tolist(), ids.tolist(), sigma.tolist(), log_p.tolist()
    ):
        yield TrajectoryRecord(
            trajectory=AugmentedTrajectory(tuple(levels), tuple(map(pairs.__getitem__, moves))),
            heats=tuple(map(values.__getitem__, heat_ids)),
            sigma=sig,
            log_path_probability=log_path,
        )


def _dump_text(
    tables: _SamplerTables,
    alphas: np.ndarray,
    pair_codes: np.ndarray,
    ids: np.ndarray,
    sigma: np.ndarray,
) -> Iterator[str]:
    """The JSON lines of the rows of :func:`_advance_block`'s arrays, one text per ``_BLOCK_SHOTS`` rows.

    A line holds a shot's levels, ancilla pairs, exact heats and sigma.  The
    cells of every row are laid out once for the whole block, on the first
    text asked for: each list read from the tables' dump-line run cells by
    fancy indexing, the sigmas spelled as the JSON encoder spells them by
    ``heatstats._float_cells`` (through :mod:`heatchain.floattext` from
    ``_FLOAT_TEXTS_MIN`` finite values).  Each slice of rows is then joined
    once, so a line has the bytes ``json.dumps`` gives the shot's record as
    a dict, which ``cli._dump_line`` writes for a record.
    """
    level_cells, pair_cells, heat_cells = tables.dump_cells
    cells = _text_cells(
        len(sigma),
        [
            '{"alphas": [',
            _list_cells(alphas, level_cells),
            _list_cells(pair_codes, pair_cells),
            _list_cells(ids, heat_cells),
            _float_cells(sigma, _json_floats),
            "}\n",
        ],
    )
    for first in range(0, len(cells), _BLOCK_SHOTS):
        yield "".join(cells[first : first + _BLOCK_SHOTS].ravel().tolist())


def _block_uniforms(
    streams: list[np.random.Generator], start: int, size: int, width: int
) -> np.ndarray:
    """Uniform rows of shots ``start .. start + size - 1``, shot ``j`` from stream ``j mod W``.

    Only the streams that serve a shot of the block are drawn from.
    """
    workers = len(streams)
    if workers == 1:  # filled in place, without a second block-sized buffer
        return streams[0].random((size, width))
    u = np.empty((size, width))
    for first in range(min(workers, size)):  # block row of a worker's first shot here
        u[first::workers] = streams[(start + first) % workers].random(
            (len(range(first, size, workers)), width)
        )
    return u


def sample_trajectory(model: ModelConfig, rng: np.random.Generator) -> AugmentedTrajectory:
    """Draw one augmented trajectory from the forward process, raising the error of a failed check."""
    tables = _tables(model)
    shot, failure = _advance_block(tables, rng.random((1, 1 + 2 * tables.n)))
    if failure is not None:
        raise failure[1]
    return next(_records(tables, *shot)).trajectory


def _blocks(
    tables: _SamplerTables, config: SamplerConfig, log_paths: bool = True
) -> Iterator[tuple[np.ndarray, ...]]:
    """:func:`_advance_block`'s arrays for each block of ``config.shots`` shots, in shot order.

    A block is the most whole ``_BLOCK_SHOTS``-shot slices that draw at most
    ``_BLOCK_CELLS`` uniforms, and at least one slice; its uniforms are
    drawn once and it is advanced once, summing the log path probabilities
    only with ``log_paths``.  If a shot of it fails a check, the rows of the
    whole slices before that shot's are yielded, then its error is raised,
    as from blocks of ``_BLOCK_SHOTS``: no shot is drawn twice.  Those rows
    keep their bits, since every sum of a block of two or more shots adds
    row after row.
    """
    # Shot j is served by worker j mod W, so with W >= shots worker j serves
    # shot j alone, and workers past the last shot are never built.
    workers = min(config.worker_count, config.shots)
    streams = [substream(config.master_seed, w) for w in range(workers)]
    width = 1 + 2 * tables.n
    rows = max(1, _BLOCK_CELLS // width // _BLOCK_SHOTS) * _BLOCK_SHOTS
    for start in range(0, config.shots, rows):
        size = min(rows, config.shots - start)
        # The uniforms are held by _advance_block alone, which drops them after the walk.
        block, failure = _advance_block(
            tables, _block_uniforms(streams, start, size, width), log_paths
        )
        if failure is not None:
            kept = failure[0] // _BLOCK_SHOTS * _BLOCK_SHOTS
            if kept > 0:
                yield tuple(a[:kept] for a in block)
            raise failure[1]
        yield block


def iter_trajectories(model: ModelConfig, config: SamplerConfig) -> Iterator[TrajectoryRecord]:
    """Generate ``config.shots`` records in shot order.

    Per-shot exact heat equivalence and the two entropy-production forms
    are checked for each block before its records are yielded; a failure
    raises ConsistencyError once the records of the ``_BLOCK_SHOTS``-shot
    slices before the failing shot's are yielded.
    """
    tables = _tables(model)
    for block in _blocks(tables, config):
        yield from _records(tables, *block)


def _sample(
    model: ModelConfig, config: SamplerConfig, dump: Callable[[str], object] | None = None
) -> SampleSummary:
    """Summarize ``config.shots`` shots straight from their blocks, as records would be.

    Each block is weighed and counted once, and no log path probability is
    summed.  With ``dump``, the block's dump lines are then passed to it a
    ``_BLOCK_SHOTS``-shot slice at a time, their cells laid out once for the
    block.  A ConsistencyError leaves the lines of the slices before the
    failing shot's dumped, as a record stream would.  An OverflowError of
    ``exp(-sigma)`` leaves the lines through the overflowing shot's slice:
    that shot is found by running ``math.exp`` over the block again.
    """
    tables = _tables(model)
    tally = _Tally()
    for alphas, pair_codes, ids, sigma in _blocks(tables, config, log_paths=False):
        texts = () if dump is None else _dump_text(tables, alphas, pair_codes, ids, sigma)
        try:
            tally.weigh(sigma)
        except OverflowError:
            # The lines go out through the slice of the first shot that overflows.
            for shot, value in enumerate((-sigma).tolist()):
                try:
                    math.exp(value)
                except OverflowError:
                    break
            for text in islice(texts, shot // _BLOCK_SHOTS + 1):
                dump(text)
            raise
        for text in texts:
            dump(text)
        tally.count_block(tables, ids)
    return tally.summary(tables, config.shots)


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
    sigma = sum(gap * float(q) for gap, q in zip(model.beta_gaps, heats))
    realized = realize_model(model)
    with np.errstate(divide="ignore"):
        log_p0 = np.log(realized.system_state.populations)
        log_form = float(log_p0[path[0]] - log_p0[path[-1]])
        for stage, (n_in, n_out) in zip(realized.stages, pairs):
            log_q = np.log(stage.ancilla_state.populations)
            log_form += float(log_q[n_in] - log_q[n_out])
    if not abs(sigma - log_form) <= SIGMA_CONSISTENCY_TOL:
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
    i = _collision_number(i, model.n_collisions)
    realized = realize_model(model)
    p = realized.system_state.populations
    for stage in realized.stages[: i - 1]:
        p = evolve(p, stage.propagator)
    return _ancilla_post(realized.stages[i - 1], p)


def _post_states(realized: RealizedModel, reason: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """The final system populations and each ancilla's populations after its collision.

    If they put mass on a level of zero initial population (the system's
    first, then each ancilla's in collision order), a ModelError names that
    level after ``reason``.
    """
    p = realized.system_state.populations
    q_posts = []
    for stage in realized.stages:
        q_posts.append(_ancilla_post(stage, p))
        p = evolve(p, stage.propagator)
    parts = [("system", p, realized.system_state.populations)] + [
        (f"ancilla {stage.index}", post, stage.ancilla_state.populations)
        for stage, post in zip(realized.stages, q_posts)
    ]
    for part, post, pre in parts:
        reached = np.flatnonzero((post > 0) & (pre <= 0))
        if reached.size:
            raise ModelError(
                f"{reason} {part} level {reached[0]} has zero initial population "
                "but is reached by the chain"
            )
    return p, q_posts


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
    tolerance: float = DEFAULT_TOLERANCE,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> EntropyReport:
    """Average entropy production via three routes that must agree.

    (1) expectation of ``sum (beta_i - beta_s) Q_i`` under the exact joint
    heat distribution; (2) the log form averaged over the exact augmented
    path ensemble; (3) the information form: system entropy change plus
    relative entropy to the initial state, plus the same combination for
    every ancilla against its thermal state.  The report also checks that
    the information form is non-negative.  An account that is NaN makes
    the gap NaN, which fails.
    """
    values, ids, masses = _codes(exact_forward_joint(model, cap))
    heat_average = sum((masses * _exponents(values, ids, model)).tolist())

    realized, layers = _augmented_layers(model, cap)
    with np.errstate(divide="ignore"):
        log_p0 = np.log(realized.system_state.populations)
        log_qs = [np.log(stage.ancilla_state.populations) for stage in realized.stages]
    # Per layer and step: log q(n) - log q(n') of its ancilla move.
    log_ratios = []
    for layer, log_q in zip(layers, log_qs):
        moves = np.array(layer.moves, dtype=np.intp).reshape(-1, 2)
        log_ratios.append(log_q[moves[:, 0]] - log_q[moves[:, 1]])
    # Each path's value is formed in collision order and the weighted values
    # are added strictly in path order, as a path-by-path loop adds them.
    trajectory_average = 0.0
    for weight, start, end, steps in _path_blocks(realized, layers):
        value = log_p0[start] - log_p0[end]
        for log_ratio, step in zip(log_ratios, steps):
            value += log_ratio[step]
        terms = np.concatenate(([trajectory_average], weight * value))
        trajectory_average = float(np.cumsum(terms)[-1])

    p, q_posts = _post_states(realized, "the information form is infinite because")
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
    gap = float(np.max([abs(x - y) for x in values for y in values], initial=0.0))
    passed = gap <= tolerance and information_form >= -1e-12
    return EntropyReport(
        heat_average=float(heat_average),
        trajectory_average=float(trajectory_average),
        information_form=float(information_form),
        max_pairwise_gap=gap,
        tolerance=tolerance,
        passed=passed,
    )


class _Tally:
    """Shot counts per heat-id row, in order of first appearance, and the ``exp(-sigma)`` sums.

    Every block comes from one model's tables: its rows are counted on their
    bytes, and the law comes out in coded form on the model's heat registry.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.exp_sum = 0.0
        self.exp_sq_sum = 0.0

    def count_block(self, tables: _SamplerTables, ids: np.ndarray) -> None:
        """Count a block's ``(k, N)`` heat-id rows."""
        # A row viewed as one void item is read out as the bytes of the row.
        rows = np.ascontiguousarray(ids).view(np.dtype((np.void, ids.itemsize * tables.n)))
        self.counts.update(rows.ravel().tolist())

    def weigh(self, sigmas: np.ndarray) -> None:
        """Add a block's ``exp(-sigma)`` and its square, strictly in shot order.

        ``math.exp`` is mapped over the shots (``np.exp`` may differ from it
        in the last bit), and each sum runs on from its total by
        ``np.add.accumulate``, which adds in order where ``np.sum`` adds
        pairwise, so every bit is that of a shot-by-shot loop, however the
        shots are cut into calls.  An OverflowError of ``math.exp`` leaves
        both sums as they were.
        """
        w = np.fromiter(map(math.exp, (-sigmas).tolist()), dtype=float, count=len(sigmas))
        with np.errstate(over="ignore"):  # to inf, as float arithmetic overflows
            sums = np.add.accumulate(np.concatenate(([self.exp_sum], w)))
            squares = np.add.accumulate(np.concatenate(([self.exp_sq_sum], w * w)))
        self.exp_sum, self.exp_sq_sum = sums[-1].item(), squares[-1].item()

    def summary(self, tables: _SamplerTables, shots: int) -> SampleSummary:
        """The summary of the ``shots`` shots counted, all from ``tables``."""
        tallies = list(self.counts.values())
        ids = np.frombuffer(b"".join(self.counts), dtype=tables.code_dtype).reshape(-1, tables.n)
        codes = _Codes(tables.heat_fraction, ids, np.array(tallies) / shots)
        law = _coded_law(codes, "forward", tables.n, 0.0)
        return _summary(law, tallies, shots, self.exp_sum, self.exp_sq_sum)


def _summary(
    law: JointHeatDistribution, tallies: list[int], shots: int, exp_sum: float, exp_sq_sum: float
) -> SampleSummary:
    """The summary of ``shots`` shots, ``tallies`` of them on each key of ``law``, in order."""
    empirical = object.__new__(EmpiricalJoint)
    empirical.__dict__.update(distribution=law, shots=shots, _tallies=tallies)
    mean = exp_sum / shots
    variance = max(exp_sq_sum / shots - mean * mean, 0.0)
    return SampleSummary(empirical, mean, math.sqrt(variance / shots), shots)


def _record_summary(
    records: Iterable[TrajectoryRecord], shots: int | None, weigh: bool
) -> SampleSummary:
    """Count records on their exact heats; with ``weigh``, add ``exp(-sigma)`` and its square.

    Records are pulled ``_BLOCK_SHOTS`` at a time and a chunk is weighed
    before it is counted, so an OverflowError leaves its whole chunk drawn.
    """
    counts: Counter = Counter()
    exp_sum = exp_sq_sum = 0.0
    records = iter(records)
    while chunk := list(islice(records, _BLOCK_SHOTS)):
        for record in chunk if weigh else ():
            w = math.exp(-record.sigma)
            exp_sum += w
            exp_sq_sum += w * w
        counts.update(record.heats for record in chunk)
        n_collisions = len(chunk[-1].heats)
    tallies = list(counts.values())
    seen = sum(tallies)
    total = seen if shots is None else shots
    if total != seen:
        raise ValueError(f"received {seen} records, expected {total}")
    if total == 0:
        raise ValueError("need at least one record")
    entries = {key: count / total for key, count in counts.items()}
    law = JointHeatDistribution(entries, "forward", n_collisions)
    return _summary(law, tallies, total, exp_sum, exp_sq_sum)


def empirical_joint(records: Iterable[TrajectoryRecord], shots: int | None = None) -> EmpiricalJoint:
    """Frequency estimate with exact keys and per-key standard errors.

    Records are counted on their exact heats, so equal heat tuples merge
    whatever their source, and keys come in order of first appearance, as
    from :func:`_sample`.  The ``stderr`` map is built when first touched.
    """
    return _record_summary(records, shots, weigh=False).empirical


def summarize_samples(records: Iterable[TrajectoryRecord], shots: int | None = None) -> SampleSummary:
    """Aggregate records into the empirical law and the integral-identity mean.

    Single pass, nothing retained per shot, so arbitrarily long record
    streams can be summarized.  The law is counted as by
    :func:`empirical_joint`.
    """
    return _record_summary(records, shots, weigh=True)
