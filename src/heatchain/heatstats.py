"""Exact joint heat distributions and their fluctuation-theorem checks.

Heat bookkeeping convention
---------------------------
Heat is positive when energy leaves the system.  A forward distribution
maps tuples ``(Q_1, ..., Q_N)`` to probability, where slot ``i-1`` is the
heat delivered to ancilla ``i``.  The reversed protocol collides with the
ancillas in the opposite order, so backward tuples are stored in *backward
chronological* order: slot 0 is the heat delivered to ancilla N (the first
backward collision) and slot N-1 the heat delivered to ancilla 1.  The
partner of a forward tuple is therefore its reversed, negated key,
``(-Q_N, ..., -Q_1)``.

All heat values are exact rationals (differences of two energy levels), so
tuple keys collide exactly when the physics says they should, with no
floating aliasing.  Probabilities are floats; entries whose accumulated
mass falls below ``PRUNE_THRESHOLD`` are dropped and their total is kept in
``pruned_mass``.

Coded form
----------
Every law is carried as codes: an ascending registry of its distinct heat
values, a ``(K, N)`` array of small-int heat ids (id order is value order)
and a mass array, in insertion order.  Enumerated laws use their model's
registry, ``RealizedModel.heat_values``, which is closed under negation, so
the id of ``-Q`` is ``R - 1`` minus the id of ``Q``.  Empirical laws of
sampled shots use it too, with masses ``count / shots`` in order of first
appearance.  The public Fraction-keyed ``entries`` dict of such a law is
built only when a caller first touches it.  Hand-built and parsed laws,
and empirical laws of mixed or hand-built records, are encoded once, on
first use, by ranking their distinct heat values by value.  Laws on
different registries (those of other chains, hand-built laws) are
matched by translating their registries by value.

There are two enumeration routes, run by one numpy layer sweep
(``_sweep``).  The system-path route steps through the chain of
per-collision propagators, in collision order for the forward law and
reversed for the backward one.  A stage's layer is the same in both
directions, and a fresh single collision is one layer swept alone, so the
laws that ``verify`` compares (forward, backward, each single collision,
and the backward run without the last collision) are swept off one
realization and one list of layers.  The via-ancilla route steps through
each collision's jumps, read off the chain's one jump grid
(``chain._jump_grid``, the table the sampler reads too), and reads heats
off the ancillas.  Paths come out in depth-first order and every
weight and sum is formed in that order, so the laws are bit-identical to a
path-by-path loop.  Paths are grouped by key code in ``_first_occurrence``:
through a table indexed by code when the codes are dense, by a sort
otherwise.  ``_path_blocks`` walks the same layers in the same order but
yields complete paths in bounded blocks, each with its weight, end levels
and steps, so a per-path average (the trajectory form of the entropy
production) needs memory for one block, not for every path.  Enumeration
caps apply to the exact number of nonzero paths, counted by an integer
dynamic program over system levels before anything is built.  All three
identity checks share one log-ratio loop, ``_check_log_ratio``, and differ
only in their right-hand sides.

Text output
-----------
The CSV and JSON exports and the sampler's ``--dump`` lines are laid out by one
block formatter, ``_text_cells``: a block of rows (512 keys of an export, one
sampler block of a dump) is a ``(rows, cells)`` object array of text, joined
once (``_text_block``), or 256 dump lines at a time.  The export writers
(``_csv_texts``, ``_json_texts``) yield a law's head, each block and its tail
in turn; ``heatchain exact`` writes each text as it comes, so it holds one
block, never the whole law's text, while :func:`distribution_to_csv` joins
the same texts.  A list column is cut
into runs of up to ``c`` consecutive ids; a run's ids, read as one number,
index a table of the run's joined texts with separators appended
(``_list_tables``), so a row of N items takes about N / c lookups.  Floats,
an export's masses 1024 keys at a time (each distinct one once where
neighbours repeat, as a sampled law's counts do) and a dump block's sigmas,
are spelled by ``_float_cells`` as ``repr`` spells them: by
:mod:`heatchain.floattext`, which writes them for the whole array at once,
from ``_FLOAT_TEXTS_MIN`` values, all finite; else by the writer's own
encoder.  JSON spells finite floats as ``repr`` does, and its encoder
(``_json_floats``) spells ``nan`` and ``inf`` as ``NaN`` and ``Infinity``.  The
JSON export has the bytes of ``json.dumps(distribution_to_json(dist),
indent=2)``, without the dict or the indenting encoder.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from operator import itemgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .chain import CollisionStage, RealizedModel, _jump_grid, realize_model
from .model import (
    EnumerationCapError,
    ModelConfig,
    ModelError,
    format_rational,
    parse_rational,
)

__all__ = [
    "PRUNE_THRESHOLD",
    "DEFAULT_ENUMERATION_CAP",
    "HeatKey",
    "JointHeatDistribution",
    "FTReport",
    "exact_forward_joint",
    "exact_backward_joint",
    "exact_forward_joint_via_ancilla_paths",
    "iter_augmented_paths",
    "marginalize",
    "single_collision_distribution",
    "verify_joint_ft",
    "verify_product_relation",
    "verify_partial_decomposition",
    "compare_distributions",
    "total_variation",
    "integral_ft_expectation",
    "distribution_to_csv",
    "distribution_to_json",
    "distribution_from_json",
    "distribution_from_csv",
]

PRUNE_THRESHOLD = 1e-15
DEFAULT_ENUMERATION_CAP = 10**8

# One-sided support below this mass is attributed to pruning on the other
# side rather than reported as a mismatch.
SUPPORT_FLOOR = 1e-13

HeatKey = tuple[Fraction, ...]

_CODE_LIMIT = 2**63  # int64 key codes stay below this
_EXPORT_BLOCK_ROWS = 512  # keys per block of exported text
_EXPORT_SPAN_ROWS = 1024  # keys whose masses are formatted together
_FLOAT_TEXTS_MIN = 256  # fewer floats are formatted by their writer, without importing floattext: the measured crossover
_RUN_CELLS = 256  # most cells in a table of list runs (see _list_tables)
_BLOCK_PATHS = 2**14  # paths per frontier expansion in _path_blocks
_DENSE_CODES = 8  # _first_occurrence groups through a code table up to this many codes per element


class _Codes(NamedTuple):
    """A law in coded form: row ``k`` of ``ids`` is key ``k``, with mass ``masses[k]``."""

    values: tuple[Fraction, ...]  # ascending registry: heat id -> heat value
    ids: np.ndarray  # (K, N) heat ids
    masses: np.ndarray  # (K,) float64


def _id_dtype(size: int) -> np.dtype:
    return np.min_scalar_type(max(size - 1, 0))


@dataclass(frozen=True, eq=False)
class JointHeatDistribution:
    """Probability over exact heat tuples, forward or backward."""

    entries: Mapping[HeatKey, float]
    direction: str  # "forward" | "backward"
    n_collisions: int
    pruned_mass: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "backward"):
            raise ModelError(f"unknown direction {self.direction!r}")
        for key in self.entries:  # a law built from codes skips this: its id rows share one width
            if len(key) != self.n_collisions:
                raise ModelError(f"heat key {key!r} has length {len(key)}, not n_collisions={self.n_collisions}")

    def __getattr__(self, name: str):
        # Reached only for attributes never set: a law built from codes
        # builds its Fraction-keyed entries when they are first touched.
        codes = self.__dict__.get("_codes")
        if name != "entries" or codes is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = codes.values
        keys = [tuple(map(values.__getitem__, row)) for row in codes.ids.tolist()]
        entries = dict(zip(keys, codes.masses.tolist()))
        object.__setattr__(self, "entries", entries)
        return entries

    def probability(self, key: HeatKey) -> float:
        return self.entries.get(tuple(key), 0.0)

    def total_mass(self) -> float:
        return float(sum(_codes(self).masses.tolist()))

    def items_sorted(self) -> list[tuple[HeatKey, float]]:
        values, ids, masses = _codes(self)
        order = _key_order(ids)
        return [
            (tuple(map(values.__getitem__, row)), mass)
            for row, mass in zip(ids[order].tolist(), masses[order].tolist())
        ]

    def __len__(self) -> int:
        codes = self.__dict__.get("_codes")  # a hand-built law is not encoded to be counted
        return len(self.entries) if codes is None else len(codes.masses)


def _coded_law(
    codes: _Codes, direction: str, n_collisions: int, pruned_mass: float
) -> JointHeatDistribution:
    """A law that holds only its codes; ``entries`` is built on first touch."""
    dist = object.__new__(JointHeatDistribution)
    dist.__dict__.update(_codes=codes, direction=direction, n_collisions=n_collisions, pruned_mass=pruned_mass)
    return dist


def _codes(dist: JointHeatDistribution) -> _Codes:
    """The law's codes, encoding a Fraction-keyed law once on first use, ranked by value."""
    codes = dist.__dict__.get("_codes")
    if codes is None:
        entries = dist.entries
        values = tuple(sorted({q for key in entries for q in key}))
        rank = {q: r for r, q in enumerate(values)}
        flat = np.fromiter(map(rank.__getitem__, chain.from_iterable(entries)), dtype=_id_dtype(len(values)))
        masses = np.fromiter(entries.values(), dtype=float, count=len(entries))
        codes = _Codes(values, flat.reshape(len(entries), dist.n_collisions), masses)
        object.__setattr__(dist, "_codes", codes)
    return codes


def _key_order(ids: np.ndarray) -> np.ndarray:
    """The permutation that sorts id rows by key: ids order as their values do."""
    return np.lexsort(ids.T[::-1]) if ids.shape[1] else np.arange(len(ids))


# ---------------------------------------------------------------------------
# Key codes: one int64 per key, built column by column.


def _push_digit(
    code: np.ndarray, bound: int, radix: int, digit: np.ndarray
) -> tuple[np.ndarray, int]:
    """Append one heat id to every prefix code, in place; codes stay below the returned bound.

    Codes are re-ranked with ``np.unique`` before they could overflow;
    ranks keep both equality and lexicographic order of the prefixes.
    """
    if bound * radix >= _CODE_LIMIT:
        code = np.unique(code, return_inverse=True)[1].astype(np.int64)
        bound = int(code.max(initial=0)) + 1
    code *= radix
    code += digit
    return code, bound * radix


def _row_codes(ids: np.ndarray, radix: int) -> tuple[np.ndarray, int]:
    """One int64 per row, equal exactly when the rows are equal, and a bound on the codes."""
    code, bound = np.zeros(len(ids), dtype=np.int64), 1
    for column in ids.T:
        code, bound = _push_digit(code, bound, radix, column)
    return code, bound


def _first_occurrence(code: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Group of each element, numbered in order of first occurrence, and each group's first element.

    Codes lie in ``[0, bound)``.  When the bound is at most ``_DENSE_CODES``
    per element, a table indexed by code takes each code's first element
    (``np.minimum.at``) and only the distinct codes are sorted, by first
    element; otherwise the elements are sorted by code.  Both give the same
    groups, numbered the same way.
    """
    if bound <= _DENSE_CODES * len(code):
        table = np.full(bound, len(code), dtype=np.intp)
        np.minimum.at(table, code, np.arange(len(code)))
        keys = np.flatnonzero(table < len(code))
        first = table[keys]
        order = np.argsort(first)
        table[keys[order]] = np.arange(len(keys))
        return table[code], first[order]
    keys, first = np.unique(code, return_index=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[np.searchsorted(keys, code)], first[order]


def _lookup(rows: np.ndarray, table: np.ndarray, radix: int) -> np.ndarray:
    """Index of each of ``rows`` among the (distinct) rows of ``table``, or -1."""
    if rows.shape[1] != table.shape[1] or not len(table):
        return np.full(len(rows), -1)
    codes, _ = _row_codes(np.concatenate([rows, table]), radix)
    probe, keys = codes[: len(rows)], codes[len(rows) :]
    order = np.argsort(keys)
    at = np.minimum(np.searchsorted(keys[order], probe), len(keys) - 1)
    return np.where(keys[order][at] == probe, order[at], -1)


def _masses_at(masses: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``masses[index]``, with 0.0 where the index is -1."""
    out = np.zeros(len(index))
    hit = index >= 0
    out[hit] = masses[index[hit]]
    return out


def _shared(*laws: JointHeatDistribution) -> tuple[tuple[Fraction, ...], list[np.ndarray]]:
    """One registry for several laws, and every law's ids in it.

    The registry is ascending and closed under negation, so negating an id
    row is ``R - 1 - row``.  Laws already on one such registry pass
    through; the others are translated by value.
    """
    codes = [_codes(law) for law in laws]
    values = codes[0].values
    closed = all(a == -b for a, b in zip(values, reversed(values)))
    if closed and all(c.values is values or c.values == values for c in codes[1:]):
        return values, [c.ids for c in codes]
    union = {v for c in codes for v in c.values}
    values = tuple(sorted(union | {-v for v in union}))
    lookup = {v: i for i, v in enumerate(values)}
    dtype = _id_dtype(len(values))
    return values, [np.array([lookup[v] for v in c.values], dtype=dtype)[c.ids] for c in codes]


def _negated_reversed(ids: np.ndarray, radix: int) -> np.ndarray:
    """Partner rows ``(-Q_N, ..., -Q_1)`` on a registry closed under negation."""
    return (radix - 1) - ids[:, ::-1] if radix else ids


# ---------------------------------------------------------------------------
# Enumeration: layer tables, exact path counts and the sweep.


class _Layer(NamedTuple):
    """One collision's nonzero steps, grouped by the system level they leave.

    The steps out of level ``a`` are ``first[a] : first[a] + fan[a]``, in
    table order.  A step's weight multiplies its ``factors`` left to right.
    """

    first: np.ndarray
    fan: np.ndarray
    level: np.ndarray  # system level after the step
    heat: np.ndarray  # heat id of the step
    factors: tuple[np.ndarray, ...]
    moves: list[tuple[int, int]]  # ancilla (n, n') per step; empty on system routes


def _system_layers(realized: RealizedModel, stages: Sequence[CollisionStage]) -> list[_Layer]:
    """The propagator columns of ``stages``, in the order given; a step drops ``a -> b``."""
    heat = realized.heat_ids[realized.config.system]
    layers = []
    for stage in stages:
        steps = stage.propagator.matrix.T  # [a, b] = M[b, a]
        a, b = np.nonzero(steps)
        fan = np.count_nonzero(steps, axis=1)
        layers.append(
            _Layer(np.cumsum(fan) - fan, fan, b.astype(np.min_scalar_type(len(steps) - 1)), heat[a, b], (steps[a, b],), [])
        )
    return layers


def _ancilla_layers(realized: RealizedModel) -> list[_Layer]:
    """Per collision, the nonzero jumps ``(alpha', n')`` of each input ``(alpha, n)``, ``n`` occupied.

    Inputs go by system level and then ancilla level, each one's jumps in
    output order: a spectrum group's layers are read at once off the chain's
    jump grid (``chain._jump_grid``), its collisions first.
    """
    dim = realized.config.system.dim
    _, *grid = _jump_grid(realized)
    layers = [None] * len(realized.stages)
    for group in realized.groups:
        at, q = list(group.collisions), group.populations
        weights, levels, ancillas = (part[:, at, : q.shape[1]].swapaxes(0, 1) for part in grid)
        k, a, n_in, s = np.nonzero((weights != 0.0) & (q != 0.0)[:, None, :, None])
        n_out = ancillas[k, a, n_in, s]
        fan = np.bincount(k * dim + a, minlength=len(q) * dim).reshape(-1, dim)
        columns = (
            levels[k, a, n_in, s].astype(np.min_scalar_type(dim - 1)),
            realized.heat_ids[group.spectrum].T[n_in, n_out],
            q[k, n_in],
            weights[k, a, n_in, s],
        )
        ends = np.cumsum(fan.sum(axis=1)).tolist()
        for i, f, lo, hi in zip(group.collisions, fan, [0] + ends, ends):
            level, heat, *factors = (column[lo:hi] for column in columns)
            moves = list(zip(n_in[lo:hi].tolist(), n_out[lo:hi].tolist()))
            layers[i] = _Layer(np.cumsum(f) - f, f, level, heat, tuple(factors), moves)
    return layers


def _check_cap(realized: RealizedModel, layers: list[_Layer], cap: int, route: str) -> None:
    """Count the paths with no zero factor exactly, by a dynamic program over levels."""
    counts = [int(p > 0.0) for p in realized.system_state.populations.tolist()]
    for layer in layers:
        reach = [0] * len(counts)
        for a, (start, fan) in enumerate(zip(layer.first.tolist(), layer.fan.tolist())):
            for b in layer.level[start : start + fan].tolist():
                reach[b] += counts[a]
        counts = reach
    paths = sum(counts)
    if paths > cap:
        raise EnumerationCapError(f"{route} enumeration needs {paths} paths, cap is {cap}")


def _augmented_layers(model: ModelConfig, cap: int) -> tuple[RealizedModel, list[_Layer]]:
    """The realized chain and its via-ancilla layers, once their paths fit within ``cap``."""
    realized = realize_model(model)
    layers = _ancilla_layers(realized)
    _check_cap(realized, layers, cap, "augmented-path")
    return realized, layers


def _children(layer: _Layer, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each path's steps, laid out contiguously in table order: parent path and step index."""
    fan = layer.fan[level]
    ends = np.cumsum(fan)
    index = np.int32 if ends[-1:].sum() < 2**31 else np.intp  # narrow, while it fits
    parent = np.repeat(np.arange(len(level), dtype=index), fan)
    offset = (layer.first[level] - (ends - fan)).astype(index)
    return parent, np.arange(len(parent), dtype=index) + np.repeat(offset, fan)


def _path_blocks(
    realized: RealizedModel, layers: list[_Layer]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]]:
    """Every nonzero path in blocks: weight, start and end level, and the step in each layer.

    Paths come out in the depth-first order of :func:`_sweep`, and each
    weight is multiplied left to right.  A frontier whose children would
    outnumber ``_BLOCK_PATHS`` is expanded a prefix at a time, the rest
    waiting on a stack, so each depth holds one frontier of about a block
    and memory stays O(block x layers) however many paths there are.
    Steps are recovered through each layer's back-pointers once a block
    is complete.
    """
    p0 = realized.system_state.populations
    start = np.flatnonzero(p0 > 0.0)
    n = len(layers)
    levels, weights, reach = [start] + [None] * n, [p0[start]] + [None] * n, [None] * n
    trail = [None] * n  # per layer: each path's parent in the frontier above, and its step
    pending = [(0, 0)] if len(start) else []  # (depth, first frontier path not yet expanded)
    while pending:
        depth, lo = pending.pop()
        level = levels[depth]
        if depth == n:
            path = np.arange(len(level))
            steps = [None] * n
            for i in range(n - 1, -1, -1):
                parent, step = trail[i]
                steps[i] = step[path]
                path = parent[path]
            yield weights[n], start[path], level, steps
            continue
        layer = layers[depth]
        if lo == 0:
            reach[depth] = np.cumsum(layer.fan[level])
        below = reach[depth][lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(reach[depth], below + _BLOCK_PATHS, side="right")))
        if hi < len(level):
            pending.append((depth, hi))
        parent, step = _children(layer, level[lo:hi])
        parent += lo
        weight = weights[depth][parent]
        for factor in layer.factors:
            weight *= factor[step]
        levels[depth + 1], weights[depth + 1] = layer.level[step], weight
        trail[depth] = (parent, step)
        if len(step):
            pending.append((depth + 1, 0))


def _sweep(realized: RealizedModel, layers: list[_Layer], direction: str) -> JointHeatDistribution:
    """Enumerate every nonzero path one layer at a time and fold it onto its heat key.

    Each path's children are laid out contiguously in table order, so the
    paths stay in depth-first order (starts ascending, then successors in
    table order) and each weight is multiplied left to right as a
    path-by-path loop would.  ``np.bincount`` then adds the path weights
    of each key in that order, with keys in order of first occurrence.
    """
    values = realized.heat_values
    p0 = realized.system_state.populations
    level = np.flatnonzero(p0 > 0.0)
    weight = p0[level]
    code, bound = np.zeros(len(level), dtype=np.int64), 1
    trail = []  # per layer: each path's parent and the heat id of its step
    for layer in layers:
        parent, step = _children(layer, level)
        weight = weight[parent]
        for factor in layer.factors:
            weight *= factor[step]
        heat = layer.heat[step]
        code, bound = _push_digit(code[parent], bound, len(values), heat)
        level = layer.level[step]
        trail.append((parent, heat))
    del step, level  # before the grouping below, which peaks in memory

    group, first = _first_occurrence(code, bound)
    masses = np.bincount(group, weights=weight, minlength=len(first))
    columns = np.empty((len(layers), len(first)), dtype=_id_dtype(len(values)))  # ids, one row per layer
    path = first
    for i in range(len(layers) - 1, -1, -1):
        parent, heat = trail[i]
        heat.take(path, out=columns[i])
        path = parent[path]

    low = masses < PRUNE_THRESHOLD
    pruned = sum(masses[low].tolist(), 0.0)
    if low.any():
        columns, masses = columns[:, ~low], masses[~low]
    return _coded_law(_Codes(values, columns.T, masses), direction, len(layers), pruned)


def _system_law(
    realized: RealizedModel, layers: list[_Layer], cap: int, direction: str
) -> JointHeatDistribution:
    """The law of the system paths through ``layers``, once they fit within ``cap``.

    ``layers`` are in collision order.  A stage's layer is the same in both
    directions, so the backward law sweeps them reversed.
    """
    if direction == "backward":
        layers = layers[::-1]
    _check_cap(realized, layers, cap, "system-path")
    return _sweep(realized, layers, direction)


def _exact_joint(model: ModelConfig, cap: int, direction: str) -> JointHeatDistribution:
    """Enumerate every system path of the chain, forward or backward."""
    realized = realize_model(model)
    return _system_law(realized, _system_layers(realized, realized.stages), cap, direction)


def exact_forward_joint(model: ModelConfig, cap: int = DEFAULT_ENUMERATION_CAP) -> JointHeatDistribution:
    """Enumerate every system path of the forward chain exactly.

    Slot ``i-1`` of each key is the heat delivered to ancilla ``i``.
    """
    return _exact_joint(model, cap, "forward")


def exact_backward_joint(model: ModelConfig, cap: int = DEFAULT_ENUMERATION_CAP) -> JointHeatDistribution:
    """Enumerate the reversed protocol exactly.

    The backward process is the same chain applied in reverse collision
    order, starting again from the system's thermal state.  Conjugating an
    interaction leaves its propagator unchanged only when the propagator
    keeps detailed balance at its ancilla's beta; otherwise this is not
    the time-reversed protocol.  Keys are stored in backward chronological
    order (slot 0 is the heat delivered to the last ancilla); each slot is
    positive when energy leaves the system during that backward collision,
    which makes it the negated forward-trajectory heat of the matching
    ancilla.
    """
    return _exact_joint(model, cap, "backward")


def iter_augmented_paths(
    model: ModelConfig, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, int], ...], float]]:
    """Yield every augmented path (system levels, ancilla in/out pairs, weight).

    The weight multiplies the initial thermal probability, each ancilla's
    thermal weight and the jump probability of each collision; zero-weight
    branches are skipped.  Paths stream in the depth-first order of the
    via-ancilla sweep, a block of :func:`_path_blocks` at a time.
    """
    realized, layers = _augmented_layers(model, cap)
    for weights, starts, _, steps in _path_blocks(realized, layers):
        levels = [layer.level[step].tolist() for layer, step in zip(layers, steps)]
        moves = [list(map(layer.moves.__getitem__, step.tolist())) for layer, step in zip(layers, steps)]
        yield from zip(zip(starts.tolist(), *levels), zip(*moves), weights.tolist())


def exact_forward_joint_via_ancilla_paths(
    model: ModelConfig, cap: int = DEFAULT_ENUMERATION_CAP
) -> JointHeatDistribution:
    """Rebuild the forward joint distribution from ancilla-side bookkeeping.

    Heats are read off the ancilla level changes instead of the system
    path, which exercises an independent enumeration route; the result must
    agree entrywise with :func:`exact_forward_joint`.
    """
    realized, layers = _augmented_layers(model, cap)
    return _sweep(realized, layers, "forward")


def marginalize(dist: JointHeatDistribution, keep: int | Sequence[int]) -> JointHeatDistribution:
    """Sum out heat coordinates, keeping a prefix or an arbitrary subset.

    ``keep`` is either a prefix length (kept coordinates 0..keep-1) or an
    explicit ordered list of coordinate positions.
    """
    try:
        prefix = operator.index(keep)
    except TypeError:
        coords = tuple(keep)
        if not coords:
            raise ValueError("must keep at least one coordinate")
        if any(not 0 <= c < dist.n_collisions for c in coords):
            raise ValueError(f"coordinates {coords} out of range for N={dist.n_collisions}")
        if len(set(coords)) < len(coords):
            repeated = next(c for at, c in enumerate(coords) if c in coords[:at])
            raise ValueError(f"coordinate {repeated} repeated in {coords}")
    else:
        if isinstance(keep, bool) or not 0 < prefix <= dist.n_collisions:
            raise ValueError(f"prefix length {keep} is not an integer in 1..{dist.n_collisions}")
        coords = tuple(range(prefix))
    values, ids, masses = _codes(dist)
    kept = ids[:, list(coords)]
    group, first = _first_occurrence(*_row_codes(kept, len(values)))
    reduced = np.bincount(group, weights=masses, minlength=len(first))
    return _coded_law(
        _Codes(values, kept[first], reduced), dist.direction, len(coords), dist.pruned_mass
    )


def single_collision_distribution(
    model: ModelConfig, i: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> JointHeatDistribution:
    """Heat distribution of a fresh single collision with ancilla ``i``.

    This is a new process (system rethermalized, one collision), not a
    marginal of the joint distribution; the two only coincide for i = 1.
    It is swept over stage ``i`` of the chain's own realization, which
    realizes the blocks of ``single_collision_model(model, i)`` bit for
    bit, and keyed on the chain's registry.  So it realizes the whole
    chain, and raises for a fault at any collision, not only at ``i``.
    """
    if not 1 <= i <= model.n_collisions:
        raise ValueError(f"collision index {i} out of range 1..{model.n_collisions}")
    realized = realize_model(model)
    return _system_law(realized, _system_layers(realized, realized.stages[i - 1 : i]), cap, "forward")


@dataclass(frozen=True)
class FTReport:
    """Outcome of one fluctuation-theorem style identity check."""

    max_log_residual: float
    checked_pairs: int
    support_mismatches: tuple[HeatKey, ...]
    tolerance: float
    passed: bool


def _logs(values: np.ndarray) -> np.ndarray:
    # math.log, not np.log, whose last bit may differ; non-positive values give -inf.
    logs = np.fromiter(map(math.log, np.where(values > 0, values, 1.0).tolist()), float, len(values))
    return np.where(values > 0, logs, -math.inf)


def _exponents(values: Sequence[Fraction], ids: np.ndarray, model: ModelConfig) -> np.ndarray:
    """``sum_i (beta_i - beta_s) Q_i`` per key of ``model``, added column by column as a per-key loop would."""
    heats = np.array([float(q) for q in values])
    total = np.zeros(len(ids))
    for gap, column in zip(model.beta_gaps, ids.T):
        total += gap * heats[column]
    return total


def _flip_log_ratio(values: Sequence[Fraction], ids: np.ndarray, masses: np.ndarray):
    """Per heat id ``h`` of a one-collision law: ``log p(h) - log p(-h)``, and where both are nonzero."""
    mass = np.zeros(len(values))
    mass[ids[:, 0]] = masses
    plus, minus = mass.tolist(), mass[::-1].tolist()
    support = [p != 0.0 and m != 0.0 for p, m in zip(plus, minus)]
    ratio = [math.log(p) - math.log(m) if s else 0.0 for p, m, s in zip(plus, minus, support)]
    return np.array(ratio), np.array(support, dtype=bool)


def _check_log_ratio(
    forward: JointHeatDistribution,
    backward: JointHeatDistribution,
    values: Sequence[Fraction],
    fwd: np.ndarray,
    bwd: np.ndarray,
    terms: Sequence[np.ndarray],
    supported: np.ndarray | bool,
    tolerance: float,
    *,
    strict_rhs: bool = False,
    orphans: np.ndarray | None = None,
) -> FTReport:
    """Compare ``log p_F - log p_B`` at each forward key with its partner.

    ``fwd`` and ``bwd`` are the laws' id rows on ``values`` (see
    :func:`_shared`).  Which keys have a partner, and ``log p_F - log p_B``
    over those keys, are computed once per pair of laws and cached on
    ``forward``, as its codes are, so the three identity checks of one
    pair look the partners up and take the logs once.  ``terms`` are
    per-key arrays subtracted, in order, from the log ratio, valid where
    ``supported``; elsewhere a factor on the right has no support.  A key
    without a partner or a right-hand side is a mismatch unless its mass
    could have been pruned (``strict_rhs`` drops that allowance for the
    right-hand side).  ``orphans`` are mismatch rows the caller found.
    """
    p_fwd = _codes(forward).masses
    pairing = forward.__dict__.get("_pairing")
    if pairing is None or pairing[0] is not backward:
        radix = len(values)
        p_bwd = _masses_at(_codes(backward).masses, _lookup(_negated_reversed(fwd, radix), bwd, radix))
        paired = p_bwd != 0.0
        ratio = np.zeros(len(fwd))
        ratio[paired] = _logs(p_fwd[paired]) - _logs(p_bwd[paired])
        pairing = (backward, paired, ratio)
        object.__setattr__(forward, "_pairing", pairing)
    _, paired, ratio = pairing
    checked = paired & supported
    lost = ~checked & ((p_fwd > SUPPORT_FLOOR) | (strict_rhs & paired))
    residual = ratio[checked]
    for term in terms:
        residual -= term[checked]
    magnitude = np.abs(residual)
    worst = float(np.max(magnitude, initial=0.0, where=~np.isnan(magnitude)))
    rows = fwd[lost] if orphans is None else np.concatenate([orphans, fwd[lost]])
    mismatches = tuple(
        tuple(map(values.__getitem__, row))
        for row in (np.unique(rows, axis=0).tolist() if len(rows) else ())
    )
    return FTReport(
        max_log_residual=worst,
        checked_pairs=int(np.count_nonzero(checked)),
        support_mismatches=mismatches,
        tolerance=tolerance,
        passed=(worst <= tolerance and not mismatches),
    )


def verify_joint_ft(
    forward: JointHeatDistribution,
    backward: JointHeatDistribution,
    model: ModelConfig,
    tolerance: float = 1e-9,
) -> FTReport:
    """Check the exchange identity between a forward/backward pair.

    For every forward tuple the backward mass is looked up at the reversed,
    negated key and the log ratio is compared against
    ``sum_i (beta_i - beta_s) Q_i``.  Support must match in both
    directions; a one-sided key is only forgiven when its mass is small
    enough to have been pruned on the other side.
    """
    if forward.n_collisions != backward.n_collisions:
        raise ModelError("forward/backward collision counts differ")
    if forward.n_collisions != model.n_collisions:
        raise ModelError("distribution and model collision counts differ")
    values, (fwd, bwd) = _shared(forward, backward)
    masses_bwd = _codes(backward).masses
    flipped = _negated_reversed(bwd, len(values))
    orphans = flipped[(masses_bwd > SUPPORT_FLOOR) & (_lookup(flipped, fwd, len(values)) < 0)]
    return _check_log_ratio(
        forward, backward, values, fwd, bwd, (_exponents(values, fwd, model),), True, tolerance, orphans=orphans
    )


def verify_product_relation(
    forward: JointHeatDistribution,
    backward: JointHeatDistribution,
    singles: Sequence[JointHeatDistribution],
    tolerance: float = 1e-9,
) -> FTReport:
    """Check that the forward/backward log ratio factors over collisions.

    The right-hand side multiplies, for each collision, the ratio of the
    fresh single-collision distribution at +Q_i and -Q_i.  The joint
    distribution itself does not factor; only the ratio does.  A zero
    single-collision factor is a mismatch whatever the key's mass.
    """
    if forward.n_collisions != backward.n_collisions:
        raise ModelError("forward/backward collision counts differ")
    if len(singles) != forward.n_collisions:
        raise ModelError("need one single-collision distribution per collision")
    if any(single.n_collisions != 1 for single in singles):
        raise ModelError("a single-collision distribution must have one collision")
    values, (fwd, bwd, *ones) = _shared(forward, backward, *singles)
    total = np.zeros(len(fwd))
    supported = np.ones(len(fwd), dtype=bool)
    for single, ids, column in zip(singles, ones, fwd.T):
        ratio, support = _flip_log_ratio(values, ids, _codes(single).masses)
        total += ratio[column]
        supported &= support[column]
    return _check_log_ratio(forward, backward, values, fwd, bwd, (total,), supported, tolerance, strict_rhs=True)


def verify_partial_decomposition(
    model: ModelConfig,
    tolerance: float = 1e-9,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> FTReport:
    """Peel the last collision off the forward/backward log ratio.

    The full ratio must equal the ratio of the one-collision-shorter pair
    (forward prefix marginal against the backward run of the truncated
    chain) times the single-collision ratio of the last ancilla.  The
    analogous statement for dropping the *first* collision is false; see
    the causal-asymmetry tests.  Every law is swept off one realization of
    the chain, the truncated backward law last, over stages ``N-1 .. 1``,
    which the truncated chain realizes bit for bit.
    """
    if model.n_collisions < 2:
        raise ValueError("partial decomposition needs at least two collisions")
    realized = realize_model(model)
    layers = _system_layers(realized, realized.stages)
    forward = _system_law(realized, layers, cap, "forward")
    backward = _system_law(realized, layers, cap, "backward")
    last_single = _system_law(realized, layers[-1:], cap, "forward")
    shorter_backward = _system_law(realized, layers[:-1], cap, "backward")
    return _partial_decomposition(forward, backward, last_single, shorter_backward, tolerance)


def _partial_decomposition(
    forward: JointHeatDistribution,
    backward: JointHeatDistribution,
    last_single: JointHeatDistribution,
    shorter_backward: JointHeatDistribution,
    tolerance: float,
) -> FTReport:
    """:func:`verify_partial_decomposition` on the laws it compares.

    The forward prefix law is read off ``forward``: its masses summed over
    the keys' first ``N-1`` heats, in key order, as :func:`marginalize`
    sums them.  ``shorter_backward`` is the backward law of the chain
    without its last collision.
    """
    values, (fwd, bwd, head_bwd, last) = _shared(forward, backward, shorter_backward, last_single)
    radix = len(values)
    head = fwd[:, :-1]
    masses = _codes(forward).masses
    group, first = _first_occurrence(*_row_codes(head, radix))
    p_head = np.bincount(group, weights=masses, minlength=len(first))[group]
    p_head_bwd = _masses_at(
        _codes(shorter_backward).masses, _lookup(_negated_reversed(head, radix), head_bwd, radix)
    )
    ratio, support = _flip_log_ratio(values, last, _codes(last_single).masses)
    supported = (p_head != 0.0) & (p_head_bwd != 0.0) & support[fwd[:, -1]]
    prefix_ratio = np.zeros(len(fwd))
    prefix_ratio[supported] = _logs(p_head[supported]) - _logs(p_head_bwd[supported])
    return _check_log_ratio(
        forward, backward, values, fwd, bwd, (prefix_ratio, ratio[fwd[:, -1]]), supported, tolerance
    )


def _differences(a: JointHeatDistribution, b: JointHeatDistribution) -> np.ndarray:
    """``|p_a - p_b|`` over the union support: ``a``'s keys in order, then ``b``'s others."""
    if a.n_collisions != b.n_collisions:
        raise ModelError("compared distributions' collision counts differ")
    values, (ids_a, ids_b) = _shared(a, b)
    masses_a, masses_b = _codes(a).masses, _codes(b).masses
    at = _lookup(ids_a, ids_b, len(values))
    only_b = np.ones(len(ids_b), dtype=bool)
    only_b[at[at >= 0]] = False
    return np.abs(np.concatenate([masses_a - _masses_at(masses_b, at), masses_b[only_b]]))


def compare_distributions(a: JointHeatDistribution, b: JointHeatDistribution) -> float:
    """Largest entrywise probability difference over the union support."""
    return float(np.max(_differences(a, b), initial=0.0))


def total_variation(a: JointHeatDistribution, b: JointHeatDistribution) -> float:
    """Half the l1 distance between two distributions."""
    return 0.5 * sum(_differences(a, b).tolist())


def integral_ft_expectation(forward: JointHeatDistribution, model: ModelConfig) -> float:
    """Expectation of ``exp(-sum (beta_i - beta_s) Q_i)`` under the forward law.

    Equals 1 (up to pruning) whenever the exchange identity holds.
    """
    if forward.n_collisions != model.n_collisions:
        raise ModelError("distribution and model collision counts differ")
    values, ids, masses = _codes(forward)
    exponents = _exponents(values, ids, model)
    return float(sum(p * math.exp(-s) for p, s in zip(masses.tolist(), exponents.tolist())))


# ---------------------------------------------------------------------------
# Serialization: CSV and JSON views of a distribution, written a block of
# keys at a time by ``_text_block`` (see "Text output" above).


def _cells(texts) -> np.ndarray:
    """An object array of text cells, one per id, to be read by fancy indexing."""
    return np.array(list(texts), dtype=object)


def _list_tables(
    texts: Sequence[str], separator: str, after: str, n: int, rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells of a list of ``n`` ids into ``texts``, a run of ``c`` consecutive items per cell.

    A run's cell is its items' texts in order, each followed by
    ``separator``, but the closing run (the last ``1..c`` items) ends with
    ``after``.  A run is looked up by its ids read as a base-``R`` number,
    ``R = len(texts)``: returned are the place values, then the cells of
    full runs and of the closing run by that code.  ``c`` is the widest
    run, at most ``n``, whose ``R**c`` cells stay within ``_RUN_CELLS`` and
    the ``rows`` served (but at least 1), so small laws build small tables.
    """
    size, width = len(texts), 1
    while width < n and size ** (width + 1) <= min(_RUN_CELLS, max(rows, size)):
        width += 1
    middle, last = [t + separator for t in texts], [t + after for t in texts]
    return (
        size ** np.arange(width - 1, -1, -1, dtype=np.int64),
        _cells(map("".join, product(middle, repeat=width))),
        _cells(map("".join, product(*[middle] * ((n - 1) % width), last))),
    )


def _list_cells(ids: np.ndarray, tables: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """The run cells of each row's list of ids, from :func:`_list_tables` (or such tables stacked)."""
    rows, n = ids.shape
    powers, runs, closing = tables
    inner = max(n - 1, 0) // len(powers)  # full runs before the closing one
    full = inner * len(powers)
    cells = np.empty((rows, inner + (n > 0), *runs.shape[1:]), dtype=object)
    cells[:, :inner] = runs[ids[:, :full].reshape(rows, inner, len(powers)) @ powers]
    if n:
        cells[:, -1] = closing[ids[:, full:] @ powers[full - n :]]
    return cells


def _text_cells(rows: int, parts: Sequence) -> np.ndarray:
    """A block of rows as a ``(rows, cells)`` object array of text, a row's cells in order.

    A part is one cell that every row shares (a ``str``), or a ``(rows,)``
    or ``(rows, k)`` object array of cells.  Cells carry their own
    separators, so a row is its parts' cells concatenated in order.
    """
    columns = [part if isinstance(part, str) else part.reshape(rows, -1) for part in parts]
    widths = [1 if isinstance(column, str) else column.shape[1] for column in columns]
    cells = np.empty((rows, sum(widths)), dtype=object)
    at = 0
    for column, width in zip(columns, widths):
        cells[:, at : at + width] = column
        at += width
    return cells


def _text_block(rows: int, parts: Sequence) -> str:
    """A block of rows, laid out by :func:`_text_cells`, as one string built by one join."""
    return "".join(_text_cells(rows, parts).ravel().tolist())


def _json_floats(values: list) -> list[str]:
    """JSON's texts of floats: ``repr``'s for finite ones, ``NaN``, ``Infinity`` and ``-Infinity``."""
    return json.dumps(values)[1:-1].split(", ")


def _float_cells(values: np.ndarray, texts: Callable) -> np.ndarray:
    """Text cells of a float array: finite values as ``repr`` spells them, others by ``texts``.

    From ``_FLOAT_TEXTS_MIN`` values, all finite, :mod:`heatchain.floattext`
    writes them for the array at once; otherwise ``texts`` (a list of floats
    -> texts) writes every value, so a ``nan`` or ``inf`` follows its rules.
    """
    if len(values) >= _FLOAT_TEXTS_MIN and np.isfinite(values).all():
        from .floattext import float_texts
        return _cells(float_texts(values))
    return _cells(texts(values.tolist()))


def _export_blocks(dist: JointHeatDistribution, texts: Callable) -> Iterator[tuple]:
    """Id rows in key order, ``_EXPORT_BLOCK_ROWS`` keys at a time, and cells of their masses' texts.

    The masses are spelled by :func:`_float_cells`, ``texts`` writing a span with a non-finite one.
    """
    _, ids, masses = _codes(dist)
    order = _key_order(ids)
    for start in range(0, len(order), _EXPORT_SPAN_ROWS):
        span = order[start : start + _EXPORT_SPAN_ROWS]
        bits = masses[span].view(np.int64)  # repeated by neighbours, as a sampled law's counts are:
        bits, at = np.unique(bits, return_inverse=True) if (bits[1:] == bits[:-1]).any() else (bits, ...)
        cells = _float_cells(bits.view(float), texts)[at]  # one text per distinct mass
        for block in range(0, len(span), _EXPORT_BLOCK_ROWS):
            yield ids[span[block : block + _EXPORT_BLOCK_ROWS]], cells[block : block + _EXPORT_BLOCK_ROWS]


def distribution_to_csv(dist: JointHeatDistribution, include_exact: bool = False) -> str:
    """Render as CSV, one row per heat tuple, sorted by key.

    Heat columns are 12-significant-digit decimals; probabilities use the
    shortest exact float representation.  With ``include_exact`` the exact
    "num/den" keys are appended as extra columns.
    """
    return "".join(_csv_texts(dist, include_exact))


def _csv_texts(dist: JointHeatDistribution, include_exact: bool = False) -> Iterator[str]:
    """The text of :func:`distribution_to_csv`: its header line, then each block of rows."""
    n = dist.n_collisions
    header = [f"Q_{i}" for i in range(1, n + 1)] + ["probability"]
    if include_exact:
        header += [f"Q_{i}_exact" for i in range(1, n + 1)]
    yield ",".join(header) + "\n"

    values, ids, _ = _codes(dist)
    keys, width = ids.shape
    tables = _list_tables([format(float(q), ".12g") for q in values], ",", ",", width, keys)
    if exact := include_exact and width > 0:  # stacked, so one read of the run codes serves both
        exact_tables = _list_tables([format_rational(q) for q in values], ",", "\n", width, keys)
        tables = (tables[0], *map(np.column_stack, zip(tables[1:], exact_tables[1:])))
    for rows, probs in _export_blocks(dist, lambda masses: map(repr, masses)):
        heats = _list_cells(rows, tables)
        yield _text_block(len(rows), [heats[..., 0], probs, ",", heats[..., 1]] if exact else [heats, probs, "\n"])


def _json_texts(dist: JointHeatDistribution) -> Iterator[str]:
    """``json.dumps(distribution_to_json(dist), indent=2) + "\\n"``: its head, each block of entries, then its tail.

    The entries are laid out as the indenting encoder lays them out; a
    span of masses with a ``nan`` or ``inf`` is formatted by the encoder
    itself, so the float rules (``NaN``, ``Infinity``) are JSON's.
    """
    values, ids, _ = _codes(dist)
    head = json.dumps(
        {
            "direction": dist.direction,
            "n_collisions": dist.n_collisions,
            "pruned_mass": dist.pruned_mass,
            "entries": [],
        },
        indent=2,
    )
    if not len(ids):
        yield head + "\n"
        return
    heat_tables = _list_tables(
        [json.dumps(format_rational(q)) for q in values],
        ",\n        ",
        '\n      ],\n      "probability": ',
        ids.shape[1], len(ids),
    )
    opening = ',\n    {\n      "heats": ' + ("[\n        " if ids.shape[1] else '[],\n      "probability": ')
    yield head[: -len("]\n}")]
    comma = 1  # no comma before the first entry
    for rows, probs in _export_blocks(dist, _json_floats):
        yield _text_block(len(rows), [opening, _list_cells(rows, heat_tables), probs, "\n    }"])[comma:]
        comma = 0
    yield "\n  ]\n}\n"


def distribution_to_json(dist: JointHeatDistribution) -> dict:
    """JSON-ready document mirroring the key -> probability map exactly."""
    values, ids, masses = _codes(dist)
    order = _key_order(ids)
    text = [format_rational(q) for q in values]
    return {
        "direction": dist.direction,
        "n_collisions": dist.n_collisions,
        "pruned_mass": dist.pruned_mass,
        "entries": [
            {"heats": list(map(text.__getitem__, row)), "probability": prob}
            for row, prob in zip(ids[order].tolist(), masses[order].tolist())
        ],
    }


def distribution_from_json(document: Mapping) -> JointHeatDistribution:
    """Inverse of :func:`distribution_to_json`; keys round-trip exactly."""
    n, items = int(document["n_collisions"]), enumerate(document["entries"])
    entries = _parsed_entries(items, n, "entries[{}]", itemgetter("heats"), itemgetter("probability"))
    return JointHeatDistribution(
        entries=entries,
        direction=document["direction"],
        n_collisions=n,
        pruned_mass=float(document.get("pruned_mass", 0.0)),
    )


def distribution_from_csv(text: str, direction: str = "forward") -> JointHeatDistribution:
    """Parse CSV produced with ``include_exact=True``.

    The decimal heat columns are display only; keys are rebuilt from the
    exact "num/den" columns, so the map round-trips without float aliasing.
    """
    lines = [(at, line) for at, line in enumerate(text.splitlines(), 1) if line]
    if not lines:
        raise ModelError("empty distribution CSV")
    header = lines[0][1].split(",")
    n = sum(1 for name in header if name.endswith("_exact"))
    if n == 0:
        raise ModelError("distribution CSV lacks the exact 'Q_i_exact' columns")
    if header != [f"Q_{i}" for i in range(1, n + 1)] + ["probability"] + [
        f"Q_{i}_exact" for i in range(1, n + 1)
    ]:
        raise ModelError(f"unexpected distribution CSV header {header!r}")
    rows = ((at, line.split(",")) for at, line in lines[1:])
    entries = _parsed_entries(rows, n, "line {}", itemgetter(slice(n + 1, None)), itemgetter(n))
    return JointHeatDistribution(entries=entries, direction=direction, n_collisions=n)


def _parsed_entries(items, n: int, where: str, heats: Callable, probability: Callable) -> dict[HeatKey, float]:
    """Key -> probability of each ``(number, item)``, read in that order.

    An item without ``n`` heats and a numeric probability, or whose key
    repeats another's by value, raises a ModelError naming it by ``where``.
    """
    entries: dict[HeatKey, float] = {}
    parse = lru_cache(maxsize=None, typed=True)(parse_rational)  # once per text; typed: True is not 1
    for at, item in items:
        try:
            texts = heats(item)
            if len(texts) != n:
                raise ModelError(f"heat key has length {len(texts)}, not n_collisions={n}")
            key, mass = tuple(map(parse, texts)), float(probability(item))
            if key in entries:
                raise ModelError(f"heat key ({', '.join(map(format_rational, key))}) is repeated")
        except KeyError as exc:
            raise ModelError(f"{where.format(at)} has no {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ModelError(f"{where.format(at)}: {exc}") from None
        entries[key] = mass
    return entries
