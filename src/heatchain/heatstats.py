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

There are two enumeration routes.  The system-path route sweeps the chain
of per-collision propagators, in collision order for the forward law and
reversed for the backward one.  The via-ancilla route sweeps augmented
paths through each collision's jump table (``CollisionStage.outcomes``)
and reads heats off the ancillas.  All three identity checks share one
log-ratio loop, ``_check_log_ratio``, and differ only in their right-hand
sides.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .chain import realize_model
from .model import (
    EnumerationCapError,
    ModelConfig,
    ModelError,
    format_rational,
    parse_rational,
    single_collision_model,
    truncated_model,
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

    def probability(self, key: HeatKey) -> float:
        return self.entries.get(tuple(key), 0.0)

    def total_mass(self) -> float:
        return float(sum(self.entries.values()))

    def items_sorted(self) -> list[tuple[HeatKey, float]]:
        return sorted(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)


def _finalize(
    accum: dict[HeatKey, float], direction: str, n_collisions: int
) -> JointHeatDistribution:
    pruned = 0.0
    kept: dict[HeatKey, float] = {}
    for key, mass in accum.items():
        if mass < PRUNE_THRESHOLD:
            pruned += mass
        else:
            kept[key] = mass
    return JointHeatDistribution(
        entries=kept, direction=direction, n_collisions=n_collisions, pruned_mass=pruned
    )


def _accumulate_paths(
    initial: np.ndarray,
    matrices: Sequence[np.ndarray],
    heat_of_step: list[list[Fraction]],
) -> dict[HeatKey, float]:
    """Depth-first sweep over all chain paths, folding weights onto heat keys.

    ``matrices[i][next, cur]`` weights the step, ``heat_of_step[cur][next]``
    labels it.  Zero-weight branches are skipped.  An explicit stack keeps
    long chains clear of the recursion limit; siblings are pushed in
    reverse, so starts and then successors are visited in ascending order.
    """
    # children[i][cur] = (next, weight, heat) of every nonzero step, reversed.
    children = [
        [
            [(nxt, float(w), heat_of_step[cur][nxt]) for nxt, w in enumerate(col) if w != 0.0][::-1]
            for cur, col in enumerate(m.T)
        ]
        for m in matrices
    ]
    accum: dict[HeatKey, float] = {}
    key_buffer: list[Fraction] = [Fraction(0)] * len(matrices)
    stack = [(0, start, float(p), None) for start, p in enumerate(initial) if p > 0.0][::-1]
    while stack:
        step, level, weight, heat = stack.pop()
        if step:
            key_buffer[step - 1] = heat
        if step == len(matrices):
            key = tuple(key_buffer)
            accum[key] = accum.get(key, 0.0) + weight
            continue
        for nxt, w, q in children[step][level]:
            stack.append((step + 1, nxt, weight * w, q))
    return accum


def _exact_joint(model: ModelConfig, cap: int, direction: str) -> JointHeatDistribution:
    """Enumerate every system path, with the stages in collision order or reversed."""
    paths = model.system.dim ** (model.n_collisions + 1)
    if paths > cap:
        raise EnumerationCapError(
            f"system-path enumeration needs {paths} paths, cap is {cap}"
        )
    realized = realize_model(model)
    stages = realized.stages if direction == "forward" else realized.stages[::-1]
    levels = model.system.levels
    accum = _accumulate_paths(
        realized.system_state.populations,
        [stage.propagator.matrix for stage in stages],
        [[e_a - e_b for e_b in levels] for e_a in levels],  # heat of the drop a -> b
    )
    return _finalize(accum, direction, model.n_collisions)


def exact_forward_joint(
    model: ModelConfig, cap: int = DEFAULT_ENUMERATION_CAP
) -> JointHeatDistribution:
    """Enumerate every system path of the forward chain exactly.

    Slot ``i-1`` of each key is the heat delivered to ancilla ``i``.
    """
    return _exact_joint(model, cap, "forward")


def exact_backward_joint(
    model: ModelConfig, cap: int = DEFAULT_ENUMERATION_CAP
) -> JointHeatDistribution:
    """Enumerate the reversed protocol exactly.

    Rethermalizing everything and conjugating the interactions leaves the
    per-collision propagators unchanged; the backward process is the same
    chain applied in reverse collision order, starting again from the
    system's thermal state.  Keys are stored in backward chronological
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
    branches are skipped.  Paths come in the same depth-first order as
    :func:`_accumulate_paths` visits them, from an explicit stack.
    """
    bound = math.prod(model.system.dim * anc.spectrum.dim**2 for anc in model.ancillas)
    if bound > cap:
        raise EnumerationCapError(
            f"augmented-path enumeration bound is {bound} paths, cap is {cap}"
        )
    realized = realize_model(model)
    n = model.n_collisions

    # children[i][alpha] = (alpha', (n, n'), q(n), jump) per occupied n and outcome, reversed.
    children = [
        [
            [
                (a_out, (n_in, n_out), float(q), jump)
                for n_in, q in enumerate(stage.ancilla_state.populations)
                if q != 0.0
                for a_out, n_out, jump in stage.outcomes[(alpha, n_in)]
            ][::-1]
            for alpha in range(model.system.dim)
        ]
        for stage in realized.stages
    ]
    alphas: list[int] = [0] * (n + 1)
    pairs: list[tuple[int, int]] = [(0, 0)] * n
    p0 = realized.system_state.populations
    stack = [(0, start, None, float(p)) for start, p in enumerate(p0) if p > 0.0][::-1]
    while stack:
        step, alpha, pair, weight = stack.pop()
        alphas[step] = alpha
        if step:
            pairs[step - 1] = pair
        if step == n:
            yield tuple(alphas), tuple(pairs), weight
            continue
        for a_out, move, qw, jump in children[step][alpha]:
            stack.append((step + 1, a_out, move, weight * qw * jump))


def exact_forward_joint_via_ancilla_paths(
    model: ModelConfig, cap: int = DEFAULT_ENUMERATION_CAP
) -> JointHeatDistribution:
    """Rebuild the forward joint distribution from ancilla-side bookkeeping.

    Heats are read off the ancilla level changes instead of the system
    path, which exercises an independent enumeration route; the result must
    agree entrywise with :func:`exact_forward_joint`.
    """
    anc_heat = [
        [[e_out - e_in for e_out in anc.spectrum.levels] for e_in in anc.spectrum.levels]
        for anc in model.ancillas
    ]

    accum: dict[HeatKey, float] = {}
    for _, pairs, weight in iter_augmented_paths(model, cap):
        key = tuple(
            anc_heat[i][n_in][n_out] for i, (n_in, n_out) in enumerate(pairs)
        )
        accum[key] = accum.get(key, 0.0) + weight
    return _finalize(accum, "forward", model.n_collisions)


def marginalize(
    dist: JointHeatDistribution, keep: int | Sequence[int]
) -> JointHeatDistribution:
    """Sum out heat coordinates, keeping a prefix or an arbitrary subset.

    ``keep`` is either a prefix length (kept coordinates 0..keep-1) or an
    explicit ordered list of coordinate positions.
    """
    if isinstance(keep, int):
        if not 0 < keep <= dist.n_collisions:
            raise ValueError(f"prefix length {keep} out of range 1..{dist.n_collisions}")
        coords: tuple[int, ...] = tuple(range(keep))
    else:
        coords = tuple(keep)
        if not coords:
            raise ValueError("must keep at least one coordinate")
        if any(not 0 <= c < dist.n_collisions for c in coords):
            raise ValueError(f"coordinates {coords} out of range for N={dist.n_collisions}")
    reduced: dict[HeatKey, float] = {}
    for key, mass in dist.entries.items():
        short = tuple(key[c] for c in coords)
        reduced[short] = reduced.get(short, 0.0) + mass
    return JointHeatDistribution(
        entries=reduced,
        direction=dist.direction,
        n_collisions=len(coords),
        pruned_mass=dist.pruned_mass,
    )


def single_collision_distribution(
    model: ModelConfig, i: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> JointHeatDistribution:
    """Heat distribution of a fresh single collision with ancilla ``i``.

    This is a new process (system rethermalized, one collision), not a
    marginal of the joint distribution; the two only coincide for i = 1.
    """
    return exact_forward_joint(single_collision_model(model, i), cap)


def _reversed_negated(key: HeatKey) -> HeatKey:
    return tuple(-q for q in reversed(key))


@dataclass(frozen=True)
class FTReport:
    """Outcome of one fluctuation-theorem style identity check."""

    max_log_residual: float
    checked_pairs: int
    support_mismatches: tuple[HeatKey, ...]
    tolerance: float
    passed: bool


def _check_log_ratio(
    forward: JointHeatDistribution,
    backward: JointHeatDistribution,
    rhs: Callable[[HeatKey], Sequence[float] | None],
    tolerance: float,
    *,
    strict_rhs: bool = False,
    orphans: Sequence[HeatKey] = (),
) -> FTReport:
    """Compare ``log p_fwd - log p_bwd`` at each forward key with its partner.

    ``rhs(key)`` gives the terms subtracted, in order, from the log ratio,
    or None when a factor on the right has no support.  A key without a
    partner or a right-hand side is a mismatch unless its mass could have
    been pruned (``strict_rhs`` drops that allowance for the right-hand
    side).  ``orphans`` are mismatches the caller found.
    """
    worst = 0.0
    checked = 0
    mismatches = list(orphans)
    for key, p_fwd in forward.entries.items():
        p_bwd = backward.entries.get(_reversed_negated(key), 0.0)
        terms = rhs(key) if p_bwd != 0.0 else None
        if terms is None:
            if p_fwd > SUPPORT_FLOOR or (strict_rhs and p_bwd != 0.0):
                mismatches.append(key)
            continue
        residual = math.log(p_fwd) - math.log(p_bwd)
        for term in terms:
            residual -= term
        worst = max(worst, abs(residual))
        checked += 1
    return FTReport(
        max_log_residual=worst,
        checked_pairs=checked,
        support_mismatches=tuple(sorted(set(mismatches))),
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
    deltas = [beta - model.system_beta for beta in model.ancilla_betas]
    orphans = [
        _reversed_negated(key)
        for key, p_bwd in backward.entries.items()
        if p_bwd > SUPPORT_FLOOR and _reversed_negated(key) not in forward.entries
    ]

    def exponent(key: HeatKey) -> tuple[float]:
        return (sum(d * float(q) for d, q in zip(deltas, key)),)

    return _check_log_ratio(forward, backward, exponent, tolerance, orphans=orphans)


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
    if len(singles) != forward.n_collisions:
        raise ModelError("need one single-collision distribution per collision")

    def rhs(key: HeatKey) -> tuple[float] | None:
        total = 0.0
        for single, q in zip(singles, key):
            plus = single.probability((q,))
            minus = single.probability((-q,))
            if plus == 0.0 or minus == 0.0:
                return None
            total += math.log(plus) - math.log(minus)
        return (total,)

    return _check_log_ratio(forward, backward, rhs, tolerance, strict_rhs=True)


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
    the causal-asymmetry tests.
    """
    n = model.n_collisions
    if n < 2:
        raise ValueError("partial decomposition needs at least two collisions")
    forward = exact_forward_joint(model, cap)
    backward = exact_backward_joint(model, cap)
    prefix_fwd = marginalize(forward, n - 1)
    prefix_bwd = exact_backward_joint(truncated_model(model, n - 1), cap)
    last_single = single_collision_distribution(model, n, cap)

    def rhs(key: HeatKey) -> tuple[float, float] | None:
        head, q = key[:-1], key[-1]
        fwd, bwd = prefix_fwd.probability(head), prefix_bwd.probability(_reversed_negated(head))
        plus, minus = last_single.probability((q,)), last_single.probability((-q,))
        if 0.0 in (fwd, bwd, plus, minus):
            return None
        return (math.log(fwd) - math.log(bwd), math.log(plus) - math.log(minus))

    return _check_log_ratio(forward, backward, rhs, tolerance)


def compare_distributions(
    a: JointHeatDistribution, b: JointHeatDistribution
) -> float:
    """Largest entrywise probability difference over the union support."""
    keys = set(a.entries) | set(b.entries)
    if not keys:
        return 0.0
    return max(abs(a.probability(k) - b.probability(k)) for k in keys)


def total_variation(a: JointHeatDistribution, b: JointHeatDistribution) -> float:
    """Half the l1 distance between two distributions."""
    keys = set(a.entries) | set(b.entries)
    return 0.5 * sum(abs(a.probability(k) - b.probability(k)) for k in keys)


def integral_ft_expectation(forward: JointHeatDistribution, model: ModelConfig) -> float:
    """Expectation of ``exp(-sum (beta_i - beta_s) Q_i)`` under the forward law.

    Equals 1 (up to pruning) whenever the exchange identity holds.
    """
    deltas = [beta - model.system_beta for beta in model.ancilla_betas]
    return float(
        sum(
            p * math.exp(-sum(d * float(q) for d, q in zip(deltas, key)))
            for key, p in forward.entries.items()
        )
    )


# ---------------------------------------------------------------------------
# Serialization: CSV and JSON views of a distribution.


def distribution_to_csv(dist: JointHeatDistribution, include_exact: bool = False) -> str:
    """Render as CSV, one row per heat tuple, sorted by key.

    Heat columns are 12-significant-digit decimals; probabilities use the
    shortest exact float representation.  With ``include_exact`` the exact
    "num/den" keys are appended as extra columns.
    """
    n = dist.n_collisions
    out = io.StringIO()
    header = [f"Q_{i}" for i in range(1, n + 1)] + ["probability"]
    if include_exact:
        header += [f"Q_{i}_exact" for i in range(1, n + 1)]
    out.write(",".join(header) + "\n")

    # Keys share a few Fraction objects, so every distinct value is ranked
    # and formatted once and cells are looked up by object identity.  Rows
    # sort on fixed-width big-endian rank bytes, which order exactly as the
    # Fraction tuples do, without comparing Fractions.
    objects = {id(q): q for key in dist.entries for q in key}
    values = sorted(set(objects.values()))
    width = max(1, ((len(values) - 1).bit_length() + 7) // 8)
    rank = {q: r.to_bytes(width, "big") for r, q in enumerate(values)}
    text = {q: (format(float(q), ".12g"), format_rational(q)) for q in values}
    rank_of = {i: rank[q] for i, q in objects.items()}
    decimal_of = {i: text[q][0] for i, q in objects.items()}
    exact_of = {i: text[q][1] for i, q in objects.items()}

    def rank_key(item: tuple[HeatKey, float]) -> bytes:
        return b"".join(map(rank_of.__getitem__, map(id, item[0])))

    for key, prob in sorted(dist.entries.items(), key=rank_key):
        cells = list(map(id, key))
        fields = [*map(decimal_of.__getitem__, cells), repr(prob)]
        if include_exact:
            fields += map(exact_of.__getitem__, cells)
        out.write(",".join(fields) + "\n")
    return out.getvalue()


def distribution_to_json(dist: JointHeatDistribution) -> dict:
    """JSON-ready document mirroring the key -> probability map exactly."""
    return {
        "direction": dist.direction,
        "n_collisions": dist.n_collisions,
        "pruned_mass": dist.pruned_mass,
        "entries": [
            {
                "heats": [format_rational(q) for q in key],
                "probability": prob,
            }
            for key, prob in dist.items_sorted()
        ],
    }


def distribution_from_json(document: Mapping) -> JointHeatDistribution:
    """Inverse of :func:`distribution_to_json`; keys round-trip exactly."""
    entries = {
        tuple(parse_rational(q) for q in item["heats"]): float(item["probability"])
        for item in document["entries"]
    }
    return JointHeatDistribution(
        entries=entries,
        direction=document["direction"],
        n_collisions=int(document["n_collisions"]),
        pruned_mass=float(document.get("pruned_mass", 0.0)),
    )


def distribution_from_csv(text: str, direction: str = "forward") -> JointHeatDistribution:
    """Parse CSV produced with ``include_exact=True``.

    The decimal heat columns are display only; keys are rebuilt from the
    exact "num/den" columns, so the map round-trips without float aliasing.
    """
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ModelError("empty distribution CSV")
    header = lines[0].split(",")
    n = sum(1 for name in header if name.endswith("_exact"))
    if n == 0:
        raise ModelError("distribution CSV lacks the exact 'Q_i_exact' columns")
    if header != [f"Q_{i}" for i in range(1, n + 1)] + ["probability"] + [
        f"Q_{i}_exact" for i in range(1, n + 1)
    ]:
        raise ModelError(f"unexpected distribution CSV header {header!r}")
    entries: dict[HeatKey, float] = {}
    for line in lines[1:]:
        cells = line.split(",")
        key = tuple(parse_rational(cell) for cell in cells[n + 1 :])
        entries[key] = float(cells[n])
    return JointHeatDistribution(entries=entries, direction=direction, n_collisions=n)
