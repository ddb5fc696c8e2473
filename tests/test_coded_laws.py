"""The coded enumeration and checks against a slow, Fraction-keyed reference.

The reference below is the path-by-path route: a depth-first sweep that
folds each path's weight onto a dict keyed by Fraction tuples, the same
dict fold over an explicit-stack walk of the augmented paths for the
via-ancilla route, and a log-ratio checker that calls a right-hand side
per key.  The package's
coded route must reproduce it exactly: the same entries in the same
order, the same float bits, the same pruned mass and the same reports.
"""

import cmath
import json
import math
import tracemalloc
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heatchain import (
    AncillaSpec,
    EnumerationCapError,
    FTReport,
    JointHeatDistribution,
    ModelConfig,
    Spectrum,
    UnitarySpec,
    average_entropy_production,
    build_energy_shells,
    compare_distributions,
    distribution_from_csv,
    distribution_from_json,
    distribution_to_csv,
    distribution_to_json,
    exact_backward_joint,
    exact_forward_joint,
    exact_forward_joint_via_ancilla_paths,
    format_rational,
    integral_ft_expectation,
    iter_augmented_paths,
    marginalize,
    realize_model,
    single_collision_model,
    total_variation,
    truncated_model,
    verify_joint_ft,
    verify_partial_decomposition,
    verify_product_relation,
)
from heatchain import heatstats
from heatchain.cli import dispatch
from heatchain.heatstats import PRUNE_THRESHOLD, SUPPORT_FLOOR

HeatKey = tuple[Fraction, ...]

# ---------------------------------------------------------------------------
# Reference route


def reference_finalize(accum: dict, direction: str, n: int) -> JointHeatDistribution:
    pruned = 0.0
    kept = {}
    for key, mass in accum.items():
        if mass < PRUNE_THRESHOLD:
            pruned += mass
        else:
            kept[key] = mass
    return JointHeatDistribution(entries=kept, direction=direction, n_collisions=n, pruned_mass=pruned)


def reference_accumulate(initial, matrices, heat_of_step) -> tuple[dict, int]:
    """Depth-first sweep over every nonzero chain path; also returns the path count."""
    children = [
        [
            [(nxt, float(w), heat_of_step[cur][nxt]) for nxt, w in enumerate(col) if w != 0.0][::-1]
            for cur, col in enumerate(m.T)
        ]
        for m in matrices
    ]
    accum: dict = {}
    paths = 0
    key = [Fraction(0)] * len(matrices)
    stack = [(0, start, float(p), None) for start, p in enumerate(initial) if p > 0.0][::-1]
    while stack:
        step, level, weight, heat = stack.pop()
        if step:
            key[step - 1] = heat
        if step == len(matrices):
            accum[tuple(key)] = accum.get(tuple(key), 0.0) + weight
            paths += 1
            continue
        for nxt, w, q in children[step][level]:
            stack.append((step + 1, nxt, weight * w, q))
    return accum, paths


def reference_joint(model: ModelConfig, direction: str) -> tuple[JointHeatDistribution, int]:
    realized = realize_model(model)
    stages = realized.stages if direction == "forward" else realized.stages[::-1]
    levels = model.system.levels
    accum, paths = reference_accumulate(
        realized.system_state.populations,
        [stage.propagator.matrix for stage in stages],
        [[e_a - e_b for e_b in levels] for e_a in levels],
    )
    return reference_finalize(accum, direction, model.n_collisions), paths


def reference_augmented_paths(model: ModelConfig):
    """Every augmented path (system levels, ancilla pairs, weight) from an explicit-stack DFS."""
    realized = realize_model(model)
    layers = heatstats._ancilla_layers(realized)
    n = len(layers)
    # children[i][alpha] = (alpha', (n, n'), q(n), jump) per step, reversed.
    children = [
        [
            list(
                zip(
                    layer.level[start : start + fan].tolist(),
                    layer.moves[start : start + fan],
                    layer.factors[0][start : start + fan].tolist(),
                    layer.factors[1][start : start + fan].tolist(),
                )
            )[::-1]
            for start, fan in zip(layer.first.tolist(), layer.fan.tolist())
        ]
        for layer in layers
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


def reference_via_ancillas(model: ModelConfig) -> tuple[JointHeatDistribution, int]:
    anc_heat = [
        [[e_out - e_in for e_out in anc.spectrum.levels] for e_in in anc.spectrum.levels]
        for anc in model.ancillas
    ]
    accum: dict = {}
    paths = 0
    for _, pairs, weight in reference_augmented_paths(model):
        key = tuple(anc_heat[i][n_in][n_out] for i, (n_in, n_out) in enumerate(pairs))
        accum[key] = accum.get(key, 0.0) + weight
        paths += 1
    return reference_finalize(accum, "forward", model.n_collisions), paths


def plain(paths) -> list:
    """Augmented paths with their types and weight bits spelled out."""
    return [
        (alphas, pairs, weight.hex(), {type(x) for x in alphas + sum(pairs, ())}, type(weight))
        for alphas, pairs, weight in paths
    ]


def reference_marginalize(dist: JointHeatDistribution, coords: Sequence[int]) -> dict:
    reduced: dict = {}
    for key, mass in dist.entries.items():
        short = tuple(key[c] for c in coords)
        reduced[short] = reduced.get(short, 0.0) + mass
    return reduced


def negated(key: HeatKey) -> HeatKey:
    return tuple(-q for q in reversed(key))


def reference_check(
    forward: JointHeatDistribution,
    backward: JointHeatDistribution,
    rhs: Callable[[HeatKey], Sequence[float] | None],
    tolerance: float,
    *,
    strict_rhs: bool = False,
    orphans: Sequence[HeatKey] = (),
) -> FTReport:
    worst = 0.0
    checked = 0
    mismatches = list(orphans)
    for key, p_fwd in forward.entries.items():
        p_bwd = backward.entries.get(negated(key), 0.0)
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


def reference_joint_ft(forward, backward, model, tolerance=1e-9) -> FTReport:
    deltas = [beta - model.system_beta for beta in model.ancilla_betas]
    orphans = [
        negated(key)
        for key, p_bwd in backward.entries.items()
        if p_bwd > SUPPORT_FLOOR and negated(key) not in forward.entries
    ]

    def exponent(key):
        return (sum(d * float(q) for d, q in zip(deltas, key)),)

    return reference_check(forward, backward, exponent, tolerance, orphans=orphans)


def reference_product(forward, backward, singles, tolerance=1e-9) -> FTReport:
    def rhs(key):
        total = 0.0
        for single, q in zip(singles, key):
            plus = single.entries.get((q,), 0.0)
            minus = single.entries.get((-q,), 0.0)
            if plus == 0.0 or minus == 0.0:
                return None
            total += math.log(plus) - math.log(minus)
        return (total,)

    return reference_check(forward, backward, rhs, tolerance, strict_rhs=True)


def reference_partial(model: ModelConfig, tolerance=1e-9) -> FTReport:
    n = model.n_collisions
    forward, _ = reference_joint(model, "forward")
    backward, _ = reference_joint(model, "backward")
    prefix_fwd = reference_marginalize(forward, range(n - 1))
    prefix_bwd, _ = reference_joint(truncated_model(model, n - 1), "backward")
    last_single, _ = reference_joint(single_collision_model(model, n), "forward")

    def rhs(key):
        head, q = key[:-1], key[-1]
        fwd, bwd = prefix_fwd.get(head, 0.0), prefix_bwd.entries.get(negated(head), 0.0)
        plus, minus = last_single.entries.get((q,), 0.0), last_single.entries.get((-q,), 0.0)
        if 0.0 in (fwd, bwd, plus, minus):
            return None
        return (math.log(fwd) - math.log(bwd), math.log(plus) - math.log(minus))

    return reference_check(forward, backward, rhs, tolerance)


def reference_peel_off(forward, backward, last_single, shorter_backward, tolerance=1e-9) -> FTReport:
    """The peel-off check on given laws; the forward prefix is summed off ``forward``."""
    prefix_fwd = reference_marginalize(forward, range(forward.n_collisions - 1))

    def rhs(key):
        head, q = key[:-1], key[-1]
        fwd, bwd = prefix_fwd.get(head, 0.0), shorter_backward.entries.get(negated(head), 0.0)
        plus, minus = last_single.entries.get((q,), 0.0), last_single.entries.get((-q,), 0.0)
        if 0.0 in (fwd, bwd, plus, minus):
            return None
        return (math.log(fwd) - math.log(bwd), math.log(plus) - math.log(minus))

    return reference_check(forward, backward, rhs, tolerance)


def reference_csv(dist: JointHeatDistribution) -> str:
    n = dist.n_collisions
    header = [f"Q_{i}" for i in range(1, n + 1)] + ["probability"]
    header += [f"Q_{i}_exact" for i in range(1, n + 1)]
    lines = [",".join(header)]
    for key, prob in sorted(dist.entries.items()):
        lines.append(",".join(
            [format(float(q), ".12g") for q in key] + [repr(prob)] + [format_rational(q) for q in key]
        ))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Comparisons, bit for bit


def bits(dist: JointHeatDistribution) -> tuple:
    return (
        [(key, mass.hex()) for key, mass in dist.entries.items()],
        float(dist.pruned_mass).hex(),
        dist.direction,
        dist.n_collisions,
    )


def report_bits(report: FTReport) -> tuple:
    return (
        report.max_log_residual.hex(),
        report.checked_pairs,
        report.support_mismatches,
        report.tolerance,
        report.passed,
    )


# ---------------------------------------------------------------------------
# Models: rational spectra, beta gaps up to 60, every unitary kind.

LEVEL_VALUES = [Fraction(k, den) for den in (1, 2, 3) for k in range(0, 7)]
EVENLY_SPACED = [Spectrum(tuple(Fraction(k, den) for k in range(d))) for d in (2, 3) for den in (1, 2)]
UNITARY_KINDS = ("haar", "partial_swap", "permutation", "explicit", "identity")


def dft_block(size: int) -> list[list[complex]]:
    return [
        [cmath.exp(2j * math.pi * r * c / size) / math.sqrt(size) for c in range(size)]
        for r in range(size)
    ]


@st.composite
def spectra(draw, max_levels: int) -> Spectrum:
    levels = draw(st.sets(st.sampled_from(LEVEL_VALUES), min_size=1, max_size=max_levels))
    return Spectrum(tuple(levels))


@st.composite
def models(draw, max_collisions: int = 6, path_budget: int = 150000) -> ModelConfig:
    system = draw(st.one_of(spectra(3), st.sampled_from(EVENLY_SPACED)))
    beta_s = draw(st.floats(-2.0, 3.0))
    n = draw(st.integers(1, max_collisions))
    ancillas = []
    budget = system.dim
    for _ in range(n):
        kind = draw(st.sampled_from(UNITARY_KINDS))
        if kind == "partial_swap" and system.dim == 2:
            shift = draw(st.sampled_from(LEVEL_VALUES))
            gap = system.levels[1] - system.levels[0]
            spectrum = Spectrum((shift, shift + gap))
        else:
            kind = "haar" if kind == "partial_swap" else kind
            wide = budget * 9 * system.dim <= path_budget
            if wide and draw(st.booleans()):  # resonant with every system gap
                shift = draw(st.sampled_from(LEVEL_VALUES))
                spectrum = Spectrum(tuple(level + shift for level in system.levels))
            else:
                spectrum = draw(spectra(3 if wide else 1))
        if kind == "haar":
            unitary = UnitarySpec.haar(stream_tag=draw(st.integers(0, 3)))
        elif kind == "partial_swap":
            unitary = UnitarySpec.partial_swap(
                draw(st.sampled_from([0.0, math.pi / 2, math.pi / 4, 0.3, 1.2]))
            )
        elif kind == "permutation":
            unitary = UnitarySpec.permutation(shift=draw(st.integers(0, 3)))
        elif kind == "explicit":
            shells = build_energy_shells(system, spectrum)
            unitary = UnitarySpec.explicit(
                {format_rational(s.total_energy): dft_block(s.size) for s in shells if s.size > 1}
            )
        else:
            unitary = UnitarySpec.identity()
        beta = beta_s + draw(st.one_of(st.floats(-1.0, 1.0), st.floats(-60.0, 60.0)))
        ancillas.append(AncillaSpec(spectrum, beta, unitary))
        budget *= spectrum.dim**2 * system.dim
    return ModelConfig(
        system=system,
        system_beta=beta_s,
        ancillas=tuple(ancillas),
        master_seed=draw(st.integers(0, 2**32)),
    )


def assert_enumerations_match(model):
    for direction, enumerate_ in (
        ("forward", exact_forward_joint),
        ("backward", exact_backward_joint),
    ):
        reference, paths = reference_joint(model, direction)
        coded = enumerate_(model)
        assert bits(coded) == bits(reference)
        assert len(coded) == len(reference.entries)
        assert coded.total_mass().hex() == reference.total_mass().hex()
        assert coded.items_sorted() == sorted(reference.entries.items())
        # The cap counts exactly the nonzero paths the sweep visits.
        enumerate_(model, cap=paths)
        with pytest.raises(EnumerationCapError, match=f"needs {paths} paths, cap is {paths - 1}"):
            enumerate_(model, cap=paths - 1)

    reference, paths = reference_via_ancillas(model)
    via = exact_forward_joint_via_ancilla_paths(model, cap=paths)
    assert plain(iter_augmented_paths(model, cap=paths)) == plain(reference_augmented_paths(model))
    assert bits(via) == bits(reference)
    with pytest.raises(EnumerationCapError, match=f"needs {paths} paths"):
        exact_forward_joint_via_ancilla_paths(model, cap=paths - 1)
    with pytest.raises(EnumerationCapError, match=f"needs {paths} paths"):
        next(iter_augmented_paths(model, cap=paths - 1))


def assert_checks_match(model):
    forward, backward = exact_forward_joint(model), exact_backward_joint(model)
    ref_forward, _ = reference_joint(model, "forward")
    ref_backward, _ = reference_joint(model, "backward")
    singles = [exact_forward_joint(single_collision_model(model, i)) for i in range(1, model.n_collisions + 1)]
    ref_singles = [
        reference_joint(single_collision_model(model, i), "forward")[0]
        for i in range(1, model.n_collisions + 1)
    ]
    assert report_bits(verify_joint_ft(forward, backward, model)) == report_bits(
        reference_joint_ft(ref_forward, ref_backward, model)
    )
    assert report_bits(verify_product_relation(forward, backward, singles)) == report_bits(
        reference_product(ref_forward, ref_backward, ref_singles)
    )
    if model.n_collisions >= 2:
        assert report_bits(verify_partial_decomposition(model)) == report_bits(
            reference_partial(model)
        )
    deltas = [beta - model.system_beta for beta in model.ancilla_betas]
    reference_integral = float(sum(
        p * math.exp(-sum(d * float(q) for d, q in zip(deltas, key)))
        for key, p in ref_forward.entries.items()
    ))
    assert integral_ft_expectation(forward, model).hex() == reference_integral.hex()


@given(models())
def test_enumerations_match_reference(model):
    assert_enumerations_match(model)


@given(models())
def test_checks_match_reference(model):
    assert_checks_match(model)


def haar_chain(d: int, betas: Sequence[float]) -> ModelConfig:
    levels = Spectrum(tuple(Fraction(k, 3) for k in range(d)))
    return ModelConfig(
        system=levels,
        system_beta=1.0,
        ancillas=tuple(AncillaSpec(levels, beta, UnitarySpec.haar()) for beta in betas),
        master_seed=23,
    )


def swap_chain(betas: Sequence[float], thetas: Sequence[float]) -> ModelConfig:
    qubit = Spectrum((Fraction(0), Fraction(1)))
    return ModelConfig(
        system=qubit,
        system_beta=1.0,
        ancillas=tuple(
            AncillaSpec(qubit, beta, UnitarySpec.partial_swap(theta))
            for beta, theta in zip(betas, thetas)
        ),
        master_seed=0,
    )


LARGE_MODELS = {
    # Many paths merge onto each key; float sums of hundreds of terms.
    "swap-8": swap_chain([0.7, 1.3, 0.9, 1.1, 0.6, 1.4, 1.0, 0.8], [0.5, 0.9, 1.2, 0.7, 1.1, 0.3, 0.6, 0.8]),
    # Beta gaps up to 60: pruned keys and support mismatches.
    "stiff-swap-7": swap_chain([60.0, 0.5, 30.0, 1.0, 45.0, 2.0, 0.1], [math.pi / 4] * 7),
    # Zero branches (theta = 0) and 3.7e-33 weights (theta = pi/2).
    "zero-branches-8": swap_chain([1.2] * 8, [0.4, 0.0, math.pi / 2, 0.9, 0.0, 1.0, math.pi / 2, 0.6]),
    "haar-d3-4": haar_chain(3, [0.4, 2.0, 1.1, 6.0]),
    # Betas whose exponent sums round differently when added out of order.
    "uneven-betas-5": swap_chain([2.61, 0.17, 0.71, 0.17, 0.1], [0.7] * 5),
}


@pytest.mark.parametrize("name", sorted(LARGE_MODELS))
def test_large_models_match_reference(name):
    assert_enumerations_match(LARGE_MODELS[name])
    assert_checks_match(LARGE_MODELS[name])


@given(models(max_collisions=4), st.data())
def test_marginals_and_distances_match_reference(model, data):
    forward = exact_forward_joint(model)
    via = exact_forward_joint_via_ancilla_paths(model)
    reference, _ = reference_joint(model, "forward")
    coords = data.draw(
        st.lists(
            st.integers(0, model.n_collisions - 1), min_size=1, max_size=model.n_collisions, unique=True
        )
    )
    reduced = marginalize(forward, coords)
    assert [(k, p.hex()) for k, p in reduced.entries.items()] == [
        (k, p.hex()) for k, p in reference_marginalize(reference, coords).items()
    ]
    assert reduced.pruned_mass == forward.pruned_mass
    keys = set(forward.entries) | set(via.entries)
    assert compare_distributions(forward, via) == max(
        abs(forward.probability(k) - via.probability(k)) for k in keys
    )
    assert total_variation(forward, via) == pytest.approx(
        0.5 * math.fsum(abs(forward.probability(k) - via.probability(k)) for k in keys),
        abs=1e-15,
    )
    assert distribution_to_csv(forward, include_exact=True) == reference_csv(reference)


# ---------------------------------------------------------------------------
# Hand-built laws: masses near SUPPORT_FLOOR, zero single factors, round trips.

HALF = Fraction(1, 2)
HEATS = (Fraction(-1), -HALF, Fraction(0), HALF, Fraction(1), Fraction(3, 2))
NEAR_FLOOR = (
    SUPPORT_FLOOR / 2, SUPPORT_FLOOR, SUPPORT_FLOOR * 2, PRUNE_THRESHOLD, 0.25, 0.5, 1e-30,
)


def qubit_chain(n: int) -> ModelConfig:
    qubit = Spectrum((Fraction(0), Fraction(1)))
    return ModelConfig(
        system=qubit,
        system_beta=1.0,
        ancillas=tuple(AncillaSpec(qubit, 0.5 + 0.3 * i, UnitarySpec.identity()) for i in range(n)),
        master_seed=0,
    )


@st.composite
def hand_laws(draw, n: int, direction: str = "forward") -> JointHeatDistribution:
    # Backward laws may hold zero masses: present keys without support.
    masses = NEAR_FLOOR + ((0.0,) if direction == "backward" else ())
    keys = draw(st.lists(st.tuples(*[st.sampled_from(HEATS)] * n), max_size=12, unique=True))
    entries = {key: draw(st.sampled_from(masses)) for key in keys}
    return JointHeatDistribution(entries=entries, direction=direction, n_collisions=n)


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), hand_laws(n), hand_laws(n, "backward"), st.lists(hand_laws(1), min_size=n, max_size=n))
))
def test_hand_built_checks_match_reference(case):
    n, forward, backward, singles = case
    model = qubit_chain(n)
    assert report_bits(verify_joint_ft(forward, backward, model)) == report_bits(
        reference_joint_ft(forward, backward, model)
    )
    assert report_bits(verify_product_relation(forward, backward, singles)) == report_bits(
        reference_product(forward, backward, singles)
    )
    assert compare_distributions(forward, backward) == max(
        (abs(forward.probability(k) - backward.probability(k))
         for k in set(forward.entries) | set(backward.entries)),
        default=0.0,
    )


@st.composite
def peel_off_laws(draw, n: int) -> tuple[JointHeatDistribution, ...]:
    """Forward, backward, last-single and shorter backward laws, drawn by ``hand_laws``.

    Drawn keys rarely meet their partners, so each law but the forward one
    also takes most of the partners the check looks up for forward keys, at
    a mass drawn as ``hand_laws`` draws it.
    """
    forward = draw(hand_laws(n))
    keys = list(forward.entries)

    def partnered(law, partners):
        masses = NEAR_FLOOR + ((0.0,) if law.direction == "backward" else ())
        extra = {key: draw(st.sampled_from(masses)) for key in partners if draw(st.integers(0, 3))}
        return JointHeatDistribution({**law.entries, **extra}, law.direction, law.n_collisions)

    return (
        forward,
        partnered(draw(hand_laws(n, "backward")), [negated(key) for key in keys]),
        partnered(draw(hand_laws(1)), [(sign * key[-1],) for key in keys for sign in (1, -1)]),
        partnered(draw(hand_laws(n - 1, "backward")), [negated(key[:-1]) for key in keys]),
    )


@given(st.integers(2, 3).flatmap(peel_off_laws))
def test_hand_built_peel_off_matches_reference(laws):
    assert report_bits(heatstats._partial_decomposition(*laws, 1e-9)) == report_bits(
        reference_peel_off(*laws)
    )


def test_zero_single_factor_is_a_mismatch_whatever_the_mass():
    key = (Fraction(1),)
    forward = JointHeatDistribution({key: 1e-20}, "forward", 1)
    backward = JointHeatDistribution({(Fraction(-1),): 0.5}, "backward", 1)
    single = JointHeatDistribution({key: 0.5, (Fraction(-1),): 0.0}, "forward", 1)
    report = verify_product_relation(forward, backward, [single])
    assert report_bits(report) == report_bits(reference_product(forward, backward, [single]))
    assert report.support_mismatches == (key,)
    assert not report.passed


@given(st.integers(1, 4).flatmap(hand_laws))
def test_hand_built_round_trips(dist):
    text = distribution_to_csv(dist, include_exact=True)
    assert text == reference_csv(dist)
    back = distribution_from_csv(text)
    assert list(back.entries.items()) == sorted(dist.entries.items())
    document = json.loads(json.dumps(distribution_to_json(dist)))
    assert [entry["heats"] for entry in document["entries"]] == [
        [format_rational(q) for q in key] for key, _ in sorted(dist.entries.items())
    ]
    assert dict(distribution_from_json(document).entries) == dict(dist.entries)
    assert dist.items_sorted() == sorted(dist.entries.items())
    assert len(dist) == len(dist.entries)


# ---------------------------------------------------------------------------
# Laziness and exact-count caps


def test_enumerated_entries_are_built_on_first_touch():
    model = qubit_chain(3)
    forward = exact_forward_joint(model)
    len(forward), forward.total_mass(), distribution_to_csv(forward, include_exact=True)
    assert "entries" not in vars(forward)
    assert forward.entries is forward.entries
    assert "entries" in vars(forward)
    assert repr(forward).startswith("JointHeatDistribution(entries={")


NINE_QUARTER_SWAPS = {
    "system": {"energies": ["0", "1"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1"], "beta": 1.0 + 0.1 * k,
         "unitary": {"kind": "partial_swap", "theta": math.pi / 4}}
        for k in range(9)
    ],
    "master_seed": 1,
}


def test_nine_collision_chain_verifies_under_the_default_cap(tmp_path):
    # 2 * 3**9 = 39366 augmented paths are nonzero, far below the default
    # cap, though the loose bound prod(d_s * d_a**2) = 8**9 exceeds it.
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(NINE_QUARTER_SWAPS), encoding="utf-8")
    assert dispatch(["verify", str(path)]) == 0


def test_long_keys_match_reference():
    # 3**70 prefix codes overflow int64, so the sweep and marginalize re-rank.
    qubit = Spectrum((Fraction(0), Fraction(1)))
    point = Spectrum((Fraction(0),))
    ancillas = [AncillaSpec(qubit, 0.4 * i, UnitarySpec.partial_swap(0.3 * i)) for i in range(1, 4)]
    ancillas += [
        AncillaSpec(qubit if i % 2 else point, 1.5, UnitarySpec.identity()) for i in range(67)
    ]
    model = ModelConfig(system=qubit, system_beta=1.0, ancillas=tuple(ancillas), master_seed=0)
    for direction, enumerate_ in (("forward", exact_forward_joint), ("backward", exact_backward_joint)):
        assert bits(enumerate_(model)) == bits(reference_joint(model, direction)[0])
    forward, reference = exact_forward_joint(model), reference_joint(model, "forward")[0]
    coords = [69, 0, 2, 1, 40]
    assert list(marginalize(forward, coords).entries.items()) == list(
        reference_marginalize(reference, coords).items()
    )
    assert report_bits(verify_partial_decomposition(model)) == report_bits(reference_partial(model))


def test_keys_past_int64_codes_stay_distinct():
    # Two 41-slot keys whose base-3 codes differ by exactly 2**64: without
    # re-ranking, int64 codes would wrap onto each other and merge them.
    heats = (Fraction(-1), Fraction(0), Fraction(1))

    def key(number: int) -> HeatKey:
        return tuple(heats[(number // 3**i) % 3] for i in range(40, -1, -1))

    low = 3**40 - 2**63
    dist = JointHeatDistribution({key(low): 0.25, key(low + 2**64): 0.75}, "forward", 41)
    assert list(marginalize(dist, 41).entries.items()) == list(dist.entries.items())
    assert compare_distributions(dist, JointHeatDistribution({key(low): 0.25}, "forward", 41)) == 0.75


def test_caps_count_only_nonzero_paths():
    # A qubit meeting one-level ancillas through identity collisions has one
    # path per start, though the loose bound 2**41 exceeds every cap below.
    point = Spectrum((Fraction(0),))
    model = ModelConfig(
        system=Spectrum((Fraction(0), Fraction(1))),
        system_beta=1.0,
        ancillas=tuple(AncillaSpec(point, 1.0, UnitarySpec.identity()) for _ in range(40)),
        master_seed=0,
    )
    assert len(exact_forward_joint(model, cap=2)) == 1
    assert len(exact_forward_joint_via_ancilla_paths(model, cap=2)) == 1
    assert sum(1 for _ in iter_augmented_paths(model, cap=2)) == 2
    with pytest.raises(EnumerationCapError, match="needs 2 paths, cap is 1"):
        exact_backward_joint(model, cap=1)


# ---------------------------------------------------------------------------
# The trajectory average of the entropy production, block by block, against
# the path-by-path loop over ``reference_augmented_paths``.


def reference_trajectory_average(model: ModelConfig) -> float:
    """Each path's value in collision order, weighted values added in path order."""
    realized = realize_model(model)
    with np.errstate(divide="ignore"):
        log_p0 = np.log(realized.system_state.populations)
        log_qs = [np.log(stage.ancilla_state.populations) for stage in realized.stages]
    total = 0.0
    for alphas, pairs, weight in reference_augmented_paths(model):
        value = float(log_p0[alphas[0]] - log_p0[alphas[-1]])
        for i, (n_in, n_out) in enumerate(pairs):
            value += float(log_qs[i][n_in] - log_qs[i][n_out])
        total += weight * value
    return total


# Block sizes small enough that frontiers split at every depth, a path's
# children overflow a block, and the running sum is carried across blocks.
SMALL_BLOCKS = (1, 2, 3, 7)


def assert_trajectory_average_matches(model: ModelConfig, block_sizes=SMALL_BLOCKS) -> None:
    expected = reference_trajectory_average(model).hex()
    assert average_entropy_production(model).trajectory_average.hex() == expected
    for size in block_sizes:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heatstats, "_BLOCK_PATHS", size)
            assert average_entropy_production(model).trajectory_average.hex() == expected, size


@given(models(path_budget=2000))
def test_trajectory_average_matches_reference(model):
    assert_trajectory_average_matches(model)


# exp(-1000) underflows, so every ancilla level at energy 1000 has population
# exactly 0.  No jump reaches one: the shells holding it are one level wide.
QUBIT = Spectrum((Fraction(0), Fraction(1)))
ZERO_POPULATIONS = ModelConfig(
    system=QUBIT,
    system_beta=-1.0,
    ancillas=(
        AncillaSpec(Spectrum((Fraction(0), Fraction(1), Fraction(1000))), 1.0, UnitarySpec.haar()),
        AncillaSpec(QUBIT, 1.0, UnitarySpec.partial_swap(0.7)),
        AncillaSpec(Spectrum((Fraction(0), Fraction(1000))), 2.0, UnitarySpec.haar()),
    ),
    master_seed=5,
)

TRAJECTORY_MODELS = {
    **LARGE_MODELS,
    "zero-populations": ZERO_POPULATIONS,
    # Log ratios whose sum rounds differently when added out of collision order.
    "collision-order-4": swap_chain([-2.99, 1.87, 1.95, 0.35], [0.64, 1.06, 0.95, 0.74]),
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_MODELS))
def test_trajectory_average_matches_reference_on_large_models(name):
    assert_trajectory_average_matches(TRAJECTORY_MODELS[name])


def test_trajectory_average_memory_stays_within_a_block():
    # 2 * 3**11 = 354294 augmented paths.  Held all at once they peak near
    # 39 MB (at least 48 B a path); a block at a time, near 4 MB.
    model = swap_chain([0.6 + 0.1 * k for k in range(11)], [0.5 + 0.05 * k for k in range(11)])
    realize_model(model)
    tracemalloc.start()
    try:
        average_entropy_production(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
