import json
import math
import random
from fractions import Fraction

import pytest

from heatchain import (
    AncillaSpec,
    EnumerationCapError,
    JointHeatDistribution,
    ModelConfig,
    Spectrum,
    UnitarySpec,
    compare_distributions,
    distribution_from_csv,
    distribution_from_json,
    distribution_to_csv,
    distribution_to_json,
    exact_backward_joint,
    exact_forward_joint,
    exact_forward_joint_via_ancilla_paths,
    integral_ft_expectation,
    iter_augmented_paths,
    marginalize,
    single_collision_distribution,
    single_collision_model,
    truncated_model,
    verify_joint_ft,
    verify_partial_decomposition,
    verify_product_relation,
)

# Frozen from the four-path hand enumeration of the gap-1 resonant pair,
# theta = pi/4, system beta 1, ancilla beta 2.
P_PLUS_ONE = 0.11844140904495501
P_MINUS_ONE = 0.04357215937101628
P_ZERO = 0.8379864315840286


def qubit() -> Spectrum:
    return Spectrum.from_values(["0", "1"])


def resonant_model(betas, theta=math.pi / 4, beta_s=1.0, seed=0) -> ModelConfig:
    ancillas = tuple(
        AncillaSpec(qubit(), beta, UnitarySpec.partial_swap(theta)) for beta in betas
    )
    return ModelConfig(system=qubit(), system_beta=beta_s, ancillas=ancillas, master_seed=seed)


def resonant_haar_model(betas, beta_s=1.0, seed=7) -> ModelConfig:
    ancillas = tuple(AncillaSpec(qubit(), beta, UnitarySpec.haar()) for beta in betas)
    return ModelConfig(system=qubit(), system_beta=beta_s, ancillas=ancillas, master_seed=seed)


def identity_model(n=2) -> ModelConfig:
    ancillas = tuple(AncillaSpec(qubit(), 2.0, UnitarySpec.identity()) for _ in range(n))
    return ModelConfig(system=qubit(), system_beta=1.0, ancillas=ancillas, master_seed=0)


def haar_model(sys_levels, anc_levels, betas, beta_s=1.0, seed=0) -> ModelConfig:
    system = Spectrum.from_values(sys_levels)
    ancillas = tuple(
        AncillaSpec(Spectrum.from_values(anc_levels), beta, UnitarySpec.haar())
        for beta in betas
    )
    return ModelConfig(system=system, system_beta=beta_s, ancillas=ancillas, master_seed=seed)


class TestForwardJoint:
    def test_identity_is_point_mass(self):
        dist = exact_forward_joint(identity_model(3))
        zero = (Fraction(0),) * 3
        assert len(dist) == 1
        assert dist.probability(zero) == pytest.approx(1.0, abs=1e-15)

    def test_single_collision_values(self):
        dist = exact_forward_joint(resonant_model([2.0]))
        assert dist.probability((Fraction(1),)) == pytest.approx(P_PLUS_ONE, abs=1e-14)
        assert dist.probability((Fraction(-1),)) == pytest.approx(P_MINUS_ONE, abs=1e-14)
        assert dist.probability((Fraction(0),)) == pytest.approx(P_ZERO, abs=1e-14)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_two_collisions_support_and_mass(self):
        # Of the 3^2 formal sign patterns only 7 are reachable: a two-level
        # system cannot release (or absorb) two quanta in a row.
        dist = exact_forward_joint(resonant_model([2.0, 2.0]))
        assert len(dist) == 7
        assert (Fraction(1), Fraction(1)) not in dist.entries
        assert (Fraction(-1), Fraction(-1)) not in dist.entries
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)
        via = exact_forward_joint_via_ancilla_paths(resonant_model([2.0, 2.0]))
        assert compare_distributions(dist, via) < 1e-12

    def test_heat_values_are_level_differences(self):
        model = haar_model(["0", "1/3", "1"], ["0", "1/3", "1"], betas=(0.5, 2.0), seed=12)
        levels = model.system.levels
        allowed = {a - b for a in levels for b in levels}
        dist = exact_forward_joint(model)
        for key in dist.entries:
            assert all(q in allowed for q in key)

    def test_cap_enforced_with_path_count(self):
        with pytest.raises(EnumerationCapError, match="16"):
            exact_forward_joint(resonant_model([2.0] * 3), cap=10)

    def test_pruning_accounts_for_lost_mass(self):
        dist = exact_forward_joint(resonant_model([2.0], theta=1e-9))
        assert len(dist) == 1  # the two one-quantum exchanges fall below threshold
        assert 0.0 < dist.pruned_mass < 1e-15
        assert dist.total_mass() + dist.pruned_mass == pytest.approx(1.0, abs=1e-14)


class TestBackwardJoint:
    def test_identity_is_point_mass(self):
        dist = exact_backward_joint(identity_model(2))
        assert len(dist) == 1
        assert dist.probability((Fraction(0),) * 2) == pytest.approx(1.0, abs=1e-15)
        assert dist.direction == "backward"

    def test_single_collision_backward_equals_forward(self):
        model = resonant_model([2.0])
        fwd = exact_forward_joint(model)
        bwd = exact_backward_joint(model)
        assert compare_distributions(fwd, bwd) < 1e-12

    def test_normalized(self):
        model = resonant_model([0.5, 2.5])
        assert exact_backward_joint(model).total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_key_order_is_backward_chronological(self):
        # Distinguishable thermal weights make slot 0 belong to ancilla 2.
        model = resonant_model([0.5, 2.5], theta=math.pi / 2)
        bwd = exact_backward_joint(model)
        fwd = exact_forward_joint(model)
        report = verify_joint_ft(fwd, bwd, model, tolerance=1e-9)
        assert report.passed

    def test_route_equivalence_on_haar_models(self):
        combos = [
            (["0", "1"], ["0", "1"], (0.5,)),
            (["0", "1"], ["0", "1", "2"], (0.5, 2.0)),
            (["0", "1", "2"], ["0", "1"], (1.5, 0.5, 2.5)),
            (["0", "1", "2"], ["0", "1", "2"], (0.5, 1.0, 1.5, 2.0)),
        ]
        for seed, (sys_lv, anc_lv, betas) in enumerate(combos):
            model = haar_model(sys_lv, anc_lv, betas, seed=seed + 100)
            gap = compare_distributions(
                exact_forward_joint(model),
                exact_forward_joint_via_ancilla_paths(model),
            )
            assert gap < 1e-12

    def test_route_equivalence_on_resonant_chain(self):
        model = resonant_model([0.5, 1.5, 2.5])
        gap = compare_distributions(
            exact_forward_joint(model),
            exact_forward_joint_via_ancilla_paths(model),
        )
        assert gap < 1e-12


class TestAugmentedPaths:
    def test_weights_sum_to_one(self):
        model = haar_model(["0", "1"], ["0", "1", "2"], betas=(0.5, 2.0), seed=3)
        total = sum(w for _, _, w in iter_augmented_paths(model))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_energy_conserved_along_every_path(self):
        model = haar_model(["0", "1", "2"], ["0", "1", "2"], betas=(1.2,), seed=5)
        sys_levels = model.system.levels
        anc_levels = model.ancillas[0].spectrum.levels
        for alphas, pairs, _ in iter_augmented_paths(model):
            (n_in, n_out) = pairs[0]
            assert (
                sys_levels[alphas[0]] + anc_levels[n_in]
                == sys_levels[alphas[1]] + anc_levels[n_out]
            )

    def test_system_marginal_matches_propagator_product(self):
        model = haar_model(["0", "1"], ["0", "1", "2"], betas=(0.5, 2.0), seed=3)
        from heatchain import forward_path_probability, realize_model

        realized = realize_model(model)
        grouped: dict[tuple, float] = {}
        for alphas, _, w in iter_augmented_paths(model):
            grouped[alphas] = grouped.get(alphas, 0.0) + w
        for alphas, weight in grouped.items():
            direct = forward_path_probability(alphas, realized.propagators, realized.system_state)
            assert weight == pytest.approx(direct, abs=1e-12)

    def test_cap_enforced(self):
        model = haar_model(["0", "1", "2"], ["0", "1", "2"], betas=(1.0,) * 4, seed=1)
        with pytest.raises(EnumerationCapError):
            next(iter_augmented_paths(model, cap=100))


class TestMarginalize:
    def test_full_prefix_is_identity(self):
        dist = exact_forward_joint(resonant_model([0.5, 2.5]))
        same = marginalize(dist, 2)
        assert compare_distributions(dist, same) == 0.0

    def test_mass_preserved(self):
        dist = exact_forward_joint(resonant_model([0.5, 2.5]))
        assert marginalize(dist, 1).total_mass() == pytest.approx(
            dist.total_mass(), abs=1e-15
        )

    def test_prefix_matches_truncated_chain(self):
        model = resonant_model([0.5, 1.5, 2.5])
        dist = exact_forward_joint(model)
        for k in (1, 2):
            prefix = marginalize(dist, k)
            fresh = exact_forward_joint(truncated_model(model, k))
            assert compare_distributions(prefix, fresh) < 1e-12

    def test_arbitrary_subset(self):
        dist = exact_forward_joint(resonant_model([0.5, 2.5]))
        last = marginalize(dist, [1])
        assert last.n_collisions == 1
        assert last.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_bad_arguments(self):
        dist = exact_forward_joint(resonant_model([0.5]))
        with pytest.raises(ValueError):
            marginalize(dist, 0)
        with pytest.raises(ValueError):
            marginalize(dist, [2])


class TestSingleCollision:
    def test_first_collision_is_the_one_marginal_exception(self):
        model = resonant_model([0.5, 2.5])
        single = single_collision_distribution(model, 1)
        first_marginal = marginalize(exact_forward_joint(model), 1)
        assert compare_distributions(single, first_marginal) < 1e-12

    def test_later_collisions_differ_from_marginals(self):
        model = resonant_model([0.5, 2.5])
        single = single_collision_distribution(model, 2)
        second_marginal = marginalize(exact_forward_joint(model), [1])
        assert compare_distributions(single, second_marginal) > 1e-3

    def test_identity_point_mass(self):
        single = single_collision_distribution(identity_model(2), 2)
        assert len(single) == 1
        assert single.probability((Fraction(0),)) == pytest.approx(1.0, abs=1e-15)

    def test_detailed_ratio(self):
        single = single_collision_distribution(resonant_model([2.0]), 1)
        ratio = single.probability((Fraction(1),)) / single.probability((Fraction(-1),))
        assert ratio == pytest.approx(math.e, abs=1e-9)


class TestJointFT:
    def test_identity_model_single_pair(self):
        model = identity_model(2)
        report = verify_joint_ft(
            exact_forward_joint(model), exact_backward_joint(model), model
        )
        assert report.passed
        assert report.max_log_residual == 0.0
        assert report.checked_pairs == 1

    def test_three_collision_haar_chain(self):
        model = resonant_haar_model([0.5, 1.5, 2.5], seed=7)
        report = verify_joint_ft(
            exact_forward_joint(model), exact_backward_joint(model), model
        )
        assert report.passed
        assert report.max_log_residual < 1e-9
        assert not report.support_mismatches

    def test_prefix_marginals_keep_the_identity(self):
        model = resonant_model([0.5, 1.5, 2.5])
        fwd = exact_forward_joint(model)
        for k in (1, 2):
            shorter = truncated_model(model, k)
            report = verify_joint_ft(
                marginalize(fwd, k), exact_backward_joint(shorter), shorter
            )
            assert report.passed
            assert report.max_log_residual < 1e-9

    def test_past_marginalization_breaks_the_identity(self):
        model = resonant_model([0.5, 2.5])
        fwd_last = marginalize(exact_forward_joint(model), [1])
        bwd_last = marginalize(exact_backward_joint(model), [0])
        report = verify_joint_ft(fwd_last, bwd_last, single_collision_model(model, 2))
        assert report.max_log_residual > 0.01
        assert not report.passed

    def test_support_mismatch_is_a_hard_failure(self):
        swap = resonant_model([2.0])
        still = identity_model(1)
        report = verify_joint_ft(
            exact_forward_joint(swap), exact_backward_joint(still), swap
        )
        assert not report.passed
        assert report.support_mismatches

    def test_integral_identity(self):
        model = resonant_model([0.5, 1.5, 2.5])
        value = integral_ft_expectation(exact_forward_joint(model), model)
        assert value == pytest.approx(1.0, abs=1e-9)


class TestProductRelation:
    def test_single_collision_reduces_to_detailed_ratio(self):
        model = resonant_model([2.0])
        report = verify_product_relation(
            exact_forward_joint(model),
            exact_backward_joint(model),
            [single_collision_distribution(model, 1)],
            tolerance=1e-12,
        )
        assert report.passed

    def test_two_distinct_temperatures(self):
        model = resonant_model([0.5, 2.5])
        singles = [single_collision_distribution(model, i) for i in (1, 2)]
        report = verify_product_relation(
            exact_forward_joint(model), exact_backward_joint(model), singles
        )
        assert report.passed
        assert report.max_log_residual < 1e-9

    def test_joint_is_not_product_of_marginals(self):
        model = resonant_model([0.5, 2.5])
        fwd = exact_forward_joint(model)
        first = marginalize(fwd, [0])
        second = marginalize(fwd, [1])
        gap = max(
            abs(p - first.probability((k[0],)) * second.probability((k[1],)))
            for k, p in fwd.entries.items()
        )
        assert gap > 1e-6


class TestPartialDecomposition:
    def test_identity_model_all_zero(self):
        report = verify_partial_decomposition(identity_model(2))
        assert report.passed
        assert report.max_log_residual < 1e-12

    def test_two_collisions(self):
        report = verify_partial_decomposition(resonant_model([0.5, 2.5]))
        assert report.passed
        assert report.max_log_residual < 1e-9

    def test_three_collision_haar_chain(self):
        report = verify_partial_decomposition(resonant_haar_model([0.5, 1.5, 2.5], seed=11))
        assert report.passed
        assert report.max_log_residual < 1e-9

    def test_requires_at_least_two(self):
        with pytest.raises(ValueError):
            verify_partial_decomposition(resonant_model([2.0]))


def reference_csv(dist, include_exact):
    """CSV rows sorted on the Fraction tuples themselves, formatted cell by cell."""
    n = dist.n_collisions
    header = [f"Q_{i}" for i in range(1, n + 1)] + ["probability"]
    if include_exact:
        header += [f"Q_{i}_exact" for i in range(1, n + 1)]
    lines = [",".join(header)]
    for key, prob in dist.items_sorted():
        row = [format(float(q), ".12g") for q in key] + [repr(prob)]
        if include_exact:
            row += [f"{q.numerator}/{q.denominator}" for q in key]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestSerialization:
    @pytest.mark.parametrize("include_exact", [False, True])
    @pytest.mark.parametrize("distinct", [3, 300])
    def test_csv_matches_fraction_sorted_reference(self, distinct, include_exact):
        # 300 distinct values need two-byte rank keys.  Half of the keys
        # share Fraction objects, half hold fresh equal copies.
        rng = random.Random(distinct)
        values = [Fraction(k - distinct // 2, 7) for k in range(distinct)]
        entries = {}
        while len(entries) < 500:
            key = tuple(rng.choice(values) for _ in range(8))
            if rng.random() < 0.5:
                key = tuple(Fraction(q.numerator, q.denominator) for q in key)
            entries[key] = rng.random()
        dist = JointHeatDistribution(entries=entries, direction="forward", n_collisions=8)
        assert distribution_to_csv(dist, include_exact) == reference_csv(dist, include_exact)

    def test_csv_layout(self):
        dist = exact_forward_joint(resonant_model([2.0]))
        text = distribution_to_csv(dist, include_exact=True)
        lines = text.strip().split("\n")
        assert lines[0] == "Q_1,probability,Q_1_exact"
        assert len(lines) == 4
        assert lines[1].startswith("-1,")
        assert lines[1].endswith(",-1/1")

    def test_csv_deterministic(self):
        dist = exact_forward_joint(resonant_model([0.5, 2.5]))
        assert distribution_to_csv(dist) == distribution_to_csv(dist)

    def test_json_round_trip_exact(self):
        dist = exact_forward_joint(
            haar_model(["0", "1/3", "1"], ["0", "1/3", "1"], betas=(0.5, 2.0), seed=2)
        )
        document = json.loads(json.dumps(distribution_to_json(dist)))
        back = distribution_from_json(document)
        assert back.direction == dist.direction
        assert back.n_collisions == dist.n_collisions
        assert set(back.entries) == set(dist.entries)
        for key, prob in dist.entries.items():
            assert back.entries[key] == prob  # floats survive JSON exactly

    def test_csv_round_trip_uses_exact_columns(self):
        # Thirds are not binary fractions, so the decimal columns alone
        # could not rebuild the keys; the exact columns must.
        dist = exact_forward_joint(
            haar_model(["0", "1/3", "1"], ["0", "1/3", "1"], betas=(1.5,), seed=4)
        )
        back = distribution_from_csv(distribution_to_csv(dist, include_exact=True))
        assert set(back.entries) == set(dist.entries)
        for key, prob in dist.entries.items():
            assert back.entries[key] == prob
        with pytest.raises(Exception):
            distribution_from_csv(distribution_to_csv(dist, include_exact=False))
