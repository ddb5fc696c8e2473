import copy
import dataclasses
import itertools
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from heatchain import (
    AncillaSpec,
    ConsistencyError,
    ModelConfig,
    SamplerConfig,
    Spectrum,
    TrajectoryRecord,
    UnitarySpec,
    ancilla_post_state,
    average_entropy_production,
    empirical_joint,
    entropy_production,
    exact_forward_joint,
    heats_from_ancilla_path,
    heats_from_system_path,
    iter_augmented_paths,
    iter_trajectories,
    realize_model,
    sample_trajectory,
    summarize_samples,
    total_variation,
)
from heatchain import sampler
from heatchain.sampler import AugmentedTrajectory
from heatchain.streams import substream
from test_realization import reference_outcomes

# Frozen from the brute-force post-collision sum over the jump tensor for
# theta = pi/4, system beta 1, ancilla beta 2, gap 1.
Q_POST_EXCITED = 0.19407217169605628
AVG_SIGMA_SINGLE = 0.07486924967393874


def qubit() -> Spectrum:
    return Spectrum.from_values(["0", "1"])


def resonant_model(betas, theta=math.pi / 4, beta_s=1.0, seed=0) -> ModelConfig:
    ancillas = tuple(
        AncillaSpec(qubit(), beta, UnitarySpec.partial_swap(theta)) for beta in betas
    )
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


class TestSampleTrajectory:
    def test_identity_freezes_everything(self):
        model = identity_model(3)
        rng = substream(5)
        for _ in range(50):
            traj = sample_trajectory(model, rng)
            assert len(set(traj.alphas)) == 1
            assert all(n_in == n_out for n_in, n_out in traj.ancilla_pairs)

    def test_full_swap_exchanges_levels(self):
        model = resonant_model([2.0, 0.7], theta=math.pi / 2)
        rng = substream(6)
        for _ in range(100):
            traj = sample_trajectory(model, rng)
            for i, (n_in, n_out) in enumerate(traj.ancilla_pairs):
                assert traj.alphas[i + 1] == n_in
                assert n_out == traj.alphas[i]

    def test_heat_bookkeeping_agrees_on_every_shot(self):
        model = haar_model(["0", "1", "2"], ["0", "1", "2"], betas=(0.5, 2.5), seed=3)
        spectra = [anc.spectrum for anc in model.ancillas]
        for record in iter_trajectories(model, SamplerConfig(shots=500, master_seed=9)):
            sys_heats = heats_from_system_path(record.trajectory.alphas, model.system)
            anc_heats = heats_from_ancilla_path(record.trajectory.ancilla_pairs, spectra)
            assert sys_heats == anc_heats == record.heats

    def test_log_path_probability_matches_tables(self):
        model = resonant_model([2.0])
        realized = realize_model(model)
        p0 = realized.system_state.populations
        q = realized.stages[0].ancilla_state.populations
        s2 = 0.5  # jump probability at theta = pi/4
        for record in iter_trajectories(model, SamplerConfig(shots=200, master_seed=4)):
            a0, a1 = record.trajectory.alphas
            n_in, n_out = record.trajectory.ancilla_pairs[0]
            jump = 1.0 if (a0, n_in) == (a1, n_out) and a0 == n_in else (
                s2 if (a0, n_in) != (a1, n_out) else 1.0 - s2
            )
            expected = math.log(p0[a0]) + math.log(q[n_in]) + math.log(jump)
            assert record.log_path_probability == pytest.approx(expected, abs=1e-12)


class TestHeatHelpers:
    def test_constant_path_is_zero(self):
        assert heats_from_system_path((1, 1, 1), qubit()) == (Fraction(0),) * 2

    def test_drop_releases_heat(self):
        assert heats_from_system_path((1, 0), qubit()) == (Fraction(1),)

    def test_round_trip_telescopes(self):
        assert heats_from_system_path((0, 1, 0), qubit()) == (Fraction(-1), Fraction(1))

    def test_ancilla_side(self):
        spectra = [qubit(), Spectrum.from_values(["0", "1/2"])]
        pairs = ((0, 1), (1, 0))
        assert heats_from_ancilla_path(pairs, spectra) == (Fraction(1), Fraction(-1, 2))


class TestEntropyProduction:
    def test_zero_heats(self):
        model = resonant_model([2.0, 3.0])
        assert entropy_production((0, 0, 0), ((0, 0), (0, 0)), model) == 0.0

    def test_single_quantum(self):
        model = resonant_model([2.0])
        sigma = entropy_production((1, 0), ((0, 1),), model)
        assert sigma == pytest.approx(1.0, abs=1e-12)  # (2 - 1) * 1

    def test_two_collision_arithmetic(self):
        model = resonant_model([2.0, 3.0])
        sigma = entropy_production((1, 0, 1), ((0, 1), (1, 0)), model)
        assert sigma == pytest.approx(-1.0, abs=1e-12)  # 1*1 + 2*(-1)

    def test_inconsistent_inputs_raise(self):
        model = resonant_model([2.0])
        with pytest.raises(ConsistencyError):
            entropy_production((0, 0), ((0, 1),), model)


class TestAncillaPostState:
    def test_identity_returns_thermal(self):
        model = identity_model(2)
        realized = realize_model(model)
        post = ancilla_post_state(model, 2)
        assert np.allclose(post, realized.stages[1].ancilla_state.populations, atol=1e-15)

    def test_full_swap_takes_system_populations(self):
        model = resonant_model([2.0], theta=math.pi / 2)
        realized = realize_model(model)
        post = ancilla_post_state(model, 1)
        assert np.allclose(post, realized.system_state.populations, atol=1e-15)

    def test_half_swap_value(self):
        post = ancilla_post_state(resonant_model([2.0]), 1)
        assert post[1] == pytest.approx(Q_POST_EXCITED, abs=1e-14)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        model = haar_model(["0", "1"], ["0", "1", "2"], betas=(0.5, 2.0), seed=11)
        realized = realize_model(model)
        i = 2
        p = realized.system_state.populations
        p = realized.stages[0].propagator.matrix @ p
        stage = realized.stages[1]
        q = stage.ancilla_state.populations
        brute = np.zeros(stage.spectrum.dim)
        for n_out in range(stage.spectrum.dim):
            for a_in in range(2):
                for a_out in range(2):
                    for n_in in range(stage.spectrum.dim):
                        brute[n_out] += (
                            stage.tensor.entry(a_out, n_out, a_in, n_in) * q[n_in] * p[a_in]
                        )
        assert np.allclose(ancilla_post_state(model, i), brute, atol=1e-13)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            ancilla_post_state(resonant_model([2.0]), 2)


class TestAverageEntropyProduction:
    def test_identity_model_is_zero(self):
        report = average_entropy_production(identity_model(2))
        assert report.passed
        assert report.heat_average == pytest.approx(0.0, abs=1e-12)
        assert report.trajectory_average == pytest.approx(0.0, abs=1e-12)
        assert report.information_form == pytest.approx(0.0, abs=1e-12)

    def test_single_collision_value(self):
        report = average_entropy_production(resonant_model([2.0]))
        assert report.passed
        assert report.heat_average == pytest.approx(AVG_SIGMA_SINGLE, abs=1e-12)
        assert report.max_pairwise_gap < 1e-9
        assert report.information_form > 0.0

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_three_way_agreement_on_haar_chains(self, seed):
        model = haar_model(
            ["0", "1", "2"], ["0", "1", "2"], betas=(0.5, 1.5, 2.5), seed=seed
        )
        report = average_entropy_production(model)
        assert report.passed
        assert report.max_pairwise_gap < 1e-9
        assert report.information_form >= -1e-12


class TestHiddenMarkovStructure:
    def test_later_exchange_remembers_earlier_ancilla(self):
        # With two distinguishable temperatures, conditioning the second
        # collision's outcome on the first ancilla's initial level shifts
        # it: the visible layer alone is not a Markov chain.
        model = resonant_model([0.5, 2.5])
        joint: dict[tuple, float] = {}
        for _, pairs, w in iter_augmented_paths(model):
            (n1, n1p), (n2, n2p) = pairs
            key = (n1, n1p, n2, n2p)
            joint[key] = joint.get(key, 0.0) + w

        def conditional(n1, n1p, n2):
            weights = [joint.get((n1, n1p, n2, d), 0.0) for d in (0, 1)]
            total = sum(weights)
            return None if total <= 0 else [w / total for w in weights]

        witnesses = 0
        for n1p, n2 in itertools.product((0, 1), repeat=2):
            low = conditional(0, n1p, n2)
            high = conditional(1, n1p, n2)
            if low is None or high is None:
                continue
            tv = 0.5 * sum(abs(a - b) for a, b in zip(low, high))
            if tv > 1e-3:
                witnesses += 1
        assert witnesses >= 2


class TestEmpirical:
    def test_identity_point_mass(self):
        model = identity_model(2)
        result = empirical_joint(iter_trajectories(model, SamplerConfig(shots=100, master_seed=1)))
        assert len(result.distribution) == 1
        assert result.distribution.probability((Fraction(0), Fraction(0))) == 1.0
        assert result.stderr[(Fraction(0), Fraction(0))] == 0.0

    def test_matches_exact_within_errors(self):
        model = resonant_model([2.0], seed=1)
        shots = 100_000
        summary = summarize_samples(
            iter_trajectories(model, SamplerConfig(shots=shots, master_seed=1)), shots
        )
        exact = exact_forward_joint(model)
        for key, p in exact.entries.items():
            estimate = summary.empirical.distribution.probability(key)
            stderr = math.sqrt(p * (1 - p) / shots)
            assert abs(estimate - p) < 4 * stderr
        assert total_variation(summary.empirical.distribution, exact) < 0.01

    def test_integral_identity_mean_near_one(self):
        model = resonant_model([0.5, 2.5], seed=2)
        summary = summarize_samples(
            iter_trajectories(model, SamplerConfig(shots=50_000, master_seed=2)), 50_000
        )
        assert abs(summary.integral_ft_mean - 1.0) < 5 * summary.integral_ft_stderr

    def test_stderr_formula(self):
        model = resonant_model([2.0])
        result = empirical_joint(iter_trajectories(model, SamplerConfig(shots=1000, master_seed=3)))
        for key, p in result.distribution.entries.items():
            assert result.stderr[key] == pytest.approx(
                math.sqrt(p * (1 - p) / 1000), abs=1e-15
            )

    def test_bit_identical_for_fixed_seed_and_workers(self):
        model = resonant_model([0.5, 2.5], seed=4)
        config = SamplerConfig(shots=2000, master_seed=17, worker_count=3)
        first = summarize_samples(iter_trajectories(model, config), 2000)
        second = summarize_samples(iter_trajectories(model, config), 2000)
        assert first.empirical.distribution.entries == second.empirical.distribution.entries
        assert first.integral_ft_mean == second.integral_ft_mean

    def test_worker_count_changes_stream_layout(self):
        model = resonant_model([0.5, 2.5], seed=4)
        one = summarize_samples(
            iter_trajectories(model, SamplerConfig(shots=2000, master_seed=17, worker_count=1)),
            2000,
        )
        three = summarize_samples(
            iter_trajectories(model, SamplerConfig(shots=2000, master_seed=17, worker_count=3)),
            2000,
        )
        assert one.empirical.distribution.entries != three.empirical.distribution.entries

    def test_shot_count_mismatch_raises(self):
        model = identity_model(1)
        records = list(iter_trajectories(model, SamplerConfig(shots=10, master_seed=1)))
        with pytest.raises(ValueError):
            empirical_joint(records, shots=20)

    def test_empty_stream_raises(self):
        with pytest.raises(ValueError):
            empirical_joint([])

    def test_overflow_leaves_its_whole_chunk_drawn(self):
        # exp(710) overflows; records are pulled _BLOCK_SHOTS at a time and a
        # chunk is weighed before it is counted.
        chunk = sampler._BLOCK_SHOTS
        records = list(iter_trajectories(resonant_model([2.0]), SamplerConfig(shots=3 * chunk, master_seed=1)))
        records[chunk + 1] = dataclasses.replace(records[chunk + 1], sigma=-710.0)
        drawn = []

        def tee():
            for record in records:
                drawn.append(record)
                yield record

        with pytest.raises(OverflowError):
            summarize_samples(tee(), len(records))
        assert len(drawn) == 2 * chunk
        assert empirical_joint(records).shots == len(records)  # the law alone never weighs


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(shots=0)
        with pytest.raises(ValueError):
            SamplerConfig(shots=1, worker_count=0)


# ---------------------------------------------------------------------------
# Reference oracle: the shot-by-shot sampler, an independent slow route that
# the block sampler must reproduce record for record and bit for bit.


class ReferenceTables:
    """Per-collision lookup lists, built straight from the realized model."""

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

        levels = model.system.levels
        self.sys_heat_id = [[heat_id(e_a - e_b) for e_b in levels] for e_a in levels]
        self.anc_cum, self.log_q, self.anc_heat_id, self.rows = [], [], [], []
        for stage in realized.stages:
            q = stage.ancilla_state.populations
            self.anc_cum.append(np.cumsum(q).tolist())
            self.log_q.append([math.log(v) if v > 0 else -math.inf for v in q])
            anc_levels = stage.spectrum.levels
            self.anc_heat_id.append(
                [[heat_id(e_out - e_in) for e_out in anc_levels] for e_in in anc_levels]
            )
            self.rows.append(
                {
                    member_in: (
                        np.cumsum([w for _, _, w in row]).tolist(),
                        row,
                        [math.log(w) for _, _, w in row],
                    )
                    for member_in, row in reference_outcomes(stage.shells, stage.tensor.probs).items()
                }
            )
        self.heat_fraction = list(registry)
        self.heat_value = [float(value) for value in self.heat_fraction]


def reference_pick(cum, u):
    idx = bisect_right(cum, u)
    return idx if idx < len(cum) else len(cum) - 1


def reference_record(tables: ReferenceTables, rng) -> TrajectoryRecord:
    random = rng.random
    alpha = reference_pick(tables.p0_cum, random())
    alphas, pairs, heat_ids = [alpha], [], []
    log_p = tables.log_p0[alpha]
    sigma = 0.0
    sigma_log_form = tables.log_p0[alpha]
    for i in range(tables.n):
        n_in = reference_pick(tables.anc_cum[i], random())
        cum, outcomes, logs = tables.rows[i][(alpha, n_in)]
        j = reference_pick(cum, random())
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
    if abs(sigma - sigma_log_form) > sampler.SIGMA_CONSISTENCY_TOL:
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


def reference_trajectories(tables: ReferenceTables, config: SamplerConfig):
    streams = [substream(config.master_seed, w) for w in range(config.worker_count)]
    for shot in range(config.shots):
        yield reference_record(tables, streams[shot % config.worker_count])


def bits(record: TrajectoryRecord):
    return (
        record.trajectory.alphas,
        record.trajectory.ancilla_pairs,
        record.heats,
        record.sigma.hex(),
        record.log_path_probability.hex(),
    )


def permutation_model() -> ModelConfig:
    levels = Spectrum.from_values(["0", "1", "2"])
    ancillas = tuple(
        AncillaSpec(levels, beta, UnitarySpec.permutation(shift=1)) for beta in (0.7, 1.9)
    )
    return ModelConfig(system=levels, system_beta=1.0, ancillas=ancillas, master_seed=0)


ORACLE_MODELS = {
    "resonant": lambda: resonant_model([0.5, 1.5, 2.5], seed=3),
    "full_swap_zero_branches": lambda: resonant_model([0.5, 2.0], theta=math.pi / 2),
    "haar_d3": lambda: haar_model(["0", "1", "2"], ["0", "1", "2"], (0.5, 1.5, 2.5), seed=3),
    "haar_d4": lambda: haar_model(["0", "1", "2", "3"], ["0", "1", "2", "3"], (0.6, 1.7), seed=8),
    "identity": lambda: identity_model(3),
    "permutation": permutation_model,
}
BLOCK = sampler._BLOCK_SHOTS
SHOT_COUNTS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


class TestBlockSamplerMatchesReference:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_record_by_record(self, name, workers):
        model = ORACLE_MODELS[name]()
        tables = ReferenceTables(model)
        for shots in SHOT_COUNTS:
            config = SamplerConfig(shots=shots, master_seed=shots + 11, worker_count=workers)
            fast = [bits(r) for r in iter_trajectories(model, config)]
            slow = [bits(r) for r in reference_trajectories(tables, config)]
            assert len(fast) == shots
            assert fast == slow

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_sample_trajectory_consumes_one_shot_of_uniforms(self, name):
        model = ORACLE_MODELS[name]()
        rng = substream(21)
        trajectory = sample_trajectory(model, rng)
        expected = substream(21)
        expected.random(1 + 2 * model.n_collisions)
        # The Philox state holds small arrays; their repr compares every entry.
        assert repr(rng.bit_generator.state) == repr(expected.bit_generator.state)
        assert trajectory == reference_record(ReferenceTables(model), substream(21)).trajectory


class StubRng:
    """Hands out the given uniforms one ``random()`` call at a time."""

    def __init__(self, values) -> None:
        self.values = iter(values)

    def random(self) -> float:
        return next(self.values)


def identity_hot_ancillas_model() -> ModelConfig:
    # Ancillas hotter than the system: every heat term is (0.5 - 1) * 0 = -0.0.
    ancillas = tuple(AncillaSpec(qubit(), 0.5, UnitarySpec.identity()) for _ in range(3))
    return ModelConfig(system=qubit(), system_beta=1.0, ancillas=ancillas, master_seed=0)


CRAFTED_MODELS = {**ORACLE_MODELS, "identity_hot_ancillas": identity_hot_ancillas_model}


def crafted_rows(tables: ReferenceTables) -> np.ndarray:
    """Uniform rows built from every CDF entry below 1, ``0.0`` and ``1 - 2**-53``.

    A draw equal to a CDF entry is a tie that ``bisect_right`` must step
    past; ``1 - 2**-53`` is past the last entry of any row summing below 1,
    where the pick is clamped.  One constant row per value, then rows mixing
    the values at random.
    """
    entries = {*tables.p0_cum, *itertools.chain.from_iterable(tables.anc_cum)}
    for rows in tables.rows:
        for cum, _, _ in rows.values():
            entries.update(cum)
    values = sorted(v for v in entries | {0.0, 1 - 2**-53} if v < 1.0)
    width = 1 + 2 * tables.n
    mixed = np.random.default_rng(7).choice(values, size=(2 * BLOCK, width))
    return np.vstack([np.repeat(np.array(values)[:, None], width, axis=1), mixed])


class TestCraftedUniforms:
    @pytest.mark.parametrize("name", sorted(CRAFTED_MODELS))
    def test_advance_matches_reference_on_ties_and_clamps(self, name):
        model = CRAFTED_MODELS[name]()
        reference = ReferenceTables(model)
        rows = crafted_rows(reference)
        tables = sampler._tables(model)
        block, failure = sampler._advance_block(tables, rows)
        assert failure is None
        fast = [bits(r) for r in sampler._records(tables, *block)]
        slow = [bits(reference_record(reference, StubRng(row.tolist()))) for row in rows]
        assert fast == slow

    def test_all_zero_heats_sum_to_positive_zero(self):
        model = identity_hot_ancillas_model()
        tables = sampler._tables(model)
        (alphas, pair_codes, ids, sigma, _), failure = sampler._advance_block(
            tables, crafted_rows(ReferenceTables(model))
        )
        assert failure is None
        assert [x.hex() for x in sigma.tolist()] == ["0x0.0p+0"] * len(sigma)
        lines = "".join(sampler._dump_text(tables, alphas, pair_codes, ids, sigma)).splitlines()
        assert all(line.endswith('"sigma": 0.0}') for line in lines)


def test_advance_memory_stays_within_a_few_uniform_blocks():
    # The block arrays are per block and narrow: the traced peak of one
    # N=60 block stays below four times its uniforms.
    model = resonant_model([0.7 + 0.01 * i for i in range(60)])
    tables = sampler._tables(model)
    u = substream(3).random((BLOCK, 1 + 2 * model.n_collisions))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sampler._advance_block(tables, u)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * u.nbytes


class TestVectorizedChecks:
    """Corrupted tables must trip each per-shot check with its message."""

    CONFIG = SamplerConfig(shots=600, master_seed=5, worker_count=2)

    def failures(self, monkeypatch, corrupt):
        model = resonant_model([0.5, 2.5], seed=4)
        tables = copy.copy(sampler._tables(model))
        reference = ReferenceTables(model)
        corrupt(tables, reference)
        monkeypatch.setattr(sampler, "_tables", lambda _: tables)
        with pytest.raises(ConsistencyError) as fast:
            list(iter_trajectories(model, self.CONFIG))
        with pytest.raises(ConsistencyError) as slow:
            list(reference_trajectories(reference, self.CONFIG))
        return str(fast.value), str(slow.value)

    def test_swapped_ancilla_heat_id(self, monkeypatch):
        def corrupt(tables, reference):
            tables.anc_heat_id = tables.anc_heat_id.copy()
            ids = tables.anc_heat_id[0]
            ids[0, 1], ids[1, 0] = ids[1, 0], ids[0, 1]
            ref = reference.anc_heat_id[0]
            ref[0][1], ref[1][0] = ref[1][0], ref[0][1]

        fast, slow = self.failures(monkeypatch, corrupt)
        assert fast == slow == "system-side and ancilla-side heats disagree on a sampled jump"

    def test_perturbed_log_q(self, monkeypatch):
        def corrupt(tables, reference):
            tables.log_q = tables.log_q.copy()
            tables.log_q[1, 1] += 1e-6
            reference.log_q[1][1] += 1e-6

        fast, slow = self.failures(monkeypatch, corrupt)
        assert fast == slow
        assert fast.startswith("entropy production mismatch: heat form ")

    def test_sample_trajectory_raises_its_shots_error(self, monkeypatch):
        model = resonant_model([0.5, 2.5], seed=4)
        tables = copy.copy(sampler._tables(model))
        tables.sigma_term = tables.sigma_term + 1e-6  # every shot's heat form is off
        monkeypatch.setattr(sampler, "_tables", lambda _: tables)
        with pytest.raises(ConsistencyError, match="^entropy production mismatch: heat form "):
            sample_trajectory(model, substream(21))


class TestMixedRecordStreams:
    def test_counts_merge_across_models_and_hand_built_records(self):
        # Every record is counted on its own heats, so hand-built and
        # replaced records merge with equal sampled keys.
        first = list(iter_trajectories(resonant_model([0.5, 2.5]), SamplerConfig(300, 1)))
        second = list(iter_trajectories(resonant_model([1.5, 0.7]), SamplerConfig(200, 2)))
        by_hand = [
            TrajectoryRecord(r.trajectory, r.heats, r.sigma, r.log_path_probability)
            for r in first[:50]
        ]
        replaced = [dataclasses.replace(r, heats=r.heats[::-1]) for r in first[:30]]
        records = first + second + by_hand + replaced
        result = empirical_joint(records)
        expected = Counter(r.heats for r in records)
        total = len(records)
        assert list(result.distribution.entries.items()) == [
            (key, count / total) for key, count in expected.items()
        ]
        assert list(result.stderr.items()) == [
            (key, math.sqrt(count / total * (1.0 - count / total) / total))
            for key, count in expected.items()
        ]
