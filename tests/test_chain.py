import itertools
import math

import numpy as np
import pytest

from heatchain import (
    AncillaSpec,
    ModelConfig,
    ModelError,
    Propagator,
    Spectrum,
    UnitarySpec,
    assert_detailed_balance,
    backward_path_probability,
    evolve,
    forward_path_probability,
    gibbs_state,
    propagator_from_tensor,
    realize_model,
)

# Frozen from the independent brute-force sum over ancilla in/out levels
# for theta = pi/4 against a gap-1 thermal ancilla at beta 2.
M_EG = 0.059601461011058766  # excitation probability g -> e
M_GG = 0.9403985389889411
M_GE = 0.44039853898894105
M_EE = 0.5596014610110588
P1_AFTER_ONE_STEP = (0.8059278283039435, 0.1940721716960563)
FWD_GE = 0.04357215937101628  # p0(g) * M(e|g)
BWD_GE = 0.11844140904495501  # M(g|e) * p0(e)


def qubit() -> Spectrum:
    return Spectrum.from_values(["0", "1"])


def resonant_model(theta=math.pi / 4, betas=(2.0,), beta_s=1.0, seed=0) -> ModelConfig:
    ancillas = tuple(
        AncillaSpec(qubit(), beta, UnitarySpec.partial_swap(theta)) for beta in betas
    )
    return ModelConfig(system=qubit(), system_beta=beta_s, ancillas=ancillas, master_seed=seed)


def haar_model(sys_levels, anc_levels, betas, beta_s=1.0, seed=0) -> ModelConfig:
    system = Spectrum.from_values(sys_levels)
    ancillas = tuple(
        AncillaSpec(Spectrum.from_values(anc_levels), beta, UnitarySpec.haar())
        for beta in betas
    )
    return ModelConfig(system=system, system_beta=beta_s, ancillas=ancillas, master_seed=seed)


def brute_force_propagator(stage) -> np.ndarray:
    """Direct double sum over all ancilla in/out levels via tensor lookups."""
    d_s = stage.tensor.d_system
    d_a = stage.tensor.d_ancilla
    q = stage.ancilla_state.populations
    m = np.zeros((d_s, d_s))
    for a_in in range(d_s):
        for a_out in range(d_s):
            total = 0.0
            for n_in in range(d_a):
                for n_out in range(d_a):
                    total += stage.tensor.entry(a_out, n_out, a_in, n_in) * q[n_in]
            m[a_out, a_in] = total
    return m


class TestPropagator:
    def test_identity_tensor_gives_identity(self):
        anc = AncillaSpec(qubit(), 2.0, UnitarySpec.identity())
        model = ModelConfig(system=qubit(), system_beta=1.0, ancillas=(anc,))
        stage = realize_model(model).stages[0]
        assert np.allclose(stage.propagator.matrix, np.eye(2), rtol=0, atol=1e-15)

    def test_half_swap_values(self):
        stage = realize_model(resonant_model()).stages[0]
        m = stage.propagator.matrix
        assert m[1, 0] == pytest.approx(M_EG, abs=1e-14)
        assert m[0, 0] == pytest.approx(M_GG, abs=1e-14)
        assert m[0, 1] == pytest.approx(M_GE, abs=1e-14)
        assert m[1, 1] == pytest.approx(M_EE, abs=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_sum(self, seed):
        model = haar_model(["0", "1", "2"], ["0", "1"], betas=(1.5,), seed=seed)
        stage = realize_model(model).stages[0]
        assert np.allclose(stage.propagator.matrix, brute_force_propagator(stage), atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_columns_sum_to_one(self, seed):
        model = haar_model(["0", "1", "2"], ["0", "1", "2"], betas=(0.7, 2.2), seed=seed)
        for stage in realize_model(model).stages:
            sums = stage.propagator.matrix.sum(axis=0)
            assert np.allclose(sums, 1.0, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        stage = realize_model(resonant_model()).stages[0]
        wrong = gibbs_state(Spectrum.from_values(["0", "1", "2"]), 2.0)
        with pytest.raises(ModelError):
            propagator_from_tensor(stage.tensor, wrong)


class TestDetailedBalance:
    def test_identity_passes_trivially(self):
        anc = AncillaSpec(qubit(), 2.0, UnitarySpec.identity())
        model = ModelConfig(system=qubit(), system_beta=1.0, ancillas=(anc,))
        stage = realize_model(model).stages[0]
        report = assert_detailed_balance(stage.propagator, 2.0, qubit(), 1e-10)
        assert report.passed

    def test_half_swap_passes_tightly(self):
        stage = realize_model(resonant_model()).stages[0]
        report = assert_detailed_balance(stage.propagator, 2.0, qubit(), 1e-12)
        assert report.passed
        # hand check of the two sides
        assert stage.propagator.matrix[1, 0] == pytest.approx(
            stage.propagator.matrix[0, 1] * math.exp(-2.0), abs=1e-14
        )

    def test_constructed_violation_reports_pair(self):
        stage = realize_model(resonant_model()).stages[0]
        broken = stage.propagator.matrix.copy()
        broken[1, 0] *= 2.0
        broken[:, 0] /= broken[:, 0].sum()
        report = assert_detailed_balance(
            Propagator(matrix=broken, collision_index=1), 2.0, qubit(), 1e-10
        )
        assert not report.passed
        assert report.worst_pair == (0, 1)
        assert report.max_residual > 0.01

    def test_gibbs_fixed_point(self):
        # The system Gibbs vector at the ancilla temperature is stationary.
        cases = [
            resonant_model(theta=0.9, betas=(1.7,)),
            haar_model(["0", "1"], ["0", "1", "2"], betas=(1.7,), seed=3),
            haar_model(["0", "1", "3"], ["0", "1"], betas=(0.4,), seed=8),
        ]
        for model in cases:
            stage = realize_model(model).stages[0]
            pinned = gibbs_state(model.system, stage.beta).populations
            stepped = evolve(pinned, stage.propagator)
            assert np.allclose(stepped, pinned, atol=1e-10)


class TestEvolve:
    def test_identity(self):
        anc = AncillaSpec(qubit(), 2.0, UnitarySpec.identity())
        model = ModelConfig(system=qubit(), system_beta=1.0, ancillas=(anc,))
        stage = realize_model(model).stages[0]
        p = np.array([0.25, 0.75])
        assert np.allclose(evolve(p, stage.propagator), p, rtol=0, atol=1e-15)

    def test_full_swap_forgets_input(self):
        model = resonant_model(theta=math.pi / 2)
        stage = realize_model(model).stages[0]
        target = stage.ancilla_state.populations
        for p in ([1.0, 0.0], [0.3, 0.7], [0.5, 0.5]):
            assert np.allclose(evolve(np.array(p), stage.propagator), target, atol=1e-15)

    def test_one_step_from_thermal(self):
        realized = realize_model(resonant_model())
        p1 = evolve(realized.system_state.populations, realized.stages[0].propagator)
        assert p1[0] == pytest.approx(P1_AFTER_ONE_STEP[0], abs=1e-14)
        assert p1[1] == pytest.approx(P1_AFTER_ONE_STEP[1], abs=1e-14)
        assert p1.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        stage = realize_model(resonant_model()).stages[0]
        with pytest.raises(ModelError):
            evolve(np.array([1.0, 0.0, 0.0]), stage.propagator)


class TestPathProbabilities:
    def test_single_step_values(self):
        realized = realize_model(resonant_model())
        p0 = realized.system_state
        props = realized.propagators
        assert forward_path_probability((0, 1), props, p0) == pytest.approx(
            FWD_GE, abs=1e-14
        )
        assert backward_path_probability((0, 1), props, p0) == pytest.approx(
            BWD_GE, abs=1e-14
        )

    def test_identity_chain(self):
        anc = AncillaSpec(qubit(), 2.0, UnitarySpec.identity())
        model = ModelConfig(system=qubit(), system_beta=1.0, ancillas=(anc,))
        realized = realize_model(model)
        p0 = realized.system_state
        assert forward_path_probability((0, 0), realized.propagators, p0) == pytest.approx(
            p0.populations[0]
        )
        assert forward_path_probability((0, 1), realized.propagators, p0) == 0.0
        assert backward_path_probability((1, 1), realized.propagators, p0) == pytest.approx(
            p0.populations[1]
        )
        assert backward_path_probability((0, 1), realized.propagators, p0) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_directions_normalize(self, n):
        model = haar_model(["0", "1", "2"], ["0", "1", "2"], betas=(0.5, 1.5, 2.5)[:n], seed=4)
        realized = realize_model(model)
        p0 = realized.system_state
        paths = itertools.product(range(3), repeat=n + 1)
        fwd_total = bwd_total = 0.0
        for path in paths:
            fwd_total += forward_path_probability(path, realized.propagators, p0)
            bwd_total += backward_path_probability(path, realized.propagators, p0)
        assert fwd_total == pytest.approx(1.0, abs=1e-10)
        assert bwd_total == pytest.approx(1.0, abs=1e-10)

    def test_future_marginalization_is_prefix_chain(self):
        model = haar_model(["0", "1"], ["0", "1", "2"], betas=(0.5, 2.5), seed=6)
        realized = realize_model(model)
        p0 = realized.system_state
        for a0, a1 in itertools.product(range(2), repeat=2):
            marginal = sum(
                forward_path_probability((a0, a1, a2), realized.propagators, p0)
                for a2 in range(2)
            )
            short = forward_path_probability((a0, a1), realized.propagators[:1], p0)
            assert marginal == pytest.approx(short, abs=1e-15)

    def test_chain_rule_matches_evolution(self):
        model = haar_model(["0", "1", "2"], ["0", "1"], betas=(0.5, 1.5), seed=9)
        realized = realize_model(model)
        p = realized.system_state.populations
        for prop in realized.propagators:
            p = evolve(p, prop)
        for final in range(3):
            marginal = sum(
                forward_path_probability((a0, a1, final), realized.propagators, realized.system_state)
                for a0 in range(3)
                for a1 in range(3)
            )
            assert marginal == pytest.approx(p[final], abs=1e-12)

    def test_length_mismatch(self):
        realized = realize_model(resonant_model())
        with pytest.raises(ModelError):
            forward_path_probability((0, 1, 0), realized.propagators, realized.system_state)


class TestRealizeModel:
    def test_cached_by_config(self):
        model = resonant_model()
        assert realize_model(model) is realize_model(model)

    def test_stage_count_and_indexing(self):
        model = resonant_model(betas=(0.5, 1.5, 2.5))
        realized = realize_model(model)
        assert [s.index for s in realized.stages] == [1, 2, 3]
        assert [s.beta for s in realized.stages] == [0.5, 1.5, 2.5]

    @pytest.mark.parametrize(
        "spectrum, unitary",
        [
            pytest.param(["0", "2"], UnitarySpec.partial_swap(0.5), id="non-resonant-swap"),
            pytest.param(["0", "1"], UnitarySpec.explicit({"1": [[1, 0], [0, 2]]}), id="explicit-not-unitary"),
            pytest.param(["0", "1"], UnitarySpec.permutation({"1": [[0, 5]]}), id="permutation-index-out-of-range"),
        ],
    )
    @pytest.mark.parametrize("position", [1, 2, 4])
    def test_error_names_the_first_faulty_collision(self, spectrum, unitary, position):
        # Good swaps around the fault, and a later copy of it that is never reached.  The
        # faulty spectrum also appears first on an identity collision, so a non-resonant
        # group is met before its first partial swap.
        good = AncillaSpec(qubit(), 2.0, UnitarySpec.partial_swap(0.5))
        bad = AncillaSpec(Spectrum.from_values(spectrum), 2.0, unitary)
        ancillas = [good] * 5
        ancillas[position - 1] = ancillas[-1] = bad
        if position > 1:
            ancillas[0] = AncillaSpec(bad.spectrum, 2.0, UnitarySpec.identity())
        with pytest.raises(ModelError) as info:
            realize_model(ModelConfig(qubit(), 1.0, tuple(ancillas)))
        assert info.value.collision == position
