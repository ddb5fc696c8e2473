import math
import pickle
from copy import deepcopy
from fractions import Fraction

import numpy as np
import pytest

from heatchain import (
    AncillaSpec,
    ModelConfig,
    ModelError,
    Spectrum,
    UnitarySpec,
    format_rational,
    gibbs_state,
    kl_divergence,
    parse_rational,
    realize_model,
    shannon_entropy,
    single_collision_model,
    truncated_model,
)

# Frozen by direct evaluation: Z = 1 + exp(-1), p = (1/Z, exp(-1)/Z),
# S = -sum p ln p, KL = sum p (ln p - ln q), all with plain math.log.
GIBBS_QUBIT_BETA1 = (0.7310585786300049, 0.2689414213699951)
SHANNON_GIBBS_BETA1 = 0.5822031088882179
KL_SKEWED_VS_GIBBS = 0.04025002050896641


def qubit() -> Spectrum:
    return Spectrum.from_values(["0", "1"])


class TestRational:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert parse_rational("5") == Fraction(5)
        assert parse_rational(3) == Fraction(3)
        assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)

    @pytest.mark.parametrize("bad", ["abc", "1/0", "", 1.5, None, True, [1]])
    def test_parse_rejects(self, bad):
        with pytest.raises(ModelError):
            parse_rational(bad)

    def test_format_always_writes_denominator(self):
        assert format_rational(Fraction(2)) == "2/1"
        assert format_rational(Fraction(-1, 3)) == "-1/3"

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            num = int(rng.integers(-10**6, 10**6))
            den = int(rng.integers(1, 10**6))
            value = parse_rational(f"{num}/{den}")
            again = parse_rational(format_rational(value))
            assert again == value
            assert again.denominator > 0
            assert math.gcd(again.numerator, again.denominator) == 1


class TestSpectrum:
    def test_sorted_on_construction(self):
        spec = Spectrum.from_values(["1", "0", "1/2"])
        assert spec.levels == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert spec.dim == 3

    def test_degenerate_rejected_naming_level(self):
        with pytest.raises(ModelError, match="1/2"):
            Spectrum.from_values(["0", "1/2", "2/4"])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            Spectrum(())

    def test_as_floats(self):
        spec = Spectrum.from_values(["-1/2", "3"])
        assert np.allclose(spec.as_floats(), [-0.5, 3.0])


class TestGibbs:
    def test_infinite_temperature_is_uniform(self):
        state = gibbs_state(qubit(), 0.0)
        assert np.allclose(state.populations, [0.5, 0.5], atol=1e-15)

    def test_single_level(self):
        state = gibbs_state(Spectrum.from_values(["0"]), 3.7)
        assert state.populations.tolist() == [1.0]

    def test_qubit_beta_one(self):
        state = gibbs_state(qubit(), 1.0)
        assert state.populations[0] == pytest.approx(GIBBS_QUBIT_BETA1[0], abs=1e-14)
        assert state.populations[1] == pytest.approx(GIBBS_QUBIT_BETA1[1], abs=1e-14)

    def test_log_z_consistent_with_populations(self):
        spec = Spectrum.from_values(["0", "1/3", "2", "7/2"])
        for beta in (-2.0, 0.0, 0.9, 4.0):
            state = gibbs_state(spec, beta)
            expected = np.exp(-beta * spec.as_floats() - state.log_z)
            assert np.allclose(state.populations, expected, rtol=1e-12)
            assert state.populations.sum() == pytest.approx(1.0, abs=1e-12)

    def test_extreme_beta_does_not_overflow(self):
        spec = Spectrum.from_values(["0", "5", "10"])
        cold = gibbs_state(spec, 1e4)
        hot = gibbs_state(spec, -1e4)
        assert np.isfinite(cold.populations).all()
        assert cold.populations[0] == pytest.approx(1.0)
        assert hot.populations[-1] == pytest.approx(1.0)

    def test_monotone_in_energy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            levels = sorted(set(rng.integers(-20, 20, size=5).tolist()))
            if len(levels) < 2:
                continue
            spec = Spectrum.from_values([str(v) for v in levels])
            warm = gibbs_state(spec, 1.3).populations
            assert all(a > b for a, b in zip(warm, warm[1:]))
            inverted = gibbs_state(spec, -0.7).populations
            assert all(a < b for a, b in zip(inverted, inverted[1:]))

    def test_infinite_beta_rejected(self):
        with pytest.raises(ModelError):
            gibbs_state(qubit(), math.inf)


class TestShannonEntropy:
    def test_pure_distribution(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-14)

    def test_gibbs_vector(self):
        assert shannon_entropy(GIBBS_QUBIT_BETA1) == pytest.approx(
            SHANNON_GIBBS_BETA1, abs=1e-13
        )

    def test_uniform_maximizes(self):
        rng = np.random.default_rng(7)
        d = 4
        bound = math.log(d)
        for _ in range(50):
            p = rng.dirichlet(np.ones(d))
            assert shannon_entropy(p) <= bound + 1e-12
        assert shannon_entropy(np.full(d, 1 / d)) == pytest.approx(bound, abs=1e-13)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([1.2, -0.2])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.6, 0.6])


class TestKLDivergence:
    def test_identity_case(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_point_mass_vs_fair_coin(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2), abs=1e-14
        )

    def test_skewed_vs_gibbs(self):
        assert kl_divergence([0.6, 0.4], GIBBS_QUBIT_BETA1) == pytest.approx(
            KL_SKEWED_VS_GIBBS, abs=1e-13
        )

    def test_support_violation_raises(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = rng.dirichlet(np.ones(3))
            assert kl_divergence(p, p) <= 1e-12
            q = rng.dirichlet(np.ones(3))
            if np.abs(p - q).max() > 1e-3:
                assert kl_divergence(p, q) > 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])


class TestModelConfig:
    def make(self, n=2):
        anc = AncillaSpec(qubit(), 2.0, UnitarySpec.partial_swap(0.3))
        return ModelConfig(
            system=qubit(), system_beta=1.0, ancillas=(anc,) * n, master_seed=9
        )

    def test_requires_ancilla(self):
        with pytest.raises(ModelError):
            ModelConfig(system=qubit(), system_beta=1.0, ancillas=(), master_seed=0)

    def test_seed_range(self):
        anc = AncillaSpec(qubit(), 2.0, UnitarySpec.identity())
        with pytest.raises(ModelError):
            ModelConfig(system=qubit(), system_beta=1.0, ancillas=(anc,), master_seed=-1)
        with pytest.raises(ModelError):
            ModelConfig(system=qubit(), system_beta=1.0, ancillas=(anc,), master_seed=2**64)

    def test_non_finite_beta_rejected(self):
        anc = AncillaSpec(qubit(), math.nan, UnitarySpec.identity())
        with pytest.raises(ModelError):
            ModelConfig(system=qubit(), system_beta=1.0, ancillas=(anc,))

    def test_stream_tags_resolved_by_position(self):
        anc = AncillaSpec(qubit(), 2.0, UnitarySpec.haar())
        model = ModelConfig(system=qubit(), system_beta=1.0, ancillas=(anc, anc))
        assert [a.unitary.stream_tag for a in model.ancillas] == [1, 2]

    def test_submodels_keep_stream_tags(self):
        anc = AncillaSpec(qubit(), 2.0, UnitarySpec.haar())
        model = ModelConfig(system=qubit(), system_beta=1.0, ancillas=(anc,) * 3)
        assert single_collision_model(model, 3).ancillas[0].unitary.stream_tag == 3
        shorter = truncated_model(model, 2)
        assert [a.unitary.stream_tag for a in shorter.ancillas] == [1, 2]

    def test_truncate_bounds(self):
        model = self.make(2)
        with pytest.raises(ValueError):
            truncated_model(model, 0)
        with pytest.raises(ValueError):
            single_collision_model(model, 3)

    def test_explicit_stream_tag_kept(self):
        anc = AncillaSpec(qubit(), 2.0, UnitarySpec.haar(stream_tag=41))
        model = ModelConfig(system=qubit(), system_beta=1.0, ancillas=(anc,))
        assert model.ancillas[0].unitary.stream_tag == 41


def signed(beta: float) -> tuple[type, str]:
    return type(beta), repr(beta)


class TestConfigHashAndBetas:
    """Configs key the realization cache: their hash is taken once, and equal configs carry one beta form."""

    def chain(self, system_beta, betas, seed=4):
        kinds = [UnitarySpec.partial_swap(0.4), UnitarySpec.haar(), UnitarySpec.identity()]
        ancillas = tuple(AncillaSpec(qubit(), b, kinds[i % 3]) for i, b in enumerate(betas))
        return ModelConfig(system=qubit(), system_beta=system_beta, ancillas=ancillas, master_seed=seed)

    def test_equal_configs_hash_equal(self):
        a, b = self.chain(1.0, [0.5, 2.0, 3.0]), self.chain(1.0, [0.5, 2.0, 3.0])
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.system, a.system_beta, a.ancillas, a.master_seed))
        assert hash(truncated_model(a, 2)) == hash(truncated_model(b, 2))
        assert hash(single_collision_model(a, 3)) == hash(single_collision_model(b, 3))

    def test_a_copy_is_built_anew(self):
        model = self.chain(-0.0, [0.5, 2.0, 3.0])
        assert model.__reduce_ex__(4) == (ModelConfig, (model.system, 0.0, model.ancillas, 4))  # no stored state
        for copy in (pickle.loads(pickle.dumps(model)), deepcopy(model)):
            assert copy == model and hash(copy) == hash(model)
            assert [a.unitary.stream_tag for a in copy.ancillas] == [1, 2, 3]

    def test_a_cache_lookup_hashes_no_ancilla(self, monkeypatch):
        betas = [0.5 + 0.01 * k for k in range(200)]
        model, twin = self.chain(1.0, betas), self.chain(1.0, betas)
        realized = realize_model(model)
        calls = []
        ancilla_hash = AncillaSpec.__hash__
        monkeypatch.setattr(AncillaSpec, "__hash__", lambda self: calls.append(self) or ancilla_hash(self))
        assert realize_model(model) is realized
        assert realize_model(twin) is realized
        assert calls == []

    @pytest.mark.parametrize("first", ["negative-zero", "zero"])
    def test_equal_configs_realize_the_same_betas_in_either_order(self, first):
        loose = self.chain(-0.0, [-0.0, 1, 0, -0.0])
        plain = self.chain(0.0, [0.0, 1.0, 0.0, 0.0])
        assert loose == plain and hash(loose) == hash(plain)
        for model in (loose, plain):
            assert signed(model.system_beta) == (float, "0.0")
            assert [signed(b) for b in model.ancilla_betas] == [(float, "0.0"), (float, "1.0"), (float, "0.0"), (float, "0.0")]
        realize_model.cache_clear()
        for model in (loose, plain) if first == "negative-zero" else (plain, loose):
            realized = realize_model(model)
            assert [signed(stage.beta) for stage in realized.stages] == [signed(b) for b in plain.ancilla_betas]
            assert [signed(stage.ancilla_state.beta) for stage in realized.stages] == [
                signed(b) for b in plain.ancilla_betas
            ]
            assert signed(realized.system_state.beta) == (float, "0.0")
        realize_model.cache_clear()
