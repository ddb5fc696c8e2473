import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from heatchain import (
    AncillaSpec,
    CollisionUnitary,
    ModelConfig,
    ModelError,
    Spectrum,
    TransitionTensor,
    UnitarySpec,
    build_energy_shells,
    haar_unitary,
    realize_model,
    realize_unitary,
    transition_tensor,
    validate_energy_preservation,
)
from heatchain.streams import substream
from heatchain.unitaries import _shell_index


def spectrum(*values) -> Spectrum:
    return Spectrum.from_values(values)


def brute_force_shells(system: Spectrum, ancilla: Spectrum):
    """Independent grouping of all exact sums, used as the oracle."""
    sums = {}
    for a, e_a in enumerate(system.levels):
        for n, e_n in enumerate(ancilla.levels):
            sums.setdefault(e_a + e_n, set()).add((a, n))
    return sums


class TestEnergyShells:
    def test_resonant_qubits(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        assert [s.size for s in shells] == [1, 2, 1]
        assert shells[1].members == ((0, 1), (1, 0))
        assert [s.total_energy for s in shells] == [Fraction(0), Fraction(1), Fraction(2)]

    def test_unmatched_gaps_give_singletons(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "2"))
        assert [s.size for s in shells] == [1, 1, 1, 1]
        assert [s.total_energy for s in shells] == [
            Fraction(0),
            Fraction(1),
            Fraction(2),
            Fraction(3),
        ]

    def test_qutrit_qubit_grouping(self):
        system, ancilla = spectrum("0", "1", "2"), spectrum("0", "1")
        shells = build_energy_shells(system, ancilla)
        assert [s.size for s in shells] == [1, 2, 2, 1]
        oracle = brute_force_shells(system, ancilla)
        assert {s.total_energy: set(s.members) for s in shells} == oracle

    def test_exact_thirds(self):
        system = spectrum("0", "1/3", "2/3")
        shells = build_energy_shells(system, system)
        assert [s.size for s in shells] == [1, 2, 3, 2, 1]
        assert shells[2].total_energy == Fraction(2, 3)

    @pytest.mark.parametrize(
        "sys_levels,anc_levels",
        [(("0", "1"), ("0", "1", "2")), (("0", "1/2", "3"), ("0", "1/2"))],
    )
    def test_partition_and_order(self, sys_levels, anc_levels):
        system, ancilla = spectrum(*sys_levels), spectrum(*anc_levels)
        shells = build_energy_shells(system, ancilla)
        members = [m for s in shells for m in s.members]
        assert len(members) == system.dim * ancilla.dim
        assert len(set(members)) == len(members)
        totals = [s.total_energy for s in shells]
        assert totals == sorted(totals)
        for shell in shells:
            assert list(shell.members) == sorted(shell.members)
            for a, n in shell.members:
                assert system.levels[a] + ancilla.levels[n] == shell.total_energy


class TestHaar:
    def test_unitary_residual(self):
        u = haar_unitary(3, substream(42, 0, 0))
        residual = np.abs(u @ u.conj().T - np.eye(3)).max()
        assert residual < 1e-12

    def test_bit_identical_realization(self):
        shells = build_energy_shells(spectrum("0", "1", "2"), spectrum("0", "1", "2"))
        spec = UnitarySpec.haar(stream_tag=4)
        first = realize_unitary(shells, spec, master_seed=123)
        second = realize_unitary(shells, spec, master_seed=123)
        for a, b in zip(first.blocks, second.blocks):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        one = realize_unitary(shells, UnitarySpec.haar(stream_tag=1), master_seed=1)
        two = realize_unitary(shells, UnitarySpec.haar(stream_tag=1), master_seed=2)
        assert not np.allclose(one.blocks[1], two.blocks[1])

    def test_first_entry_mean_is_half(self):
        rng = substream(2024)
        samples = [abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10_000)]
        assert abs(np.mean(samples) - 0.5) < 0.02

    def test_singleton_shells_get_unit_phase(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "2"))
        unitary = realize_unitary(shells, UnitarySpec.haar(), master_seed=5)
        for block in unitary.blocks:
            assert block.shape == (1, 1)
            assert block[0, 0] == 1.0


class TestPartialSwap:
    def test_full_swap(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        unitary = realize_unitary(shells, UnitarySpec.partial_swap(math.pi / 2), 0)
        tensor = transition_tensor(unitary)
        assert tensor.entry(1, 0, 0, 1) == pytest.approx(1.0, abs=1e-15)
        assert tensor.entry(0, 1, 0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_half_swap_amplitude(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        unitary = realize_unitary(shells, UnitarySpec.partial_swap(math.pi / 4), 0)
        block = unitary.blocks[1]
        assert abs(block[1, 0]) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(np.abs(block), math.sqrt(0.5))

    def test_resonance_with_common_gap(self):
        shells = build_energy_shells(spectrum("0", "3/2"), spectrum("0", "3/2"))
        unitary = realize_unitary(shells, UnitarySpec.partial_swap(0.3), 0)
        assert unitary.blocks[1].shape == (2, 2)

    @pytest.mark.parametrize(
        "sys_levels,anc_levels",
        [
            (("0", "1"), ("0", "2")),
            (("0", "1", "2"), ("0", "1")),
            (("0", "1"), ("0", "1", "2")),
        ],
    )
    def test_non_resonant_rejected(self, sys_levels, anc_levels):
        shells = build_energy_shells(spectrum(*sys_levels), spectrum(*anc_levels))
        with pytest.raises(ModelError, match="shell"):
            realize_unitary(shells, UnitarySpec.partial_swap(0.5), 0)


class TestPermutationAndExplicit:
    def test_shift_permutation_swaps_exchange_shell(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        unitary = realize_unitary(shells, UnitarySpec.permutation(shift=1), 0)
        tensor = transition_tensor(unitary)
        assert tensor.entry(1, 0, 0, 1) == 1.0
        assert tensor.entry(0, 0, 0, 0) == 1.0  # singleton shells fixed

    def test_named_cycles(self):
        shells = build_energy_shells(spectrum("0", "1", "2"), spectrum("0", "1", "2"))
        spec = UnitarySpec.permutation(cycles={"2": [[0, 1, 2]]})
        unitary = realize_unitary(shells, spec, 0)
        middle = unitary.blocks[2]
        assert middle[1, 0] == 1.0 and middle[2, 1] == 1.0 and middle[0, 2] == 1.0
        assert np.array_equal(unitary.blocks[1], np.eye(2))

    def test_cycle_index_out_of_range(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        with pytest.raises(ModelError, match="out of range"):
            realize_unitary(shells, UnitarySpec.permutation(cycles={"1": [[0, 5]]}), 0)

    def test_explicit_block_accepted(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        c = s = math.sqrt(0.5)
        spec = UnitarySpec.explicit({"1": [[c, -1j * s], [-1j * s, c]]})
        unitary = realize_unitary(shells, spec, 0)
        assert np.allclose(np.abs(unitary.blocks[1]) ** 2, 0.5)

    def test_explicit_non_unitary_rejected(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        with pytest.raises(ModelError, match="unitarity"):
            realize_unitary(shells, UnitarySpec.explicit({"1": [[1, 0], [0, 2]]}), 0)

    def test_explicit_unknown_shell_rejected(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        with pytest.raises(ModelError, match="not a shell"):
            realize_unitary(shells, UnitarySpec.explicit({"7": [[1]]}), 0)

    @pytest.mark.parametrize(
        "blocks, row, entries, rows",
        [
            # numpy refused this one at realization, with a ValueError.
            pytest.param({"2": [[1], [0, 1]]}, 0, 1, 2, id="ragged"),
            pytest.param({"1": [[1, 0]]}, 0, 2, 1, id="wide"),
            pytest.param({"1": [[1, 0], [0, 1]], "0": [[1], [1]]}, 0, 1, 2, id="second-block-tall"),
        ],
    )
    def test_explicit_block_that_is_not_square_rejected_at_construction(self, blocks, row, entries, rows):
        with pytest.raises(ModelError, match=rf"must be square: row {row} has {entries} entries, the block has {rows} rows"):
            UnitarySpec.explicit(blocks)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: UnitarySpec.permutation({"1": [[True, False]]}), id="both"),
            pytest.param(lambda: UnitarySpec.permutation({"1": [[0, True]]}), id="second"),
        ],
    )
    def test_boolean_cycle_members_rejected(self, call):
        with pytest.raises(ModelError, match="integer member indices"):
            call()

    @pytest.mark.parametrize("shift", [True, False, 1.5, "1"])
    def test_shift_that_is_not_an_integer_rejected(self, shift):
        with pytest.raises(ModelError, match="permutation shift must be an integer"):
            UnitarySpec.permutation(shift=shift)

    @pytest.mark.parametrize(
        "call",
        [
            # The later entry used to win silently.
            pytest.param(lambda: UnitarySpec.permutation({"1": [[0, 1]], "2/2": [[1, 0]]}), id="cycles"),
            # Sorting the two entries compared their matrices: a bare TypeError.
            pytest.param(
                lambda: UnitarySpec.explicit({"1": [[1, 0], [0, 1]], "2/2": [[0, 1], [1, 0]]}),
                id="blocks",
            ),
            pytest.param(
                lambda: UnitarySpec.explicit({"1": [[1, 0], [0, 1]], "2/2": [[1, 0], [0, 1]]}),
                id="equal-blocks",
            ),
        ],
    )
    def test_total_energy_written_two_ways_rejected(self, call):
        with pytest.raises(ModelError, match="total energy 1/1 is given twice"):
            call()

    def test_numpy_integers_accepted_as_members_and_shift(self):
        spec = UnitarySpec.permutation({"1": [[np.int64(0), np.int64(1)]]}, shift=np.int64(1))
        assert spec.cycles == ((Fraction(1), ((0, 1),)),) and spec.shift == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            UnitarySpec(kind="rotation")


class TestValidation:
    def test_realized_unitaries_pass(self):
        shells = build_energy_shells(spectrum("0", "1", "2"), spectrum("0", "1", "2"))
        unitary = realize_unitary(shells, UnitarySpec.haar(stream_tag=2), 42)
        report = validate_energy_preservation(unitary, tolerance=1e-10)
        assert report.passed
        assert report.max_residual < 1e-12

    def test_bad_diagonal_reports_residual_three(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        blocks = (
            np.eye(1, dtype=complex),
            np.array([[1, 0], [0, 2]], dtype=complex),
            np.eye(1, dtype=complex),
        )
        report = validate_energy_preservation(
            CollisionUnitary(shells=shells, blocks=blocks), tolerance=1e-10
        )
        assert not report.passed
        assert report.max_residual == pytest.approx(3.0)

    def test_block_shape_mismatch_rejected(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        with pytest.raises(ModelError, match="shape"):
            CollisionUnitary(shells=shells, blocks=(np.eye(2),) * 3)


class TestTransitionTensor:
    def test_identity_is_kronecker_delta(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        tensor = transition_tensor(realize_unitary(shells, UnitarySpec.identity(), 0))
        for x in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for y in ((0, 0), (0, 1), (1, 0), (1, 1)):
                expected = 1.0 if x == y else 0.0
                assert tensor.entry(*x, *y) == expected

    def test_half_swap_entries(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        tensor = transition_tensor(
            realize_unitary(shells, UnitarySpec.partial_swap(math.pi / 4), 0)
        )
        assert tensor.entry(1, 0, 0, 1) == pytest.approx(0.5, abs=1e-15)
        assert tensor.entry(0, 1, 0, 1) == pytest.approx(0.5, abs=1e-15)
        assert tensor.entry(0, 0, 0, 0) == 1.0

    def test_cross_shell_structurally_zero(self):
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        tensor = transition_tensor(
            realize_unitary(shells, UnitarySpec.haar(stream_tag=1), 3)
        )
        assert tensor.entry(0, 0, 1, 1) == 0.0
        assert tensor.entry(1, 1, 0, 0) == 0.0

    def test_position_defaults_to_the_shells_index(self):
        system, ancilla = spectrum("0", "1/3", "2/3"), spectrum("0", "1/3")
        model = ModelConfig(system, 1.0, (AncillaSpec(ancilla, 0.5, UnitarySpec.haar()),), 11)
        stage = realize_model(model).stages[0]
        built = TransitionTensor(stage.shells, stage.tensor.probs, system.dim, ancilla.dim)
        assert built.position == _shell_index(stage.shells).position
        levels = (range(system.dim), range(ancilla.dim))
        for x in product(*levels, *levels):
            assert built.entry(*x) == stage.tensor.entry(*x)

    def test_doubly_stochastic_within_shells(self):
        shells = build_energy_shells(spectrum("0", "1", "2"), spectrum("0", "1", "2"))
        for seed in range(10):
            unitary = realize_unitary(shells, UnitarySpec.haar(stream_tag=1), seed)
            tensor = transition_tensor(unitary)
            for probs in tensor.probs:
                assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-10)
                assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-10)


class TestColumnSumCheck:
    """The exit-probability check holds column sums to within 1e-10 of 1.

    It names the first shell that fails.
    """

    @staticmethod
    def scaled(excess: float, failing: tuple[int, ...]) -> CollisionUnitary:
        shells = build_energy_shells(spectrum("0", "1"), spectrum("0", "1"))
        blocks = [np.eye(shell.size, dtype=complex) for shell in shells]
        for k in failing:
            blocks[k] = blocks[k] * math.sqrt(1 + excess)
        return CollisionUnitary(shells=shells, blocks=tuple(blocks))

    @pytest.mark.parametrize(
        "failing, energy", [((1, 2), "1/1"), ((2,), "2/1"), ((0, 2), "0/1")]
    )
    def test_sums_off_by_1e_3_raise_naming_the_first_shell(self, failing, energy):
        with pytest.raises(ModelError, match=f"block at total energy {energy} is not unitary"):
            transition_tensor(self.scaled(1e-3, failing))

    def test_sums_off_by_1e_7_raise(self):
        with pytest.raises(ModelError, match="block at total energy 0/1 is not unitary"):
            transition_tensor(self.scaled(1e-7, (0, 1, 2)))
