"""Library guards that reject a malformed call, and the propagator built from a bare tensor."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest

from heatchain import (
    AncillaSpec,
    CollisionUnitary,
    EnergyShell,
    JointHeatDistribution,
    ModelConfig,
    ModelError,
    Spectrum,
    UnitarySpec,
    backward_path_probability,
    build_energy_shells,
    compare_distributions,
    distribution_from_csv,
    distribution_from_json,
    distribution_to_csv,
    exact_backward_joint,
    exact_forward_joint,
    marginalize,
    propagator_from_tensor,
    realize_model,
    realize_unitary,
    shannon_entropy,
    single_collision_distribution,
    total_variation,
    verify_joint_ft,
    verify_product_relation,
)
import heatchain
from heatchain import heatstats
from heatchain.streams import substream

QUBIT = Spectrum.from_values(["0", "1"])
THIRDS = Spectrum.from_values(["0", "1/3", "2/3"])
QUARTERS = Spectrum.from_values(["0", "1/4", "1/2", "3/4"])
SQRT_HALF = 0.5**0.5
QUBIT_SHELLS = build_energy_shells(QUBIT, QUBIT)


def chain(system, unitaries, ancilla=None, seed=3):
    """A chain of ancillas like the system (or ``ancilla``), one per unitary."""
    ancilla = ancilla or system
    betas = [0.4 + 0.7 * i for i in range(len(unitaries))]
    return ModelConfig(
        system, 1.1, tuple(AncillaSpec(ancilla, b, u) for b, u in zip(betas, unitaries)), seed
    )


@pytest.mark.parametrize(
    "model",
    [
        pytest.param(chain(QUBIT, [UnitarySpec.partial_swap(0.7), UnitarySpec.partial_swap(1.3)]), id="qubit-swap"),
        pytest.param(chain(THIRDS, [UnitarySpec.haar(), UnitarySpec.haar()]), id="haar-d3"),
        pytest.param(chain(QUARTERS, [UnitarySpec.haar()]), id="haar-d4"),
        pytest.param(
            chain(QUBIT, [UnitarySpec.explicit({"1": [[SQRT_HALF, -SQRT_HALF], [SQRT_HALF, SQRT_HALF]]})]),
            id="explicit",
        ),
        pytest.param(
            chain(THIRDS, [UnitarySpec.permutation({"2/3": [[0, 2]]}), UnitarySpec.permutation(shift=1)]),
            id="permutation",
        ),
    ],
)
def test_propagator_from_tensor_is_the_stage_propagator(model):
    for stage in realize_model(model).stages:
        built = propagator_from_tensor(stage.tensor, stage.ancilla_state, stage.index)
        assert built.collision_index == stage.index
        assert built.matrix.tobytes() == stage.propagator.matrix.tobytes()


def qubit_laws():
    model = chain(QUBIT, [UnitarySpec.partial_swap(0.7), UnitarySpec.partial_swap(1.3)])
    return model, exact_forward_joint(model), exact_backward_joint(model)


def joint_ft_wrong_model():
    _, forward, backward = qubit_laws()
    verify_joint_ft(forward, backward, chain(QUBIT, [UnitarySpec.partial_swap(0.7)]))


def joint_ft_wrong_backward():
    model, forward, _ = qubit_laws()
    verify_joint_ft(forward, marginalize(forward, 1), model)


def product_relation_one_single():
    model, forward, backward = qubit_laws()
    verify_product_relation(forward, backward, [single_collision_distribution(model, 1)])


def product_relation_wrong_backward():
    model, forward, _ = qubit_laws()
    shorter = exact_backward_joint(chain(QUBIT, [UnitarySpec.partial_swap(0.7)]))
    verify_product_relation(forward, shorter, [single_collision_distribution(model, i) for i in (1, 2)])


def law_and_its_prefix():
    forward = qubit_laws()[1]
    return forward, marginalize(forward, 1)


def product_relation_joint_singles():
    # As many singles as collisions, but each is the two-collision law.
    _, forward, backward = qubit_laws()
    verify_product_relation(forward, backward, [forward, forward])


def backward_path_of_wrong_length():
    realized = realize_model(chain(QUBIT, [UnitarySpec.partial_swap(0.7)]))
    backward_path_probability([0, 1, 0], [stage.propagator for stage in realized.stages], realized.system_state)


def law_document(*keys: list[str]) -> dict:
    """A one-collision forward law document, one entry of mass 0.5 per key."""
    entries = [{"heats": key, "probability": 0.5} for key in keys]
    return {"direction": "forward", "n_collisions": 1, "entries": entries}


def swap_on_diagonal_exchange_shell():
    # Sizes [1, 2, 1], but the two-member shell pairs (0, 0) with (1, 1).
    shells = (
        EnergyShell(Fraction(0), ((0, 1),)),
        EnergyShell(Fraction(1), ((0, 0), (1, 1))),
        EnergyShell(Fraction(2), ((1, 0),)),
    )
    realize_unitary(shells, UnitarySpec.partial_swap(0.7), 0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(backward_path_of_wrong_length, ModelError, "one more level", id="backward-path-length"),
        pytest.param(
            lambda: JointHeatDistribution({}, "sideways", 1), ModelError, "unknown direction", id="direction"
        ),
        pytest.param(
            lambda: marginalize(qubit_laws()[1], []), ValueError, "at least one coordinate", id="marginalize-none"
        ),
        pytest.param(
            lambda: marginalize(qubit_laws()[1], [0, 0]), ValueError, r"coordinate 0 repeated in \(0, 0\)",
            id="marginalize-repeated",
        ),
        pytest.param(joint_ft_wrong_backward, ModelError, "forward/backward collision counts", id="ft-backward-count"),
        pytest.param(joint_ft_wrong_model, ModelError, "model collision counts", id="ft-model-count"),
        pytest.param(product_relation_one_single, ModelError, "one single-collision", id="product-singles-count"),
        pytest.param(
            product_relation_wrong_backward, ModelError, "forward/backward collision counts", id="product-backward-count"
        ),
        pytest.param(
            product_relation_joint_singles, ModelError, "must have one collision", id="product-singles-width"
        ),
        pytest.param(
            lambda: compare_distributions(*law_and_its_prefix()), ModelError, "collision counts differ",
            id="compare-count",
        ),
        pytest.param(
            lambda: total_variation(*law_and_its_prefix()), ModelError, "collision counts differ",
            id="total-variation-count",
        ),
        pytest.param(lambda: distribution_from_csv(""), ModelError, "empty distribution CSV", id="csv-empty"),
        pytest.param(
            lambda: distribution_from_csv("Q_1,Q_1_exact,p\n"), ModelError, "unexpected distribution CSV header",
            id="csv-header",
        ),
        pytest.param(
            lambda: distribution_from_csv("Q_1,probability,Q_1_exact\n1,0.5,1\n1,0.5,1\n"),
            ModelError, r"heat key \(1/1\) is repeated", id="csv-repeated-key",
        ),
        pytest.param(
            lambda: distribution_from_json(law_document(["1"], ["1"])),
            ModelError, r"heat key \(1/1\) is repeated", id="json-repeated-key",
        ),
        pytest.param(
            lambda: distribution_from_json(law_document(["1"], ["2/2"])),
            ModelError, r"heat key \(1/1\) is repeated", id="json-repeated-value",
        ),
        pytest.param(
            lambda: distribution_from_csv("Q_1,probability,Q_1_exact\n1,0.5,1,7\n"),
            ModelError, r"^line 2: heat key has length 2, not n_collisions=1$", id="csv-extra-cell",
        ),
        pytest.param(
            lambda: distribution_from_csv("Q_1,probability,Q_1_exact\n1,0.5\n"),
            ModelError, r"^line 2: heat key has length 0, not n_collisions=1$", id="csv-short-row",
        ),
        pytest.param(
            lambda: distribution_from_csv("Q_1,probability,Q_1_exact\n\n1,0.5,1\n0,half,0\n"),
            ModelError, r"^line 4: could not convert string to float: 'half'$", id="csv-probability-text",
        ),
        pytest.param(
            lambda: distribution_from_csv("Q_1,probability,Q_1_exact\n1,0.5,1/0\n"),
            ModelError, r"^line 2: invalid rational '1/0'", id="csv-heat-text",
        ),
        pytest.param(
            lambda: distribution_from_csv("Q_1,probability,Q_1_exact\n1,0.5,1\n1,0.5,2/2\n"),
            ModelError, r"^line 3: heat key \(1/1\) is repeated$", id="csv-repeated-line",
        ),
        pytest.param(
            lambda: distribution_from_json(
                {"direction": "forward", "n_collisions": 1, "entries": [{"heats": ["1"], "probability": 1}, {}]}
            ),
            ModelError, r"^entries\[1\] has no 'heats'$", id="json-no-heats",
        ),
        pytest.param(
            lambda: distribution_from_json({"direction": "forward", "n_collisions": 1, "entries": [{"heats": ["1"]}]}),
            ModelError, r"^entries\[0\] has no 'probability'$", id="json-no-probability",
        ),
        pytest.param(
            lambda: distribution_from_json(law_document(["1"], [True])),
            ModelError, r"^entries\[1\]: invalid rational True$", id="json-bool-heat",
        ),
        pytest.param(
            lambda: distribution_from_json(
                {"direction": "forward", "n_collisions": 2, "entries": [{"heats": "12", "probability": 1.0}]}
            ),
            ModelError, r"^entries\[0\]: heats must be a list, not '12'$", id="json-heats-string",
        ),
        pytest.param(
            lambda: marginalize(qubit_laws()[1], True), ValueError, "prefix length True is not an integer",
            id="marginalize-bool",
        ),
        pytest.param(
            lambda: marginalize(qubit_laws()[1], [True]), ValueError,
            r"coordinates \(True,\) are not integers in 0\.\.1",
            id="marginalize-bool-coordinate",
        ),
        pytest.param(
            lambda: marginalize(qubit_laws()[1], [1.0]), ValueError,
            r"coordinates \(1\.0,\) are not integers in 0\.\.1",
            id="marginalize-float-coordinate",
        ),
        pytest.param(
            lambda: marginalize(qubit_laws()[1], [0, 2]), ValueError,
            r"coordinates \(0, 2\) are not integers in 0\.\.1",
            id="marginalize-coordinate-range",
        ),
        pytest.param(
            lambda: marginalize(qubit_laws()[1], [0, True]), ValueError,
            r"coordinates \(0, True\) are not integers in 0\.\.1", id="marginalize-mixed-coordinates",
        ),
        pytest.param(
            lambda: marginalize(qubit_laws()[1], np.int64(3)), ValueError, r"prefix length 3 is not an integer in 1\.\.2",
            id="marginalize-int64-range",
        ),
        pytest.param(
            lambda: UnitarySpec.partial_swap(float("inf")), ModelError, "angle must be finite", id="swap-angle"
        ),
        pytest.param(
            lambda: CollisionUnitary(QUBIT_SHELLS, (np.eye(1),)),
            ModelError, "one block per shell", id="block-count",
        ),
        pytest.param(
            lambda: realize_unitary(QUBIT_SHELLS, UnitarySpec.permutation({"1": [[0, 1], [1, 0]]}), 0),
            ModelError, "reuse index 1", id="cycles-reuse-index",
        ),
        pytest.param(
            swap_on_diagonal_exchange_shell, ModelError, "exchange shell must pair", id="swap-exchange-members"
        ),
        pytest.param(lambda: substream(), ValueError, "at least one integer", id="substream-no-key"),
        pytest.param(
            lambda: ModelConfig(QUBIT, float("nan"), (AncillaSpec(QUBIT, 1.0, UnitarySpec.identity()),)),
            ModelError, "system beta must be finite", id="system-beta",
        ),
        pytest.param(
            lambda: shannon_entropy(np.full((2, 2), 0.25)), ValueError, "one-dimensional", id="entropy-2d"
        ),
        pytest.param(
            lambda: shannon_entropy([math.nan, math.nan]), ValueError, "sums to nan, not 1", id="entropy-nan"
        ),
    ],
)
def test_guard_rejects_malformed_call(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_package_exports_exactly_each_modules_all():
    # Each module's __all__ is the one list of its public names.
    modules = [getattr(heatchain, name) for name in ("model", "unitaries", "chain", "heatstats", "sampler", "streams")]
    public = {name for name in dir(heatchain) if not name.startswith("_")}
    submodules = {name for name in public if isinstance(getattr(heatchain, name), types.ModuleType)}
    assert all(getattr(heatchain, name).__name__ == f"heatchain.{name}" for name in submodules)
    assert public - submodules == {name for module in modules for name in module.__all__}
    assert heatchain.__version__


def test_marginalize_reads_any_integer_prefix_length():
    forward = qubit_laws()[1]
    want = list(marginalize(forward, 1).entries.items())
    assert list(marginalize(forward, np.int64(1)).entries.items()) == want
    assert list(marginalize(forward, np.array(1)).entries.items()) == want
    assert list(marginalize(forward, np.array([0])).entries.items()) == want  # an array of coordinates
    assert list(marginalize(forward, [np.int64(0)]).entries.items()) == want


def test_csv_reader_parses_each_distinct_heat_text_once(monkeypatch):
    forward = exact_forward_joint(chain(QUBIT, [UnitarySpec.partial_swap(0.7 + 0.3 * i) for i in range(6)]))
    text = distribution_to_csv(forward, include_exact=True)
    rows = [line.split(",") for line in text.splitlines()[1:]]  # Q_1..Q_6, probability, Q_1_exact..Q_6_exact
    calls = []
    original = heatstats.parse_rational

    def counted(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(heatstats, "parse_rational", counted)
    parsed = distribution_from_csv(text)
    assert list(parsed.entries.items()) == [(tuple(map(Fraction, cells[7:])), float(cells[6])) for cells in rows]
    assert dict(parsed.entries) == dict(forward.entries)
    assert sorted(calls) == sorted({cell for cells in rows for cell in cells[7:]})
    assert len(calls) < len(rows)
