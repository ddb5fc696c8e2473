"""A NaN residual is the worst residual: every check fails on it, reports NaN, and warns nothing.

The checks take their worst residual as ``np.max(residuals, initial=0.0)``,
which a NaN wins.  The pytest configuration turns any warning into an
error, so a check that warned on a NaN fails here too.
"""

import json
import math

import numpy as np
import pytest

from heatchain import (
    AncillaSpec,
    CollisionUnitary,
    JointHeatDistribution,
    ModelConfig,
    Propagator,
    Spectrum,
    UnitarySpec,
    assert_detailed_balance,
    build_energy_shells,
    exact_backward_joint,
    exact_forward_joint,
    realize_model,
    single_collision_distribution,
    validate_energy_preservation,
    verify_joint_ft,
    verify_product_relation,
)
from heatchain.cli import dispatch

QUBIT = Spectrum.from_values(["0", "1"])
MODEL = ModelConfig(
    QUBIT, 1.0, tuple(AncillaSpec(QUBIT, beta, UnitarySpec.partial_swap(0.7)) for beta in (0.5, 2.0)), 3
)


def nan_masses(law: JointHeatDistribution) -> JointHeatDistribution:
    return JointHeatDistribution(dict.fromkeys(law.entries, math.nan), law.direction, law.n_collisions)


def test_unitarity_fails_a_nan_block_outside_the_first_shell():
    shells = build_energy_shells(QUBIT, QUBIT)
    blocks = [np.eye(shell.size, dtype=complex) for shell in shells]
    blocks[1] = np.full((2, 2), np.nan, dtype=complex)  # the middle of three shells
    report = validate_energy_preservation(CollisionUnitary(shells, tuple(blocks)))
    assert not report.passed
    assert math.isnan(report.max_residual)
    assert report.shell_residuals[0] == 0.0


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param(realize_model(MODEL).stages[0].propagator.matrix, id="partial-swap"),
        pytest.param(np.eye(2), id="identity"),  # the pair's other side is exactly 0
    ],
)
def test_detailed_balance_fails_a_nan_column(matrix):
    matrix = matrix.copy()
    matrix[:, 1] = np.nan
    report = assert_detailed_balance(Propagator(matrix, 1), MODEL.ancillas[0].beta, QUBIT)
    assert not report.passed
    assert math.isnan(report.max_residual)
    assert report.worst_pair == (0, 1)


def test_joint_ft_fails_nan_masses():
    forward, backward = exact_forward_joint(MODEL), exact_backward_joint(MODEL)
    report = verify_joint_ft(nan_masses(forward), nan_masses(backward), MODEL)
    assert not report.passed
    assert math.isnan(report.max_log_residual)


@pytest.mark.parametrize("nan_side", ["joint", "singles"])
def test_product_relation_fails_nan_masses(nan_side):
    forward, backward = exact_forward_joint(MODEL), exact_backward_joint(MODEL)
    singles = [single_collision_distribution(MODEL, i) for i in (1, 2)]
    if nan_side == "joint":
        forward, backward = nan_masses(forward), nan_masses(backward)
    else:
        singles = [nan_masses(single) for single in singles]
    report = verify_product_relation(forward, backward, singles)
    assert not report.passed
    assert math.isnan(report.max_log_residual)


def test_validate_rejects_an_explicit_block_holding_a_nan(tmp_path, capsys):
    block = [[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]  # the middle shell of a qubit pair
    document = {
        "system": {"energies": ["0", "1"], "beta": 1.0},
        "ancillas": [
            {"energies": ["0", "1"], "beta": 0.5, "unitary": {"kind": "explicit", "blocks": {"1": block}}}
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert dispatch(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: ancillas[0].unitary: explicit block fails unitarity: residual nan\n"
