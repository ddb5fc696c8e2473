"""Detailed balance at a large negative ancilla beta reports instead of overflowing."""

import json

from heatchain import realize_model
from heatchain.chain import assert_detailed_balance
from heatchain.cli import parse_model
from test_cli_module import run_cli

DOCUMENT = {
    "system": {"energies": ["0", "1"], "beta": 1},
    "ancillas": [
        {"energies": ["0", "1"], "beta": -800,
         "unitary": {"kind": "partial_swap", "theta": 0.7}}
    ],
}


def test_detailed_balance_at_beta_minus_800_returns_a_report():
    model = parse_model(DOCUMENT)
    stage = realize_model(model).stages[0]
    report = assert_detailed_balance(stage.propagator, -800.0, model.system)
    assert report.passed
    assert report.max_residual == 0.0


def test_validate_at_beta_minus_800_exits_0(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(DOCUMENT), encoding="utf-8")
    result = run_cli("validate", str(path), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert "detailed_balance[collision 1]: pass" in result.stdout
