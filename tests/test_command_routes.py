"""No command takes a route that only library callers take.

Every subcommand builds, checks and writes its laws in coded form.  Three
routes are kept for library callers alone: a law built from Fraction-keyed
entries, which alone runs ``JointHeatDistribution.__post_init__``, records
summarized one at a time (``sampler._record_summary``), and per-key
standard errors built on first touch (``EmpiricalJoint.__getattr__``).
With all three made to raise, every subcommand still runs on both demo
models and exits as it does with them in place.
"""

from pathlib import Path

import pytest

from heatchain import EmpiricalJoint, JointHeatDistribution, sampler
from heatchain.cli import dispatch

MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"


def library_route(*args, **kwargs):
    raise AssertionError("a command took a library-only route")


@pytest.mark.parametrize("name, failing", [("resonant_chain.json", 0), ("haar_thirds.json", 1)])
def test_no_command_takes_a_library_only_route(tmp_path, monkeypatch, capsys, name, failing):
    monkeypatch.setattr(JointHeatDistribution, "__post_init__", library_route)
    monkeypatch.setattr(sampler, "_record_summary", library_route)
    monkeypatch.setattr(EmpiricalJoint, "__getattr__", library_route)
    model = str(MODELS / name)
    commands = {
        "validate": (["validate", model], failing),
        "exact --out": (["exact", model, "--out", str(tmp_path / "law.csv")], 0),
        "exact --format json": (["exact", model, "--format", "json"], 0),
        "verify": (["verify", model], failing),
        "sample --dump --out": (
            ["sample", model, "--shots", "3000", "--dump", str(tmp_path / "shots.jsonl"), "--out", str(tmp_path / "sampled.csv")],
            0,
        ),
        "sample --format json": (["sample", model, "--shots", "3000", "--format", "json", "--out", str(tmp_path / "sampled.json")], 0),
        "entropy": (["entropy", model], 0),
    }
    codes = {command: dispatch(argv) for command, (argv, _) in commands.items()}
    assert codes == {command: code for command, (_, code) in commands.items()}
    assert capsys.readouterr().err == ""
    assert (tmp_path / "law.backward.csv").stat().st_size and (tmp_path / "sampled.json").stat().st_size
