"""``python -m heatchain.cli`` and ``python -m heatchain`` run the command line, with its exit codes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_cli(
    *args: str, cwd: Path, module: str = "heatchain.cli", stdout: int = subprocess.PIPE
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=cwd,
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


def test_missing_model_exits_2(tmp_path):
    result = run_cli("validate", str(tmp_path / "missing.json"), cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")


def test_validate_resonant_chain_exits_0(tmp_path):
    result = run_cli("validate", str(ROOT / "demos" / "models" / "resonant_chain.json"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    *checks, elapsed = result.stdout.splitlines()
    assert [line.split(" (")[0] for line in checks] == [
        f"{check}[collision {c}]: pass"
        for c in (1, 2, 3)
        for check in ("unitarity", "detailed_balance")
    ]
    assert elapsed.startswith("elapsed: ")


def test_package_entry_help_exits_0(tmp_path):
    result = run_cli("--help", cwd=tmp_path, module="heatchain")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: heatchain ")
    assert "{validate,exact,verify,sample,entropy}" in result.stdout
    assert result.stderr == ""


def test_package_entry_usage_error_exits_2(tmp_path):
    result = run_cli("sample", "model.json", "--shots", "0", cwd=tmp_path, module="heatchain")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: heatchain sample ")
    assert result.stderr.endswith("error: argument --shots: must be at least 1, got 0\n")


def test_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path):
    # The read end is closed before the child starts, so its first write to stdout
    # fails: a closed reader is not unusable input, and nothing is reported.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        model = str(ROOT / "demos" / "models" / "resonant_chain.json")
        result = run_cli("verify", model, cwd=tmp_path, module="heatchain", stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == ""
