"""Every narrative demo runs to completion in a fresh interpreter.

The Monte Carlo demo's output is pinned: it prints sampled records and
sample means for fixed seeds and worker counts, so any change in the
stream layout or in the order of float sums shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))

MONTE_CARLO_STDOUT = """\
five sampled trajectories (system path, ancilla in/out pairs, heats, sigma):
  #0: alphas (0, 0, 0), pairs ((0, 0), (0, 0)), Q = (0, 0), sigma = +0.0000
  #1: alphas (0, 0, 0), pairs ((0, 0), (0, 0)), Q = (0, 0), sigma = +0.0000
  #2: alphas (0, 1, 1), pairs ((1, 0), (0, 0)), Q = (-1, 0), sigma = +0.5000
  #3: alphas (0, 0, 1), pairs ((1, 1), (1, 0)), Q = (0, -1), sigma = -1.5000
  #4: alphas (0, 0, 0), pairs ((0, 0), (0, 0)), Q = (0, 0), sigma = +0.0000

shots      TV(empirical, exact)   mean exp(-sigma)
   1000                0.023823   0.986447 +- 0.024164
  10000                0.005851   1.003826 +- 0.007684
 100000                0.001041   1.001085 +- 0.002353

(the integral identity pins the mean to 1; deviations shrink as 1/sqrt(shots))
"""


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    if script == "03_monte_carlo.py":
        assert result.stdout == MONTE_CARLO_STDOUT
