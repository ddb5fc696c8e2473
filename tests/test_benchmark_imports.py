"""The benchmark's modules import, and the CLI names they call exist.

``perfbench/run.py`` imports ``tracing`` even with ``--trace 0``, so a
name either module imports or calls that goes missing fails every
benchmark operation, while every other test still passes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import run, tracing
from heatchain import cli
names = ("dispatch", "load_model_file", "_dump_line")
missing = [name for name in names if not callable(getattr(cli, name, None))]
assert not missing, f"heatchain.cli lacks {missing}"
"""


def test_benchmark_modules_import_and_find_their_cli_names():
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    result = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
