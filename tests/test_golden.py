"""Golden sha256 digests of CLI outputs.

Every export, report and dump below is pinned byte for byte, so any
change in enumeration order, float summation order or serialization shows
up here.  The stiff-chain entry pins the current verify verdict on a chain
whose true partner masses (about 1e-27) fall below ``PRUNE_THRESHOLD``:
joint_ft, product_relation and partial_decomposition report 6, 3 and 3
support mismatches that the physics does not have, and exit 1.  That
digest changes when the support decision stops relying on pruned floats.
"""

import hashlib
import json
import math
import shutil
from pathlib import Path

import pytest

from heatchain.cli import dispatch

MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"

QUARTER = math.pi / 4

STIFF_CHAIN = {
    "system": {"energies": ["0", "1"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1"], "beta": beta,
         "unitary": {"kind": "partial_swap", "theta": QUARTER}}
        for beta in (60.0, 0.5, 30.0)
    ],
    "master_seed": 1,
}

# (command line, expected exit code, {output file: sha256}).  Paths are
# relative to the working directory, because reports embed the model path.
GOLDEN = {
    "exact-csv": (
        ["exact", "resonant_chain.json", "--out", "dist.csv"],
        0,
        {
            "dist.csv": "83e9263cbdef347d98463b6c44f2f698db87d1b2a2f310f91b5a52f6bd872b7f",
            "dist.backward.csv": "04e108ace7731a7f9e9c9b58ccfc777fb0e30e35af25890535d9fb558734ae18",
        },
    ),
    "exact-json": (
        ["exact", "resonant_chain.json", "--out", "dist.json", "--format", "json"],
        0,
        {
            "dist.json": "e9f9a67d97b88d9b6307d3be6eb49e3c8b60114f0e32feb3ae278c47123798c5",
            "dist.backward.json": "ba38e25cdbbf7a2e066de80160d48bd72ea69906f15fc7e993aa924fc6ad80a9",
        },
    ),
    "verify-resonant": (
        ["verify", "resonant_chain.json", "--out", "verify.json"],
        0,
        {"verify.json": "fedc9d547d7d1203c1186e046275a5c31ff2551e4455113f3feb700a40a7f317"},
    ),
    "verify-stiff": (
        ["verify", "stiff_chain.json", "--out", "stiff.json"],
        1,
        {"stiff.json": "dcac03047fa94453078385f23514c072ce0741fedb380ee87db16cb5673040f2"},
    ),
    "sample-dump": (
        ["sample", "resonant_chain.json", "--shots", "3000", "--seed", "5",
         "--workers", "2", "--out", "empirical.csv", "--dump", "shots.jsonl"],
        0,
        {
            "empirical.csv": "d72f57525eb4aae985be6047fd90870d7a5ac78bd274a93a6fa7e8b009fea8dc",
            "shots.jsonl": "72b03691b3544e499d845462b1473f02bae40b938128072d34b2e2d976812ad8",
        },
    ),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copy(MODELS / "resonant_chain.json", tmp_path / "resonant_chain.json")
    (tmp_path / "stiff_chain.json").write_text(json.dumps(STIFF_CHAIN), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(workdir, name):
    argv, expected_exit, digests = GOLDEN[name]
    assert dispatch(argv) == expected_exit
    actual = {
        path: hashlib.sha256((workdir / path).read_bytes()).hexdigest()
        for path in digests
    }
    assert actual == digests
