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
    # Without --dump: the plain route, one worker and three.
    "sample-plain-csv": (
        ["sample", "resonant_chain.json", "--shots", "3000", "--seed", "5", "--out", "plain.csv"],
        0,
        {"plain.csv": "4c329ee5ad5b9e711259074b12a71c6532d3d0a747abcefdf4ce5cd749d9cc41"},
    ),
    "sample-plain-json": (
        ["sample", "resonant_chain.json", "--shots", "2000", "--seed", "9", "--workers", "3",
         "--out", "plain.json", "--format", "json"],
        0,
        {"plain.json": "8633b3a3272c49ba7c46549ed368901e6afae8ed4dc869fe760b691c9ccf4279"},
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


def test_failing_verify_names_its_support_mismatches(workdir, capsys):
    argv, expected_exit, digests = GOLDEN["verify-stiff"]
    assert dispatch(argv) == expected_exit
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "route_equivalence: pass (max residual 1.110e-16)",
        "joint_ft: FAIL (max residual 3.553e-15; 6 support mismatches)",
        "product_relation: FAIL (max residual 3.553e-15; 3 support mismatches)",
        "partial_decomposition: FAIL (max residual 3.553e-15; 3 support mismatches)",
    ]
    assert {
        path: hashlib.sha256((workdir / path).read_bytes()).hexdigest() for path in digests
    } == digests


# Larger models, where many paths merge onto one heat tuple and the order of
# the float sums shows.  The N=10 chain has a theta=pi/2 collision, whose
# 3.7e-33 stay-put weights leave keys below ``PRUNE_THRESHOLD``, and a
# theta=0 collision, whose exchange branches are exactly zero.
RESONANT_TEN = {
    "system": {"energies": ["0", "1"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1"], "beta": beta,
         "unitary": {"kind": "partial_swap", "theta": theta}}
        for beta, theta in zip(
            (0.7, 1.3, 0.9, 1.1, 0.6, 1.4, 1.0, 0.8, 1.2, 0.95),
            (0.5, 0.9, math.pi / 2, 0.7, 1.1, 0.0, 0.6, 0.8, 1.0, 0.4),
        )
    ],
    "master_seed": 3,
}

RESONANT_EIGHT = {
    "system": {"energies": ["0", "1"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1"], "beta": 1.0 + 0.05 * k,
         "unitary": {"kind": "partial_swap", "theta": 0.4 + 0.1 * k}}
        for k in range(8)
    ],
    "master_seed": 5,
}

HAAR_D3 = {
    "system": {"energies": ["0", "1/3", "2/3"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1/3", "2/3"], "beta": beta, "unitary": {"kind": "haar"}}
        for beta in (0.6, 1.7, 1.2)
    ],
    "master_seed": 17,
}

# Entropy on chains with more augmented paths (31307 and 60112) than one
# block of the trajectory average holds, so its running sum crosses blocks.
HAAR_D3_N5 = {
    "system": {"energies": ["0", "1/3", "2/3"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1/3", "2/3"], "beta": beta, "unitary": {"kind": "haar"}}
        for beta in (0.6, 1.7, 1.2, 0.8, 1.4)
    ],
    "master_seed": 23,
}

HAAR_D4_N4 = {
    "system": {"energies": ["0", "1/3", "2/3", "1"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1/3", "2/3", "1"], "beta": beta, "unitary": {"kind": "haar"}}
        for beta in (0.7, 1.5, 1.1, 0.9)
    ],
    "master_seed": 29,
}

# 3367 keys per law: the JSON export spans several blocks of rows.
HAAR_D4_N5 = {
    "system": {"energies": ["0", "1/3", "2/3", "1"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1/3", "2/3", "1"], "beta": beta, "unitary": {"kind": "haar"}}
        for beta in (0.7, 1.5, 1.1, 0.9, 1.3)
    ],
    "master_seed": 31,
}

GOLDEN_LARGE = {
    "exact-csv-resonant-ten": (
        ["exact", "resonant_ten.json", "--out", "ten.csv"],
        0,
        {
            "ten.csv": "d8c3d8bbd7500dfd9b2afad7075f67259c4d6c7e7046bf45483cbf191d8a477e",
            "ten.backward.csv": "acc884f74d9123d67f5162060b87592b05da5b87ec51b9bdff4efcd0583ecd59",
        },
    ),
    "exact-json-haar-d3": (
        ["exact", "haar_d3.json", "--out", "haar.json", "--format", "json"],
        0,
        {
            "haar.json": "cae6c1b151e4d28aa274ebfde9f5d82fb1319223cf8715235a4d63629d29c4ec",
            "haar.backward.json": "18240d61ea624567f69975b454989d176344c10a80b4adfeaad06d3fb520d18c",
        },
    ),
    "exact-json-haar-d4-n5": (
        ["exact", "haar_d4_n5.json", "--out", "haar5.json", "--format", "json"],
        0,
        {
            "haar5.json": "bc79d3fc86e3de5d9acc25a65456d1b623474b26bd7bc1ec6490ed22228819f7",
            "haar5.backward.json": "40520a89f6462e90772fe2e9aa24403e9142103c8f0e2d9d7bcaa0e0f22694ab",
        },
    ),
    "verify-resonant-eight": (
        ["verify", "resonant_eight.json", "--out", "verify8.json"],
        0,
        {"verify8.json": "febf17ef651c07eb32b699a0e8d2cf4a1a82cf76076744ba4f29339cee7ea8e5"},
    ),
    "entropy-haar-thirds": (
        ["entropy", "haar_thirds.json", "--out", "entropy.json"],
        0,
        {"entropy.json": "51006b88eeed75bd86d674de386fb17206dfb289c6e2b9dd2f762715878e129b"},
    ),
    "entropy-haar-d3-n5": (
        ["entropy", "haar_d3_n5.json", "--out", "entropy_d3.json"],
        0,
        {"entropy_d3.json": "44f1470563b20a1ac3330098934e79d8d29fa60a2ad09ecc545f29354569eef9"},
    ),
    "entropy-haar-d4-n4": (
        ["entropy", "haar_d4_n4.json", "--out", "entropy_d4.json"],
        0,
        {"entropy_d4.json": "e2c12cd12f8c9bd930a5e8596194f07525cd2952e8c1d03b412e01c1a953fc60"},
    ),
    # One worker, 775 shots: the dump and the counts cross shot-block boundaries.
    "sample-dump-haar-d3": (
        ["sample", "haar_d3.json", "--shots", "775", "--seed", "11", "--workers", "1",
         "--out", "haar_empirical.csv", "--dump", "haar_shots.jsonl"],
        0,
        {
            "haar_empirical.csv": "7d0b3083b9c6cf95445c5387782d6552a200cccb74e8dca48d30ec83056664c3",
            "haar_shots.jsonl": "608d19f962a50d1fb19dbf5309050086c38534523a9c6ef76a58eaee33e2a027",
        },
    ),
}


@pytest.fixture
def large_workdir(tmp_path, monkeypatch):
    shutil.copy(MODELS / "haar_thirds.json", tmp_path / "haar_thirds.json")
    for name, document in (
        ("resonant_ten.json", RESONANT_TEN),
        ("resonant_eight.json", RESONANT_EIGHT),
        ("haar_d3.json", HAAR_D3),
        ("haar_d3_n5.json", HAAR_D3_N5),
        ("haar_d4_n4.json", HAAR_D4_N4),
        ("haar_d4_n5.json", HAAR_D4_N5),
    ):
        (tmp_path / name).write_text(json.dumps(document), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(GOLDEN_LARGE))
def test_larger_outputs_match_golden_digests(large_workdir, name):
    argv, expected_exit, digests = GOLDEN_LARGE[name]
    assert dispatch(argv) == expected_exit
    actual = {
        path: hashlib.sha256((large_workdir / path).read_bytes()).hexdigest()
        for path in digests
    }
    assert actual == digests


# validate on both demos, console lines and report: the resonant chain
# passes, and haar_thirds fails detailed balance on its 3-member shells.
GOLDEN_VALIDATE = {
    "resonant_chain.json": (
        0,
        "9b99a739c1b64f9929d7c38994e9ea051bb152c7a2a2d4710fc210a2e6477c02",
        [
            "unitarity[collision 1]: pass (max residual 1.015e-17)",
            "detailed_balance[collision 1]: pass (max residual 1.470e-16)",
            "unitarity[collision 2]: pass (max residual 1.015e-17)",
            "detailed_balance[collision 2]: pass (max residual 0.000e+00)",
            "unitarity[collision 3]: pass (max residual 1.015e-17)",
            "detailed_balance[collision 3]: pass (max residual 0.000e+00)",
        ],
    ),
    "haar_thirds.json": (
        1,
        "b8c589fe21b32a0859a515dacbc6f133f455653a6c46e7623a13725fcbb36ac0",
        [
            "unitarity[collision 1]: pass (max residual 1.110e-15)",
            "detailed_balance[collision 1]: FAIL (max residual 4.020e-01)",
            "unitarity[collision 2]: pass (max residual 1.110e-15)",
            "detailed_balance[collision 2]: FAIL (max residual 2.839e-01)",
        ],
    ),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_VALIDATE))
def test_validate_reports_match_golden_digests(tmp_path, monkeypatch, capsys, model):
    expected_exit, digest, lines = GOLDEN_VALIDATE[model]
    shutil.copy(MODELS / model, tmp_path / model)
    monkeypatch.chdir(tmp_path)
    assert dispatch(["validate", model, "--out", "validate.json"]) == expected_exit
    *checks, elapsed = capsys.readouterr().out.splitlines()
    assert checks == lines
    assert elapsed.startswith("elapsed: ")
    assert hashlib.sha256((tmp_path / "validate.json").read_bytes()).hexdigest() == digest
