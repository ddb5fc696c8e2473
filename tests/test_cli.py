import json
import math
import re
from fractions import Fraction

import pytest

from heatchain import (
    AncillaSpec,
    ModelConfig,
    ModelError,
    Spectrum,
    UnitarySpec,
    distribution_from_json,
    realize_model,
)
from heatchain import cli
from heatchain.cli import dispatch, load_model_file, parse_model
from test_coded_laws import ZERO_POPULATIONS

RUNNING_EXAMPLE = {
    "system": {"energies": ["0", "1"], "beta": "1"},
    "ancillas": [
        {
            "energies": ["0", "1"],
            "beta": "2",
            "unitary": {"kind": "partial_swap", "theta": 0.7853981633974483},
        }
    ],
}

CHAIN_DOCUMENT = {
    "system": {"energies": ["0", "1"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1"], "beta": 0.5,
         "unitary": {"kind": "partial_swap", "theta": 0.7853981633974483}},
        {"energies": ["0", "1"], "beta": 1.5,
         "unitary": {"kind": "partial_swap", "theta": 0.7853981633974483}},
        {"energies": ["0", "1"], "beta": 2.5,
         "unitary": {"kind": "partial_swap", "theta": 0.7853981633974483}},
    ],
    "master_seed": 7,
}


def write_model(tmp_path, document, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


class TestParseModel:
    def test_running_example(self):
        config = parse_model(RUNNING_EXAMPLE)
        assert config.n_collisions == 1
        assert config.system_beta == 1.0
        assert config.ancillas[0].beta == 2.0
        assert config.master_seed == 0

    def test_degenerate_spectrum_names_level(self):
        document = {"system": {"energies": ["0", "0"], "beta": 1.0}, "ancillas": RUNNING_EXAMPLE["ancillas"]}
        with pytest.raises(ModelError, match=r"system\.energies.*0/1"):
            parse_model(document)

    def test_malformed_rational_carries_field_path(self):
        document = {
            "system": {"energies": ["0", "1"], "beta": 1.0},
            "ancillas": [
                {"energies": ["0", "x"], "beta": 1.0, "unitary": {"kind": "identity"}}
            ],
        }
        with pytest.raises(ModelError, match=r"ancillas\[0\]\.energies\[1\]"):
            parse_model(document)

    def test_float_energy_rejected(self):
        document = {
            "system": {"energies": [0.5, 1.0], "beta": 1.0},
            "ancillas": RUNNING_EXAMPLE["ancillas"],
        }
        with pytest.raises(ModelError, match="num/den"):
            parse_model(document)

    def test_non_resonant_partial_swap_names_shells(self):
        document = {
            "system": {"energies": ["0", "1"], "beta": 1.0},
            "ancillas": [
                {"energies": ["0", "2"], "beta": 1.0,
                 "unitary": {"kind": "partial_swap", "theta": 0.5}}
            ],
        }
        with pytest.raises(ModelError, match="shell sizes"):
            parse_model(document)

    def test_exact_thirds_with_haar(self):
        document = {
            "system": {"energies": ["0", "1/3", "2/3"], "beta": 1.0},
            "ancillas": [
                {"energies": ["0", "1/3", "2/3"], "beta": 2.0, "unitary": {"kind": "haar"}}
            ],
            "master_seed": 3,
        }
        config = parse_model(document)
        assert config.ancillas[0].spectrum.levels == (
            Fraction(0), Fraction(1, 3), Fraction(2, 3),
        )

    def test_unknown_unitary_kind(self):
        document = {
            "system": {"energies": ["0", "1"], "beta": 1.0},
            "ancillas": [{"energies": ["0", "1"], "beta": 1.0, "unitary": {"kind": "spin"}}],
        }
        with pytest.raises(ModelError, match="unitary.kind"):
            parse_model(document)

    def test_explicit_blocks_parse_and_validate(self):
        c = s = math.sqrt(0.5)
        document = {
            "system": {"energies": ["0", "1"], "beta": 1.0},
            "ancillas": [
                {"energies": ["0", "1"], "beta": 1.0,
                 "unitary": {"kind": "explicit",
                              "blocks": {"1": [[[c, 0], [0, -s]], [[0, -s], [c, 0]]]}}}
            ],
        }
        config = parse_model(document)
        assert config.ancillas[0].unitary.kind == "explicit"

    def test_explicit_non_unitary_rejected_at_load(self):
        document = {
            "system": {"energies": ["0", "1"], "beta": 1.0},
            "ancillas": [
                {"energies": ["0", "1"], "beta": 1.0,
                 "unitary": {"kind": "explicit",
                              "blocks": {"1": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}}}
            ],
        }
        with pytest.raises(ModelError, match="unitarity"):
            parse_model(document)

    def test_settings_defaults(self, tmp_path):
        path = write_model(tmp_path, RUNNING_EXAMPLE)
        _, settings = load_model_file(path)
        assert settings.tolerance == 1e-9
        assert settings.enumeration_cap == 10**8

    @pytest.mark.parametrize("tolerance", [-1e-9, -5])
    def test_negative_document_tolerance_rejected(self, tmp_path, tolerance):
        path = write_model(tmp_path, {**RUNNING_EXAMPLE, "tolerance": tolerance})
        with pytest.raises(ModelError, match="tolerance: must be at least 0"):
            load_model_file(path)

    def test_nan_document_tolerance_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**RUNNING_EXAMPLE, "tolerance": math.nan}), encoding="utf-8")
        with pytest.raises(ModelError, match="tolerance: must be finite"):
            load_model_file(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ModelError, match="JSON"):
            load_model_file(path)


class TestDispatch:
    def test_validate_passes(self, tmp_path, capsys):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        report = tmp_path / "report.json"
        assert dispatch(["validate", str(path), "--out", str(report)]) == 0
        document = json.loads(report.read_text())
        assert document["passed"] is True
        assert len(document["checks"]) == 6  # unitarity + balance per collision
        out = capsys.readouterr().out
        assert "detailed_balance" in out and "pass" in out

    def test_validate_flags_wide_shell_haar(self, tmp_path):
        # A three-member shell breaks thermal detailed balance for a
        # generic haar block; validate must say so and exit 1.
        document = {
            "system": {"energies": ["0", "1", "2"], "beta": 1.0},
            "ancillas": [
                {"energies": ["0", "1", "2"], "beta": 2.0, "unitary": {"kind": "haar"}}
            ],
            "master_seed": 0,
        }
        path = write_model(tmp_path, document)
        assert dispatch(["validate", str(path)]) == 1

    def test_verify_passes_and_reports(self, tmp_path):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        report = tmp_path / "verify.json"
        assert dispatch(["verify", str(path), "--out", str(report)]) == 0
        document = json.loads(report.read_text())
        names = [c["name"] for c in document["checks"]]
        assert names == [
            "route_equivalence",
            "joint_ft",
            "product_relation",
            "partial_decomposition",
        ]
        assert document["passed"] is True

    def test_exact_exports_are_reproducible(self, tmp_path):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        out_a = tmp_path / "a" / "dist.csv"
        out_b = tmp_path / "b" / "dist.csv"
        assert dispatch(["exact", str(path), "--out", str(out_a)]) == 0
        assert dispatch(["exact", str(path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        backward_a = out_a.with_name("dist.backward.csv")
        backward_b = out_b.with_name("dist.backward.csv")
        assert backward_a.read_bytes() == backward_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert header.startswith("Q_1,Q_2,Q_3,probability")

    def test_exact_json_round_trips(self, tmp_path):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        out = tmp_path / "dist.json"
        assert dispatch(["exact", str(path), "--out", str(out), "--format", "json"]) == 0
        forward = distribution_from_json(json.loads(out.read_text()))
        assert forward.direction == "forward"
        assert forward.total_mass() == pytest.approx(1.0, abs=1e-12)
        backward = distribution_from_json(
            json.loads(out.with_name("dist.backward.json").read_text())
        )
        assert backward.direction == "backward"
        # the re-imported map equals a fresh in-process computation exactly
        from heatchain import exact_forward_joint

        recomputed = exact_forward_joint(parse_model(CHAIN_DOCUMENT))
        assert forward.entries == dict(recomputed.entries)

    def test_sample_deterministic_with_dump(self, tmp_path):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        runs = []
        for tag in ("x", "y"):
            out = tmp_path / tag / "emp.csv"
            dump = tmp_path / tag / "traj.jsonl"
            code = dispatch(
                [
                    "sample", str(path), "--shots", "400", "--seed", "11",
                    "--workers", "2", "--out", str(out), "--dump", str(dump),
                ]
            )
            assert code == 0
            runs.append((out.read_bytes(), dump.read_bytes()))
        assert runs[0] == runs[1]

    def test_dump_records_are_exact(self, tmp_path):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        dump = tmp_path / "traj.jsonl"
        assert dispatch(
            ["sample", str(path), "--shots", "50", "--seed", "3", "--dump", str(dump)]
        ) == 0
        lines = dump.read_text().strip().split("\n")
        assert len(lines) == 50
        record = json.loads(lines[0])
        assert set(record) == {"alphas", "ancilla_pairs", "heats", "sigma"}
        assert len(record["alphas"]) == 4
        assert all("/" in heat for heat in record["heats"])

    def test_sample_seed_changes_output(self, tmp_path):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"emp{seed}.csv"
            assert dispatch(["sample", str(path), "--shots", "400", "--seed", seed, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_entropy_passes(self, tmp_path):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        report = tmp_path / "entropy.json"
        assert dispatch(["entropy", str(path), "--out", str(report)]) == 0
        document = json.loads(report.read_text())
        assert document["passed"] is True
        assert document["max_pairwise_gap"] < 1e-9

    def test_unknown_subcommand_exits_2(self):
        assert dispatch(["frobnicate", "model.json"]) == 2

    def test_no_arguments_exits_2(self):
        assert dispatch([]) == 2

    def test_missing_model_file_exits_2(self, tmp_path):
        assert dispatch(["verify", str(tmp_path / "absent.json")]) == 2

    def test_bad_document_exits_2(self, tmp_path):
        path = write_model(tmp_path, {"system": {"energies": ["0", "0"], "beta": 1}, "ancillas": []})
        assert dispatch(["verify", str(path)]) == 2

    def test_model_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert dispatch(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text")
        assert "Traceback" not in err
        with pytest.raises(ModelError, match="not UTF-8 text"):
            load_model_file(path)

    @pytest.mark.parametrize("flag, value", [("--shots", "0"), ("--workers", "0"), ("--seed", "-1")])
    def test_sample_flag_out_of_range_exits_2(self, tmp_path, capsys, flag, value):
        path = write_model(tmp_path, RUNNING_EXAMPLE)
        assert dispatch(["sample", str(path), flag, value]) == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be at least" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--shots", "--workers", "--seed"])
    def test_sample_flag_not_an_integer_exits_2(self, tmp_path, capsys, flag):
        path = write_model(tmp_path, RUNNING_EXAMPLE)
        assert dispatch(["sample", str(path), flag, "x"]) == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: invalid int value: 'x'" in err
        assert "Traceback" not in err

    def test_cap_flag_enforced(self, tmp_path):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        assert dispatch(["exact", str(path), "--cap", "3"]) == 2

    @pytest.mark.parametrize("command", ["exact", "verify", "entropy"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_cap_flag_out_of_range_exits_2(self, tmp_path, capsys, command, value):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        assert dispatch([command, str(path), "--cap", value]) == 2
        err = capsys.readouterr().err
        assert "error: argument --cap: must be at least 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "verify", "entropy"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9", "tight"])
    def test_tolerance_flag_out_of_range_exits_2(self, tmp_path, capsys, command, value):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        assert dispatch([command, str(path), "--tolerance", value]) == 2
        err = capsys.readouterr().err
        assert "error: argument --tolerance:" in err
        assert "Traceback" not in err

    def test_zero_tolerance_flag_accepted(self, tmp_path):
        path = write_model(tmp_path, CHAIN_DOCUMENT)
        assert dispatch(["validate", str(path), "--tolerance", "0"]) != 2

    @pytest.mark.parametrize("command", ["verify", "entropy"])
    def test_negative_document_tolerance_exits_2(self, tmp_path, capsys, command):
        path = write_model(tmp_path, {**CHAIN_DOCUMENT, "tolerance": -1e-9})
        assert dispatch([command, str(path)]) == 2
        assert "error: tolerance: must be at least 0" in capsys.readouterr().err


def qubit_pair(unitary, system_energies=("0", "1")):
    """A one-collision qubit document with the given ancilla unitary."""
    return {
        "system": {"energies": list(system_energies), "beta": 1.0},
        "ancillas": [{"energies": ["0", "1"], "beta": 2.0, "unitary": unitary}],
    }


def permutation(cycles):
    return qubit_pair({"kind": "permutation", "cycles": cycles})


CYCLES = "ancillas[0].unitary.cycles"
BLOCKS = "ancillas[0].unitary.blocks"
SWAP = {"kind": "partial_swap", "theta": 0.5}


def explicit(blocks):
    return qubit_pair({"kind": "explicit", "blocks": blocks})


def with_system(**fields):
    """The one-collision identity document with these system fields replaced."""
    document = qubit_pair({"kind": "identity"})
    return {**document, "system": {**document["system"], **fields}}


def with_ancillas(ancillas):
    return {**qubit_pair({"kind": "identity"}), "ancillas": ancillas}


def swap_chain(bad):
    """A three-collision qubit partial-swap chain, ancilla ``i`` updated with ``bad[i]``."""
    good = {"energies": ["0", "1"], "beta": 2.0, "unitary": SWAP}
    return with_ancillas([{**good, **bad.get(i, {})} for i in range(3)])


def realize_one(energies, unitary, seed=0):
    """Realize the one-collision chain of a qubit system and this ancilla, through the library."""
    ancilla = AncillaSpec(Spectrum.from_values(energies), 2.0, unitary)
    return realize_model(ModelConfig(Spectrum.from_values(["0", "1"]), 1.0, (ancilla,), seed))


def seeded(seed):
    return {**qubit_pair({"kind": "identity"}), "master_seed": seed}


def settings(**fields):
    return {**qubit_pair({"kind": "identity"}), **fields}


NOT_UNITARY = {"1": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}


@pytest.mark.parametrize(
    "document, path, library_call",
    [
        pytest.param(permutation({"2": 5}), CYCLES, lambda: UnitarySpec.permutation({"2": 5}), id="cycles-int"),
        pytest.param(permutation({"2": None}), CYCLES, lambda: UnitarySpec.permutation({"2": None}), id="cycles-null"),
        pytest.param(permutation({"2": [5]}), CYCLES, lambda: UnitarySpec.permutation({"2": [5]}), id="cycle-int"),
        pytest.param(permutation({"2": [["a"]]}), CYCLES, lambda: UnitarySpec.permutation({"2": [["a"]]}), id="index-str"),
        # Shell 1 has two members, and int() truncated this to the swap [[0, 1]].
        pytest.param(
            permutation({"1": [[0.5, 1]]}), CYCLES, lambda: UnitarySpec.permutation({"1": [[0.5, 1]]}), id="index-float"
        ),
        # index() takes True as 1, so this loaded as the swap [[1, 0]].
        pytest.param(
            permutation({"1": [[True, False]]}), CYCLES, lambda: UnitarySpec.permutation({"1": [[True, False]]}),
            id="index-bool",
        ),
        pytest.param(
            qubit_pair({"kind": "explicit", "blocks": {"2": [[[1, 0]], [[0, 0], [1, 0]]]}}),
            "ancillas[0].unitary.blocks[2][1]",
            lambda: UnitarySpec.explicit({"2": [[1], [0, 1]]}),
            id="ragged-block",
        ),
        pytest.param(
            qubit_pair({"kind": "explicit", "blocks": {"1": [[[1, 0], [0, 0]]]}}),
            "ancillas[0].unitary.blocks",
            lambda: UnitarySpec.explicit({"1": [[1, 0]]}),
            id="rectangular-block",
        ),
        # "1" and "2/2" are one total energy: the later entry used to win silently.
        pytest.param(
            permutation({"1": [[0, 1]], "2/2": [[1, 0]]}),
            CYCLES,
            lambda: UnitarySpec.permutation({"1": [[0, 1]], "2/2": [[1, 0]]}),
            id="cycles-total-twice",
        ),
        pytest.param(
            qubit_pair({"kind": "explicit", "blocks": {
                "1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                "2/2": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            }}),
            "ancillas[0].unitary.blocks",
            lambda: UnitarySpec.explicit({"1": [[1, 0], [0, 1]], "2/2": [[0, 1], [1, 0]]}),
            id="blocks-total-twice",
        ),
        pytest.param(
            permutation({"x": [[0, 1]]}), CYCLES, lambda: UnitarySpec.permutation({"x": [[0, 1]]}),
            id="cycles-bad-total",
        ),
        pytest.param(
            explicit({"x": [[[1, 0]]]}), BLOCKS, lambda: UnitarySpec.explicit({"x": [[1]]}), id="blocks-bad-total"
        ),
        pytest.param(
            qubit_pair({"kind": "identity"}, ["0", "1e400"]),
            "system.energies",
            lambda: Spectrum.from_values(["0", "1e400"]),
            id="energy-overflow-str",
        ),
        pytest.param(
            qubit_pair({"kind": "identity"}, ["0", 10**400]),
            "system.energies",
            lambda: Spectrum.from_values([0, 10**400]),
            id="energy-overflow-int",
        ),
        pytest.param(
            qubit_pair({"kind": "haar", "stream_tag": -5}),
            "ancillas[0].unitary.stream_tag",
            lambda: UnitarySpec.haar(-5),
            id="negative-stream-tag",
        ),
        # Failures of the realization name the first ancilla that fails alone.
        pytest.param(
            swap_chain({2: {"energies": ["0", "2"]}}),
            "ancillas[2].unitary",
            lambda: realize_one(["0", "2"], UnitarySpec.partial_swap(0.5)),
            id="non-resonant-swap",
        ),
        pytest.param(
            swap_chain({i: {"unitary": {"kind": "explicit", "blocks": NOT_UNITARY}} for i in (1, 2)}),
            "ancillas[1].unitary",
            lambda: realize_one(["0", "1"], UnitarySpec.explicit({"1": [[1, 0], [0, 2]]})),
            id="explicit-not-unitary",
        ),
        pytest.param(
            swap_chain({1: {"unitary": {"kind": "permutation", "cycles": {"1": [[0, 5]]}}}}),
            "ancillas[1].unitary",
            lambda: realize_one(["0", "1"], UnitarySpec.permutation({"1": [[0, 5]]})),
            id="permutation-index-out-of-range",
        ),
        pytest.param(
            seeded(-1), "master_seed", lambda: realize_one(["0", "1"], UnitarySpec.identity(), -1), id="seed-negative"
        ),
        pytest.param(
            seeded(2**64), "master_seed", lambda: realize_one(["0", "1"], UnitarySpec.identity(), 2**64),
            id="seed-past-64-bits",
        ),
        # Checks of the document that only the command line makes.
        pytest.param(with_system(beta=True), "system.beta", None, id="number-bool"),
        pytest.param(with_system(beta="hot"), "system.beta", None, id="number-word"),
        pytest.param(with_system(beta=[1]), "system.beta", None, id="number-list"),
        pytest.param(with_system(energies=[]), "system.energies", None, id="energies-empty"),
        pytest.param(explicit({"1": 5}), f"{BLOCKS}[1]", None, id="matrix-not-list"),
        pytest.param(explicit({"1": [5]}), f"{BLOCKS}[1][0]", None, id="matrix-row-not-list"),
        pytest.param(explicit({"1": [[[1]]]}), f"{BLOCKS}[1][0][0]", None, id="matrix-bad-cell"),
        pytest.param(qubit_pair("swap"), "ancillas[0].unitary", None, id="unitary-not-object"),
        pytest.param(
            qubit_pair({"kind": "haar", "stream_tag": 1.5}), "ancillas[0].unitary.stream_tag", None,
            id="stream-tag-float",
        ),
        pytest.param(qubit_pair({"kind": "partial_swap"}), "ancillas[0].unitary.theta", None, id="swap-no-theta"),
        pytest.param(permutation([[0, 1]]), CYCLES, None, id="cycles-not-object"),
        pytest.param(
            qubit_pair({"kind": "permutation", "shift": 1.5}), "ancillas[0].unitary.shift", None, id="shift-float"
        ),
        pytest.param(explicit({}), BLOCKS, None, id="blocks-empty"),
        pytest.param([], "model document", None, id="document-not-object"),
        pytest.param({"ancillas": []}, "system", None, id="system-missing"),
        pytest.param(with_ancillas([]), "ancillas", None, id="ancillas-empty"),
        pytest.param(with_ancillas([5]), "ancillas[0]", None, id="ancilla-not-object"),
        pytest.param(seeded("7"), "master_seed", None, id="seed-str"),
        pytest.param(settings(enumeration_cap=0), "enumeration_cap", None, id="cap-zero"),
        pytest.param(settings(enumeration_cap=True), "enumeration_cap", None, id="cap-bool"),
    ],
)
def test_malformed_document_exits_2_naming_its_path(tmp_path, capsys, document, path, library_call):
    model = write_model(tmp_path, document)
    assert dispatch(["validate", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    if library_call is not None:
        with pytest.raises(ModelError):
            library_call()


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param({"energies": ["0", "2"]}, id="non-resonant-swap"),
        pytest.param({"unitary": {"kind": "explicit", "blocks": NOT_UNITARY}}, id="explicit-not-unitary"),
        pytest.param({"unitary": {"kind": "permutation", "cycles": {"1": [[0, 5]]}}}, id="permutation-index-out-of-range"),
    ],
)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_failing_document_is_realized_once(monkeypatch, bad, k):
    # The realization names the faulty collision itself: no sub-model is realized to find it.
    calls = []

    def counted(config):
        calls.append(config)
        return realize_model(config)

    monkeypatch.setattr(cli, "realize_model", counted)
    with pytest.raises(ModelError, match=re.escape(f"ancillas[{k}].unitary: ")):
        parse_model(swap_chain({k: bad, 2: bad}))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "unitary, path, library_call",
    [
        pytest.param(
            {"kind": "permutation", "cycles": {"x": [[0, 1]]}, "shift": 1.5},
            "ancillas[0].unitary.shift",
            lambda: UnitarySpec.permutation({"x": [[0, 1]]}),
            id="bad-total-and-shift",
        ),
        pytest.param(
            {"kind": "explicit", "blocks": {"x": [[[1, 0]]], "1": 5}},
            f"{BLOCKS}[1]",
            lambda: UnitarySpec.explicit({"x": [[1]]}),
            id="bad-total-and-matrix",
        ),
    ],
)
def test_bad_energy_total_is_reported_after_the_documents_own_checks(
    tmp_path, capsys, unitary, path, library_call
):
    # The library alone parses each cycles or blocks total, so a document
    # with a bad total and a structural fault reports the structural one.
    model = write_model(tmp_path, qubit_pair(unitary))
    assert dispatch(["validate", str(model)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    with pytest.raises(ModelError, match="invalid rational 'x'"):
        library_call()


@pytest.mark.parametrize(
    "energies, error",
    [
        # Equal to the valid ["0", 1] as values, but a float and a boolean.
        pytest.param(["0", 1.0], "energies[1]: floats are not exact", id="float"),
        pytest.param(["0", True], "energies[1]: invalid rational True", id="bool"),
        pytest.param(["0", "0"], "energies: degenerate spectrum", id="degenerate"),
    ],
)
@pytest.mark.parametrize("k", [0, 2])
def test_bad_energies_list_exits_2_naming_its_first_ancilla(tmp_path, capsys, energies, error, k):
    # Each distinct list is parsed once: valid lists before it, and the bad list again after it.
    ancillas = [{"energies": ["0", 1]}] * k + [{"energies": energies}] * 2
    path = write_model(tmp_path, {"system": {"energies": ["0", "1"]}, "ancillas": ancillas})
    assert dispatch(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: ancillas[{k}].{error}")


def test_entropy_on_zero_population_level_exits_2(tmp_path, capsys):
    # exp(-1000) underflows: the system starts with no mass on level 0 and
    # the ancilla with none on level 1, and the swap fills both.
    document = {
        "system": {"energies": ["0", "1000"], "beta": -1.0},
        "ancillas": [
            {"energies": ["0", "1000"], "beta": 1.0,
             "unitary": {"kind": "partial_swap", "theta": 0.7853981633974483}}
        ],
    }
    path = write_model(tmp_path, document)
    report = tmp_path / "entropy.json"
    assert dispatch(["entropy", str(path), "--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: the information form is infinite because ")
    assert "has zero initial population" in captured.err
    assert "Traceback" not in captured.err
    assert not report.exists()


ZERO_POPULATION_SWAP = {"energies": ["0", "1000"], "beta": 1.0,
                        "unitary": {"kind": "partial_swap", "theta": 0.7853981633974483}}


@pytest.mark.parametrize(
    "system_beta, ancillas, part",
    [
        # The entropy test's document: system level 0 and ancilla level 1 both empty.
        (-1.0, [ZERO_POPULATION_SWAP], "system level 0"),
        # A uniform system: only the ancilla's excited level is empty.
        (0.0, [ZERO_POPULATION_SWAP], "ancilla 1 level 1"),
        (0.0, [{**ZERO_POPULATION_SWAP, "unitary": {"kind": "identity"}}, ZERO_POPULATION_SWAP],
         "ancilla 2 level 1"),
    ],
)
def test_sample_reaching_a_zero_population_level_exits_2(tmp_path, capsys, system_beta, ancillas, part):
    document = {"system": {"energies": ["0", "1000"], "beta": system_beta}, "ancillas": ancillas}
    path = write_model(tmp_path, document)
    out = tmp_path / "law.csv"
    assert dispatch(["sample", str(path), "--shots", "600", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: the log form of the entropy production is infinite because {part} "
        "has zero initial population but is reached by a sampled trajectory\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "system_beta, ancillas, part",
    [
        (-1.0, [ZERO_POPULATION_SWAP], "system level 0"),
        (0.0, [ZERO_POPULATION_SWAP], "ancilla 1 level 1"),
        (0.0, [{**ZERO_POPULATION_SWAP, "unitary": {"kind": "identity"}}, ZERO_POPULATION_SWAP],
         "ancilla 2 level 1"),
    ],
)
def test_verify_reaching_a_zero_population_level_exits_2(tmp_path, capsys, system_beta, ancillas, part):
    # The identities have no reversed partner there; this used to print FAILs at residual 0.
    document = {"system": {"energies": ["0", "1000"], "beta": system_beta}, "ancillas": ancillas}
    path = write_model(tmp_path, document)
    report = tmp_path / "verify.json"
    assert dispatch(["verify", str(path), "--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the fluctuation identities are undefined because {part} "
        "has zero initial population but is reached by the chain\n"
    )
    assert not report.exists()


def test_verify_passes_when_zero_population_levels_are_never_reached(tmp_path, capsys):
    document = {
        "system": {"energies": ["0", "1"], "beta": -1.0},
        "ancillas": [
            {"energies": ["0", "1", "1000"], "beta": 1.0, "unitary": {"kind": "haar"}},
            {"energies": ["0", "1"], "beta": 1.0, "unitary": {"kind": "partial_swap", "theta": 0.7}},
            {"energies": ["0", "1000"], "beta": 2.0, "unitary": {"kind": "haar"}},
        ],
        "master_seed": 5,
    }
    assert parse_model(document) == ZERO_POPULATIONS
    path = write_model(tmp_path, document)
    assert dispatch(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass (") == 4
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# One parser, built at import, serves every dispatch in the process.


def refuse_to_build():
    raise AssertionError("dispatch built a parser")


def test_dispatch_parses_with_the_parser_built_at_import(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_build_parser", refuse_to_build)
    path = write_model(tmp_path, CHAIN_DOCUMENT)
    assert dispatch(["validate", str(path)]) == 0
    assert dispatch(["exact", str(path), "--out", str(tmp_path / "laws.csv")]) == 0
    assert (tmp_path / "laws.backward.csv").is_file()


def test_one_parser_answers_a_sequence_as_fresh_parsers_do(monkeypatch, tmp_path, capsys):
    path = str(write_model(tmp_path, CHAIN_DOCUMENT))
    argvs = [
        ["sample", path, "--shots", "50", "--seed", "5"],
        ["sample", path, "--shots", "50"],  # no --seed: the document's master_seed, 7
        ["exact", path, "--format", "json"],
        ["exact", path],  # the default format, CSV
        ["--help"],
        ["anneal", path],
        ["sample", path, "--shots", "0"],
    ]

    def run(argv):
        code = dispatch(argv)
        out, err = capsys.readouterr()
        return code, re.sub(r"(?m)^elapsed: \d+\.\d{3}s$", "elapsed: -", out), err

    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", refuse_to_build)
    shared = [run(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_PARSER", build())
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 2]
    assert "with seed 5 " in shared[0][1] and "with seed 7 " in shared[1][1]
    assert "# forward\n{" in shared[2][1] and "# backward\n{" in shared[2][1]
    assert "# forward\n{" not in shared[3][1] and "{" not in shared[3][1]
    assert shared[4][1].startswith("usage: heatchain ")
    assert "invalid choice: 'anneal'" in shared[5][2]
    assert "error: argument --shots: must be at least 1" in shared[6][2]


# ---------------------------------------------------------------------------
# An output that names the model or another output exits 2 before any work.


@pytest.mark.parametrize(
    "argv, message",
    [
        (["exact", "m.json", "--out", "m.json"], "--out m.json is the same file as the model"),
        (["validate", "m.json", "--out", "m.json"], "--out m.json is the same file as the model"),
        (["verify", "m.json", "--out", "m.json"], "--out m.json is the same file as the model"),
        (["entropy", "m.json", "--out", "m.json"], "--out m.json is the same file as the model"),
        (["sample", "m.json", "--out", "m.json"], "--out m.json is the same file as the model"),
        (["sample", "m.json", "--dump", "m.json"], "--dump m.json is the same file as the model"),
        (
            ["sample", "m.json", "--shots", "300", "--out", "x.csv", "--dump", "x.csv"],
            "--dump x.csv is the same file as --out",
        ),
        (
            ["sample", "m.json", "--out", "new.csv", "--dump", "sub/../new.csv"],
            "--dump sub/../new.csv is the same file as --out",
        ),
        (
            ["exact", "m.backward.json", "--out", "m.json"],
            "--out's backward export m.backward.json is the same file as the model",
        ),
        (["exact", "link.json", "--out", "m.json"], "--out m.json is the same file as the model"),
        (["exact", "hard.json", "--out", "m.json"], "--out m.json is the same file as the model"),
    ],
    ids=[
        "exact-out-model", "validate-out-model", "verify-out-model", "entropy-out-model",
        "sample-out-model", "sample-dump-model", "sample-dump-out", "sample-dump-out-spelled",
        "exact-backward-model", "exact-out-linked-model", "exact-out-hard-linked-model",
    ],
)
def test_an_output_naming_another_file_of_the_command_exits_2(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    write_model(tmp_path, CHAIN_DOCUMENT, "m.json")
    write_model(tmp_path, CHAIN_DOCUMENT, "m.backward.json")
    (tmp_path / "link.json").symlink_to("m.json")
    (tmp_path / "hard.json").hardlink_to(tmp_path / "m.json")
    (tmp_path / "x.csv").write_bytes(b"kept\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert dispatch(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
