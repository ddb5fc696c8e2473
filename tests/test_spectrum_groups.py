"""``RealizedModel.groups``: the collisions of a chain grouped by ancilla spectrum.

``realize_model`` stacks the collisions on one ancilla spectrum and keeps
that grouping; the heat-id tables and the sampler tables read it.  Each
group must list its collisions in order, hold the stacked jump
probabilities the stages view, and come out the same for sub-models.  A
group's thermal states, computed in one ``np.exp``, must equal
``gibbs_state`` bit for bit at any beta, and a stage's unitary and tensor
are views of the group's rows that only a read builds.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from heatchain import (
    AncillaSpec,
    ModelConfig,
    Spectrum,
    UnitarySpec,
    gibbs_state,
    realize_model,
    realize_unitary,
    single_collision_model,
    transition_tensor,
    truncated_model,
)
from heatchain.cli import dispatch, parse_model
from heatchain.unitaries import _shell_index

from test_coded_laws import LEVEL_VALUES
from test_negative_beta import DOCUMENT as NEGATIVE_BETA_DOCUMENT
from test_realization import mixed_chain, spectrum


def expected_groups(model):
    """Distinct ancilla spectra in order of first use, each with its 0-based collisions."""
    groups: dict = {}
    for i, anc in enumerate(model.ancillas):
        groups.setdefault(anc.spectrum, []).append(i)
    return [(spec, tuple(collisions)) for spec, collisions in groups.items()]


def flat_probs(stage) -> np.ndarray:
    return np.concatenate([mat.ravel() for mat in stage.tensor.probs])


def test_each_spectrum_appears_once_in_order_of_first_use():
    model = mixed_chain()
    realized = realize_model(model)
    assert [(g.spectrum, g.collisions) for g in realized.groups] == expected_groups(model)
    assert [g.spectrum for g in realized.groups] == [
        spectrum("0", "1", "2"),
        spectrum("0", "1"),
        spectrum("0", "2", "3"),
        spectrum("1/2", "3/2"),
    ]
    assert [g.collisions for g in realized.groups] == [(0, 3, 6), (1, 5, 8), (2, 7), (4,)]
    for group in realized.groups:
        for i in group.collisions:
            stage = realized.stages[i]
            assert stage.spectrum == group.spectrum
            assert stage.shells is group.shells


def test_stacked_probs_are_read_only_and_viewed_by_the_stages():
    realized = realize_model(mixed_chain())
    for group in realized.groups:
        assert not group.probs.flags.writeable
        assert group.probs.shape[0] == len(group.collisions)
        for row, i in zip(group.probs, group.collisions):
            tensor = realized.stages[i].tensor
            for mat in tensor.probs:
                assert np.shares_memory(mat, row)
            assert flat_probs(realized.stages[i]).tobytes() == row.tobytes()


@pytest.mark.parametrize("i", range(1, 10))
def test_single_collision_model_groups(i):
    full = realize_model(mixed_chain())
    realized = realize_model(single_collision_model(mixed_chain(), i))
    (group,) = realized.groups
    stage = full.stages[i - 1]
    assert group.spectrum == stage.spectrum
    assert group.collisions == (0,)
    assert group.probs.tobytes() == flat_probs(stage).tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_truncated_model_groups(n):
    model = mixed_chain()
    full = realize_model(model)
    realized = realize_model(truncated_model(model, n))
    assert [(g.spectrum, g.collisions) for g in realized.groups] == expected_groups(
        truncated_model(model, n)
    )
    rows = {i: row for g in full.groups for i, row in zip(g.collisions, g.probs)}
    for group in realized.groups:
        for i, row in zip(group.collisions, group.probs):
            assert row.tobytes() == rows[i].tobytes()


# ---------------------------------------------------------------------------
# Thermal states: one np.exp per group, against gibbs_state bit for bit.

# Past |beta * gap| = 745, exp underflows to 0 (or, for subnormal results, to
# a few bits), so those populations are where a batched shift could slip.
EXTREME_BETAS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -800.0, 800.0, 746.0, -746.0, 744.9, 1e4, -1e4]),
    st.floats(-2000.0, 2000.0),
)


@st.composite
def thermal_chains(draw) -> ModelConfig:
    """Identity collisions on ancillas of 1 to 4 levels, a few to a spectrum, at extreme betas."""
    spectra = draw(st.lists(
        st.sets(st.sampled_from(LEVEL_VALUES), min_size=1, max_size=4).map(lambda s: Spectrum(tuple(s))),
        min_size=1, max_size=3,
    ))
    ancillas = draw(st.lists(
        st.builds(AncillaSpec, st.sampled_from(spectra), EXTREME_BETAS, st.just(UnitarySpec.identity())),
        min_size=1, max_size=8,
    ))
    return ModelConfig(spectrum("0", "1"), 1.0, tuple(ancillas))


def assert_thermal_states_match(model: ModelConfig) -> None:
    # A config with beta -0.0 equals one with 0.0, and would be served its realization.
    realize_model.cache_clear()
    realized = realize_model(model)
    for anc, stage in zip(model.ancillas, realized.stages, strict=True):
        want = gibbs_state(anc.spectrum, anc.beta)
        got = stage.ancilla_state
        assert got.populations.tobytes() == want.populations.tobytes()
        assert got.populations.dtype == want.populations.dtype
        assert got.log_z.hex() == want.log_z.hex()
        assert got.beta.hex() == want.beta.hex()  # the config holds -0.0 as 0.0
        assert not got.populations.flags.writeable
    for group in realized.groups:
        assert not group.populations.flags.writeable
        for row, i in zip(group.populations, group.collisions):
            assert np.shares_memory(row, realized.stages[i].ancilla_state.populations)


@given(thermal_chains())
@example(parse_model(NEGATIVE_BETA_DOCUMENT))
def test_group_thermal_states_match_gibbs_state(model):
    assert_thermal_states_match(model)


# ---------------------------------------------------------------------------
# Stage unitaries and tensors: views built on first read.

LAZY_DOCUMENT = {
    "system": {"energies": ["0", "1"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1"], "beta": 0.5, "unitary": {"kind": "partial_swap", "theta": 0.7}},
        {"energies": ["0", "1", "2"], "beta": 1.5, "unitary": {"kind": "haar"}},
        {"energies": ["0", "1"], "beta": 2.0, "unitary": {"kind": "haar"}},
        {"energies": ["0", "1", "2"], "beta": 0.8, "unitary": {"kind": "permutation", "shift": 1}},
        {"energies": ["0", "1"], "beta": 1.1, "unitary": {"kind": "explicit", "blocks": {
            "1": [[[0.6, 0], [0, 0.8]], [[0, 0.8], [0.6, 0]]]}}},
        {"energies": ["0", "1", "2"], "beta": 0.3, "unitary": {"kind": "identity"}},
        {"energies": ["0", "1"], "beta": 1.7, "unitary": {"kind": "partial_swap", "theta": 1.2}},
    ],
    "master_seed": 5,
}


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["sample", "--shots", "300", "--dump", "dump.jsonl", "--out", "law.csv"], id="sample"),
        pytest.param(["exact", "--out", "law.csv"], id="exact"),
    ],
)
def test_sample_and_exact_build_no_stage_unitary_or_tensor(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(json.dumps(LAZY_DOCUMENT), encoding="utf-8")
    realize_model.cache_clear()
    assert dispatch([args[0], "model.json", *args[1:]]) == 0
    hits = realize_model.cache_info().hits
    realized = realize_model(parse_model(LAZY_DOCUMENT))
    assert realize_model.cache_info().hits == hits + 2  # the realization the command made
    for stage in realized.stages:
        assert "unitary" not in vars(stage) and "tensor" not in vars(stage)


def test_stage_views_once_read_match_the_one_collision_routes():
    model = parse_model(LAZY_DOCUMENT)
    realized = realize_model(model)
    for anc, stage in zip(model.ancillas, realized.stages, strict=True):
        unitary = realize_unitary(stage.shells, anc.unitary, model.master_seed)
        tensor = transition_tensor(unitary)
        assert stage.unitary is stage.unitary and stage.tensor is stage.tensor
        assert stage.unitary.shells is stage.shells and stage.tensor.shells is stage.shells
        for got, want in zip(stage.unitary.blocks, unitary.blocks, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            assert np.shares_memory(got, stage.group.rows[stage.row])
        for got, want in zip(stage.tensor.probs, tensor.probs, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            assert np.shares_memory(got, stage.group.probs[stage.row])
        assert (stage.tensor.d_system, stage.tensor.d_ancilla) == (tensor.d_system, tensor.d_ancilla)
        assert stage.tensor.position is _shell_index(stage.shells).position
    for group in realized.groups:
        assert not group.rows.flags.writeable
        first = realized.stages[group.collisions[0]]
        for i in group.collisions:
            assert realized.stages[i].group is group
            assert realized.stages[i].tensor.position is first.tensor.position


def test_a_repeated_energies_list_is_parsed_into_one_spectrum():
    model = parse_model(LAZY_DOCUMENT)
    qubit, qutrit = model.ancillas[0].spectrum, model.ancillas[1].spectrum
    assert qubit is model.system  # the system's list is the same list
    assert [anc.spectrum for anc in model.ancillas] == [qubit, qutrit, qubit, qutrit, qubit, qutrit, qubit]
    assert len({id(anc.spectrum) for anc in model.ancillas}) == 2
