"""``RealizedModel.groups``: the collisions of a chain grouped by ancilla spectrum.

``realize_model`` stacks the collisions on one ancilla spectrum and keeps
that grouping; the heat-id tables and the sampler tables read it.  Each
group must list its collisions in order, hold the stacked jump
probabilities the stages view, and come out the same for sub-models.
"""

from __future__ import annotations

import numpy as np
import pytest

from heatchain import realize_model, single_collision_model, truncated_model

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
