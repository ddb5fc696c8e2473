"""Every key of a joint heat law holds one heat per collision.

A law's ``n_collisions`` is the width of its keys: a hand-built or parsed
law with a key of another length is refused, naming that key, rather than
being re-split or written one cell short of its header, and the integral
fluctuation theorem refuses a law of another model's length.
"""

import pytest
from test_sampler import resonant_model

from heatchain import (
    JointHeatDistribution,
    distribution_from_csv,
    distribution_from_json,
    exact_forward_joint,
    integral_ft_expectation,
)
from heatchain.model import ModelError


def test_a_ragged_hand_built_law_is_refused_naming_its_first_short_key():
    entries = {(1, 2): 0.2, (3,): 0.3, (4, 5, 6): 0.5}
    with pytest.raises(ModelError, match=r"^heat key \(3,\) has length 1, not n_collisions=2$"):
        JointHeatDistribution(entries=entries, direction="forward", n_collisions=2)


def test_json_entries_must_hold_n_collisions_heats():
    document = {
        "direction": "forward",
        "n_collisions": 2,
        "entries": [{"heats": ["1", "-1"], "probability": 0.5}, {"heats": ["1"], "probability": 0.5}],
    }
    with pytest.raises(ModelError, match=r"has length 1, not n_collisions=2"):
        distribution_from_json(document)


@pytest.mark.parametrize(
    "row, length",
    [("0.5,1.0", 0), ("0.5,1.0,1/2,1/3", 2)],
    ids=["short", "long"],
)
def test_csv_rows_must_hold_one_exact_heat_per_column(row, length):
    text = f"Q_1,probability,Q_1_exact\n0.5,0.5,1/2\n{row}\n"
    with pytest.raises(ModelError, match=rf"has length {length}, not n_collisions=1"):
        distribution_from_csv(text)


def test_integral_ft_refuses_a_law_of_another_collision_count():
    law = exact_forward_joint(resonant_model([0.5, 1.5]))
    assert integral_ft_expectation(law, resonant_model([0.5, 1.5])) == pytest.approx(1.0)
    with pytest.raises(ModelError, match="^distribution and model collision counts differ$"):
        integral_ft_expectation(law, resonant_model([0.5, 1.5, 2.5]))
