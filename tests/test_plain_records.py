"""A sampled ``TrajectoryRecord`` is a plain value: its four fields and nothing else."""

import dataclasses
import math
import pickle

from heatchain.cli import parse_model
from heatchain.sampler import (
    AugmentedTrajectory,
    SamplerConfig,
    TrajectoryRecord,
    iter_trajectories,
)

FIELDS = ["trajectory", "heats", "sigma", "log_path_probability"]

CHAIN = {
    "system": {"energies": ["0", "1"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1"], "beta": 0.7 + 0.05 * i,
         "unitary": {"kind": "partial_swap", "theta": math.pi / 4}}
        for i in range(12)
    ],
}


def sampled():
    return list(iter_trajectories(parse_model(CHAIN), SamplerConfig(shots=40, master_seed=5)))


def by_hand(record):
    return TrajectoryRecord(
        trajectory=AugmentedTrajectory(
            record.trajectory.alphas, record.trajectory.ancilla_pairs
        ),
        heats=record.heats,
        sigma=record.sigma,
        log_path_probability=record.log_path_probability,
    )


def test_sampled_record_has_exactly_its_four_fields():
    record = sampled()[0]
    assert [f.name for f in dataclasses.fields(record)] == FIELDS
    assert list(dataclasses.asdict(record)) == FIELDS


def test_sampled_record_pickles_like_one_built_by_hand():
    for record in sampled():
        data = pickle.dumps(record)
        assert pickle.loads(data) == record
        assert len(data) == len(pickle.dumps(by_hand(record)))

