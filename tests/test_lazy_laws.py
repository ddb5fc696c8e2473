"""Laws that build a field on first touch still copy and pickle as plain values.

A coded ``JointHeatDistribution`` builds ``entries`` when first read, and a
sampled ``EmpiricalJoint`` builds ``stderr``; every other attribute never
set is an ``AttributeError``, which ``hasattr``, ``copy`` and ``pickle``
rely on.
"""

import copy
import pickle

from heatchain import AncillaSpec, ModelConfig, Spectrum, UnitarySpec, exact_forward_joint
from heatchain.sampler import SamplerConfig, _sample

THIRDS = Spectrum.from_values(["0", "1/3", "2/3"])
MODEL = ModelConfig(
    THIRDS, 1.0, tuple(AncillaSpec(THIRDS, beta, UnitarySpec.haar()) for beta in (0.5, 2.5)), 11
)


def copies(value):
    return [copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


def entry_bits(law):
    return [(key, mass.hex()) for key, mass in law.entries.items()]


def test_coded_law_copies_and_pickles():
    law = exact_forward_joint(MODEL)
    assert hasattr(law, "x") is False
    duplicates = copies(law)  # taken before entries are built
    for duplicate in duplicates:
        assert hasattr(duplicate, "x") is False
        assert entry_bits(duplicate) == entry_bits(law)
        assert (duplicate.direction, duplicate.n_collisions) == (law.direction, law.n_collisions)
        assert duplicate.pruned_mass.hex() == law.pruned_mass.hex()


def test_sampled_empirical_joint_copies_and_pickles():
    empirical = _sample(MODEL, SamplerConfig(shots=500, master_seed=3)).empirical
    assert hasattr(empirical, "x") is False
    duplicates = copies(empirical)  # taken before stderr is built
    for duplicate in duplicates:
        assert hasattr(duplicate, "x") is False
        assert duplicate.shots == empirical.shots
        assert entry_bits(duplicate.distribution) == entry_bits(empirical.distribution)
        assert [(k, v.hex()) for k, v in duplicate.stderr.items()] == [
            (k, v.hex()) for k, v in empirical.stderr.items()
        ]
