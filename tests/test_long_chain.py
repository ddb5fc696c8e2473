"""Chains longer than Python's recursion limit enumerate without error.

A one-level system colliding with one-level ancillas has exactly one path,
so every exact route stays cheap however long the chain is; only the depth
of the enumeration grows.
"""

import sys
from fractions import Fraction

import pytest

from heatchain import (
    AncillaSpec,
    ModelConfig,
    Spectrum,
    UnitarySpec,
    average_entropy_production,
    exact_backward_joint,
    exact_forward_joint,
    iter_augmented_paths,
)

N_COLLISIONS = 1200


@pytest.fixture(scope="module")
def long_chain() -> ModelConfig:
    assert N_COLLISIONS > sys.getrecursionlimit()
    level = Spectrum.from_values(["0"])
    return ModelConfig(
        system=level,
        system_beta=1.0,
        ancillas=tuple(
            AncillaSpec(level, 1.0, UnitarySpec.identity()) for _ in range(N_COLLISIONS)
        ),
    )


@pytest.mark.parametrize("enumerate_joint", [exact_forward_joint, exact_backward_joint])
def test_system_path_enumeration(long_chain, enumerate_joint):
    dist = enumerate_joint(long_chain)
    assert dict(dist.entries) == {(Fraction(0),) * N_COLLISIONS: 1.0}
    assert dist.pruned_mass == 0.0


def test_augmented_path_enumeration(long_chain):
    paths = list(iter_augmented_paths(long_chain))
    assert paths == [((0,) * (N_COLLISIONS + 1), ((0, 0),) * N_COLLISIONS, 1.0)]


def test_average_entropy_production(long_chain):
    report = average_entropy_production(long_chain)
    assert report.passed
    assert report.heat_average == 0.0
    assert report.trajectory_average == 0.0
    assert report.information_form == 0.0
