"""The block text writers against the per-row reference writers.

``distribution_to_csv``, the JSON export of ``heatchain exact`` and
``sample`` and the ``--dump`` lines are built a block of rows at a time
from text tables.  Each must give the bytes of its reference: the CSV
written row by row from the sorted Fraction keys, ``json.dumps`` of
``distribution_to_json`` with ``indent=2``, and ``json.dumps`` of each
sampled record as a dict.  That holds for swept models, for the empty
law, for masses JSON and ``repr`` spell differently (``nan``, ``inf``),
and whatever the number of rows in a block.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from test_coded_laws import models

from heatchain import (
    JointHeatDistribution,
    distribution_to_csv,
    distribution_to_json,
    exact_backward_joint,
    exact_forward_joint,
    format_rational,
    heatstats,
    sampler,
)
from heatchain.cli import _distribution_text, _dump_line, parse_model
from heatchain.sampler import SamplerConfig, iter_trajectories


def reference_csv(dist: JointHeatDistribution, include_exact: bool = True) -> str:
    """Row by row from the sorted Fraction keys; masses are held as floats."""
    n = dist.n_collisions
    header = [f"Q_{i}" for i in range(1, n + 1)] + ["probability"]
    if include_exact:
        header += [f"Q_{i}_exact" for i in range(1, n + 1)]
    lines = [",".join(header) + "\n"]
    for key, prob in sorted(dist.entries.items()):
        row = [format(float(q), ".12g") for q in key] + [repr(float(prob))]
        if include_exact:
            row += [format_rational(q) for q in key]
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def reference_json(dist: JointHeatDistribution) -> str:
    return json.dumps(distribution_to_json(dist), indent=2) + "\n"


def reference_dump(model, config: SamplerConfig) -> str:
    return "".join(
        json.dumps({
            "alphas": list(record.trajectory.alphas),
            "ancilla_pairs": [list(pair) for pair in record.trajectory.ancilla_pairs],
            "heats": [format_rational(q) for q in record.heats],
            "sigma": record.sigma,
        }) + "\n"
        for record in iter_trajectories(model, config)
    )


def dump_text(model, config: SamplerConfig) -> str:
    lines = []
    sampler._sample(model, config, lines.append)
    return "".join(lines)


def assert_writers_match(dist: JointHeatDistribution) -> None:
    assert distribution_to_csv(dist, include_exact=True) == reference_csv(dist)
    assert _distribution_text(dist, "csv") == reference_csv(dist)
    assert _distribution_text(dist, "json") == reference_json(dist)
    assert distribution_to_csv(dist) == reference_csv(dist, include_exact=False)


@given(models())
def test_swept_laws_and_dumps_match_the_reference_writers(model):
    for dist in (exact_forward_joint(model), exact_backward_joint(model)):
        assert_writers_match(dist)
    config = SamplerConfig(shots=37, master_seed=model.master_seed, worker_count=2)
    assert dump_text(model, config) == reference_dump(model, config)


def test_empty_law():
    dist = JointHeatDistribution(entries={}, direction="backward", n_collisions=3)
    assert_writers_match(dist)
    assert distribution_to_csv(dist, include_exact=True) == (
        "Q_1,Q_2,Q_3,probability,Q_1_exact,Q_2_exact,Q_3_exact\n"
    )
    assert _distribution_text(dist, "json").endswith('"entries": []\n}\n')


SUBNORMAL = 5e-324
ODD_MASSES = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, SUBNORMAL, 2.2250738585072014e-308 / 3,
    1, 3, 0.1, 1e300,
)
HEATS = (Fraction(-3, 2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(7, 2))


@st.composite
def odd_laws(draw) -> JointHeatDistribution:
    n = draw(st.integers(0, 4))
    keys = draw(st.lists(st.tuples(*[st.sampled_from(HEATS)] * n), max_size=20, unique=True))
    return JointHeatDistribution(
        entries={key: draw(st.sampled_from(ODD_MASSES)) for key in keys},
        direction=draw(st.sampled_from(["forward", "backward"])),
        n_collisions=n,
        pruned_mass=draw(st.sampled_from([0.0, 0, -0.0, SUBNORMAL, math.nan, math.inf])),
    )


@given(odd_laws())
def test_hand_built_laws_with_odd_masses(dist):
    assert_writers_match(dist)


def test_json_keeps_json_float_rules():
    dist = JointHeatDistribution(
        entries={(Fraction(1),): math.nan, (Fraction(2),): math.inf, (Fraction(3),): 1},
        direction="forward", n_collisions=1, pruned_mass=math.nan,
    )
    text = _distribution_text(dist, "json")
    assert text == reference_json(dist)
    assert '"pruned_mass": NaN' in text
    assert '"probability": Infinity' in text
    assert '"probability": 1.0' in text
    assert "nan" in distribution_to_csv(dist) and "inf" in distribution_to_csv(dist)


DOCUMENT = {
    "system": {"energies": ["0", "1/3", "2/3"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1/3", "2/3"], "beta": beta, "unitary": {"kind": "haar"}}
        for beta in (0.6, 1.7)
    ],
    "master_seed": 17,
}


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_any_block_size_gives_the_same_bytes(monkeypatch, rows):
    model = parse_model(DOCUMENT)
    forward, backward = exact_forward_joint(model), exact_backward_joint(model)
    config = SamplerConfig(shots=40, master_seed=5, worker_count=3)
    dump = reference_dump(model, config)
    assert len(forward) % rows or rows == 1
    monkeypatch.setattr(heatstats, "_EXPORT_BLOCK_ROWS", rows)
    monkeypatch.setattr(sampler, "_BLOCK_SHOTS", rows)
    for dist in (forward, backward):
        assert_writers_match(dist)
    assert dump_text(model, config) == dump


def test_dump_line_is_one_line_of_the_block_formatter():
    model = parse_model(DOCUMENT)
    config = SamplerConfig(shots=300, master_seed=2, worker_count=1)
    assert "".join(
        _dump_line(record) + "\n" for record in iter_trajectories(model, config)
    ) == reference_dump(model, config)
