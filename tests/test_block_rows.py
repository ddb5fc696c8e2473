"""Sampler blocks sized by uniforms, against the shot-by-shot reference.

``heatchain sample`` advances as many ``_BLOCK_SHOTS``-shot slices per block
as draw at most ``_BLOCK_CELLS`` uniforms (``1 + 2N`` a shot), and counts,
weighs and dumps them a slice at a time.  Whatever the block boundaries,
the summary bits, the dump bytes and the exported law must be those of the
pure-Python reference sampler, which draws one uniform at a time.  The
``exp(-sigma)`` sums must be those of a shot-order loop, and the
probability cells of a sampled law must be ``repr(count / shots)``.
"""

import copy
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from test_sampler import ReferenceTables, reference_trajectories, resonant_model

from heatchain import distribution_to_csv, format_rational, sampler
from heatchain.cli import _distribution_text
from heatchain.model import ConsistencyError
from heatchain.sampler import SamplerConfig, iter_trajectories

BLOCK = sampler._BLOCK_SHOTS


def block_rows(n: int) -> int:
    return max(1, sampler._BLOCK_CELLS // (1 + 2 * n) // BLOCK) * BLOCK


def chain(n: int):
    return resonant_model([0.7 + 0.6 * ((7 * i) % 11) / 11 for i in range(n)], seed=n)


def reference_shots(model, config):
    """Each shot's dump line, heats and ``exp(-sigma)``, drawn shot by shot."""
    for record in reference_trajectories(ReferenceTables(model), config):
        line = json.dumps({
            "alphas": list(record.trajectory.alphas),
            "ancilla_pairs": [list(pair) for pair in record.trajectory.ancilla_pairs],
            "heats": [format_rational(q) for q in record.heats],
            "sigma": record.sigma,
        }) + "\n"
        yield line, record.heats, math.exp(-record.sigma)


def test_block_rows_follow_the_uniform_budget():
    assert [block_rows(n) for n in (1, 30, 60, 300)] == [21760, 1024, 512, 256]
    for n in (1, 30, 60):
        tables = sampler._tables(chain(n))
        rows = block_rows(n)
        blocks = sampler._blocks(tables, SamplerConfig(2 * rows + 5, 1, 2))
        assert [len(block[0]) for block in blocks] == [rows, rows, 5]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 30, 60, 300])
def test_shot_counts_around_the_block_rows(n, workers):
    # Shot j is drawn the same whatever the shot count, so every count's
    # reference is a prefix of the longest one's.
    model = chain(n)
    rows = block_rows(n)
    counts = (rows - 1, rows, rows + 1, 3 * rows + 7)
    lines, heats, weights = zip(*reference_shots(model, SamplerConfig(counts[-1], 5, workers)))
    for shots in counts:
        config = SamplerConfig(shots=shots, master_seed=5, worker_count=workers)
        exp_sum = exp_sq_sum = 0.0
        for w in weights[:shots]:
            exp_sum += w
            exp_sq_sum += w * w
        mean = exp_sum / shots
        stderr = math.sqrt(max(exp_sq_sum / shots - mean * mean, 0.0) / shots)
        entries = {key: count / shots for key, count in Counter(heats[:shots]).items()}

        texts = []
        summary = sampler._sample(model, config, texts.append)
        assert "".join(texts) == "".join(lines[:shots])
        assert max(text.count("\n") for text in texts) <= BLOCK
        law = summary.empirical.distribution
        assert list(law.entries.items()) == list(entries.items())
        assert summary.integral_ft_mean.hex() == mean.hex()
        assert summary.integral_ft_stderr.hex() == stderr.hex()
        plain = sampler._sample(model, config)
        assert plain.integral_ft_stderr.hex() == stderr.hex()
        assert _distribution_text(plain.empirical.distribution, "csv") == distribution_to_csv(
            type(law)(entries=entries, direction="forward", n_collisions=n), include_exact=True
        )


def test_failure_in_a_later_block_keeps_the_slices_before_it(monkeypatch):
    # A cold chain whose second ancilla rarely leaves its ground level: with
    # its excited log-weight perturbed, the first inconsistent shot of this
    # seed falls in a later slice of the third 1024-shot block.
    model = resonant_model([8.0] * 30, beta_s=8.0)
    tables = copy.copy(sampler._tables(model))
    tables.log_q = tables.log_q.copy()
    tables.log_q[1, 1] += 1e-6
    reference = ReferenceTables(model)
    reference.log_q[1][1] += 1e-6
    monkeypatch.setattr(sampler, "_tables", lambda _: tables)
    config = SamplerConfig(shots=6000, master_seed=36, worker_count=3)

    expected = []
    with pytest.raises(ConsistencyError) as slow:
        for record in reference_trajectories(reference, config):
            expected.append(record)
    failing = len(expected)
    assert 2 * block_rows(30) + BLOCK <= failing < 3 * block_rows(30)
    records = []
    with pytest.raises(ConsistencyError) as fast:
        for record in iter_trajectories(model, config):
            records.append(record)
    assert str(fast.value) == str(slow.value)
    # The reference's log path probabilities read the perturbed weight too.
    def shown(records):
        return [(r.trajectory, r.heats, r.sigma.hex()) for r in records]

    assert shown(records) == shown(expected[: failing // BLOCK * BLOCK])

    lines = []
    with pytest.raises(ConsistencyError):
        sampler._sample(model, config, lines.append)
    assert "".join(lines).count("\n") == failing // BLOCK * BLOCK


def shot_order_sums(chunks):
    exp_sum = exp_sq_sum = 0.0
    for chunk in chunks:
        for sigma in chunk:
            w = math.exp(-sigma)
            exp_sum += w
            exp_sq_sum += w * w
    return exp_sum, exp_sq_sum


# Sigmas whose exp(-sigma) is huge (its square overflows), near 1, subnormal or 0.
EDGES = [-709.78, -709.0, -354.9, -1e-300, -0.0, 0.0, 5e-324, 708.3, 709.0, 730.0, 745.1, 800.0]
SIGMAS = st.one_of(st.sampled_from(EDGES), st.floats(-709.78, 800.0))


@given(st.lists(st.lists(SIGMAS, max_size=40), max_size=6))
def test_weigh_in_chunks_is_the_shot_order_loop(chunks):
    tally = sampler._Tally()
    for chunk in chunks:
        tally.weigh(np.array(chunk, dtype=float))
    expected = shot_order_sums(chunks)
    assert [tally.exp_sum.hex(), tally.exp_sq_sum.hex()] == [value.hex() for value in expected]


def test_weigh_overflows_as_math_exp_does():
    with pytest.raises(OverflowError):
        sampler._Tally().weigh(np.array([0.0, -710.0]))


@pytest.mark.parametrize("shots", [3, 7, 10001])
@pytest.mark.parametrize("n", [3, 12])
def test_probability_cells_are_the_repr_of_each_count(n, shots):
    model = chain(n)
    config = SamplerConfig(shots=shots, master_seed=shots, worker_count=2)
    counts = Counter(record.heats for record in iter_trajectories(model, config))
    law = sampler._sample(model, config).empirical.distribution
    csv_rows = _distribution_text(law, "csv").splitlines()[1:]
    cells = {tuple(row.split(",")[n + 1 :]): row.split(",")[n] for row in csv_rows}
    assert cells == {
        tuple(map(format_rational, key)): repr(count / shots) for key, count in counts.items()
    }
    document = json.loads(_distribution_text(law, "json"))
    assert sorted(
        (tuple(entry["heats"]), entry["probability"]) for entry in document["entries"]
    ) == sorted((tuple(map(format_rational, key)), count / shots) for key, count in counts.items())
