"""The sigmas of ``heatchain sample --dump`` lines, against ``cli._dump_line``.

``sampler._sample`` lays out the dump cells of a whole block at once, and
spells its sigmas by ``heatstats._float_cells``: through
``floattext.float_texts`` when the block holds at least
``heatstats._FLOAT_TEXTS_MIN`` shots, all of them finite, and by the JSON encoder
otherwise, so a ``nan`` or ``inf`` sigma is written ``NaN`` or ``Infinity``.
Each ``_BLOCK_SHOTS``-shot slice is still dumped before it is weighed, so an
``OverflowError`` from ``exp(-sigma)`` leaves the lines of that slice and of
the slices before it, no more.  Every line must be the one
``cli._dump_line`` writes for the shot's record.
"""

import math

import pytest
from test_floattext import count_kernel_calls
from test_sampler import resonant_model

from heatchain import cli, heatstats, sampler
from heatchain.sampler import SamplerConfig, iter_trajectories

BLOCK = sampler._BLOCK_SHOTS
N = 30
ROWS = max(1, sampler._BLOCK_CELLS // (1 + 2 * N) // BLOCK) * BLOCK  # shots in a block: 1024


def chain():
    return resonant_model([0.7 + 0.6 * ((7 * i) % 11) / 11 for i in range(N)], seed=N)


def record_lines(model, config, shots=None):
    """The reference dump: ``cli._dump_line`` of each record, for the first ``shots`` records."""
    records = iter_trajectories(model, config)
    return [cli._dump_line(record) + "\n" for _, record in zip(range(shots or config.shots), records)]


def sampled_lines(model, config):
    texts = []
    sampler._sample(model, config, texts.append)
    assert max(text.count("\n") for text in texts) <= BLOCK
    return "".join(texts).splitlines(True)


def with_sigmas(monkeypatch, set_sigmas):
    """Route every block of ``_sample`` and ``iter_trajectories`` through ``set_sigmas(start, sigma)``."""
    blocks = sampler._blocks

    def patched(tables, config):
        start = 0
        for alphas, pair_codes, ids, sigma, log_p in blocks(tables, config):
            sigma = sigma.copy()
            set_sigmas(start, sigma)
            yield alphas, pair_codes, ids, sigma, log_p
            start += len(sigma)

    monkeypatch.setattr(sampler, "_blocks", patched)


@pytest.mark.parametrize("shots", [ROWS + 300, ROWS + heatstats._FLOAT_TEXTS_MIN - 1])
def test_sigmas_of_a_block_past_the_threshold_go_through_floattext(monkeypatch, shots):
    calls = count_kernel_calls(monkeypatch)
    model, config = chain(), SamplerConfig(shots=shots, master_seed=4, worker_count=2)
    assert sampled_lines(model, config) == record_lines(model, config)
    # One call per block of at least the threshold's shots; a smaller last block uses the encoder.
    tail = shots - ROWS
    assert calls == [ROWS] + ([tail] if tail >= heatstats._FLOAT_TEXTS_MIN else [])


def test_a_block_below_the_threshold_does_not_call_floattext(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    model, config = chain(), SamplerConfig(shots=heatstats._FLOAT_TEXTS_MIN - 1, master_seed=6)
    assert sampled_lines(model, config) == record_lines(model, config)
    assert calls == []


def test_nan_and_inf_sigmas_keep_the_encoders_spelling(monkeypatch):
    def set_sigmas(start, sigma):
        sigma[[3, 300, -1]] = math.nan, math.inf, -math.inf

    with_sigmas(monkeypatch, set_sigmas)
    calls = count_kernel_calls(monkeypatch)
    model, config = chain(), SamplerConfig(shots=ROWS + 400, master_seed=2)
    lines = sampled_lines(model, config)
    assert lines == record_lines(model, config)
    assert calls == []  # every block holds a non-finite sigma
    for at, text in ((3, "NaN"), (300, "Infinity"), (ROWS - 1, "-Infinity"), (ROWS + 3, "NaN")):
        assert lines[at].endswith(f'"sigma": {text}}}\n')


@pytest.mark.parametrize("slice_index", [0, 2, 3])
def test_an_overflow_in_a_slice_leaves_the_lines_up_to_that_slice(monkeypatch, slice_index):
    failing = slice_index * BLOCK + 17  # exp(-sigma) overflows on this shot of the first block

    def set_sigmas(start, sigma):
        if start <= failing < start + len(sigma):
            sigma[failing - start] = -1000.0

    with_sigmas(monkeypatch, set_sigmas)
    model, config = chain(), SamplerConfig(shots=2 * ROWS, master_seed=9, worker_count=3)
    texts = []
    with pytest.raises(OverflowError):
        sampler._sample(model, config, texts.append)
    kept = (slice_index + 1) * BLOCK
    assert "".join(texts) == "".join(record_lines(model, config, kept))
