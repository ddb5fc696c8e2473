"""Run cells of the text writers against the per-row reference writers.

A list column of the CSV, the JSON export and the ``--dump`` lines is
looked up a run of ``c`` consecutive ids at a time, ``c`` chosen from the
registry size, the rows served and ``heatstats._RUN_CELLS``.  Whatever the
run width, and whichever length the closing run has, every writer must
give the bytes of its reference in ``test_writers``.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from test_coded_laws import haar_chain, swap_chain
from test_writers import assert_writers_match, dump_text, reference_dump

from heatchain import JointHeatDistribution, heatstats, sampler
from heatchain.cli import _dump_line
from heatchain.sampler import SamplerConfig, iter_trajectories

RUN_CELLS = (1, 2, 3, 7, 256, 4096)


@pytest.fixture(params=RUN_CELLS)
def run_cells(request, monkeypatch):
    """``_RUN_CELLS`` set for one test, with no sampler tables built under another value."""
    monkeypatch.setattr(heatstats, "_RUN_CELLS", request.param)
    sampler._tables.cache_clear()
    yield request.param
    sampler._tables.cache_clear()


def expected_width(size: int, n: int, rows: int, run_cells: int) -> int:
    """The widest run, at most ``n`` and at least 1, whose table fits the limit."""
    limit = min(run_cells, max(rows, size))
    return max((c for c in range(1, n + 1) if size**c <= limit), default=1)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 5, 20, 300])
def test_run_cells_spell_each_list(run_cells, size):
    rng = np.random.default_rng(size)
    texts = [f"<{k}>" for k in range(size)]
    for n in range(46):
        for rows in (1, 50, 5000):
            tables = heatstats._list_tables(texts, ",", ";", n, rows)
            width = len(tables[0])
            assert width == expected_width(size, n, rows, run_cells)
            assert width == 1 or size**width <= run_cells
            shown = 0 if size == 0 and n else min(rows, 60)
            ids = rng.integers(0, max(size, 1), (shown, n), dtype=np.uint16)
            cells = heatstats._list_cells(ids, tables)
            assert cells.shape == (shown, -(-n // width))
            for row, cell in zip(ids.tolist(), cells.tolist()):
                assert "".join(cell) == (",".join(texts[k] for k in row) + ";" if n else "")


def hand_law(n: int, size: int, keys: int, seed: int) -> JointHeatDistribution:
    """A law of ``keys`` random keys over a registry of ``size`` heat values."""
    rng = random.Random(seed)
    values = [Fraction(k - size // 2, 3) for k in range(size)]
    entries = {tuple(rng.choice(values) for _ in range(n)): rng.random() for _ in range(keys)}
    return JointHeatDistribution(entries=entries, direction="forward", n_collisions=n)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 20])
def test_hand_built_laws_of_every_length(run_cells, size):
    for n in range(46):
        assert_writers_match(hand_law(n, size, 30, seed=n))


def test_registry_wider_than_any_run_table():
    # Wider than every swept _RUN_CELLS, so runs are one item whatever its value.
    dist = hand_law(3, 9000, 2000, seed=1)
    values = heatstats._codes(dist).values
    assert len(values) > max(RUN_CELLS)
    assert len(heatstats._list_tables(list(map(str, values)), ",", ";", 3, len(dist))[0]) == 1
    assert_writers_match(dist)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_empty_law(run_cells, n):
    assert_writers_match(JointHeatDistribution(entries={}, direction="forward", n_collisions=n))


def qubit_swap_chain(n: int):
    rng = random.Random(n)
    return swap_chain([rng.uniform(0.6, 1.4) for _ in range(n)], [rng.uniform(0.5, 1.1) for _ in range(n)])


def test_qubit_n40_dump_in_blocks_and_line_by_line(run_cells):
    model = qubit_swap_chain(40)
    config = SamplerConfig(shots=300, master_seed=8, worker_count=3)
    dump = reference_dump(model, config)
    assert dump_text(model, config) == dump
    assert "".join(_dump_line(record) + "\n" for record in iter_trajectories(model, config)) == dump
    powers = [tables[0] for tables in sampler._tables(model).dump_cells]
    # levels, ancilla pairs (4 codes) and heats (-1, 0, 1) of a qubit chain
    assert [len(p) for p in powers] == [
        expected_width(size, n, sampler._BLOCK_SHOTS, run_cells)
        for size, n in ((2, 41), (4, 40), (3, 40))
    ]


@pytest.mark.parametrize("n", range(1, 46, 4))
def test_dumps_of_every_length(run_cells, n):
    for model in (qubit_swap_chain(n), haar_chain(3, [0.5 + 0.05 * k for k in range(n)])):
        config = SamplerConfig(shots=20, master_seed=n, worker_count=3)
        assert dump_text(model, config) == reference_dump(model, config)
