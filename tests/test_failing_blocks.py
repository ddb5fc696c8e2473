"""A sampler block with a failing shot is drawn and advanced once.

``heatchain sample`` draws a block's uniforms once; when a shot of it fails
a check, the whole ``_BLOCK_SHOTS``-shot slices before that shot's are
yielded from the rows already advanced and the shot's error is raised.
The records, the dump lines and the error must be those of a shot-order
loop that stops at the failing shot.
"""

import copy
import json

import pytest
from test_block_rows import block_rows
from test_sampler import ReferenceTables, reference_trajectories, resonant_model

from heatchain import cli, sampler
from heatchain.cli import dispatch
from heatchain.model import ConsistencyError, ModelError
from heatchain.sampler import SamplerConfig, iter_trajectories

BLOCK = sampler._BLOCK_SHOTS


def test_a_failing_block_is_drawn_once(monkeypatch):
    # The perturbed chain of test_block_rows: the first inconsistent shot of
    # this seed falls in a later slice of the third 1024-shot block.
    model = resonant_model([8.0] * 30, beta_s=8.0)
    tables = copy.copy(sampler._tables(model))
    tables.log_q = tables.log_q.copy()
    tables.log_q[1, 1] += 1e-6
    monkeypatch.setattr(sampler, "_tables", lambda _: tables)
    draws = []
    block_uniforms = sampler._block_uniforms

    def recorded(streams, start, size, width):
        draws.append((start, size))
        return block_uniforms(streams, start, size, width)

    monkeypatch.setattr(sampler, "_block_uniforms", recorded)
    config = SamplerConfig(shots=6000, master_seed=36, worker_count=3)
    blocks = [(0, 1024), (1024, 1024), (2048, 1024)]

    with pytest.raises(ConsistencyError):
        for _ in iter_trajectories(model, config):
            pass
    assert draws == blocks
    draws.clear()
    with pytest.raises(ConsistencyError):
        sampler._sample(model, config, lambda text: None)
    assert draws == blocks


def empty_level_document(n: int) -> dict:
    """A uniform system, identity ancillas and one small-angle swap onto an empty level."""
    # exp(-1000) underflows: level "1000" of the ancillas has zero population.
    swap = {"energies": ["0", "1000"], "beta": 1.0, "unitary": {"kind": "partial_swap", "theta": 0.03}}
    identity = {**swap, "unitary": {"kind": "identity"}}
    return {"system": {"energies": ["0", "1000"], "beta": 0.0}, "ancillas": [identity] * (n - 1) + [swap]}


def shown(records):
    return [(r.trajectory, r.heats, r.sigma.hex()) for r in records]


def test_a_mid_run_zero_population_error_keeps_whole_slices(tmp_path, capsys):
    n, seed, shots = 30, 8, 6000
    document = empty_level_document(n)
    model = cli.parse_model(document)
    config = SamplerConfig(shots=shots, master_seed=seed)
    # Shot by shot, the first shot to reach the empty level (its log form of
    # sigma is infinite) lands in a later slice of the third block.
    reference = []
    with pytest.raises(ConsistencyError, match="log form inf"):
        for record in reference_trajectories(ReferenceTables(model), config):
            reference.append(record)
    failing = len(reference)
    assert 2 * block_rows(n) + BLOCK <= failing < 3 * block_rows(n)
    message = (
        f"the log form of the entropy production is infinite because ancilla {n} level 1 "
        "has zero initial population but is reached by a sampled trajectory"
    )

    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    dump = tmp_path / "dump.jsonl"
    command = ["sample", str(path), "--shots", str(shots), "--seed", str(seed), "--dump", str(dump)]
    assert dispatch(command) == 2
    assert capsys.readouterr().err == f"error: {message}\n"

    records = []
    with pytest.raises(ModelError) as error:
        for record in iter_trajectories(model, config):
            records.append(record)
    assert str(error.value) == message
    assert shown(records) == shown(reference[: failing // BLOCK * BLOCK])
    lines = dump.read_text(encoding="utf-8")
    assert lines == "".join(cli._dump_line(record) + "\n" for record in records)
