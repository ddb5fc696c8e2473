"""The ``sample`` command against the record route it replaced.

``heatchain sample`` summarizes and dumps straight from the shot blocks.
The oracle here is the record route: ``iter_trajectories`` records, each
dumped with ``cli._dump_line`` and summarized by ``summarize_samples``,
with the law also counted on plain Fraction keys.  Every stdout line but
``elapsed:``, every output file and every standard error must agree
exactly, including when a consistency check fails in a later block.
"""

import copy
import json
import math
from collections import Counter

import pytest

from heatchain import cli, sampler
from heatchain.cli import _distribution_text, dispatch, load_model_file
from heatchain.model import ConsistencyError
from heatchain.sampler import SamplerConfig, iter_trajectories, summarize_samples
from heatchain.streams import substream

QUARTER = math.pi / 4


def resonant(betas, theta=QUARTER):
    return [
        {"energies": ["0", "1"], "beta": beta,
         "unitary": {"kind": "partial_swap", "theta": theta}}
        for beta in betas
    ]


def uniform(levels, betas, unitary):
    return [{"energies": levels, "beta": beta, "unitary": unitary} for beta in betas]


DOCUMENTS = {
    "resonant": {
        "system": {"energies": ["0", "1"], "beta": 1.0},
        "ancillas": resonant([0.5, 1.5, 2.5]),
        "master_seed": 3,
    },
    "full_swap": {
        "system": {"energies": ["0", "1"], "beta": 1.0},
        "ancillas": resonant([0.5, 2.0], theta=math.pi / 2),
    },
    "haar_d3": {
        "system": {"energies": ["0", "1", "2"], "beta": 1.0},
        "ancillas": uniform(["0", "1", "2"], [0.5, 1.5, 2.5], {"kind": "haar"}),
        "master_seed": 3,
    },
    "haar_d4": {
        "system": {"energies": ["0", "1", "2", "3"], "beta": 1.0},
        "ancillas": uniform(["0", "1", "2", "3"], [0.6, 1.7], {"kind": "haar"}),
        "master_seed": 8,
    },
    "identity": {
        "system": {"energies": ["0", "1"], "beta": 1.0},
        "ancillas": uniform(["0", "1"], [2.0, 2.0, 2.0], {"kind": "identity"}),
    },
    "permutation": {
        "system": {"energies": ["0", "1", "2"], "beta": 1.0},
        "ancillas": uniform(["0", "1", "2"], [0.7, 1.9], {"kind": "permutation", "shift": 1}),
    },
}
BLOCK = sampler._BLOCK_SHOTS
SHOT_COUNTS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


def record_route(config, sampler_config, out, fmt, dump=None):
    """The summary and stdout of ``sample`` as the record route produces them."""
    records = iter_trajectories(config, sampler_config)
    heats = []

    def tee(sink):
        for record in records:
            heats.append(record.heats)
            if sink is not None:
                sink.write(cli._dump_line(record) + "\n")
            yield record

    if dump is not None:
        with dump.open("w", encoding="utf-8", newline="\n") as sink:
            summary = summarize_samples(tee(sink), sampler_config.shots)
    else:
        summary = summarize_samples(tee(None), sampler_config.shots)
    total = sampler_config.shots
    counts = Counter(heats)
    assert list(summary.empirical.distribution.entries.items()) == [
        (key, count / total) for key, count in counts.items()
    ]
    out.write_text(_distribution_text(summary.empirical.distribution, fmt), encoding="utf-8")
    stdout = (
        f"sampled {total} trajectories with seed {sampler_config.master_seed} "
        f"across {sampler_config.worker_count} worker streams\n"
        f"mean exp(-entropy production) = {summary.integral_ft_mean:.6f} "
        f"+- {summary.integral_ft_stderr:.6f} (expected 1)\n"
        f"distinct heat tuples: {len(counts)}\n"
        f"wrote {out}\n"
    )
    return summary, stdout


def without_elapsed(stdout):
    return "".join(line for line in stdout.splitlines(True) if not line.startswith("elapsed:"))


def hexed(stderr):
    return [(key, value.hex()) for key, value in stderr.items()]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_cli_route_matches_record_route(tmp_path, capsys, name, workers):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(DOCUMENTS[name]), encoding="utf-8")
    config, _ = load_model_file(path)
    for shots in SHOT_COUNTS:
        seed = shots + 11
        sampler_config = SamplerConfig(shots=shots, master_seed=seed, worker_count=workers)
        for fmt in ("csv", "json"):
            for dumped in (False, True):
                argv = ["sample", str(path), "--shots", str(shots), "--seed", str(seed),
                        "--workers", str(workers), "--format", fmt]
                out, expected_out = tmp_path / f"cli.{fmt}", tmp_path / f"records.{fmt}"
                dump, expected_dump = tmp_path / "cli.jsonl", tmp_path / "records.jsonl"
                argv += ["--out", str(out)] + (["--dump", str(dump)] if dumped else [])
                assert dispatch(argv) == 0
                stdout = without_elapsed(capsys.readouterr().out)
                summary, expected = record_route(
                    config, sampler_config, expected_out, fmt, expected_dump if dumped else None
                )
                assert stdout == expected.replace(str(expected_out), str(out))
                assert out.read_bytes() == expected_out.read_bytes()
                if dumped:
                    assert dump.read_bytes() == expected_dump.read_bytes()
                    assert len(dump.read_text().splitlines()) == shots
        blocks = sampler._sample(config, sampler_config)
        assert hexed(blocks.empirical.stderr) == hexed(summary.empirical.stderr)
        assert blocks.integral_ft_mean.hex() == summary.integral_ft_mean.hex()
        assert blocks.integral_ft_stderr.hex() == summary.integral_ft_stderr.hex()


# A cold chain whose second ancilla rarely leaves its ground level: with its
# excited log-weight perturbed, the first inconsistent shot of seed 7 falls
# in the fourth block (shots 768..1023), found from the record route below.
COLD_CHAIN = {
    "system": {"energies": ["0", "1"], "beta": 7.0},
    "ancillas": resonant([7.0, 7.0, 7.0]),
}


def test_consistency_error_in_a_later_block(tmp_path, monkeypatch):
    path = tmp_path / "cold.json"
    path.write_text(json.dumps(COLD_CHAIN), encoding="utf-8")
    config, _ = load_model_file(path)
    tables = copy.copy(sampler._tables(config))
    tables.log_q = tables.log_q.copy()
    tables.log_q[1, 1] += 1e-6
    monkeypatch.setattr(sampler, "_tables", lambda _: tables)

    records = []
    with pytest.raises(ConsistencyError) as slow:
        for record in iter_trajectories(config, SamplerConfig(3000, 7, 2)):
            records.append(record)
    assert len(records) == 3 * BLOCK

    dump, out = tmp_path / "shots.jsonl", tmp_path / "law.csv"
    argv = ["sample", str(path), "--shots", "3000", "--seed", "7", "--workers", "2",
            "--dump", str(dump), "--out", str(out)]
    with pytest.raises(ConsistencyError) as fast:
        dispatch(argv)
    assert str(fast.value) == str(slow.value)
    assert str(fast.value).startswith("entropy production mismatch: heat form ")
    assert dump.read_text(encoding="utf-8") == "".join(
        cli._dump_line(record) + "\n" for record in records
    )
    assert not out.exists()


def test_dump_line_is_the_json_of_the_record(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(DOCUMENTS["haar_d3"]), encoding="utf-8")
    config, _ = load_model_file(path)
    for record in iter_trajectories(config, SamplerConfig(300, 4, 2)):
        assert cli._dump_line(record) == json.dumps({
            "alphas": list(record.trajectory.alphas),
            "ancilla_pairs": [list(pair) for pair in record.trajectory.ancilla_pairs],
            "heats": [f"{q.numerator}/{q.denominator}" for q in record.heats],
            "sigma": record.sigma,
        })


def test_workers_past_the_last_shot_build_no_stream(tmp_path, monkeypatch, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(DOCUMENTS["haar_d3"]), encoding="utf-8")
    built = []

    def counting(*key):
        built.append(key)
        return substream(*key)

    monkeypatch.setattr(sampler, "substream", counting)
    outputs = {}
    for workers in (5000, 10):
        built.clear()
        out, dump = tmp_path / f"w{workers}.csv", tmp_path / f"w{workers}.jsonl"
        argv = ["sample", str(path), "--shots", "10", "--seed", "4", "--workers", str(workers),
                "--out", str(out), "--dump", str(dump)]
        assert dispatch(argv) == 0
        assert built == [(4, w) for w in range(10)]
        assert f"across {workers} worker streams" in capsys.readouterr().out
        outputs[workers] = (out.read_bytes(), dump.read_bytes())
    assert outputs[5000] == outputs[10]
