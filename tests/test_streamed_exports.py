"""``heatchain exact`` streams its laws, and ``verify`` pairs its laws once.

``exact`` writes each law a block of keys at a time, to ``--out`` and its
``.backward`` sibling or to stdout, so it never holds a whole-law text.
The bytes must be those of the joined text and of the per-row reference
writers, for laws whose key counts cross every block (512 keys) and span
(1024 keys) boundary.  ``verify`` looks the backward partners up and takes
the log ratio once per pair of laws, cached on the forward law; its
reports must be those of the public checks on fresh laws.
"""

import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from test_coded_laws import hand_laws, qubit_chain, reference_joint_ft, reference_product, report_bits
from test_writers import reference_csv, reference_json

from heatchain import (
    JointHeatDistribution,
    cli,
    distribution_to_csv,
    exact_backward_joint,
    exact_forward_joint,
    heatstats,
    single_collision_distribution,
    verify_joint_ft,
    verify_partial_decomposition,
    verify_product_relation,
)
from heatchain.cli import _distribution_text, dispatch, load_model_file

DEMO = Path(__file__).resolve().parent.parent / "demos" / "models" / "resonant_chain.json"
KEY_COUNTS = [1, 511, 512, 513, 1024, 1025]


def law(keys: int, direction: str) -> JointHeatDistribution:
    """``keys`` three-heat keys with masses of many spellings, some repeated."""
    rng = random.Random(keys)
    heats = [Fraction(k, 3) for k in range(-6, 7)]
    chosen = rng.sample([(a, b, c) for a in heats for b in heats for c in heats], keys)
    masses = [rng.choice([0.5, 1e-300, rng.random(), rng.random() * 1e-12]) for _ in chosen]
    return JointHeatDistribution(dict(zip(chosen, masses)), direction, 3)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("keys", KEY_COUNTS)
def test_streamed_laws_are_the_joined_text(tmp_path, monkeypatch, capsys, keys, fmt):
    laws = {"forward": law(keys, "forward"), "backward": law(keys + 1, "backward")}
    monkeypatch.setattr(cli, "_system_law", lambda realized, layers, cap, direction: laws[direction])
    reference = reference_json if fmt == "json" else reference_csv
    texts = {direction: _distribution_text(dist, fmt) for direction, dist in laws.items()}
    assert texts == {direction: reference(dist) for direction, dist in laws.items()}

    out = tmp_path / f"law.{fmt}"
    assert dispatch(["exact", str(DEMO), "--format", fmt, "--out", str(out)]) == 0
    assert out.read_text() == texts["forward"]
    assert (tmp_path / f"law.backward.{fmt}").read_text() == texts["backward"]

    capsys.readouterr()
    assert dispatch(["exact", str(DEMO), "--format", fmt]) == 0
    printed = capsys.readouterr().out
    assert f"# forward\n{texts['forward']}# backward\n{texts['backward']}elapsed: " in printed


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_builds_no_whole_law_text(tmp_path, monkeypatch, fmt):
    model, _ = load_model_file(DEMO)
    expected = [_distribution_text(exact_forward_joint(model), fmt), _distribution_text(exact_backward_joint(model), fmt)]

    def whole_text(*args, **kwargs):
        raise AssertionError("exact joined a whole law")

    for owner, name in [(heatstats, "distribution_to_csv"), (cli, "_distribution_text")]:
        monkeypatch.setattr(owner, name, whole_text)
    out = tmp_path / f"dist.{fmt}"
    assert dispatch(["exact", str(DEMO), "--format", fmt, "--out", str(out)]) == 0
    assert [out.read_text(), (tmp_path / f"dist.backward.{fmt}").read_text()] == expected


def test_exact_peak_memory_is_below_its_files(tmp_path):
    # Twelve collisions: about 8000 keys a law, 1.6 MB of files.
    document = json.loads(DEMO.read_text())
    document["ancillas"] = [dict(document["ancillas"][k % len(document["ancillas"])]) for k in range(12)]
    for k, ancilla in enumerate(document["ancillas"]):
        ancilla["beta"] = 0.7 + 0.05 * k
    model = tmp_path / "twelve.json"
    model.write_text(json.dumps(document))
    out = tmp_path / "twelve.csv"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert dispatch(["exact", str(model), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    files = out.stat().st_size + (tmp_path / "twelve.backward.csv").stat().st_size
    assert files > 2**20
    assert peak < files


def test_verify_looks_partners_up_once_per_pair(monkeypatch):
    calls = []
    lookup = heatstats._lookup

    def counted(*args):
        calls.append(args)
        return lookup(*args)

    monkeypatch.setattr(heatstats, "_lookup", counted)
    assert dispatch(["verify", str(DEMO)]) == 0
    # The route comparison, the joint check's orphans, the partners and the prefix partners.
    assert len(calls) == 4


def test_verify_reports_are_the_public_checks_on_fresh_laws(monkeypatch):
    reports = []
    check = heatstats._check_log_ratio

    def recorded(*args, **kwargs):
        reports.append(check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(heatstats, "_check_log_ratio", recorded)
    assert dispatch(["verify", str(DEMO)]) == 0
    monkeypatch.undo()

    model, settings = load_model_file(DEMO)
    tolerance = settings.tolerance
    singles = [single_collision_distribution(model, i) for i in range(1, model.n_collisions + 1)]
    expected = [
        verify_joint_ft(exact_forward_joint(model), exact_backward_joint(model), model, tolerance),
        verify_product_relation(exact_forward_joint(model), exact_backward_joint(model), singles, tolerance),
        verify_partial_decomposition(model, tolerance),
    ]
    assert [report_bits(r) for r in reports] == [report_bits(r) for r in expected]


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n), hand_laws(n), hand_laws(n, "backward"), hand_laws(n, "backward"),
        st.lists(hand_laws(1), min_size=n, max_size=n),
    )
))
def test_pairing_follows_the_backward_law(case):
    # One forward law checked against two backward laws in turn: each
    # report is that of the reference, not of the other pair.
    n, forward, first, second, singles = case
    model = qubit_chain(n)
    for backward in (first, second, first):
        assert report_bits(verify_joint_ft(forward, backward, model)) == report_bits(
            reference_joint_ft(forward, backward, model)
        )
        assert report_bits(verify_product_relation(forward, backward, singles)) == report_bits(
            reference_product(forward, backward, singles)
        )


def test_csv_export_is_its_header_and_blocks():
    dist = law(1025, "forward")
    texts = list(heatstats._csv_texts(dist, include_exact=True))
    assert len(texts) == 1 + 3  # the header, then 512, 512 and 1 keys
    assert texts[0] == "Q_1,Q_2,Q_3,probability,Q_1_exact,Q_2_exact,Q_3_exact\n"
    assert "".join(texts) == distribution_to_csv(dist, include_exact=True)
