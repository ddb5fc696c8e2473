"""``floattext.float_texts`` against ``repr``, and the exports that use it.

``float_texts`` must return ``list(map(repr, values.tolist()))`` for any
float64 array, through the vectorized Schubfach writer whatever its size.
The writer is checked on short arrays, on both sides of the
``heatstats._FLOAT_TEXTS_MIN`` threshold from which the exports call it,
on fixed sets of edge values, and on random bit patterns; the number of
patterns is read from ``HEATCHAIN_FLOATTEXT_SAMPLES`` (default 10^5).  An
export of a law past the threshold must write the bytes of the ``repr``
route, with ``nan`` and ``inf`` masses spelled as before.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from heatchain import JointHeatDistribution, exact_backward_joint, exact_forward_joint, floattext, heatstats
from heatchain.cli import _distribution_text, parse_model

from test_writers import assert_writers_match

SAMPLES = int(os.environ.get("HEATCHAIN_FLOATTEXT_SAMPLES", 10**5))
BATCH = 10**5  # values compared at a time, so a large sample needs little memory


def kernel(values) -> list[str]:
    """``float_texts`` of the values as a float64 array."""
    return floattext.float_texts(np.asarray(values, dtype=np.float64))


def assert_reprs(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    want = list(map(repr, values.tolist()))
    got = kernel(values)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:5]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(FINITE, max_size=40))
@example([0.1, -0.0, 0.0, 5e-324, -1e16, 1e-4, 9.999999999999999e15])
def test_kernel_writes_repr(values):
    assert_reprs(values)


def random_finite(seed: int, size: int) -> np.ndarray:
    bits = np.random.default_rng(seed).integers(0, 2**64, size=2 * size, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)][:size]


@given(
    st.lists(FINITE, max_size=20),
    st.integers(heatstats._FLOAT_TEXTS_MIN - 3, heatstats._FLOAT_TEXTS_MIN + 3),
    st.integers(0, 2**32 - 1),
)
def test_entry_point_writes_repr_on_both_sides_of_the_threshold(head, size, seed):
    values = np.concatenate([head, random_finite(seed, size)])[:size]
    assert floattext.float_texts(values) == list(map(repr, values.tolist()))


def test_every_power_of_two_and_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_reprs(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


def test_powers_of_ten():
    assert_reprs([float(f"1e{k}") for k in range(-323, 309)])


def test_integers_around_two_to_the_53():
    assert_reprs(np.arange(2**53 - 5000, 2**53 + 5000, dtype=np.float64))
    assert_reprs(np.arange(0, 5000, dtype=np.float64))


def test_both_sides_of_each_layout_switch():
    edges = np.array([1e-4, 1e16, 1e-5, 1e15, 1.0, 10.0])
    near = [np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)]
    assert_reprs(np.concatenate(near + [-x for x in near]))


def test_zeros_subnormals_negatives_and_non_finite():
    subnormals = np.ldexp(1.0, np.arange(-1074, -1022)) * 3
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, math.nan, math.inf, -math.inf]
    assert_reprs(np.concatenate([values, subnormals, -subnormals, -np.geomspace(1e-300, 1e300, 601)]))


def test_random_bit_patterns():
    rng = np.random.default_rng(20)
    for start in range(0, SAMPLES, BATCH):
        bits = rng.integers(0, 2**64, size=min(BATCH, SAMPLES - start), dtype=np.uint64)
        values = bits.view(np.float64)
        assert_reprs(values[np.isfinite(values)])


def test_arrays_longer_than_a_chunk():
    rng = np.random.default_rng(3)
    values = rng.random(2 * floattext._CHUNK + 77) ** 9
    assert floattext.float_texts(values) == list(map(repr, values.tolist()))


# ---------------------------------------------------------------------------
# Exports of laws past the threshold.

RESONANT = {
    "system": {"energies": ["0", "1"], "beta": 1.0},
    "ancillas": [
        {"energies": ["0", "1"], "beta": 0.7 + 0.06 * k, "unitary": {"kind": "partial_swap", "theta": 0.6 + 0.05 * k}}
        for k in range(10)
    ],
    "master_seed": 3,
}
HEATS = tuple(Fraction(k, 2) for k in range(-3, 4))


def hand_law(masses) -> JointHeatDistribution:
    keys = list(product(HEATS, repeat=5))[: len(masses)]
    return JointHeatDistribution(entries=dict(zip(keys, masses)), direction="forward", n_collisions=5)


def count_kernel_calls(monkeypatch) -> list[int]:
    """The size of each array the exports hand to ``float_texts``."""
    calls = []
    texts = floattext.float_texts

    def counted(values):
        calls.append(len(values))
        return texts(values)

    monkeypatch.setattr(floattext, "float_texts", counted)
    return calls


def test_exact_laws_past_the_threshold_write_the_repr_route_bytes(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    model = parse_model(RESONANT)
    for dist in (exact_forward_joint(model), exact_backward_joint(model)):
        assert len(dist) >= heatstats._FLOAT_TEXTS_MIN
        assert_writers_match(dist)
    assert calls and min(calls) >= heatstats._FLOAT_TEXTS_MIN


def test_a_span_with_nan_or_inf_keeps_the_encoders_spelling(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(8)
    masses = (rng.random(heatstats._EXPORT_SPAN_ROWS + 600) ** 5).tolist()
    masses[-3], masses[-1] = math.nan, math.inf  # both in the second span
    dist = hand_law(masses)
    assert_writers_match(dist)
    assert calls and set(calls) == {heatstats._EXPORT_SPAN_ROWS}  # the first span of each export
    text = _distribution_text(dist, "json")
    assert '"probability": NaN' in text and '"probability": Infinity' in text
    csv = heatstats.distribution_to_csv(dist)
    assert ",nan\n" in csv and ",inf\n" in csv
    assert json.loads(text)["entries"][0]["probability"] == masses[0]


# ---------------------------------------------------------------------------
# The module is imported only for a float array long enough to use it.

LOADED = """
import sys
from heatchain import cli
if len(sys.argv) > 1:
    assert cli.dispatch(sys.argv[1:]) == 0
print("heatchain.floattext" in sys.modules)
"""
TWO_QUBITS = {
    **RESONANT,
    "ancillas": [
        {"energies": ["0", "1"], "beta": beta, "unitary": {"kind": "partial_swap", "theta": 0.7}}
        for beta in (0.5, 1.5)
    ],
}


@pytest.mark.parametrize(
    "document, loaded",
    [(None, False), (TWO_QUBITS, False), (RESONANT, True)],
    ids=["import-cli", "exact-two-collisions", "exact-resonant"],
)
def test_floattext_is_imported_only_for_a_law_past_the_threshold(tmp_path, document, loaded):
    argv = []
    if document is not None:
        model = tmp_path / "model.json"
        model.write_text(json.dumps(document))
        argv = ["exact", str(model), "--out", str(tmp_path / "laws.csv")]
        keys = len(exact_forward_joint(parse_model(document)))
        assert (keys >= heatstats._FLOAT_TEXTS_MIN) == loaded
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(loaded)
