"""The laws ``verify`` reads off one realization of the chain.

A fresh single collision is swept over its stage of the chain's own
realization, and the backward run without the last collision over the
chain's layers ``N-1 .. 1``.  Each must equal, bit for bit, the law of
the sub-model realized on its own (``single_collision_model``,
``truncated_model``), and each must be capped on its own path count.
Paths are grouped by key in ``_first_occurrence``, through a code table
or by a sort; both must number the groups as a first-occurrence dict does.
``exact`` sweeps its two laws off one list of the chain's layers.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heatchain import (
    EnumerationCapError,
    exact_backward_joint,
    exact_forward_joint,
    realize_model,
    single_collision_distribution,
    single_collision_model,
    truncated_model,
    verify_partial_decomposition,
)
from heatchain import chain, cli, distribution_to_csv, heatstats
from heatchain.cli import dispatch
from heatchain.unitaries import UnitarySpec

from test_coded_laws import ZERO_POPULATIONS, bits, haar_chain, models
from test_realization import chain_of, mixed_chain, spectrum


def two_spectrum_chain():
    """Qubit ancillas and half-shifted ones interleaved: two spectra, so sub-model registries differ."""
    qubit, shifted = spectrum("0", "1"), spectrum("1/2", "3/2")
    return chain_of(
        qubit,
        [
            (qubit, 0.7, UnitarySpec.partial_swap(0.9)),
            (shifted, 1.4, UnitarySpec.haar()),
            (qubit, 1.1, UnitarySpec.partial_swap(0.4)),
            (shifted, 0.5, UnitarySpec.partial_swap(1.3)),
        ],
        beta_s=0.9,
        seed=31,
    )


NAMED_MODELS = {
    "mixed": mixed_chain(),
    "two-spectra": two_spectrum_chain(),
    "haar-d3-4": haar_chain(3, [0.4, 2.0, 1.1, 6.0]),
    "zero-populations": ZERO_POPULATIONS,
}


def needed_paths(enumerate_) -> int:
    """The path count an enumeration reports when its cap is 0."""
    with pytest.raises(EnumerationCapError) as error:
        enumerate_(0)
    return int(re.search(r"needs (\d+) paths", str(error.value)).group(1))


def outcome(enumerate_, cap: int):
    """The law's bits, or the text of the cap error it raises."""
    try:
        return bits(enumerate_(cap))
    except EnumerationCapError as error:
        return str(error)


def truncated_law(model, cap: int):
    """The truncated backward law that ``verify_partial_decomposition`` sweeps (its last sweep)."""
    laws = []
    original = heatstats._system_law

    def recorded(realized, layers, law_cap, direction):
        assert law_cap == cap  # each law is capped on its own paths (see below)
        laws.append(original(realized, layers, law_cap, direction))
        return laws[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heatstats, "_system_law", recorded)
        verify_partial_decomposition(model, cap=cap)
    return laws[-1]


def assert_chain_laws_match_sub_models(model):
    n = model.n_collisions
    for i in range(1, n + 1):
        sub = single_collision_model(model, i)
        assert bits(single_collision_distribution(model, i)) == bits(exact_forward_joint(sub))
        # Capped on the single collision's own paths, not the chain's.
        paths = needed_paths(lambda cap: exact_forward_joint(sub, cap))
        for cap in (paths - 1, paths):
            assert outcome(lambda cap: single_collision_distribution(model, i, cap), cap) == outcome(
                lambda cap: exact_forward_joint(sub, cap), cap
            )
    if n < 2:
        return
    shorter = truncated_model(model, n - 1)
    assert bits(truncated_law(model, heatstats.DEFAULT_ENUMERATION_CAP)) == bits(
        exact_backward_joint(shorter)
    )
    # The first of the laws the check sweeps (forward, backward, truncated
    # backward, last single) to exceed the cap names its paths.
    counts = [
        needed_paths(lambda cap: exact_forward_joint(model, cap)),
        needed_paths(lambda cap: exact_backward_joint(model, cap)),
        needed_paths(lambda cap: exact_backward_joint(shorter, cap)),
        needed_paths(lambda cap: exact_forward_joint(single_collision_model(model, n), cap)),
    ]
    for cap in sorted({c + d for c in counts for d in (-1, 0)}):
        over = [c for c in counts if c > cap]
        if over:
            with pytest.raises(EnumerationCapError) as error:
                verify_partial_decomposition(model, cap=cap)
            assert str(error.value) == f"system-path enumeration needs {over[0]} paths, cap is {cap}"
        else:
            verify_partial_decomposition(model, cap=cap)


@given(models(max_collisions=4))
def test_chain_laws_match_sub_models(model):
    assert_chain_laws_match_sub_models(model)


@pytest.mark.parametrize("name", sorted(NAMED_MODELS))
def test_chain_laws_match_sub_models_on_named_models(name):
    assert_chain_laws_match_sub_models(NAMED_MODELS[name])


def assert_backward_law_reverses_collision_order(model):
    # _system_law takes layers in collision order and sweeps a backward law
    # reversed; without the last layer, that is the truncated chain's law.
    realized = realize_model(model)
    layers = heatstats._system_layers(realized, realized.stages)
    cap = heatstats.DEFAULT_ENUMERATION_CAP
    backward = heatstats._system_law(realized, layers, cap, "backward")
    assert bits(backward) == bits(exact_backward_joint(model))
    n = model.n_collisions
    if n >= 2:
        shorter = heatstats._system_law(realized, layers[:-1], cap, "backward")
        assert bits(shorter) == bits(exact_backward_joint(truncated_model(model, n - 1)))


@given(models(max_collisions=4))
def test_backward_law_reverses_collision_order(model):
    assert_backward_law_reverses_collision_order(model)


@pytest.mark.parametrize("name", sorted(NAMED_MODELS))
def test_backward_law_reverses_collision_order_on_named_models(name):
    assert_backward_law_reverses_collision_order(NAMED_MODELS[name])


def test_single_collision_index_out_of_range():
    model = two_spectrum_chain()
    for i in (0, -1, 5):
        with pytest.raises(ValueError, match=f"collision index {i} out of range 1..4"):
            single_collision_distribution(model, i)


TWO_SPECTRUM_DOCUMENT = {
    "system": {"energies": ["0", "1"], "beta": 0.9},
    "ancillas": [
        {"energies": levels, "beta": beta, "unitary": {"kind": "partial_swap", "theta": theta}}
        for levels, beta, theta in [
            (["0", "1"], 0.7, 0.9),
            (["1/2", "3/2"], 1.4, 0.3),
            (["0", "1"], 1.1, 0.4),
            (["1/2", "3/2"], 0.5, 1.3),
            (["0", "1"], 1.2, 0.8),
        ]
    ],
    "master_seed": 3,
}


def test_verify_realizes_the_chain_once(monkeypatch, tmp_path):
    # N + 4 sweeps: forward, backward, via ancillas, N singles and the
    # truncated backward law; shells once per ancilla spectrum.
    shells, sweeps = [], []
    build, sweep = chain.build_energy_shells, heatstats._sweep

    def counted_shells(system, ancilla):
        shells.append(ancilla)
        return build(system, ancilla)

    def counted_sweep(*args):
        sweeps.append(args[2])
        return sweep(*args)

    monkeypatch.setattr(chain, "build_energy_shells", counted_shells)
    monkeypatch.setattr(heatstats, "_sweep", counted_sweep)
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_SPECTRUM_DOCUMENT), encoding="utf-8")
    realize_model.cache_clear()
    try:
        assert dispatch(["verify", str(path)]) == 0
    finally:
        realize_model.cache_clear()
    assert sorted(shells, key=lambda s: s.levels) == [
        spectrum("0", "1"), spectrum("1/2", "3/2")
    ]
    assert sweeps == ["forward", "backward", "forward"] + ["forward"] * 5 + ["backward"]


def test_exact_builds_the_chain_layers_once(monkeypatch, tmp_path):
    # One list of system layers: forward reads it in order, backward reversed.
    built, sweeps = [], []
    layers_of, sweep = heatstats._system_layers, heatstats._sweep

    def counted_layers(realized, stages):
        built.append([stage.index for stage in stages])
        return layers_of(realized, stages)

    def counted_sweep(*args):
        sweeps.append(args[2])
        return sweep(*args)

    monkeypatch.setattr(heatstats, "_system_layers", counted_layers)
    monkeypatch.setattr(cli, "_system_layers", counted_layers)
    monkeypatch.setattr(heatstats, "_sweep", counted_sweep)
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_SPECTRUM_DOCUMENT), encoding="utf-8")
    assert dispatch(["exact", str(path), "--out", str(tmp_path / "laws.csv")]) == 0
    assert built == [[1, 2, 3, 4, 5]]
    assert sweeps == ["forward", "backward"]
    model = cli.parse_model(TWO_SPECTRUM_DOCUMENT)
    assert (tmp_path / "laws.csv").read_text() == distribution_to_csv(exact_forward_joint(model), True)
    assert (tmp_path / "laws.backward.csv").read_text() == distribution_to_csv(
        exact_backward_joint(model), True
    )


def test_exact_cap_one_below_the_forward_paths_exits_2(tmp_path, capsys):
    # Paths with no zero factor, counted on the propagators' sparsity alone.
    realized = realize_model(cli.parse_model(TWO_SPECTRUM_DOCUMENT))
    counts = (realized.system_state.populations > 0.0).astype(np.int64)
    for stage in realized.stages:
        counts = (stage.propagator.matrix != 0.0).astype(np.int64) @ counts
    paths = int(counts.sum())
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_SPECTRUM_DOCUMENT), encoding="utf-8")
    assert dispatch(["exact", str(path), "--cap", str(paths - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: system-path enumeration needs {paths} paths, cap is {paths - 1}\n"
    assert dispatch(["exact", str(path), "--cap", str(paths), "--out", str(tmp_path / "laws.csv")]) == 0


# ---------------------------------------------------------------------------
# Grouping by key code: a code table or a sort, against a dict.


def reference_first_occurrence(codes: list[int]) -> tuple[list[int], list[int]]:
    first: dict[int, int] = {}
    for i, code in enumerate(codes):
        first.setdefault(code, i)
    group = {code: g for g, code in enumerate(first)}
    return [group[code] for code in codes], list(first.values())


def assert_first_occurrence_matches(codes: list[int], bound: int) -> None:
    """The groups as chosen, and, where a table is affordable, through the table and by the sort."""
    want_group, want_first = reference_first_occurrence(codes)
    limits = [heatstats._DENSE_CODES] + ([0, bound] if bound <= 2**16 else [])
    for limit in limits:  # 0 forces the sort, ``bound`` the table on any nonempty input
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heatstats, "_DENSE_CODES", limit)
            group, first = heatstats._first_occurrence(np.array(codes, dtype=np.int64), bound)
        assert group.tolist() == want_group
        assert first.tolist() == want_first
        assert group.dtype == first.dtype == np.intp


@pytest.mark.parametrize(
    "codes, bound",
    [
        ([], 1),
        ([0], 1),
        ([5], 6),
        ([7] * 9, 8),
        ([3, 1, 3, 0, 1], 5 * heatstats._DENSE_CODES),  # table, at the limit
        ([3, 1, 3, 0, 1], 5 * heatstats._DENSE_CODES + 1),  # sort, just past it
        ([2**62, 0, 2**62], 2**62 + 1),
    ],
)
def test_first_occurrence_edge_cases(codes, bound):
    assert_first_occurrence_matches(codes, bound)


@given(st.data(), st.integers(1, 12 * heatstats._DENSE_CODES), st.integers(0, 60))
def test_first_occurrence_matches_a_dict(data, spread, n):
    # Bounds from 1/4 to 3 times the table's limit per element: both routes.
    bound = max(1, spread * max(n, 1) // 4)
    codes = data.draw(st.lists(st.integers(0, bound - 1), min_size=n, max_size=n))
    assert_first_occurrence_matches(codes, bound)


@pytest.mark.parametrize("sweep_route", ["table", "sort"])
def test_laws_do_not_depend_on_the_grouping_route(monkeypatch, sweep_route):
    model = NAMED_MODELS["two-spectra"]
    want = [bits(exact_forward_joint(model)), bits(exact_backward_joint(model))]
    monkeypatch.setattr(heatstats, "_DENSE_CODES", 10**9 if sweep_route == "table" else 0)
    assert [bits(exact_forward_joint(model)), bits(exact_backward_joint(model))] == want
