"""Realization against a collision-by-collision reference, bit for bit.

``realize_model`` builds shells and heat-id tables once per ancilla
spectrum, draws the Haar blocks of all collisions through one stacked QR
per shell size, and squares, checks and averages the blocks of many
collisions at once; ``sampler._SamplerTables`` reads its slot tables off
the stacked tensors.  The reference below realizes one collision at a
time, as the package did before that batching: fresh shells per
collision, one QR per Haar shell, a per-block transition tensor, the
propagator loop, a registry over every collision's spectrum, and slot
tables built outcome by outcome.  Every array must come out with the same
dtype, shape and bytes.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given

from heatchain import (
    AncillaSpec,
    ModelConfig,
    ModelError,
    Spectrum,
    UnitarySpec,
    format_rational,
    gibbs_state,
    realize_model,
    single_collision_model,
    truncated_model,
)
from heatchain import chain, heatstats, sampler, unitaries
from heatchain.streams import substream
from heatchain.unitaries import EnergyShell, _permutation_block, build_energy_shells

from test_coded_laws import TRAJECTORY_MODELS, models


# ---------------------------------------------------------------------------
# The reference: one collision at a time.


def reference_shells(system: Spectrum, ancilla: Spectrum) -> tuple[EnergyShell, ...]:
    groups: dict[Fraction, list[tuple[int, int]]] = {}
    for a, e_a in enumerate(system.levels):
        for n, e_n in enumerate(ancilla.levels):
            groups.setdefault(e_a + e_n, []).append((a, n))
    return tuple(EnergyShell(total, tuple(sorted(groups[total]))) for total in sorted(groups))


def reference_haar(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reference_blocks(shells, spec: UnitarySpec, master_seed: int) -> list[np.ndarray]:
    if spec.kind == "haar":
        tag = spec.stream_tag if spec.stream_tag is not None else 0
        return [
            np.eye(1, dtype=complex)
            if shell.size == 1
            else reference_haar(shell.size, substream(master_seed, tag, k))
            for k, shell in enumerate(shells)
        ]
    if spec.kind == "partial_swap":
        c, s = math.cos(spec.theta), math.sin(spec.theta)
        swap = np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        return [swap.copy() if shell.size == 2 else np.eye(shell.size, dtype=complex) for shell in shells]
    if spec.kind == "permutation":
        return [_permutation_block(shell, spec) for shell in shells]
    supplied = dict(spec.blocks)
    return [
        np.array(supplied[shell.total_energy], dtype=complex)
        if shell.total_energy in supplied
        else np.eye(shell.size, dtype=complex)
        for shell in shells
    ]


def reference_propagator(shells, probs, q, d_system: int) -> np.ndarray:
    m = np.zeros((d_system, d_system))
    for shell, mat in zip(shells, probs):
        sys_labels = [a for a, _ in shell.members]
        weights = np.array([q[n] for _, n in shell.members])
        weighted = mat * weights
        for j, a_in in enumerate(sys_labels):
            for i, a_out in enumerate(sys_labels):
                m[a_out, a_in] += weighted[i, j]
    return m


def reference_outcomes(shells, probs) -> dict:
    table = {}
    for shell, mat in zip(shells, probs):
        for j, member_in in enumerate(shell.members):
            table[member_in] = tuple(
                (member_out[0], member_out[1], float(mat[i, j]))
                for i, member_out in enumerate(shell.members)
                if mat[i, j] != 0.0
            )
    return table


def reference_realization(model: ModelConfig) -> dict:
    system = model.system
    stages = []
    for anc in model.ancillas:
        shells = reference_shells(system, anc.spectrum)
        blocks = reference_blocks(shells, anc.unitary, model.master_seed)
        probs = [np.abs(block) ** 2 for block in blocks]
        state = gibbs_state(anc.spectrum, anc.beta)
        stages.append(
            {
                "shells": shells,
                "blocks": blocks,
                "probs": probs,
                "state": state,
                "matrix": reference_propagator(shells, probs, state.populations, system.dim),
                "outcomes": reference_outcomes(shells, probs),
            }
        )
    spectra = [system, *(anc.spectrum for anc in model.ancillas)]
    values = tuple(sorted({a - b for spec in spectra for a in spec.levels for b in spec.levels}))
    lookup = {q: i for i, q in enumerate(values)}
    dtype = np.min_scalar_type(len(lookup) - 1)

    def ids(levels):
        return np.array([[lookup[a - b] for b in levels] for a in levels], dtype=dtype)

    return {
        "system_state": gibbs_state(system, model.system_beta),
        "stages": stages,
        "heat_values": values,
        "system_heat_ids": ids(system.levels),
        "ancilla_heat_ids": [ids(anc.spectrum.levels).T for anc in model.ancillas],
    }


def logs(values) -> list[float]:
    return [math.log(v) if v > 0 else -math.inf for v in values]


def reference_tables(model: ModelConfig, ref: dict) -> dict:
    """The slot tables, built outcome by outcome from the reference realization."""
    n = model.n_collisions
    dim = model.system.dim
    beta_diff = [anc.beta - model.system_beta for anc in model.ancillas]
    p0 = ref["system_state"].populations
    width = max(anc.spectrum.dim for anc in model.ancillas)
    anc_columns = np.full((width - 1, n), np.inf)
    log_q = np.zeros((n, width))
    anc_heat_id = np.zeros((n, width, width), dtype=ref["system_heat_ids"].dtype)
    for i, stage in enumerate(ref["stages"]):
        q = stage["state"].populations
        anc_columns[: len(q) - 1, i] = np.cumsum(q)[:-1]
        log_q[i, : len(q)] = logs(q)
        anc_heat_id[i, : len(q), : len(q)] = ref["ancilla_heat_ids"][i]
    # Row (alpha * N + i) * width + n_in is joint input (alpha, n_in) of
    # collision i; an ancilla level past collision i's spectrum has no jumps.
    rows = [
        (i, alpha, n_in, ref["stages"][i]["outcomes"].get((alpha, n_in), ()))
        for alpha in range(dim)
        for i in range(n)
        for n_in in range(width)
    ]
    span = max(len(outcomes) for *_, outcomes in rows)
    heat_value = [float(value) for value in ref["heat_values"]]
    sys_heat_id = ref["system_heat_ids"].tolist()
    log_q_rows = log_q.tolist()
    slots = []
    for i, alpha, n_in, outcomes in rows:
        cdf = list(accumulate(w for _, _, w in outcomes))
        if outcomes:
            cdf[-1] = math.inf
        for entry, (alpha_out, n_out, w) in zip(cdf, outcomes):
            hid = sys_heat_id[alpha][alpha_out]
            slots.append((
                entry, alpha_out, hid, n_in * width + n_out,
                beta_diff[i] * heat_value[hid], log_q_rows[i][n_in] + math.log(w),
            ))
        slots += [(math.inf, 0, 0, 0, 0.0, 0.0)] * (span - len(outcomes))
    cdf, level, heat, pair, sigma_term, log_p_term = zip(*slots)
    stride = n * width
    return {
        "p0_cum": np.cumsum(p0),
        "log_p0": np.array(logs(p0)),
        "anc_columns": anc_columns,
        "log_q": log_q,
        "anc_heat_id": anc_heat_id,
        "steps": span - 1,
        "span": span,
        "cdf": np.array(cdf),
        "level": np.array(level, dtype=np.min_scalar_type(dim - 1)),
        "scaled_level": np.array(
            [a * stride for a in level], dtype=np.min_scalar_type((dim - 1) * stride)
        ),
        "heat": np.array(heat, dtype=ref["system_heat_ids"].dtype),
        "pair": np.array(pair, dtype=np.min_scalar_type(width * width - 1)),
        "sigma_term": np.array(sigma_term),
        "log_p_term": np.array(log_p_term),
    }


# ---------------------------------------------------------------------------
# Comparison


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(model: ModelConfig) -> None:
    realized = realize_model(model)
    ref = reference_realization(model)
    assert same(realized.system_state.populations, ref["system_state"].populations)
    assert len(realized.stages) == len(ref["stages"])
    for stage, expected in zip(realized.stages, ref["stages"]):
        assert stage.shells == expected["shells"]
        assert stage.unitary.shells is stage.shells and stage.tensor.shells is stage.shells
        assert len(stage.unitary.blocks) == len(expected["blocks"])
        for block, want in zip(stage.unitary.blocks, expected["blocks"]):
            assert same(block, want)
        for probs, want in zip(stage.tensor.probs, expected["probs"]):
            assert same(probs, want)
        assert same(stage.propagator.matrix, expected["matrix"])
        assert same(stage.ancilla_state.populations, expected["state"].populations)
        assert stage.ancilla_state.log_z == expected["state"].log_z
        assert (stage.tensor.d_system, stage.tensor.d_ancilla) == (
            model.system.dim,
            stage.spectrum.dim,
        )
    assert realized.heat_values == ref["heat_values"]
    assert same(realized.heat_ids[model.system], ref["system_heat_ids"])
    for anc, want in zip(model.ancillas, ref["ancilla_heat_ids"], strict=True):
        assert same(realized.heat_ids[anc.spectrum].T, want)

    tables = sampler._SamplerTables(model)
    for name, want in reference_tables(model, ref).items():
        got = getattr(tables, name)
        assert same(got, want), name


# ---------------------------------------------------------------------------
# Models


def spectrum(*levels: str) -> Spectrum:
    return Spectrum.from_values(levels)


def dft(size: int) -> list[list[complex]]:
    return [
        [cmath.exp(2j * math.pi * r * c / size) / math.sqrt(size) for c in range(size)]
        for r in range(size)
    ]


def chain_of(system: Spectrum, ancillas, beta_s: float = 1.0, seed: int = 7) -> ModelConfig:
    return ModelConfig(
        system=system,
        system_beta=beta_s,
        ancillas=tuple(AncillaSpec(spec, beta, unitary) for spec, beta, unitary in ancillas),
        master_seed=seed,
    )


def uniform_chain(kind: str) -> ModelConfig:
    third = spectrum("0", "1/3", "2/3")
    qubit = spectrum("0", "1")
    if kind == "haar":
        return chain_of(third, [(third, 0.5 + 0.4 * k, UnitarySpec.haar()) for k in range(5)])
    if kind == "partial_swap":
        return chain_of(
            qubit, [(qubit, 0.7 + 0.2 * k, UnitarySpec.partial_swap(0.3 * k)) for k in range(6)]
        )
    if kind == "permutation":
        cycles = UnitarySpec.permutation(cycles={"2/3": [[0, 2, 1]], "1/3": [[0, 1]]})
        return chain_of(
            third,
            [(third, 1.5, UnitarySpec.permutation(shift=1)), (third, 0.4, cycles)]
            + [(third, 2.0, UnitarySpec.permutation(shift=2))],
        )
    if kind == "explicit":
        blocks = {
            format_rational(shell.total_energy): dft(shell.size)
            for shell in build_energy_shells(third, third)
            if shell.size > 1
        }
        return chain_of(third, [(third, beta, UnitarySpec.explicit(blocks)) for beta in (0.3, 2.2)])
    return chain_of(qubit, [(qubit, beta, UnitarySpec.identity()) for beta in (0.5, 1.5, 3.0)])


def mixed_chain() -> ModelConfig:
    """Four ancilla spectra, interleaved, with every kind: four structure groups."""
    qubit = spectrum("0", "1")
    shifted = spectrum("1/2", "3/2")
    wide = spectrum("0", "1", "2")
    odd = spectrum("0", "2", "3")
    return chain_of(
        qubit,
        [
            (wide, 0.4, UnitarySpec.haar()),
            (qubit, 1.3, UnitarySpec.partial_swap(0.7)),
            (odd, 2.0, UnitarySpec.haar()),
            (wide, 1.1, UnitarySpec.permutation(shift=1)),
            (shifted, 0.9, UnitarySpec.partial_swap(1.2)),
            (qubit, 0.2, UnitarySpec.haar()),
            (wide, 1.8, UnitarySpec.haar()),
            (odd, 0.6, UnitarySpec.identity()),
            (qubit, 1.6, UnitarySpec.explicit({"1": dft(2)})),
        ],
        beta_s=0.8,
        seed=12345,
    )


@pytest.mark.parametrize("kind", unitaries.UNITARY_KINDS)
def test_uniform_chains_match_reference(kind):
    assert_matches_reference(uniform_chain(kind))


def test_mixed_spectra_chain_matches_reference():
    assert_matches_reference(mixed_chain())


def test_long_haar_chain_matches_reference():
    third = spectrum("0", "1/3", "2/3")
    assert_matches_reference(
        chain_of(third, [(third, 0.7 + 0.02 * k, UnitarySpec.haar()) for k in range(30)], seed=99)
    )


@given(models())
def test_generated_models_match_reference(model):
    assert_matches_reference(model)


# ---------------------------------------------------------------------------
# Sub-models: a Haar block never depends on its stack's other entries.


def test_sub_models_realize_the_full_chains_haar_blocks():
    model = mixed_chain()
    full = realize_model(model)
    for i, stage in enumerate(full.stages, start=1):
        (single,) = realize_model(single_collision_model(model, i)).stages
        truncated = realize_model(truncated_model(model, i)).stages
        for other in (single, truncated[-1]):
            for block, want in zip(other.unitary.blocks, stage.unitary.blocks, strict=True):
                assert same(block, want)
            # verify sweeps sub-model laws off the chain's own stages.
            for probs, want in zip(other.tensor.probs, stage.tensor.probs, strict=True):
                assert same(probs, want)
            assert same(other.propagator.matrix, stage.propagator.matrix)


# ---------------------------------------------------------------------------
# Sharing within one realization


def test_collisions_on_one_spectrum_share_shells_and_tables(monkeypatch):
    calls = []
    original = chain.build_energy_shells

    def counted(system, ancilla):
        calls.append(ancilla)
        return original(system, ancilla)

    monkeypatch.setattr(chain, "build_energy_shells", counted)
    realize_model.cache_clear()
    model = mixed_chain()
    realized = realize_model(model)
    realize_model.cache_clear()
    assert sorted(calls, key=lambda s: s.levels) == sorted(
        set(anc.spectrum for anc in model.ancillas), key=lambda s: s.levels
    )

    by_spectrum: dict[Spectrum, list[int]] = {}
    for i, anc in enumerate(model.ancillas):
        by_spectrum.setdefault(anc.spectrum, []).append(i)
    assert set(realized.heat_ids) == {model.system, *by_spectrum}  # one table per spectrum
    for collisions in by_spectrum.values():
        first = collisions[0]
        for i in collisions:
            assert realized.stages[i].shells is realized.stages[first].shells
            ids = realized.heat_ids[model.ancillas[i].spectrum]
            assert ids is realized.heat_ids[realized.stages[first].spectrum]
            assert realized.stages[i].tensor.position is realized.stages[first].tensor.position
    assert realized.heat_ids[model.system].flags.writeable is False
    for i, stage in enumerate(realized.stages):
        assert realized.heat_ids[stage.spectrum].flags.writeable is False
        for array in (*stage.unitary.blocks, *stage.tensor.probs, stage.propagator.matrix):
            assert array.flags.writeable is False
        for array in unitaries._shell_index(stage.shells)[:5]:
            assert array.flags.writeable is False


# ---------------------------------------------------------------------------
# The exit-sum check is held to 1e-10, and errors come in collision order.


def off_by_1e_10_block() -> list[list[complex]]:
    """A 3x3 block within 1e-10 of unitary whose first exit sum is about 1 + 1.6e-10.

    ``B = (I + D) F`` with ``D`` off-diagonal 4e-11 and ``F`` the DFT: ``B B^dag``
    misses ``I`` by 8e-11, but ``F``'s first column is the top eigenvector of
    ``D``, so ``(B^dag B)[0, 0] = (1 + 8e-11)^2``.
    """
    d = np.full((3, 3), 4e-11)
    np.fill_diagonal(d, 0.0)
    return ((np.eye(3) + d) @ np.array(dft(3))).tolist()


def test_explicit_block_with_exit_sums_off_by_more_than_1e_10_is_rejected():
    third = spectrum("0", "1/3", "2/3")
    spec = UnitarySpec.explicit({"2/3": off_by_1e_10_block()})
    shells = build_energy_shells(third, third)
    unitary = unitaries.realize_unitary(shells, spec, 0)  # passes the unitarity check
    assert unitaries.validate_energy_preservation(unitary).max_residual <= 1e-10
    with pytest.raises(ModelError, match="block at total energy 2/3 is not unitary"):
        unitaries.transition_tensor(unitary)
    bad_swap = (spectrum("0", "2"), 1.0, UnitarySpec.partial_swap(0.3))
    model = chain_of(third, [(third, 1.0, UnitarySpec.haar()), (third, 1.0, spec), bad_swap])
    with pytest.raises(ModelError, match="block at total energy 2/3 is not unitary"):
        realize_model(model)


# ---------------------------------------------------------------------------
# The via-ancilla layer tables against layers built outcome by outcome from
# ``reference_outcomes`` and the stage populations, so that
# ``test_coded_laws.reference_augmented_paths``, which reads the package's
# layers, rests on an independent check of them.


def reference_layers(model: ModelConfig) -> list[dict]:
    realized = realize_model(model)
    lookup = {value: i for i, value in enumerate(realized.heat_values)}
    heat_dtype = np.min_scalar_type(len(lookup) - 1)
    dim = model.system.dim
    layers = []
    for stage in realized.stages:
        table = reference_outcomes(stage.shells, stage.tensor.probs)
        energies = stage.spectrum.levels
        q = stage.ancilla_state.populations.tolist()
        steps = [
            [
                (alpha_out, lookup[energies[n_out] - energies[n_in]], q[n_in], w, (n_in, n_out))
                for n_in in range(len(q))
                if q[n_in] != 0.0
                for alpha_out, n_out, w in table[(alpha, n_in)]
            ]
            for alpha in range(dim)
        ]
        fan = [len(out) for out in steps]
        flat = [step for out in steps for step in out]
        layers.append({
            "first": [sum(fan[:alpha]) for alpha in range(dim)],
            "fan": fan,
            "level": np.array([s[0] for s in flat], dtype=np.min_scalar_type(dim - 1)),
            "heat": np.array([s[1] for s in flat], dtype=heat_dtype),
            "factors": [[s[2] for s in flat], [s[3] for s in flat]],
            "moves": [s[4] for s in flat],
        })
    return layers


def assert_layers_match_reference(model: ModelConfig) -> None:
    layers = heatstats._ancilla_layers(realize_model(model))
    expected = reference_layers(model)
    assert len(layers) == len(expected)
    for layer, want in zip(layers, expected):
        assert layer.first.tolist() == want["first"]
        assert layer.fan.tolist() == want["fan"]
        for name in ("level", "heat"):
            got = getattr(layer, name)
            assert got.dtype == want[name].dtype and got.tobytes() == want[name].tobytes(), name
        assert len(layer.factors) == 2
        for factor, values in zip(layer.factors, want["factors"]):
            assert [x.hex() for x in factor.tolist()] == [x.hex() for x in values]
        assert [tuple(map(type, move)) for move in layer.moves] == [(int, int)] * len(layer.moves)
        assert layer.moves == want["moves"]


@given(models())
def test_ancilla_layers_match_reference(model):
    assert_layers_match_reference(model)


@pytest.mark.parametrize("name", sorted(TRAJECTORY_MODELS))
def test_ancilla_layers_match_reference_on_large_models(name):
    assert_layers_match_reference(TRAJECTORY_MODELS[name])
