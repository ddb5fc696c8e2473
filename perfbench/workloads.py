"""Workload generators for the heatchain benchmark.

A workload is a fixed *round*: an ordered list of operation slots, each a
subcommand on a chain of a fixed size.  Every round draws fresh documents
from ``(workload, seed, round, slot)``, so no two operations share a model
and neither the ``realize_model`` cache nor the sampler-table cache can
serve one operation with another's work.  What the seed varies (betas,
angles, Haar seeds, sampler seeds) leaves the amount of work per slot
unchanged, which keeps runs with different seeds comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Resonant chains keep every ancilla beta within this distance of the system
# beta.  The exchange ratio of a tuple is then at most exp(0.4 N) < 100 for
# N <= 10, so a forgiven one-sided key (mass < 1e-13) can never face a pruned
# partner (< 1e-15): the timed verify operations cannot hit the false FAIL of
# ROADMAP item 3, which the stiff-chain probe shows instead.
RESONANT_BETA_GAP = 0.4
PARTIAL_SWAP_THETA = (0.5, 1.1)  # radians; keeps every jump probability >= 0.2


@dataclass(frozen=True)
class Op:
    """One CLI invocation on its own model document."""

    op_id: str
    slot: str  # timing bucket: the same slot in every round does the same work
    command: str  # heatchain subcommand
    document: dict
    args: tuple[str, ...] = ()  # arguments after the model path
    outputs: tuple[str, ...] = ()  # files the command writes
    expected_exit: int = 0
    shots: int = 0  # sample only: --shots, --seed and whether it dumps
    seed: int = 0
    dump: bool = False

    @property
    def model_file(self) -> str:
        return f"{self.op_id}.model.json"

    @property
    def argv(self) -> list[str]:
        return [self.command, self.model_file, *self.args]

    @property
    def kind(self) -> str:
        """Subcommand, with dumping sample runs reported on their own."""
        return "sample_dump" if self.dump else self.command


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round_ops: Callable[[int, int], list[Op]]  # (seed, round) -> operations
    probes: Callable[[], list[Op]] = lambda: []


def _rng(workload: str, seed: int, rnd: int, slot: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}/{slot}")


def _qubit(beta: float, theta: float) -> dict:
    return {
        "energies": ["0", "1"],
        "beta": beta,
        "unitary": {"kind": "partial_swap", "theta": theta},
    }


def _resonant_chain(rng: random.Random, n: int, beta_gap: float) -> dict:
    beta_s = rng.uniform(0.8, 1.2)
    return {
        "system": {"energies": ["0", "1"], "beta": beta_s},
        "ancillas": [
            _qubit(beta_s + rng.uniform(-beta_gap, beta_gap), rng.uniform(*PARTIAL_SWAP_THETA))
            for _ in range(n)
        ],
        "master_seed": rng.randrange(2**63),
    }


def _thirds(d: int) -> list[str]:
    return [f"{k}/3" for k in range(d)]


def _haar_chain(rng: random.Random, d: int, n: int, betas: tuple[float, float]) -> dict:
    return {
        "system": {"energies": _thirds(d), "beta": 1.0},
        "ancillas": [
            {"energies": _thirds(d), "beta": rng.uniform(*betas), "unitary": {"kind": "haar"}}
            for _ in range(n)
        ],
        "master_seed": rng.randrange(2**63),
    }


def _augmented_bound(document: dict) -> int:
    """The loose augmented-path bound the program caps on (ROADMAP item 3).

    Documents set ``enumeration_cap`` to it, as any user must today.
    """
    d_s = len(document["system"]["energies"])
    bound = 1
    for anc in document["ancillas"]:
        bound *= d_s * len(anc["energies"]) ** 2
    return bound


def _widest_shell(document: dict) -> int:
    """Largest number of joint levels sharing one exact total energy."""
    system = [Fraction(e) for e in document["system"]["energies"]]
    widest = 1
    for anc in document["ancillas"]:
        totals: dict[Fraction, int] = {}
        for e_a in system:
            for e_n in anc["energies"]:
                total = e_a + Fraction(e_n)
                totals[total] = totals.get(total, 0) + 1
        widest = max(widest, max(totals.values()))
    return widest


# ---------------------------------------------------------------------------
# resonant-deep: exact and verify on long qubit partial-swap chains.

RESONANT_EXACT_N = (10, 11, 12)
# verify grows 3x per collision (the augmented route); N=8, 9 keep each
# operation near a second, so a 30 s run holds about ten rounds.
RESONANT_VERIFY_N = (8, 9)


def _resonant_round(seed: int, rnd: int) -> list[Op]:
    ops = []
    sizes = [("exact", n) for n in RESONANT_EXACT_N] + [("verify", n) for n in RESONANT_VERIFY_N]
    for k, (command, n) in enumerate(sizes):
        op_id = f"r{rnd}-s{k}"
        doc = _resonant_chain(_rng("resonant-deep", seed, rnd, k), n, RESONANT_BETA_GAP)
        doc["enumeration_cap"] = _augmented_bound(doc)
        if command == "exact":
            outputs = (f"{op_id}.csv", f"{op_id}.backward.csv")
        else:
            outputs = (f"{op_id}.report.json",)
        ops.append(
            Op(op_id, f"{command}-N{n}", command, doc, ("--out", outputs[0]), outputs)
        )
    return ops


def _resonant_probes() -> list[Op]:
    """Both reproductions of ROADMAP item 3, expected to pass once fixed.

    They are not timed and not counted as attempted operations; the run
    reports their exit codes so the defects stay visible.
    """
    quarter = math.pi / 4
    stiff = {
        "system": {"energies": ["0", "1"], "beta": 1.0},
        "ancillas": [_qubit(b, quarter) for b in (60.0, 0.5, 30.0)],
        "master_seed": 1,
    }
    default_cap = {
        "system": {"energies": ["0", "1"], "beta": 1.0},
        "ancillas": [_qubit(1.0 + 0.1 * k, quarter) for k in range(9)],
        "master_seed": 1,
    }
    return [
        Op("probe-stiff-chain", "probe", "verify", stiff),
        Op("probe-nine-collisions-default-cap", "probe", "verify", default_cap),
    ]


# ---------------------------------------------------------------------------
# sample-long: Monte Carlo on chains far beyond exact enumeration.

# (label, spectrum dimension, N, shots, dump).  Shot counts are small enough
# for about eight rounds in a 30 s run: per-operation times on a shared host
# jitter by tens of percent, and only a median over many rounds is steady.
SAMPLE_SLOTS = (
    ("qubit-N30", 2, 30, 5000, False),
    ("qubit-N40", 2, 40, 5000, True),
    ("qubit-N60", 2, 60, 2500, False),
    ("haar-d3-N30", 3, 30, 2500, True),
)
SAMPLE_BETA_GAP = 0.3  # keeps exp(-sigma) light-tailed, so its stderr is honest


def _sample_round(seed: int, rnd: int) -> list[Op]:
    ops = []
    for k, (label, d, n, shots, dump) in enumerate(SAMPLE_SLOTS):
        rng = _rng("sample-long", seed, rnd, k)
        op_id = f"r{rnd}-s{k}"
        if d == 2:
            doc = _resonant_chain(rng, n, SAMPLE_BETA_GAP)
        else:
            doc = _haar_chain(rng, d, n, (1.0 - SAMPLE_BETA_GAP, 1.0 + SAMPLE_BETA_GAP))
        sampler_seed = rng.randrange(2**63)
        args = ["--shots", str(shots), "--seed", str(sampler_seed)]
        outputs: tuple[str, ...] = ()
        if dump:
            outputs = (f"{op_id}.jsonl", f"{op_id}.csv")
            args += ["--dump", outputs[0], "--out", outputs[1]]
        slot = f"sample{'_dump' if dump else ''}-{label}"
        ops.append(
            Op(op_id, slot, "sample", doc, tuple(args), outputs,
               shots=shots, seed=sampler_seed, dump=dump)
        )
    return ops


# ---------------------------------------------------------------------------
# haar-wide: validate, exact and entropy on wide Haar shells.

HAAR_SIZES = ((3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5))
HAAR_COMMANDS = ("validate", "exact", "entropy")
# entropy at d=4, N=5 (667k augmented paths) takes about 2 s.  One operation
# that long straddles several of the host's speed bursts, which the reference
# samples around it cannot see, and it alone would set the round's spread.
HAAR_SKIPPED = {("entropy", 4, 5)}


def _haar_round(seed: int, rnd: int) -> list[Op]:
    slots = [
        (command, d, n)
        for d, n in HAAR_SIZES
        for command in HAAR_COMMANDS
        if (command, d, n) not in HAAR_SKIPPED
    ]
    ops = []
    for k, (command, d, n) in enumerate(slots):
        op_id = f"r{rnd}-s{k}"
        doc = _haar_chain(_rng("haar-wide", seed, rnd, k), d, n, (0.5, 2.0))
        doc["enumeration_cap"] = _augmented_bound(doc)
        expected = 0
        if command == "exact":
            # JSON here, CSV on resonant-deep: both serializers are timed.
            outputs = (f"{op_id}.json", f"{op_id}.backward.json")
            args = ("--format", "json", "--out", outputs[0])
        else:
            outputs = (f"{op_id}.report.json",)
            args = ("--out", outputs[0])
        if command == "validate" and _widest_shell(doc) > 2:
            # Thermal detailed balance is not guaranteed on shells wider
            # than two; the failing check is the documented physics.
            expected = 1
        ops.append(Op(op_id, f"{command}-d{d}-N{n}", command, doc, args, outputs, expected))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "resonant-deep",
            "exact and verify on qubit partial-swap chains, N=8-12: Fraction-keyed "
            "enumeration and verify_* loops; sampler idle, realization trivial",
            _resonant_round,
            _resonant_probes,
        ),
        Workload(
            "sample-long",
            "sample on qubit chains N=30-60 and a d=3 Haar chain, plain and with "
            "--dump: sampler and dump serialization; exact enumeration idle",
            _sample_round,
        ),
        Workload(
            "haar-wide",
            "validate, exact and entropy on d=3,4 Haar chains, N=3-5: Haar QR, "
            "realization and wide augmented enumeration; sampler idle",
            _haar_round,
        ),
    )
}
