"""A 60-digit reference route for the joint heat laws, independent of the package's sweep.

Gibbs weights come from the exact rational energies, and the jump
probabilities are the realized float64 ``|U|^2`` of each stage
(``stage.tensor.probs``), converted to ``Decimal`` exactly.  Every system
path is summed into exact heat keys in ``decimal`` arithmetic at 60
digits: nothing is pruned and nothing underflows.  It shares no sweep,
grouping, pruning or float summation with ``heatchain``, so where the two
agree the package computes the physics, not only its own bits.

Both propagators are built from the same jump probabilities ``R``:

    forward        M[b <- a] = sum_{n, n'} q(n)  R(b, n' | a, n)
    time-reversed  M~[a <- b] = sum_{n, n'} q(n') R(b, n' | a, n)

Along every augmented path the forward weight over the time-reversed one
is ``exp(sum_i (beta_i - beta_s) Q_i)``, so with ``M~`` swept in reverse
collision order the joint exchange identity holds key by key, to the
working precision.  So do its factored forms: a single collision from the
system's thermal state under ``M_i`` against one under ``M~_i`` gives
``exp((beta_i - beta_s) q)``, which makes the product form exact, and the
forward law of stages ``1 .. N-1`` against the time-reversed law of stages
``N-1 .. 1`` gives the rest, which makes the peel-off of the last collision
exact.  The shorter forward law is swept, not summed off the full one: a
shell's float64 jump probabilities sum to 1 only to about 1e-16, so summed
masses would differ from swept ones by about that much.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple, Sequence

from heatchain import ModelConfig, realize_model

PRECISION = 60

HeatKey = tuple[Fraction, ...]
Matrix = list[list[Decimal]]  # [to][from]


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def gibbs(levels: Sequence[Fraction], beta: float) -> list[Decimal]:
    """Thermal populations ``exp(-beta E) / Z`` of exact energies at a float64 ``beta``."""
    weights = [(-Decimal(beta) * _decimal(e)).exp() for e in levels]
    total = sum(weights)
    return [w / total for w in weights]


def propagators(model: ModelConfig) -> list[tuple[Matrix, Matrix]]:
    """``(M, M~)`` per collision, in collision order, both indexed ``[to][from]``."""
    realized = realize_model(model)
    d = model.system.dim
    out = []
    for stage in realized.stages:
        q = gibbs(stage.spectrum.levels, stage.beta)
        forward = [[Decimal(0)] * d for _ in range(d)]
        time_reversed = [[Decimal(0)] * d for _ in range(d)]
        for shell, probs in zip(stage.tensor.shells, stage.tensor.probs):
            for j_in, (a, n) in enumerate(shell.members):
                for j_out, (b, n_out) in enumerate(shell.members):
                    jump = Decimal(float(probs[j_out, j_in]))
                    forward[b][a] += q[n] * jump
                    time_reversed[a][b] += q[n_out] * jump
        out.append((forward, time_reversed))
    return out


def sweep(start: Sequence[Decimal], matrices: Sequence[Matrix], levels: Sequence[Fraction]) -> dict:
    """Every path's mass, summed by its heat key; a step ``a -> b`` has heat ``E_a - E_b``."""
    states: dict[tuple[int, HeatKey], Decimal] = {(a, ()): p for a, p in enumerate(start)}
    for matrix in matrices:
        following: dict[tuple[int, HeatKey], Decimal] = {}
        for (a, key), mass in states.items():
            for b, row in enumerate(matrix):
                if row[a]:
                    state = (b, key + (levels[a] - levels[b],))
                    following[state] = following.get(state, Decimal(0)) + mass * row[a]
        states = following
    law: dict[HeatKey, Decimal] = {}
    for (_, key), mass in states.items():
        law[key] = law.get(key, Decimal(0)) + mass
    return law


def laws(model: ModelConfig) -> tuple[dict, dict]:
    """The forward law, and the time-reversed law (``M~`` in reverse collision order, keys in that order)."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        pairs = propagators(model)
        start = gibbs(model.system.levels, model.system_beta)
        levels = model.system.levels
        forward = sweep(start, [m for m, _ in pairs], levels)
        backward = sweep(start, [m_rev for _, m_rev in reversed(pairs)], levels)
    return forward, backward


class FactorLaws(NamedTuple):
    """The laws the product form and the peel-off of the last collision compare the joint laws with."""

    singles: list[tuple[dict, dict]]  # per collision: its single law under M_i, and under M~_i
    shorter_forward: dict  # the forward law of stages 1 .. N-1
    shorter_backward: dict  # the time-reversed law of stages N-1 .. 1


def factor_laws(model: ModelConfig) -> FactorLaws:
    """Each collision's single laws, and the forward and time-reversed laws without the last collision."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        pairs = propagators(model)
        start = gibbs(model.system.levels, model.system_beta)
        levels = model.system.levels
        return FactorLaws(
            singles=[(sweep(start, [m], levels), sweep(start, [m_rev], levels)) for m, m_rev in pairs],
            shorter_forward=sweep(start, [m for m, _ in pairs[:-1]], levels),
            shorter_backward=sweep(start, [m_rev for _, m_rev in reversed(pairs[:-1])], levels),
        )


def _partner(key: HeatKey) -> HeatKey:
    return tuple(-q for q in reversed(key))


def unpaired(forward: dict, backward: dict) -> set:
    """The keys of ``forward`` with no partner in ``backward``, and the partners of ``backward``'s with no key."""
    return set(forward) ^ {_partner(key) for key in backward}


def identity_residuals(model: ModelConfig, forward: dict, backward: dict) -> tuple[Decimal, set]:
    """The largest joint-identity residual over the paired keys, and the one-sided keys.

    The residual of a forward key ``Q`` is
    ``|ln P_F(Q) - ln P_B(-Q reversed) - sum_i (beta_i - beta_s) Q_i|``.
    """
    worst = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        gaps = [Decimal(anc.beta) - Decimal(model.system_beta) for anc in model.ancillas]
        for key, mass in forward.items():
            partner = backward.get(_partner(key))
            if partner is None:
                continue
            exponent = sum(gap * _decimal(q) for gap, q in zip(gaps, key))
            worst = max(worst, abs(mass.ln() - partner.ln() - exponent))
    return worst, unpaired(forward, backward)


def factor_residuals(forward: dict, backward: dict, factors: FactorLaws) -> tuple[Decimal, Decimal]:
    """The largest product-form and peel-off residuals over the paired keys of the joint laws.

    With ``r(P, P~, Q) = ln P(Q) - ln P~(-Q reversed)``, the product-form
    residual of a forward key ``Q`` is ``|r(P_F, P_B, Q) - sum_i r(p_i, p~_i, Q_i)|``
    and the peel-off residual is ``|r(P_F, P_B, Q) - r(P_F', P_B', Q_1..Q_{N-1})
    - r(p_N, p~_N, Q_N)|``, where ``P_F'`` is the forward law of stages
    ``1 .. N-1`` and ``P_B'`` the time-reversed law of stages ``N-1 .. 1``.
    """
    singles, shorter_forward, shorter_backward = factors
    product = peel_off = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = PRECISION

        def ratio(law: dict, reversed_law: dict, key: HeatKey) -> Decimal:
            return law[key].ln() - reversed_law[_partner(key)].ln()

        for key in forward:
            if _partner(key) not in backward:
                continue
            joint = ratio(forward, backward, key)
            terms = sum(ratio(single, single_rev, (q,)) for (single, single_rev), q in zip(singles, key))
            product = max(product, abs(joint - terms))
            head = ratio(shorter_forward, shorter_backward, key[:-1]) + ratio(*singles[-1], key[-1:])
            peel_off = max(peel_off, abs(joint - head))
    return product, peel_off
