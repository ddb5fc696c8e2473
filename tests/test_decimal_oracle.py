"""The package's forward law against the 60-digit reference route (``decimal_oracle``).

Each gate runs on every model below:

1. every key ``exact_forward_joint`` keeps carries the oracle's mass to
   1e-12 relative;
2. every key it drops carries oracle mass below ``PRUNE_THRESHOLD``;
3. the oracle checks itself: with the time-reversed propagators ``M~``
   swept in reverse collision order, the joint exchange identity holds to
   1e-50 on every key, and no key is one-sided.

The package's backward law is not compared here: it reuses the forward
propagators, which is the time-reversed protocol only when each one keeps
detailed balance at its ancilla's beta.
"""

from decimal import Decimal
from pathlib import Path

import pytest

from decimal_oracle import identity_residuals, laws
from heatchain import exact_forward_joint
from heatchain.cli import load_model_file, parse_model
from heatchain.heatstats import PRUNE_THRESHOLD
from test_chain_laws import NAMED_MODELS
from test_coded_laws import LARGE_MODELS, ZERO_POPULATIONS
from test_golden import STIFF_CHAIN

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "models"

MODELS = {
    **NAMED_MODELS,
    **LARGE_MODELS,
    "zero-populations": ZERO_POPULATIONS,
    "resonant-demo": load_model_file(DEMOS / "resonant_chain.json")[0],
    "haar-thirds-demo": load_model_file(DEMOS / "haar_thirds.json")[0],
    "stiff-chain": parse_model(STIFF_CHAIN),
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def case(request):
    model = MODELS[request.param]
    return model, exact_forward_joint(model).entries, laws(model)


def test_kept_keys_carry_the_oracle_mass(case):
    _, kept, (forward, _) = case
    assert set(kept) <= set(forward)
    worst = max(abs(Decimal(mass) / forward[key] - 1) for key, mass in kept.items())
    assert worst < Decimal("1e-12")


def test_dropped_keys_carry_less_than_the_prune_threshold(case):
    _, kept, (forward, _) = case
    dropped = [mass for key, mass in forward.items() if key not in kept]
    assert all(mass < Decimal(PRUNE_THRESHOLD) for mass in dropped)


def test_oracle_laws_keep_the_exchange_identity(case):
    model, _, (forward, backward) = case
    worst, one_sided = identity_residuals(model, forward, backward)
    assert not one_sided
    assert worst < Decimal("1e-50")
