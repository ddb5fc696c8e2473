"""The package's forward law against the 60-digit reference route (``decimal_oracle``).

Each gate runs on every model below:

1. every key ``exact_forward_joint`` keeps carries the oracle's mass to
   1e-12 relative;
2. every key it drops carries oracle mass below ``PRUNE_THRESHOLD``;
3. the oracle checks itself: with the time-reversed propagators ``M~``
   swept in reverse collision order, the joint exchange identity holds to
   1e-50 on every key, and no key is one-sided;
4. so do its product form and the peel-off of the last collision, and no
   key of a single-collision law or of a law without the last collision is
   one-sided.

The package's backward law is not compared here: it reuses the forward
propagators, which is the time-reversed protocol only when each one keeps
detailed balance at its ancilla's beta.
"""

from decimal import Decimal
from pathlib import Path

import pytest

from decimal_oracle import factor_laws, factor_residuals, identity_residuals, laws, unpaired
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


def test_oracle_laws_keep_the_product_form_and_the_peel_off(case):
    model, _, (forward, backward) = case
    factors = factor_laws(model)
    for single, single_rev in factors.singles:
        assert not unpaired(single, single_rev)
    assert set(factors.shorter_forward) == {key[:-1] for key in forward}
    assert not unpaired(factors.shorter_forward, factors.shorter_backward)
    product, peel_off = factor_residuals(forward, backward, factors)
    assert product < Decimal("1e-50")
    assert peel_off < Decimal("1e-50")
