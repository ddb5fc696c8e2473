"""Shared test settings.

Property tests run a fixed, derandomized set of examples with no deadline,
so the suite is deterministic and does not flake on a slow or shared host.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "heatchain",
    deadline=None,
    derandomize=True,
    database=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("heatchain")
