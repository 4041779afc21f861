from hypothesis import HealthCheck, settings

# One profile for every property test: derandomized, so a Tier-1 run is
# deterministic, and without a per-example deadline, since exact rationals
# make example times uneven.
settings.register_profile(
    "lzlab",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lzlab")
