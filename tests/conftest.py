from hypothesis import settings

# Property tests replay the same examples on every run, so the suite stays
# deterministic, and a slow host does not fail an example on time alone.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
