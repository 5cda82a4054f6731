"""Suite-wide test settings: a derandomised Hypothesis profile, so every run
draws the same examples and keeps no example database between runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
