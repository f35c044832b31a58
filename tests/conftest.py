"""Test-suite settings: hypothesis draws the same examples on every run, so a
failure replays as it was seen and the suite's outcome does not vary."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
