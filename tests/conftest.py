"""One hypothesis profile for the whole suite: examples come from a fixed
seed, so every property test draws the same cases on every run, and no
per-example deadline makes a slow machine fail a test."""

from hypothesis import settings

settings.register_profile("dapien", derandomize=True, deadline=None)
settings.load_profile("dapien")
