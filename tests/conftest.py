"""Shared pytest settings for the test suite."""

from hypothesis import settings

# Every run draws the same hypothesis examples (derandomize also turns off
# the example database), so a tier-1 result, and each mutant's kill list in
# scripts/mutants.py, which copies tests/, does not change from run to run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
