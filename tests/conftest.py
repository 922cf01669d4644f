"""Shared pytest settings for the test suite."""

import os

from hypothesis import settings

# Every run draws the same hypothesis examples (derandomize also turns off
# the example database), so a tier-1 result, and each mutant's kill list in
# scripts/mutants.py, which copies tests/, does not change from run to run.
settings.register_profile("derandomized", derandomize=True)
# HYPOTHESIS_PROFILE=randomized draws fresh examples on every run, ten times
# as many: the loss core's tests ask for a multiple of the profile's count.
# Run it several times after a change to numerics, rectify or schedule.
settings.register_profile("randomized", derandomize=False, max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))
