"""Shared pytest settings for the test suite."""

from hypothesis import settings

# Every run draws the same hypothesis examples (derandomize also turns off
# the example database), so a tier-1 result, and each mutant's kill list in
# scripts/mutants.py, which copies tests/, does not change from run to run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# A case parametrized over a mode is named by the mode's long name, as the
# suite has always named it, so each case keeps one id while the library
# itself knows only the --mode names.
MODE_IDS = {
    "full": "full",
    "eliminate": "eliminate_only",
    "rectify": "rectify_only",
    "vanilla": "vanilla_kd",
    "step-b": "step_b_ablation",
    "fixed-gamma": "fixed_gamma",
}


def pytest_make_parametrize_id(config, val, argname):
    if argname == "mode" and isinstance(val, str):
        return MODE_IDS.get(val)
    return None
