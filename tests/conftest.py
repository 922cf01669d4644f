"""Shared pytest settings for the test suite."""

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
