"""The benchmark tracer wraps toricsim functions by name: each must exist."""

import importlib


def test_every_traced_name_resolves(traced_targets):
    missing = []
    for module_name, path in traced_targets:
        owner = importlib.import_module(f"toricsim.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert traced_targets and not missing, f"traced names gone: {missing}"
