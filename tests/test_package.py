import importlib
import pkgutil

import mmfsim


def test_every_exported_name_resolves():
    """Each name a module lists in __all__ exists, so `import *` works."""
    missing = {}
    for info in pkgutil.iter_modules(mmfsim.__path__):
        module = importlib.import_module(f"mmfsim.{info.name}")
        if hasattr(module, "__all__"):
            missing[info.name] = [n for n in module.__all__ if not hasattr(module, n)]
    assert {"grid", "operators", "dynamics", "timeint", "coupling",
            "microphysics"} <= set(missing)
    assert all(not names for names in missing.values()), missing
