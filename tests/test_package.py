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


def test_no_module_imports_a_private_numpy_or_scipy_module():
    """No module of the package imports an underscore-prefixed numpy or
    scipy module (such as `scipy.sparse._sparsetools`), whose names and
    signatures may change in any release."""
    import ast
    import pathlib

    private = []
    for path in sorted(pathlib.Path(mmfsim.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] in ("numpy", "scipy") and any(p.startswith("_") for p in parts[1:]):
                    private.append(f"{path.name}: {name}")
    assert not private, private


def test_the_command_line_imports_only_the_scipy_it_runs():
    """`import mmfsim.cli` in a fresh interpreter loads of scipy only
    `scipy.linalg` (the solver's BLAS and the x-axis dgemm): the 1D
    operators are assembled in numpy, the sounding's PCHIP and the
    filter's erfc are the package's own, scipy.sparse costs a run about
    2 MB of imports, and scipy.interpolate, scipy.special and what they
    pull in (optimize, spatial, fft) about 21 MB and 0.4 s."""
    import json
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(mmfsim.__file__))
    probe = ("import json, sys; import mmfsim.cli; "
             "print(json.dumps(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules "
             "if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    loaded = set(json.loads(done.stdout.strip().splitlines()[-1]))
    for heavy in ("scipy.sparse", "scipy.interpolate", "scipy.special", "scipy.optimize",
                  "scipy.spatial", "scipy.fft"):
        assert heavy not in loaded, heavy
    assert loaded <= {"scipy.linalg", "scipy.version"}, loaded
