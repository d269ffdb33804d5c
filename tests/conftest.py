import numpy as np
import pytest

from mmfsim.grid import build_box_mesh
from mmfsim.dynamics import DEFAULT_CONSTANTS, Sounding, build_reference


def same_bits(a, b):
    """Float arrays equal bit for bit: of one shape, a NaN equal to a NaN
    of the same bits, and 0.0 unequal to -0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def isothermal_sounding(T0=300.0, z_top=26e3, qv=0.004, n=400):
    """Analytic isothermal column; hydrostatic pressure is exact."""
    c = DEFAULT_CONSTANTS
    z = np.linspace(0.0, z_top, n)
    p = 1e5 * np.exp(-c.g * z / (c.R_d * T0))
    theta = T0 * (1e5 / p) ** (c.R_d / c.c_p)
    return Sounding(z=z, theta=theta, qv=np.full(n, qv),
                    u=np.zeros(n), v=np.zeros(n), p_surf=1e5)


@pytest.fixture(scope="session")
def unit_mesh_2d():
    return build_box_mesh((1.0, 1.0), (3, 2), (4, 3))


@pytest.fixture(scope="session")
def unit_mesh_3d():
    return build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2), (3, 3, 3))


@pytest.fixture(scope="session")
def small_mesh():
    """Periodic-x 2D mesh at desk-like proportions, cheap enough for RHS tests."""
    return build_box_mesh((50e3, 24e3), (3, 15), (4, 4), periodicity=(True,))


@pytest.fixture(scope="session")
def small_reference(small_mesh):
    return build_reference(isothermal_sounding(), small_mesh, DEFAULT_CONSTANTS)


def pytest_terminal_summary(terminalreporter):
    """Echo the captured "ACCEPT NN ..." verdict lines of the acceptance
    gate, so a log of a captured run keeps the scoreboard; under -s they
    were printed inline and nothing was captured."""
    lines = []
    for key in ("passed", "failed"):
        for rep in terminalreporter.stats.get(key, ()):
            if rep.when == "call":
                lines += [ln for ln in rep.capstdout.splitlines()
                          if ln.startswith("ACCEPT ")]
    if lines:
        terminalreporter.section("acceptance scoreboard")
        for ln in sorted(lines):
            terminalreporter.write_line(ln)
