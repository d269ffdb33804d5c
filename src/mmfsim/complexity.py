"""Closed-form cost model: flops, communicated bytes, arithmetic intensity.

Compares a standard (single-grid) run against the split-grid configuration
at matched fine resolution.  The per-point kernel constants (816, 4635 for
flops; 784 bytes per boundary point per step) are model constants, not
measurements: nothing in here instruments the actual code.  The vertical
direction is never partitioned across ranks, so communicating boundaries
are lateral only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import COUNT, POSITIVE, ConfigurationError, Interval, check, check_settings, setting

# model constants: flop kernel is Np^3 (FLOP_A * Np + FLOP_B) per element
# per step, and each lateral boundary point moves BYTES_PER_POINT bytes
# per step (all prognostic fields, both directions, 8 bytes per number)
FLOP_A = 816.0
FLOP_B = 4635.0
BYTES_PER_POINT = 784.0

_MODES = ("standard", "mmf")
_RATIO = Interval("[1, inf)")


@dataclass(frozen=True)
class CostModelInput:
    """Problem description for the closed-form cost model (the cost.* keys).

    Lengths and grid spacings are nodal (fine-grid) values in metres; the
    element width is ``(n_p - 1) * spacing``.  The refinement ratios
    ``r_t, r_x, r_z`` are coarse/fine ratios, all >= 1; ranks factor as
    ``n_r = n_rx * n_ry``.
    """

    n_p: int = setting(int, Interval("[2, inf)"), key="cost.n_p")  # points per element per direction
    l_x: float = setting(float, POSITIVE, key="cost.l_x")         # domain lengths, m
    l_y: float = setting(float, POSITIVE, key="cost.l_y")
    l_z: float = setting(float, POSITIVE, key="cost.l_z")
    dx: float = setting(float, POSITIVE, key="cost.dx")           # fine nodal spacings, m
    dy: float = setting(float, POSITIVE, key="cost.dy")
    dz: float = setting(float, POSITIVE, key="cost.dz")
    duration: float = setting(float, POSITIVE, key="cost.duration")  # simulated time, s
    dt: float = setting(float, POSITIVE, key="cost.dt")           # fine time step, s
    r_t: float = setting(float, _RATIO, 1.0, "cost.r_t")
    r_x: float = setting(float, _RATIO, 1.0, "cost.r_x")
    r_z: float = setting(float, _RATIO, 1.0, "cost.r_z")
    n_rx: int = setting(int, COUNT, 1, "cost.n_rx")
    n_ry: int = setting(int, COUNT, 1, "cost.n_ry")

    def __post_init__(self):
        check_settings(self)

    @property
    def n_r(self) -> int:
        return self.n_rx * self.n_ry

    @property
    def order(self) -> int:
        return self.n_p - 1


def element_counts(inp: CostModelInput) -> tuple:
    """Element counts (standard, coarse-of-split) at matched resolution."""
    n = inp.order
    vol = inp.l_x * inp.l_y * inp.l_z
    ne_s = vol / (n ** 3 * inp.dx * inp.dy * inp.dz)
    ne_m = ne_s / (inp.r_x * inp.r_z)
    return ne_s, ne_m


def step_counts(inp: CostModelInput) -> tuple:
    """Step counts (standard, coarse-of-split) over the run duration."""
    nt_s = inp.duration / inp.dt
    nt_m = nt_s / inp.r_t
    return nt_s, nt_m


def flops(inp: CostModelInput, mode: str = "standard") -> float:
    """Total floating-point operations for the whole run."""
    check("mode", mode, str, _MODES)
    ne_s, ne_m = element_counts(inp)
    nt_s, nt_m = step_counts(inp)
    kernel = inp.n_p ** 3 * (FLOP_A * inp.n_p + FLOP_B)
    if mode == "standard":
        return nt_s * ne_s * kernel
    # coarse grid plus one embedded fine grid per coarse column: the fine
    # work exceeds the coarse by a factor r_t*r_x*r_z*n_p
    return nt_m * ne_m * (1.0 + inp.r_t * inp.r_x * inp.r_z * inp.n_p) * kernel


def boundary_points(inp: CostModelInput, mode: str = "standard") -> float:
    """Modelled lateral-boundary point count per rank."""
    check("mode", mode, str, _MODES)
    n = inp.order
    nez = inp.l_z / (n * inp.dz)
    nex = inp.l_x / (inp.n_rx * n * inp.dx)
    ney = inp.l_y / (inp.n_ry * n * inp.dy)
    if mode == "standard":
        return 2.0 * (nex + ney) * nez * inp.n_p ** 2
    return 2.0 * (nex / inp.r_x + ney) * (nez / inp.r_z) * inp.n_p ** 2


def comm_bytes(inp: CostModelInput, mode: str = "standard") -> float:
    """Total bytes moved between ranks over the whole run."""
    check("mode", mode, str, _MODES)
    nt_s, nt_m = step_counts(inp)
    nt = nt_s if mode == "standard" else nt_m
    return nt * inp.n_r * BYTES_PER_POINT * boundary_points(inp, mode)


def arithmetic_intensity(inp: CostModelInput) -> tuple:
    """(standard, split) flop/byte ratios, computed literally as F/B."""
    return (flops(inp, "standard") / comm_bytes(inp, "standard"),
            flops(inp, "mmf") / comm_bytes(inp, "mmf"))


def simplified_intensity(inp: CostModelInput) -> tuple:
    """Reduced closed forms valid for a symmetric setup.

    Requires n_rx == n_ry, l_x == l_y, dx == dy, r_x == r_t and r_z == 1;
    raises ConfigurationError otherwise.  The coefficients 0.520 and 2.956
    are the rounded ratios 816/1568 and 4635/1568, so agreement with the
    general F/B is to about 0.1%, not machine precision.
    """
    if inp.n_rx != inp.n_ry:
        raise ConfigurationError("simplified form requires n_rx == n_ry")
    if inp.l_x != inp.l_y or inp.dx != inp.dy:
        raise ConfigurationError("simplified form requires l_x == l_y, dx == dy")
    if inp.r_x != inp.r_t or inp.r_z != 1.0:
        raise ConfigurationError("simplified form requires r_x == r_t, r_z == 1")
    r = inp.r_x
    np_ = inp.n_p
    width = inp.n_rx * inp.order * inp.dx / inp.l_x
    kernel = np_ * (0.520 * np_ + 2.956)
    i_s = kernel / (2.0 * width)
    i_m = (1.0 / r + r * np_) / ((1.0 / r + 1.0) * width) * kernel
    return i_s, i_m


@dataclass(frozen=True)
class CostReport:
    """Evaluated cost model, standard and split side by side."""

    inputs: CostModelInput
    flops_standard: float
    flops_mmf: float
    bytes_standard: float
    bytes_mmf: float
    intensity_standard: float
    intensity_mmf: float

    def rows(self) -> list:
        """(name, standard, mmf) rows for tabular output."""
        return [
            ("flops", self.flops_standard, self.flops_mmf),
            ("bytes", self.bytes_standard, self.bytes_mmf),
            ("intensity", self.intensity_standard, self.intensity_mmf),
        ]


def cost_report(inp: CostModelInput) -> CostReport:
    f_s = flops(inp, "standard")
    f_m = flops(inp, "mmf")
    b_s = comm_bytes(inp, "standard")
    b_m = comm_bytes(inp, "mmf")
    return CostReport(
        inputs=inp,
        flops_standard=f_s, flops_mmf=f_m,
        bytes_standard=b_s, bytes_mmf=b_m,
        intensity_standard=f_s / b_s, intensity_mmf=f_m / b_m,
    )
