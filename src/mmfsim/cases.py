"""Benchmark problem setup: squall line (2D) and supercell (3D).

Each case builds a mesh, a hydrostatic reference from a sounding, a
cosine-squared thermal bubble, sponge and filter settings, and (for the
split-grid tier) the embedded fine instances with seeded random noise.
The shipped sounding is an idealized analytic one (constant static
stability with a moist boundary layer), not observational data, so storm
evolution is checked by properties rather than field-by-field values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (FINITE, NONNEGATIVE, POSITIVE, ConfigurationError, Interval, check,
                     check_settings, setting)
from .grid import build_box_mesh
from .dynamics import (DEFAULT_CONSTANTS, PhysConstants, Sounding, SpongeConfig,
                       build_reference, read_sounding)
from .microphysics import KesslerParams, saturation_mixing_ratio
from .operators import PrognosticState
from .coupling import MmfConfig, Simulator, spawn_ssp_instances

CASE_IDS = ("squall", "supercell")
# the overrides of the embedded grids, which only the mmf tier has
MMF_OVERRIDES = ("amplitude", "substeps", "ssp_elems_x", "ssp_elems_z", "ssp_length")
TIERS = ("fine", "coarse", "mmf")
SEEDS = Interval("[0, 18446744073709551616)")  # a Philox key word has 64 bits


@dataclass(frozen=True)
class BubbleSpec:
    """Ellipsoidal cosine-squared thermal anomaly.

    ``center`` and ``semi_axes`` have one entry per mesh direction, the
    vertical last.  The anomaly is theta_c * cos^2(pi r / 2) inside the
    normalized radius cutoff r_c and exactly zero outside.
    """

    theta_c: float = setting(float, FINITE, 3.0)  # K
    r_c: float = setting(float, POSITIVE, 1.0)
    center: tuple = (75e3, 2e3)      # m
    semi_axes: tuple = (10e3, 1.5e3)  # m

    def __post_init__(self):
        check_settings(self)
        if len(self.center) != len(self.semi_axes):
            raise ConfigurationError("center and semi_axes lengths differ")
        if any(not a > 0.0 for a in self.semi_axes):
            raise ConfigurationError("bubble semi-axes must be positive")


def bubble_theta(coords: np.ndarray, spec: BubbleSpec) -> np.ndarray:
    """Evaluate the bubble on node coordinates of shape (npts, dim)."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != len(spec.center):
        raise ConfigurationError(
            f"coords shape {coords.shape} does not match a "
            f"{len(spec.center)}D bubble")
    r2 = np.zeros(coords.shape[0])
    for d, (c, a) in enumerate(zip(spec.center, spec.semi_axes)):
        r2 += ((coords[:, d] - c) / a) ** 2
    r = np.sqrt(r2)
    out = np.zeros_like(r)
    inside = r < spec.r_c
    out[inside] = spec.theta_c * np.cos(0.5 * np.pi * r[inside]) ** 2
    return out


@dataclass(frozen=True)
class PerturbationSpec:
    """Seeded uniform noise shaped by the bubble envelope.

    The node-wise value is amplitude * (theta0 / theta_scale) * U with
    U ~ Uniform[-1, 1]; the weight is clipped to [-1, 1] so the amplitude
    bound holds even if the supplied field overshoots theta_scale.  A
    non-positive theta_scale disables the envelope (weight 1 everywhere).
    """

    amplitude: float = setting(float, NONNEGATIVE, 0.3)  # K
    seed: int = setting(int, SEEDS, 0)
    theta_scale: float = setting(float, FINITE, 3.0)  # K, the bubble's theta_c

    def __post_init__(self):
        check_settings(self)


def perturbation_rng(seed: int, instance: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, instance).

    Philox with the 128-bit key set directly from the two integers, so
    the bit stream is fixed across platforms and instances never share a
    stream.
    """
    key = np.array([seed, instance], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_theta_perturbation(spec: PerturbationSpec, theta0: np.ndarray,
                              instance: int = 0) -> np.ndarray:
    """Envelope-shaped noise field over the nodes carrying ``theta0``."""
    theta0 = np.asarray(theta0, dtype=float)
    u = perturbation_rng(spec.seed, instance).uniform(-1.0, 1.0, size=theta0.shape)
    if spec.theta_scale > 0.0:
        weight = np.clip(theta0 / spec.theta_scale, -1.0, 1.0)
    else:
        weight = np.ones_like(theta0)
    return spec.amplitude * weight * u


# ---------------------------------------------------------------------------
# analytic sounding

def analytic_sounding(z_top: float = 26e3, dz: float = 100.0,
                      theta_surf: float = 300.0,
                      brunt_vaisala_sq: float = 1e-4,
                      p_surf: float = 1e5,
                      rh_bl: float = 0.98, bl_depth: float = 1500.0,
                      rh_scale: float = 3000.0, qv_max: float = 0.025,
                      u: float = 0.0, v: float = 0.0,
                      constants: PhysConstants = DEFAULT_CONSTANTS) -> Sounding:
    """Idealized convective sounding (not observational data).

    Dry potential temperature grows with constant static stability,
    theta(z) = theta_surf * exp(N^2 z / g); relative humidity is rh_bl in
    the boundary layer and decays exponentially above it.  Pressure comes
    from hydrostatic balance, iterated with the moisture since vapour
    feeds back on theta_v.
    """
    check("dz", dz, float, POSITIVE)
    if not z_top > dz:
        raise ConfigurationError(f"z_top = {z_top}: expected above dz = {dz}")
    z = np.arange(0.0, z_top + 0.5 * dz, dz)
    theta = theta_surf * np.exp(brunt_vaisala_sq * z / constants.g)
    rh = np.where(z <= bl_depth, rh_bl,
                  rh_bl * np.exp(-(z - bl_depth) / rh_scale))
    qv = np.zeros_like(z)
    pi_surf = (p_surf / constants.p00) ** (constants.R_d / constants.c_p)
    for _ in range(4):
        theta_v = theta * (1.0 + constants.eps * qv)
        integrand = -constants.g / (constants.c_p * theta_v)
        pi = pi_surf + np.concatenate(
            ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(z))))
        p = constants.p00 * pi ** (constants.c_p / constants.R_d)
        T = theta * pi
        qvs = saturation_mixing_ratio(p, T, constants)
        qv = np.minimum(rh * qvs, qv_max)
    return Sounding(z=z, theta=theta, qv=qv,
                    u=np.full_like(z, float(u)), v=np.full_like(z, float(v)),
                    p_surf=p_surf)


def _resolve_sounding(sounding) -> Sounding:
    if sounding is None:
        return analytic_sounding()
    if isinstance(sounding, Sounding):
        return sounding
    path = os.fspath(sounding)
    if not os.path.exists(path):
        raise ConfigurationError(f"sounding file not found: {path}")
    return read_sounding(path)


# ---------------------------------------------------------------------------
# case tables

@dataclass(frozen=True)
class _CaseDims:
    extents: tuple
    elems: tuple
    dt: float
    duration: float
    filter_strength: float
    bubble: BubbleSpec
    ssp_elems_x: int = 0
    ssp_elems_z: int = 0
    substeps: int = 0


_ORDER = 4
_SQUALL_BUBBLE = BubbleSpec(center=(75e3, 2e3), semi_axes=(10e3, 1.5e3))
_SUPER_BUBBLE = BubbleSpec(center=(75e3, 50e3, 2e3),
                           semi_axes=(10e3, 10e3, 2e3))
_DESK_SQUALL_BUBBLE = BubbleSpec(center=(25e3, 2e3), semi_axes=(10e3, 1.5e3))
_DESK_SUPER_BUBBLE = BubbleSpec(center=(15e3, 10e3, 2e3),
                                semi_axes=(10e3, 10e3, 2e3))

# nodal resolutions with order-4 elements:
#   squall  fine ~200 m / 200 m, coarse ~4.17 km / 400 m
#   supercell fine 500 m cubed, coarse 2.5 km / 2.5 km / 500 m
_CASES = {
    ("squall", "fine"): _CaseDims(
        (150e3, 24e3), (188, 30), 0.2, 8 * 3600.0, 0.01, _SQUALL_BUBBLE),
    ("squall", "coarse"): _CaseDims(
        (150e3, 24e3), (9, 15), 2.0, 8 * 3600.0, 0.01, _SQUALL_BUBBLE),
    ("squall", "mmf"): _CaseDims(
        (150e3, 24e3), (9, 15), 2.0, 8 * 3600.0, 0.01, _SQUALL_BUBBLE,
        ssp_elems_x=10, ssp_elems_z=30, substeps=10),
    ("supercell", "fine"): _CaseDims(
        (150e3, 100e3, 24e3), (75, 50, 12), 0.5, 9600.0, 0.04, _SUPER_BUBBLE),
    ("supercell", "coarse"): _CaseDims(
        (150e3, 100e3, 24e3), (15, 10, 12), 2.0, 9600.0, 0.04, _SUPER_BUBBLE),
    ("supercell", "mmf"): _CaseDims(
        (150e3, 100e3, 24e3), (15, 10, 12), 2.0, 9600.0, 0.04, _SUPER_BUBBLE,
        ssp_elems_x=4, ssp_elems_z=12, substeps=4),
}

# desk preset: small domain and short duration, everything else kept
_DESK_CASES = {
    ("squall", "fine"): _CaseDims(
        (50e3, 24e3), (63, 30), 0.2, 1200.0, 0.01, _DESK_SQUALL_BUBBLE),
    ("squall", "coarse"): _CaseDims(
        (50e3, 24e3), (3, 15), 2.0, 1200.0, 0.01, _DESK_SQUALL_BUBBLE),
    ("squall", "mmf"): _CaseDims(
        (50e3, 24e3), (3, 15), 2.0, 1200.0, 0.01, _DESK_SQUALL_BUBBLE,
        ssp_elems_x=10, ssp_elems_z=30, substeps=10),
    ("supercell", "fine"): _CaseDims(
        (30e3, 20e3, 24e3), (15, 10, 12), 0.5, 1200.0, 0.04,
        _DESK_SUPER_BUBBLE),
    ("supercell", "coarse"): _CaseDims(
        (30e3, 20e3, 24e3), (3, 2, 12), 2.0, 1200.0, 0.04,
        _DESK_SUPER_BUBBLE),
    ("supercell", "mmf"): _CaseDims(
        (30e3, 20e3, 24e3), (3, 2, 12), 2.0, 1200.0, 0.04,
        _DESK_SUPER_BUBBLE, ssp_elems_x=4, ssp_elems_z=12, substeps=4),
}

_SPONGE_THICKNESS = 6e3
_SPONGE_RMAX = 0.25
_NU = 200.0


@dataclass
class CaseSetup:
    """Everything the run loop needs for one configured simulation."""

    simulator: Simulator
    dt: float
    duration: float
    instances: Optional[list] = None          # SSP instances, mmf tier only
    mmf_config: Optional[MmfConfig] = None

    @property
    def is_mmf(self) -> bool:
        return self.instances is not None

    @property
    def substeps(self) -> Optional[int]:
        """Fine substeps per coarse step, mmf tier only."""
        return self.mmf_config.substeps if self.mmf_config else None


def build_case(case_id: str, tier: str = "coarse", *,
               preset: Optional[str] = None,
               sounding=None, seed: int = 0,
               overrides: Optional[dict] = None) -> CaseSetup:
    """Construct a ready-to-run case.

    ``sounding`` may be None (analytic default), a path, or a Sounding.
    ``overrides`` accepts: duration, dt, nu, filter_strength, sponge
    (SpongeConfig), bubble (BubbleSpec), microphysics (bool), and on the
    mmf tier alone `MMF_OVERRIDES`. Other keys are rejected.
    """
    check("case", case_id, str, CASE_IDS)
    check("tier", tier, str, TIERS)
    if preset is not None:
        check("preset", preset, str, ("desk",))
    table = _DESK_CASES if preset == "desk" else _CASES
    dims = table[(case_id, tier)]

    ov = dict(overrides or {})
    allowed = {"duration", "dt", "nu", "filter_strength", "sponge", "bubble",
               "microphysics", *MMF_OVERRIDES}
    unknown = set(ov) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown override(s): {sorted(unknown)}; allowed: {sorted(allowed)}")
    mmf_only = set(ov) & set(MMF_OVERRIDES)
    if mmf_only and tier != "mmf":
        raise ConfigurationError(
            f"override(s) {sorted(mmf_only)}: only the mmf tier takes them, not {tier}")

    # the other overrides are checked by the records they go into
    dt, duration = ov.get("dt", dims.dt), ov.get("duration", dims.duration)
    filt = ov.get("filter_strength", dims.filter_strength)
    microphysics = ov.get("microphysics", True)
    check("dt", dt, float, POSITIVE)
    check("duration", duration, float, POSITIVE)
    check("filter_strength", filt, float, Interval("[0, 1]"))
    check("microphysics", microphysics, bool, (False, True))
    bubble = ov.get("bubble", dims.bubble)

    snd = _resolve_sounding(sounding)
    constants = DEFAULT_CONSTANTS.with_nu(ov.get("nu", _NU))
    dim = len(dims.extents)
    mesh = build_box_mesh(dims.extents, dims.elems, (_ORDER,) * dim,
                          periodicity=(True,) * (dim - 1))
    z_top = dims.extents[-1]
    sponge = ov.get("sponge",
                    SpongeConfig(z_top - _SPONGE_THICKNESS, z_top,
                                 _SPONGE_RMAX))
    reference = build_reference(snd, mesh, constants, sponge)

    state = PrognosticState.zeros(mesh)
    state.theta_vp = bubble_theta(mesh.coords, bubble)
    # the sounding wind on the lateral components; the vertical starts at rest
    state.u[:-1] = mesh.field_from_profile(np.stack((reference.u0_1d, reference.v0_1d))[:dim - 1])

    kessler = KesslerParams() if microphysics else None
    # in the split-grid tier the coarse model carries no microphysics of
    # its own: moist tendencies reach it only through the feedback
    sim = Simulator(mesh=mesh, reference=reference, state=state,
                    filter_strength=filt,
                    kessler=None if tier == "mmf" else kessler,
                    sounding=snd)

    if tier != "mmf":
        return CaseSetup(simulator=sim, dt=dt, duration=duration)

    cfg = MmfConfig(
        ssp_length=ov.get("ssp_length", 8e3),
        ssp_elems_x=ov.get("ssp_elems_x", dims.ssp_elems_x),
        ssp_elems_z=ov.get("ssp_elems_z", dims.ssp_elems_z),
        ssp_order=_ORDER,
        substeps=ov.get("substeps", dims.substeps),
        perturbation_amplitude=ov.get("amplitude", 0.3),
        perturbation_theta_scale=bubble.theta_c,
    )
    instances = spawn_ssp_instances(sim, cfg, seed=seed, kessler=kessler)
    return CaseSetup(simulator=sim, dt=dt, duration=duration,
                     instances=instances, mmf_config=cfg)
