"""Column Kessler warm-rain microphysics.

Operator-split update applied after each dynamics step, column by
column: rain sedimentation (upwind flux form with internal CFL
substeps), autoconversion of cloud to rain, accretion of cloud by
rain, Newton-iterated saturation adjustment, and evaporation of rain
in subsaturated air. Density is never touched, so the water budget
closes level-by-level except for the sedimentation flux through the
surface, which is returned as accumulated precipitation (kg/m^2, i.e.
mm of liquid).
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_CONSTANTS, PhysConstants, ReferenceState, equation_of_state, exner_function
from .errors import StateError
from .grid import Mesh
from .operators import PrognosticState

__all__ = [
    "KesslerParams",
    "ColumnView",
    "saturation_mixing_ratio",
    "kessler_column_step",
    "apply_microphysics",
]

# Tetens saturation vapor pressure constants (water surface)
_ES0 = 610.78       # Pa at the triple point
_TETA = 17.27
_TETB = 35.86       # K offset in the denominator
_T0 = 273.15


@dataclass(frozen=True)
class KesslerParams:
    autoconversion_rate: float = 0.001     # k1, 1/s
    autoconversion_threshold: float = 0.001  # a, kg/kg
    accretion_rate: float = 2.2            # k2, 1/s
    fall_speed_coeff: float = 36.34        # V_r prefactor, m/s over (g/cm^3)^0.1364
    fall_speed_exponent: float = 0.1364
    newton_iterations: int = 30

    def __post_init__(self):
        if min(self.autoconversion_rate, self.autoconversion_threshold,
               self.accretion_rate, self.fall_speed_coeff) < 0.0:
            raise ValueError("Kessler rates must be nonnegative")


@dataclass
class ColumnView:
    """One grid column, bottom to top: full (not perturbation) values."""

    z: np.ndarray        # m, strictly increasing; Kessler never reads heights
    masses: np.ndarray   # vertical lumped quadrature masses, m
    rho: np.ndarray      # kg/m3
    theta_v: np.ndarray  # K
    q_v: np.ndarray      # kg/kg
    q_c: np.ndarray
    q_r: np.ndarray
    rho_surf: float      # reference surface density for the fall-speed law


def saturation_mixing_ratio(p, T, constants: PhysConstants = DEFAULT_CONSTANTS):
    """q_vs = (R_d/R_v) e_s/(p - e_s) with the Tetens e_s(T)."""
    p = np.asarray(p, dtype=float)
    es = _ES0 * np.exp(_TETA * (np.asarray(T, dtype=float) - _T0) / (np.asarray(T) - _TETB))
    if np.any(p <= es):
        raise StateError("pressure at or below saturation vapor pressure")
    return (constants.R_d / constants.R_v) * es / (p - es)


def _fall_speed(rho, q_r, rho_surf, params: KesslerParams):
    # 0.001 converts rho*q_r from kg/m^3 to the g/cm^3 the power law expects
    return (params.fall_speed_coeff
            * (0.001 * rho * np.maximum(q_r, 0.0)) ** params.fall_speed_exponent
            * np.sqrt(rho_surf / rho))


def _sediment(q_r, rho, masses, rho_surf, dt, params):
    """Upwind flux-form fall of rain; returns surface precip in kg/m^2.

    The discrete column sum of rho*q_r*mass changes exactly by the
    accumulated surface flux (telescoping), which is what closes the
    water budget.
    """
    precip = np.zeros(q_r.shape[0])
    if dt <= 0.0:
        return precip
    m_min = float(np.min(masses))
    remaining = np.full(q_r.shape[0], dt)
    # all columns share the substep count so the batch stays rectangular
    for _ in range(10_000):
        active = remaining > 0.0
        if not np.any(active):
            break
        V = _fall_speed(rho, q_r, rho_surf, params)
        vmax = float(np.max(V))
        step = dt if vmax == 0.0 else min(dt, 0.9 * m_min / vmax)
        sub = np.minimum(remaining, step)[:, None]
        flux = rho * V * q_r                      # kg/m^2/s, downward
        dmass = np.empty_like(flux)
        dmass[:, :-1] = flux[:, 1:] - flux[:, :-1]
        dmass[:, -1] = -flux[:, -1]
        q_r += sub * dmass / (rho * masses)
        precip += (sub[:, 0] * flux[:, 0])
        remaining = np.maximum(remaining - step, 0.0)
    else:
        raise StateError("sedimentation substepping failed to terminate")
    np.maximum(q_r, 0.0, out=q_r)
    return precip


def _saturation_adjust(theta_v, q_v, q_c, rho, p_in, exner_in, params, constants):
    """Newton solve for the condensation increment at fixed density.

    Returns delta with q_v -> q_v - delta, q_c -> q_c + delta and
    theta_v -> theta_v + A delta, A = L_v/(c_p Pi_entry). Pressure is
    diagnostic here (p = p(rho, theta_v)), so the solve tracks the p
    and Exner response to the latent heating; that makes a repeated
    call a no-op to rounding. Evaporation (delta < 0) is limited by
    the available cloud water. p_in and exner_in are the entry
    pressure and Exner function, which the first iteration (delta = 0)
    uses as they are.
    """
    eps = constants.eps
    cr = constants.R_d / constants.R_v
    cp_cv = constants.c_p / constants.c_v
    A = constants.L_v / (constants.c_p * exner_in)
    delta = np.zeros_like(q_v)
    th, qv, p, pi = theta_v, q_v, p_in, exner_in
    for it in range(params.newton_iterations):
        if it:
            th = theta_v + A * delta
            qv = q_v - delta
            p = equation_of_state(rho, theta_v=th, constants=constants)
            pi = exner_function(p, constants)
        T = th * pi / (1.0 + eps * qv)
        es = _ES0 * np.exp(_TETA * (T - _T0) / (T - _TETB))
        qvs = cr * es / (p - es)
        # chain rule in delta: p ~ th^(cp/cv), Pi follows p, T follows both
        dT = (A * pi * cp_cv + eps * T) / (1.0 + eps * qv)
        dp = p * cp_cv * A / th
        des = es * (_TETA * (_T0 - _TETB)) / (T - _TETB) ** 2 * dT
        dqvs = cr * (des * p - es * dp) / (p - es) ** 2
        g = qv - qvs
        new = np.clip(delta - g / (-1.0 - dqvs), -q_c, q_v)
        done = float(np.max(np.abs(new - delta))) < 1e-16
        delta = new
        if done:
            break
    return delta


def _rain_evaporation(theta_v, q_v, q_r, rho, p, exner, dt, constants):
    """Kessler/Klemp ventilation-law evaporation of rain into subsaturated air."""
    eps = constants.eps
    T = theta_v * exner / (1.0 + eps * q_v)
    es = _ES0 * np.exp(_TETA * (T - _T0) / (T - _TETB))
    qvs = (constants.R_d / constants.R_v) * es / (p - es)
    deficit = np.maximum(qvs - q_v, 0.0)
    rcgs = 0.001 * rho                       # g/cm^3
    rq = rcgs * np.maximum(q_r, 0.0)
    vent = (1.6 + 124.9 * rq ** 0.2046) * rq ** 0.525
    denom = 2.55e8 / (p * qvs) + 5.4e5
    ern = dt * (vent / denom) * (deficit / (rcgs * qvs))
    return np.minimum(np.minimum(ern, np.maximum(q_r, 0.0)), deficit)


def _kessler_batch(masses, rho, theta_v, q_v, q_c, q_r, rho_surf, dt, params, constants):
    """Run the full process chain on (ncols, nlev) arrays, in place."""
    if min(float(np.min(q_c)), float(np.min(q_r))) < -1e-12:
        raise StateError("negative cloud or rain mixing ratio on entry to microphysics")
    np.maximum(q_c, 0.0, out=q_c)
    np.maximum(q_r, 0.0, out=q_r)

    precip = _sediment(q_r, rho, masses, rho_surf, dt, params)

    auto = dt * params.autoconversion_rate * np.maximum(q_c - params.autoconversion_threshold, 0.0)
    auto = np.minimum(auto, q_c)
    q_c -= auto
    q_r += auto

    accr = dt * params.accretion_rate * q_c * q_r ** 0.875
    accr = np.minimum(accr, q_c)
    q_c -= accr
    q_r += accr

    p = equation_of_state(rho, theta_v=theta_v, constants=constants)
    exner = exner_function(p, constants)
    delta = _saturation_adjust(theta_v, q_v, q_c, rho, p, exner, params, constants)
    q_v -= delta
    q_c += delta
    theta_v += (constants.L_v / (constants.c_p * exner)) * delta

    if dt > 0.0:
        # evaporation sees the post-adjustment diagnostic pressure, which
        # is the entry one when nothing condensed or evaporated
        if np.any(delta):
            p = equation_of_state(rho, theta_v=theta_v, constants=constants)
            exner = exner_function(p, constants)
        ern = _rain_evaporation(theta_v, q_v, q_r, rho, p, exner, dt, constants)
        q_r -= ern
        q_v += ern
        theta_v -= (constants.L_v / (constants.c_p * exner)) * ern

    np.maximum(q_c, 0.0, out=q_c)
    np.maximum(q_r, 0.0, out=q_r)
    return precip


def kessler_column_step(column: ColumnView, dt, params: KesslerParams,
                        constants: PhysConstants = DEFAULT_CONSTANTS):
    """Advance one column by dt; returns (column, surface rain in mm)."""
    precip = _kessler_batch(
        column.masses[None, :], column.rho[None, :],
        column.theta_v[None, :], column.q_v[None, :], column.q_c[None, :],
        column.q_r[None, :], column.rho_surf, dt, params, constants)
    return column, float(precip[0])


def apply_microphysics(state: PrognosticState, reference: ReferenceState, mesh: Mesh,
                       dt, params: KesslerParams,
                       constants: PhysConstants = DEFAULT_CONSTANTS):
    """Kessler update over every column of the mesh.

    Returns (new_state, precip) where precip is mm of rain through the
    surface during dt for each horizontal grid point (column ordering
    matches `Mesh.column_view`). rho' and velocity are untouched.
    """
    cv = mesh.column_view
    rho = cv(reference.rho0 + state.rho_p)
    theta_v = cv(reference.theta_v0 + state.theta_vp)
    q_v = cv(reference.q_v0 + state.q_vp)
    q_c = cv(state.q_c)
    q_r = cv(state.q_r)
    masses = np.broadcast_to(np.asarray(mesh.lumped_1d[-1]), q_c.shape)

    precip = _kessler_batch(masses, rho, theta_v, q_v, q_c, q_r,
                            reference.rho0_surf, dt, params, constants)

    back = mesh.field_from_columns
    out = state.copy()
    out.theta_vp = back(theta_v) - reference.theta_v0
    out.q_vp = back(q_v) - reference.q_v0
    out.q_c = back(q_c)
    out.q_r = back(q_r)
    return out, precip
