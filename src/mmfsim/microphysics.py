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
from .grid import Mesh, WorkBuffers
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


def _sediment(q_r, rho, masses, rho_surf, dt, params, scratch):
    """Upwind flux-form fall of rain; returns surface precip in kg/m^2.

    The discrete column sum of rho*q_r*mass changes exactly by the
    accumulated surface flux (telescoping), which is what closes the
    water budget. `scratch` lends five arrays of q_r's shape.
    """
    precip = np.zeros(q_r.shape[0])
    if dt <= 0.0:
        return precip
    m_min = float(np.min(masses))
    remaining = np.full(q_r.shape[0], dt)
    rho_cgs, root, rho_m, flux, dmass = scratch[:5]
    # the fall speed's fixed factors: 0.001 converts rho*q_r from kg/m^3
    # to the g/cm^3 the power law expects, and sqrt(rho_surf/rho)
    np.multiply(0.001, rho, out=rho_cgs)
    np.divide(rho_surf, rho, out=root)
    np.sqrt(root, out=root)
    np.multiply(rho, masses, out=rho_m)
    # all columns share the substep count so the batch stays rectangular
    for _ in range(10_000):
        active = remaining > 0.0
        if not np.any(active):
            break
        # fall speed V = coeff (rho_cgs max(q_r, 0))^exponent root, in flux
        V = flux
        np.maximum(q_r, 0.0, out=V)
        V *= rho_cgs
        np.power(V, params.fall_speed_exponent, out=V)
        V *= params.fall_speed_coeff
        V *= root
        vmax = float(np.max(V))
        step = dt if vmax == 0.0 else min(dt, 0.9 * m_min / vmax)
        sub = np.minimum(remaining, step)[:, None]
        np.multiply(rho, V, out=flux)             # kg/m^2/s, downward
        flux *= q_r
        np.subtract(flux[:, 1:], flux[:, :-1], out=dmass[:, :-1])
        np.negative(flux[:, -1], out=dmass[:, -1])
        dmass *= sub
        dmass /= rho_m
        q_r += dmass
        precip += (sub[:, 0] * flux[:, 0])
        remaining = np.maximum(remaining - step, 0.0)
    else:
        raise StateError("sedimentation substepping failed to terminate")
    np.maximum(q_r, 0.0, out=q_r)
    return precip


def _tetens(T, es, tmb):
    """es = e_s(T) by Tetens, with T - _TETB left in tmb."""
    np.subtract(T, _TETB, out=tmb)
    np.subtract(T, _T0, out=es)
    es *= _TETA
    es /= tmb
    np.exp(es, out=es)
    es *= _ES0
    return es


def _saturation_adjust(theta_v, q_v, q_c, rho, p_in, exner_in, params, constants,
                       delta, scratch):
    """Newton solve for the condensation increment at fixed density.

    Writes delta with q_v -> q_v - delta, q_c -> q_c + delta and
    theta_v -> theta_v + A delta, A = L_v/(c_p Pi_entry). Pressure is
    diagnostic here (p = p(rho, theta_v)), so the solve tracks the p
    and Exner response to the latent heating; that makes a repeated
    call a no-op to rounding. Evaporation (delta < 0) is limited by
    the available cloud water. p_in and exner_in are the entry
    pressure and Exner function, which the first iteration (delta = 0)
    uses as they are. `scratch` lends thirteen arrays of q_v's shape.
    """
    eps = constants.eps
    cr = constants.R_d / constants.R_v
    cp_cv = constants.c_p / constants.c_v
    A, th_b, qv_b, p_b, pi_b, T, den, es, tmb, qvs, pme, dT, des = scratch[:13]
    # T and den are spent once dT is known
    dp, x = T, den
    np.multiply(constants.c_p, exner_in, out=A)
    np.divide(constants.L_v, A, out=A)
    delta.fill(0.0)
    th, qv, p, pi = theta_v, q_v, p_in, exner_in
    for it in range(params.newton_iterations):
        if it:
            th, qv, p, pi = th_b, qv_b, p_b, pi_b
            np.multiply(A, delta, out=th)
            th += theta_v
            np.subtract(q_v, delta, out=qv)
            equation_of_state(rho, theta_v=th, constants=constants, out=p)
            exner_function(p, constants, out=pi)
        # T = th pi / (1 + eps qv); e_s(T); qvs = cr es / (p - es)
        np.multiply(eps, qv, out=den)
        den += 1.0
        np.multiply(th, pi, out=T)
        T /= den
        _tetens(T, es, tmb)
        np.subtract(p, es, out=pme)
        np.multiply(cr, es, out=qvs)
        qvs /= pme
        # chain rule in delta: p ~ th^(cp/cv), Pi follows p, T follows both
        np.multiply(A, pi, out=dT)
        dT *= cp_cv
        np.multiply(eps, T, out=des)
        dT += des
        dT /= den
        np.multiply(p, cp_cv, out=dp)
        dp *= A
        dp /= th
        # des = es (TETA (T0 - TETB)) / (T - TETB)^2 dT
        np.multiply(es, _TETA * (_T0 - _TETB), out=des)
        np.square(tmb, out=tmb)
        des /= tmb
        des *= dT
        # dqvs = cr (des p - es dp) / (p - es)^2, left in des
        des *= p
        dp *= es
        des -= dp
        des *= cr
        np.square(pme, out=pme)
        des /= pme
        # new = clip(delta - g / (-1 - dqvs), -q_c, q_v) with g = qv - qvs
        g = qvs
        np.subtract(qv, qvs, out=g)
        np.subtract(-1.0, des, out=des)
        g /= des
        np.subtract(delta, g, out=g)
        np.negative(q_c, out=x)
        new = np.clip(g, x, q_v, out=g)
        np.subtract(new, delta, out=x)
        np.abs(x, out=x)
        done = float(np.max(x)) < 1e-16
        np.copyto(delta, new)
        if done:
            break
    return delta


def _rain_evaporation(theta_v, q_v, q_r, rho, p, exner, dt, constants, ern, scratch):
    """Kessler/Klemp ventilation-law evaporation of rain into subsaturated
    air, written into ern; `scratch` lends nine arrays of q_v's shape."""
    T, es, tmb, qvs, deficit, rcgs, rq, vent, y = scratch[:9]
    np.multiply(constants.eps, q_v, out=y)
    y += 1.0
    np.multiply(theta_v, exner, out=T)
    T /= y
    _tetens(T, es, tmb)
    np.subtract(p, es, out=y)
    np.multiply(constants.R_d / constants.R_v, es, out=qvs)
    qvs /= y
    np.subtract(qvs, q_v, out=deficit)
    np.maximum(deficit, 0.0, out=deficit)
    np.multiply(0.001, rho, out=rcgs)        # g/cm^3
    np.maximum(q_r, 0.0, out=rq)
    rq *= rcgs
    # vent = (1.6 + 124.9 rq^0.2046) rq^0.525
    np.power(rq, 0.2046, out=vent)
    vent *= 124.9
    vent += 1.6
    np.power(rq, 0.525, out=y)
    vent *= y
    # ern = dt (vent / denom) (deficit / (rcgs qvs)), denom = 2.55e8/(p qvs) + 5.4e5
    np.multiply(p, qvs, out=y)
    np.divide(2.55e8, y, out=y)
    y += 5.4e5
    vent /= y
    np.multiply(dt, vent, out=ern)
    np.multiply(rcgs, qvs, out=y)
    np.divide(deficit, y, out=y)
    ern *= y
    np.maximum(q_r, 0.0, out=y)
    np.minimum(ern, y, out=ern)
    np.minimum(ern, deficit, out=ern)
    return ern


def _kessler_batch(masses, rho, theta_v, q_v, q_c, q_r, rho_surf, dt, params, constants,
                   work):
    """Run the full process chain on (ncols, nlev) arrays, in place.

    Intermediates live in the buffer "_kessler_batch.scratch" of `work`,
    whose rows it lends to the process functions one after another.
    """
    if float(np.min(rho)) <= 0.0:
        raise StateError("non-positive density on entry to microphysics")
    if min(float(np.min(q_c)), float(np.min(q_r))) < -1e-12:
        raise StateError("negative cloud or rain mixing ratio on entry to microphysics")
    np.maximum(q_c, 0.0, out=q_c)
    np.maximum(q_r, 0.0, out=q_r)
    p, exner, delta, tmp, *scratch = work.array("_kessler_batch.scratch", (17,) + q_c.shape)

    precip = _sediment(q_r, rho, masses, rho_surf, dt, params, scratch)

    np.subtract(q_c, params.autoconversion_threshold, out=tmp)
    np.maximum(tmp, 0.0, out=tmp)
    tmp *= dt * params.autoconversion_rate
    np.minimum(tmp, q_c, out=tmp)
    q_c -= tmp
    q_r += tmp

    np.multiply(dt * params.accretion_rate, q_c, out=tmp)
    np.power(q_r, 0.875, out=p)
    tmp *= p
    np.minimum(tmp, q_c, out=tmp)
    q_c -= tmp
    q_r += tmp

    equation_of_state(rho, theta_v=theta_v, constants=constants, out=p)
    exner_function(p, constants, out=exner)
    _saturation_adjust(theta_v, q_v, q_c, rho, p, exner, params, constants, delta, scratch)
    q_v -= delta
    q_c += delta
    np.multiply(constants.c_p, exner, out=tmp)
    np.divide(constants.L_v, tmp, out=tmp)
    tmp *= delta
    theta_v += tmp

    if dt > 0.0:
        # evaporation sees the post-adjustment diagnostic pressure, which
        # is the entry one when nothing condensed or evaporated
        if np.any(delta):
            equation_of_state(rho, theta_v=theta_v, constants=constants, out=p)
            exner_function(p, constants, out=exner)
        ern = _rain_evaporation(theta_v, q_v, q_r, rho, p, exner, dt, constants, delta, scratch)
        q_r -= ern
        q_v += ern
        np.multiply(constants.c_p, exner, out=tmp)
        np.divide(constants.L_v, tmp, out=tmp)
        tmp *= ern
        theta_v -= tmp

    np.maximum(q_c, 0.0, out=q_c)
    np.maximum(q_r, 0.0, out=q_r)
    return precip


def kessler_column_step(column: ColumnView, dt, params: KesslerParams,
                        constants: PhysConstants = DEFAULT_CONSTANTS):
    """Advance one column by dt; returns (column, surface rain in mm)."""
    precip = _kessler_batch(
        column.masses[None, :], column.rho[None, :],
        column.theta_v[None, :], column.q_v[None, :], column.q_c[None, :],
        column.q_r[None, :], column.rho_surf, dt, params, constants, WorkBuffers())
    return column, float(precip[0])


def apply_microphysics(state: PrognosticState, reference: ReferenceState, mesh: Mesh,
                       dt, params: KesslerParams,
                       constants: PhysConstants = DEFAULT_CONSTANTS, out=None):
    """Kessler update over every column of the mesh.

    Returns (new_state, precip) where precip is mm of rain through the
    surface during dt for each horizontal grid point (column ordering
    matches `Mesh.column_view`). rho' and velocity are untouched. The
    new state is `out` when given (`state` itself updates in place),
    else a copy; the columns live in the mesh's work buffers.
    """
    def columns(f):
        # a field's (..., nz) column view, z last
        return np.moveaxis(mesh.grid_view(f), -mesh.dim, -1)

    shape = columns(state.q_c).shape
    cols = mesh.work.array("apply_microphysics.columns", (5, mesh.ncols, shape[-1]))
    rho, theta_v, q_v, q_c, q_r = cols
    np.add(columns(reference.rho0), columns(state.rho_p), out=rho.reshape(shape))
    np.add(columns(reference.theta_v0), columns(state.theta_vp), out=theta_v.reshape(shape))
    np.add(columns(reference.q_v0), columns(state.q_vp), out=q_v.reshape(shape))
    np.copyto(q_c.reshape(shape), columns(state.q_c))
    np.copyto(q_r.reshape(shape), columns(state.q_r))
    masses = np.broadcast_to(np.asarray(mesh.lumped_1d[-1]), q_c.shape)

    precip = _kessler_batch(masses, rho, theta_v, q_v, q_c, q_r,
                            reference.rho0_surf, dt, params, constants, mesh.work)

    if out is None:
        out = state.copy()
    elif out is not state:
        np.copyto(out.data, state.data)
    np.subtract(theta_v.reshape(shape), columns(reference.theta_v0), out=columns(out.theta_vp))
    np.subtract(q_v.reshape(shape), columns(reference.q_v0), out=columns(out.q_vp))
    np.copyto(columns(out.q_c), q_c.reshape(shape))
    np.copyto(columns(out.q_r), q_r.reshape(shape))
    return out, precip
