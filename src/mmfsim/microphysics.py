"""Column Kessler warm-rain microphysics.

Operator-split update applied after each dynamics step, column by
column: rain sedimentation (upwind flux form with internal CFL
substeps), autoconversion of cloud to rain, accretion of cloud by
rain, Newton-iterated saturation adjustment, and evaporation of rain
in subsaturated air. Density is never touched, so the water budget
closes level-by-level except for the sedimentation flux through the
surface, which is returned as accumulated precipitation (kg/m^2, i.e.
mm of liquid).

The process chain works on level-major (..., nlev, ncols) batches. A
field stores z slowest, so each of its rows already is such a block,
and a grid's update runs on the state's own rows.
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

# field-shaped intermediates of _kessler_batch
_SCRATCH_ROWS = 17


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
    water budget. q_r and rho are (..., nlev, ncols), masses (nlev,);
    `scratch` lends five arrays of q_r's shape.
    """
    precip = np.zeros_like(q_r[..., 0, :])
    if dt <= 0.0:
        return precip
    m_min = float(np.min(masses))
    rho_cgs, root, rho_m, flux, dmass = scratch[:5]
    # the fall speed's fixed factors: 0.001 converts rho*q_r from kg/m^3
    # to the g/cm^3 the power law expects, and sqrt(rho_surf/rho)
    np.multiply(0.001, rho, out=rho_cgs)
    np.divide(rho_surf, rho, out=root)
    np.sqrt(root, out=root)
    # a broadcasting ufunc would allocate iterator buffers, a copy does not
    np.copyto(rho_m, masses[:, None])
    rho_m *= rho
    # all columns share each substep, so the batch stays rectangular
    remaining = dt
    for _ in range(10_000):
        if not remaining > 0.0:
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
        sub = min(remaining, step)
        np.multiply(rho, V, out=flux)             # kg/m^2/s, downward
        flux *= q_r
        np.subtract(flux[..., 1:, :], flux[..., :-1, :], out=dmass[..., :-1, :])
        np.negative(flux[..., -1, :], out=dmass[..., -1, :])
        dmass *= sub
        dmass /= rho_m
        q_r += dmass
        precip += sub * flux[..., 0, :]
        remaining = max(remaining - step, 0.0)
    else:
        raise StateError("sedimentation substepping failed to terminate")
    np.maximum(q_r, 0.0, out=q_r)
    return precip


def _saturation(theta_v, exner, q_v, p, constants, T, es, tmb, qvs, den, pme):
    """Diagnose T = theta_v exner / den, den = 1 + eps q_v, the Tetens
    e_s(T) into es with T - _TETB left in tmb, and q_vs = (R_d/R_v) es /
    pme, pme = p - es; den and pme may be one array."""
    np.multiply(constants.eps, q_v, out=den)
    den += 1.0
    np.multiply(theta_v, exner, out=T)
    T /= den
    np.subtract(T, _TETB, out=tmb)
    np.subtract(T, _T0, out=es)
    es *= _TETA
    es /= tmb
    np.exp(es, out=es)
    es *= _ES0
    np.subtract(p, es, out=pme)
    np.multiply(constants.R_d / constants.R_v, es, out=qvs)
    qvs /= pme


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
        _saturation(th, pi, qv, p, constants, T, es, tmb, qvs, den, pme)
        # chain rule in delta: p ~ th^(cp/cv), Pi follows p, T follows both
        np.multiply(A, pi, out=dT)
        dT *= cp_cv
        np.multiply(constants.eps, T, out=des)
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
        # dqvs = (R_d/R_v) (des p - es dp) / (p - es)^2, left in des
        des *= p
        dp *= es
        des -= dp
        des *= constants.R_d / constants.R_v
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
    _saturation(theta_v, exner, q_v, p, constants, T, es, tmb, qvs, y, y)
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
                   scratch):
    """Run the full process chain on (..., nlev, ncols) arrays, in place.

    masses holds the (nlev,) vertical quadrature masses. Intermediates
    live in the _SCRATCH_ROWS arrays of q_c's shape that `scratch`
    stacks; it lends them to the process functions one after another.
    """
    if float(np.min(rho)) <= 0.0:
        raise StateError("non-positive density on entry to microphysics")
    if min(float(np.min(q_c)), float(np.min(q_r))) < -1e-12:
        raise StateError("negative cloud or rain mixing ratio on entry to microphysics")
    np.maximum(q_c, 0.0, out=q_c)
    np.maximum(q_r, 0.0, out=q_r)
    p, exner, delta, tmp, *scratch = scratch

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
    fields = (column.rho, column.theta_v, column.q_v, column.q_c, column.q_r)
    precip = _kessler_batch(
        column.masses, *(f[:, None] for f in fields), column.rho_surf, dt, params,
        constants, np.empty((_SCRATCH_ROWS, column.q_c.size, 1)))
    return column, float(precip[0])


def apply_microphysics(state: PrognosticState, reference: ReferenceState, mesh: Mesh,
                       dt, params: KesslerParams, *, out=None):
    """Kessler update over every column of the mesh, with the reference's constants.

    Returns (new_state, precip) where precip is mm of rain through the
    surface during dt for each horizontal grid point (column ordering
    matches `Mesh.column_view`). rho' and velocity are untouched. The
    new state is `out` when given (`state` itself updates in place),
    else a copy. The chain runs on the new state's own (nz, ncols)
    rows, with the theta_v and q_v references added in place and taken
    off again; the density and the intermediates live in the mesh's
    "kernel" buffer. If it raises, the rows of `out` are unspecified
    (`Simulator.step` passes only a state it has not committed).
    """
    if out is None:
        out = state.copy()
    elif out is not state:
        np.copyto(out.data, state.data)
    shape = (mesh.npts_1d[-1], mesh.ncols)
    rho0, theta_v0, q_v0 = (f.reshape(shape) for f in
                            (reference.rho0, reference.theta_v0, reference.q_v0))
    rho_p, *_, theta_v, q_v, q_c, q_r = out.data.reshape((-1,) + shape)
    buf = mesh.work.array("kernel", (1 + _SCRATCH_ROWS,) + shape)
    rho = np.add(rho0, rho_p, out=buf[0])
    theta_v += theta_v0
    q_v += q_v0
    precip = _kessler_batch(mesh.lumped_1d[-1], rho, theta_v, q_v, q_c, q_r,
                            reference.rho0_surf, dt, params, reference.constants, buf[1:])
    theta_v -= theta_v0
    q_v -= q_v0
    return out, precip
