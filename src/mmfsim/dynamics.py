"""Moist compressible dynamics over a hydrostatic reference state.

The prognostics are perturbations (rho', theta_v', q_v') around
height-dependent reference profiles in discrete hydrostatic balance,
plus full velocity and the condensate mixing ratios q_c, q_r. This
module evaluates the full nonlinear tendency S(q) (advection, pressure
gradient, buoyancy with water loading, viscosity, Rayleigh damping of
vertical velocity near the model top), builds the reference state from
a sounding, and applies the Boyd-Vandeven modal filter.

The reference depends on z only: it is computed once on the mesh's
vertical nodes with the mesh's 1D vertical operators and then broadcast
to every node (`Mesh.field_from_profile`).

Microphysical sources are deliberately absent from S(q); they are
applied as an operator-split update by the microphysics module.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (NONNEGATIVE, POSITIVE, ConfigurationError, Interval, StateError, check,
                     check_settings, setting)
from .grid import Mesh, boyd_vandeven_transfer
from .operators import PrognosticState, SemOps

__all__ = [
    "PhysConstants",
    "DEFAULT_CONSTANTS",
    "Sounding",
    "read_sounding",
    "write_sounding",
    "ReferenceState",
    "SpongeConfig",
    "equation_of_state",
    "exner_function",
    "build_reference",
    "evaluate_rhs",
    "sponge_profile",
    "apply_filter",
    "filter_field",
    "boyd_vandeven_transfer",
]


@dataclass(frozen=True)
class PhysConstants:
    g: float = setting(float, POSITIVE, 9.81)       # m/s2
    R_d: float = setting(float, POSITIVE, 287.0)    # J/(kg K)
    R_v: float = setting(float, POSITIVE, 461.5)    # J/(kg K)
    c_p: float = setting(float, POSITIVE, 1004.0)   # J/(kg K)
    p00: float = setting(float, POSITIVE, 1.0e5)    # Pa, Exner reference pressure
    L_v: float = setting(float, POSITIVE, 2.5e6)    # J/kg, latent heat of vaporization
    nu: float = setting(float, NONNEGATIVE, 0.0)    # m2/s, artificial viscosity

    def __post_init__(self):
        check_settings(self)

    @property
    def eps(self) -> float:
        """R_v/R_d - 1, about 0.608 for standard air/vapor constants."""
        return self.R_v / self.R_d - 1.0

    @property
    def c_v(self) -> float:
        return self.c_p - self.R_d

    def with_nu(self, nu: float) -> "PhysConstants":
        return replace(self, nu=nu)


DEFAULT_CONSTANTS = PhysConstants()


# ---------------------------------------------------------------------------
# soundings

@dataclass
class Sounding:
    """Vertical profile table: z (m), theta (K), qv (kg/kg), u, v (m/s);
    outside input, so every value is checked."""

    z: np.ndarray
    theta: np.ndarray
    qv: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p_surf: float  # Pa

    def __post_init__(self):
        columns = (self.z, self.theta, self.qv, self.u, self.v)
        if self.z.ndim != 1 or any(c.shape != self.z.shape for c in columns):
            raise ConfigurationError("sounding columns must be 1D and of one length")
        for bad, what in ((not all(np.isfinite(c).all() for c in columns), "values must be finite"),
                          (np.any(np.diff(self.z) <= 0), "heights must be strictly increasing"),
                          (np.any(self.theta <= 0.0), "theta must be positive"),
                          (np.any(self.qv < 0.0), "qv must be non-negative"),
                          (not 0.0 < self.p_surf < np.inf, "surface pressure must lie in (0, inf)")):
            if bad:
                raise ConfigurationError(f"sounding {what}")


def read_sounding(path) -> Sounding:
    """Read the plain-text sounding format.

    One header line, then rows `z_m theta_K qv_kgkg u_ms v_ms`; the
    first data row carries the surface pressure in Pa as a sixth column.
    """
    rows = []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 3:
        raise ConfigurationError(f"sounding file {path} is too short")
    for k, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != (6 if k == 0 else 5):
            raise ConfigurationError("first sounding row must carry p_surf_Pa as a 6th column"
                                     if k == 0 else f"bad sounding row: {ln!r}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise ConfigurationError(f"bad sounding row: {ln!r}") from None
    p_surf = rows[0].pop()
    arr = np.array(rows)
    return Sounding(z=arr[:, 0], theta=arr[:, 1], qv=arr[:, 2],
                    u=arr[:, 3], v=arr[:, 4], p_surf=p_surf)


def write_sounding(snd: Sounding, path) -> None:
    with open(path, "w") as fh:
        fh.write("z_m theta_K qv_kgkg u_ms v_ms [p_surf_Pa on first line]\n")
        for k in range(snd.z.size):
            row = f"{snd.z[k]:.6f} {snd.theta[k]:.10g} {snd.qv[k]:.10g} {snd.u[k]:.10g} {snd.v[k]:.10g}"
            if k == 0:
                row += f" {snd.p_surf:.10g}"
            fh.write(row + "\n")


# ---------------------------------------------------------------------------
# equation of state

def equation_of_state(rho, theta_v, constants: PhysConstants = DEFAULT_CONSTANTS, out=None):
    """Pressure of moist air from density and theta_v, by the Exner
    inversion p = p00 (rho R_d theta_v / p00)^(c_p/c_v); written into
    `out` when given. A non-positive density is a StateError."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise StateError("non-positive density in equation of state")
    if out is None:
        out = np.empty(np.broadcast(rho, theta_v).shape)
    return _pressure(rho, theta_v, constants, out)


def _pressure(rho, theta_v, constants: PhysConstants, out):
    """`equation_of_state` into `out`, for callers that have checked the
    density themselves."""
    np.multiply(rho, constants.R_d, out=out)
    out *= theta_v
    out /= constants.p00
    np.power(out, constants.c_p / constants.c_v, out=out)
    out *= constants.p00
    return out


def exner_function(p, constants: PhysConstants = DEFAULT_CONSTANTS, out=None):
    """Pi = (p/p00)^(R_d/c_p); written into `out` when given."""
    return np.power(np.divide(p, constants.p00, out=out), constants.R_d / constants.c_p, out=out)


# ---------------------------------------------------------------------------
# sponge layer

@dataclass(frozen=True)
class SpongeConfig:
    z_b: float = setting(float, NONNEGATIVE)  # m, bottom of the damping layer
    z_t: float = setting(float, POSITIVE)     # m, top of the ramp (the model top in the cases)
    R_max: float = setting(float, NONNEGATIVE)  # 1/s

    def __post_init__(self):
        check_settings(self)
        if not self.z_b < self.z_t:
            raise ConfigurationError(f"SpongeConfig.z_b = {self.z_b}: expected below z_t = {self.z_t}")


def sponge_profile(z, cfg: SpongeConfig):
    """R_w(z) = R_max sin^2((pi/2)(z - z_b)/(z_t - z_b)), zero below z_b
    and held at R_max above z_t."""
    z = np.asarray(z, dtype=float)
    # the phase is clipped at pi/2, not the ratio at 1, so that below z_t
    # the rounding is that of the unclipped formula
    phase = 0.5 * np.pi * (z - cfg.z_b) / (cfg.z_t - cfg.z_b)
    s = np.sin(np.minimum(phase, 0.5 * np.pi)) ** 2
    return np.where(z <= cfg.z_b, 0.0, cfg.R_max * s)


# ---------------------------------------------------------------------------
# reference state

@dataclass
class ReferenceState:
    """Hydrostatically balanced profiles sampled at every grid node.

    rho0 satisfies the theta_v-form equation of state against p0 exactly
    at the nodes, so a zero-perturbation state has p' identically zero.
    The rows that the linear operator L multiplies by (gamma = c_p/c_v,
    signs folded in) are formed once, on the profiles, from `constants`.
    It is a grid's one home for fixed data, shared by the simulators on a
    mesh: S(q), L and Kessler read `constants` and the sponge row from it.
    """

    rho0: np.ndarray       # kg/m3
    theta_v0: np.ndarray   # K
    q_v0: np.ndarray       # kg/kg
    p0: np.ndarray         # Pa
    dtheta_v0_dz: np.ndarray
    dq_v0_dz: np.ndarray
    gamma_p0_rho0: np.ndarray      # gamma p0/rho0, m2/s2
    gamma_p0_theta_v0: np.ndarray  # gamma p0/theta_v0, Pa/K
    neg_inv_rho0: np.ndarray       # -1/rho0
    neg_g_rho0: np.ndarray         # -g/rho0
    constants: PhysConstants
    sponge: Optional[SpongeConfig]
    sponge_rw: Optional[np.ndarray]  # R_w(z), 1/s
    u0_1d: np.ndarray      # sounding wind at the vertical nodes, m/s
    v0_1d: np.ndarray
    rho0_surf: float


def _pchip_end_slope(h0, h1, m0, m1):
    """The one-sided three-point slope at an end knot (Moler's pchiptx),
    set to zero where its sign is not the end interval's and to three
    times that interval's slope where it would overshoot."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    over = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(over, 3.0 * m0, d))


def _pchip(x, y, xi):
    """Monotone piecewise-cubic Hermite (PCHIP, Fritsch-Butland) interpolant
    of the (n, k) columns y over knots x at points xi within [x[0], x[-1]],
    shape (len(xi), k), as `scipy.interpolate.PchipInterpolator(x, y)(xi)`
    computes it, operation for operation, so bit for bit.

    Interior slopes are the weighted harmonic mean of the adjacent
    interval slopes, zero where those differ in sign or one is zero; end
    slopes are one-sided (`_pchip_end_slope`); two knots give the line.
    Each interval holds the power-basis cubic c0 s^3 + c1 s^2 + c2 s + c3
    in s = xi - x[i], summed from the constant term up as scipy's `PPoly`
    sums it, on the interval with x[i] <= xi < x[i + 1] (the last one
    closed).
    """
    h = np.diff(x)[:, None]
    m = np.diff(y, axis=0) / h
    if len(x) == 2:
        slopes = np.concatenate((m, m))
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        # a division by a zero slope is masked by `flat` below
        with np.errstate(divide="ignore", invalid="ignore"):
            harmonic = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        slopes = np.concatenate((_pchip_end_slope(h[0], h[1], m[0], m[1])[None],
                                 np.where(flat, 0.0, harmonic),
                                 _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])[None]))
    t = (slopes[:-1] + slopes[1:] - 2 * m) / h
    i = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, len(x) - 2)
    s = (xi - x[i])[:, None]
    c0, c1 = (t / h)[i], ((m - slopes[:-1]) / h - t)[i]
    # from 0.0, as PPoly's sum starts, so a -0.0 constant term gives 0.0
    return ((0.0 + y[:-1][i] + slopes[:-1][i] * s) + c1 * (s * s)) + c0 * (s * s * s)


def _antiderivative_matrix(rule) -> np.ndarray:
    """A[i, j] = integral of the j-th LGL Lagrange basis function from -1
    to node i, exact because the basis has degree N."""
    L = np.polynomial.legendre
    # columns: Legendre coefficients of each Lagrange basis function
    basis = np.linalg.inv(L.legvander(rule.points, rule.order))
    return L.legvander(rule.points, rule.order + 1) @ L.legint(basis, lbnd=-1.0, axis=0)


def build_reference(sounding: Sounding, mesh: Mesh,
                    constants: PhysConstants = DEFAULT_CONSTANTS,
                    sponge: Optional[SpongeConfig] = None) -> ReferenceState:
    """Interpolate the sounding and integrate hydrostatic balance.

    theta_v0 and q_v0 come from monotone piecewise-cubic interpolation at
    the mesh's vertical nodes. The Exner pressure solves
    d(pi)/dz = -g/(c_p theta_v0), integrating the nodal interpolant
    exactly with one element antiderivative matrix and a running sum of
    element totals; rho0 follows from the equation of state so the
    discrete balance is consistent to rounding. The vertical gradients
    use the mesh's weak vertical derivative. The sponge row, when
    `sponge` is given, is `sponge_profile` on the vertical nodes.
    """
    Lz = mesh.extents[-1]
    if sounding.z[0] > 0.0 or sounding.z[-1] < Lz:
        raise ConfigurationError(
            f"sounding covers [{sounding.z[0]}, {sounding.z[-1]}] m but the domain "
            f"needs [0, {Lz}] m (extrapolation is not allowed)")

    columns = np.stack((sounding.theta, sounding.qv, sounding.u, sounding.v), axis=-1)
    th, qv, u0, v0 = _pchip(sounding.z, columns, mesh.coords_1d[-1]).T
    theta_v = th * (1.0 + constants.eps * qv)

    # per element (the overlapping (N+1)-node windows of the column), the
    # integral from its bottom to its nodes 1..N; element totals sum upward
    N, ne = mesh.orders[-1], mesh.elem_counts[-1]
    integrand = -constants.g / (constants.c_p * theta_v)
    elems = np.lib.stride_tricks.sliding_window_view(integrand, N + 1)[::N]
    partial = (0.5 * Lz / ne) * elems @ _antiderivative_matrix(mesh.rules[-1])[1:].T
    below = np.concatenate(([0.0], np.cumsum(partial[:-1, -1])))
    pi_surf = (sounding.p_surf / constants.p00) ** (constants.R_d / constants.c_p)
    pi = pi_surf + np.concatenate(([0.0], (below[:, None] + partial).ravel()))
    if np.any(pi <= 0.0):
        raise ConfigurationError("hydrostatic Exner pressure fell to zero inside the domain")
    p0 = constants.p00 * pi ** (constants.c_p / constants.R_d)
    rho0 = constants.p00 * pi ** (constants.c_v / constants.R_d) / (constants.R_d * theta_v)

    # the weak vertical derivative of both profiles, summed over the 2N + 1
    # diagonals of its band in turn, so that each row adds its columns in
    # ascending order from 0.0: the order that fixed the reference
    # state's bits (a dense `@` sums in another and moves the last bits)
    Dz, prof = mesh.weak_derivative_1d[-1], np.stack((theta_v, qv))
    nz = prof.shape[-1]
    dprof = np.zeros_like(prof)
    for k in range(-N, N + 1):
        lo, hi = max(0, -k), min(nz, nz - k)
        dprof[:, lo:hi] += np.diagonal(Dz, k) * prof[:, lo + k:hi + k]
    dth, dqv = dprof
    gam = constants.c_p / constants.c_v
    profiles = [rho0, theta_v, qv, p0, dth, dqv,
                gam * p0 / rho0, gam * p0 / theta_v, -1.0 / rho0, -constants.g / rho0]
    if sponge is not None:
        profiles.append(sponge_profile(mesh.coords_1d[-1], sponge))
    (rho0_n, theta_v_n, qv_n, p0_n, dth_n, dqv_n,
     p_rho, p_theta, inv_rho, g_rho, *rw) = mesh.field_from_profile(np.stack(profiles))
    return ReferenceState(
        rho0=rho0_n, theta_v0=theta_v_n, q_v0=qv_n, p0=p0_n,
        dtheta_v0_dz=dth_n, dq_v0_dz=dqv_n,
        gamma_p0_rho0=p_rho, gamma_p0_theta_v0=p_theta,
        neg_inv_rho0=inv_rho, neg_g_rho0=g_rho, constants=constants,
        sponge=sponge, sponge_rw=rw[0] if rw else None,
        u0_1d=u0, v0_1d=v0, rho0_surf=float(rho0[0]),
    )


# ---------------------------------------------------------------------------
# nonlinear tendency

def evaluate_rhs(state: PrognosticState, reference: ReferenceState, mesh: Mesh, *,
                 out=None) -> PrognosticState:
    """Full nonlinear tendency S(q); no microphysical sources.

    The constants and the nodal damping profile R_w(z) (when there is a
    sponge) are the reference's. Vertical velocity tendencies at the
    impermeable bottom/top boundaries are zeroed (strong
    no-normal-flow). The tendency is written into `out` (a
    PrognosticState that must not overlap `state`) when given, else
    into a new state; intermediates live in the kernel and operator
    buffers of the mesh's step plan, which binds the products of the
    fields once per stage row (`StepPlan.field_products`).

    A condensate row that is zero on the whole grid is neither advected
    nor diffused. So a zero q_r leaves the derivative, advection and
    Laplacian stacks, and with it a zero q_c (a row leaves only from the
    end of the stack); their tendency rows are written as zero. Embedded
    grids are mostly cloud-free.
    """
    if out is None:
        out = PrognosticState.from_vector(np.empty(state.data.size), state.dim)
    elif np.may_share_memory(out.data, state.data):
        raise ValueError("evaluate_rhs: out must not overlap the state")
    constants, sponge_rw = reference.constants, reference.sponge_rw
    plan = mesh.plan
    dim = mesh.dim
    nf = len(state.data) - 1
    while nf > dim + 2 and not state.data[nf].any():
        nf -= 1
    fields, u, w = state.data[1:nf + 1], state.u, state.u[-1]
    rho, tmp, (gp, flux), derivs, gp_rho = plan.rhs_rows
    p_prime, rho_u = plan.pair_rows
    derivative, laplacian = plan.field_products(fields)
    derivs = derivs[:nf]
    np.add(reference.rho0, state.rho_p, out=rho)
    if np.min(rho) <= 0.0:
        raise StateError("vacuum: rho0 + rho' <= 0 somewhere")
    np.add(reference.theta_v0, state.theta_vp, out=tmp)
    _pressure(rho, tmp, constants, p_prime)
    p_prime -= reference.p0

    # per direction, the derivative of the pair (p', rho u_d) gives the
    # pressure gradient and the mass flux, that of the fields their
    # advection; -div(rho u) into row 0 of out and -u . grad of velocity
    # and scalars into rows 1.., each summed over directions in order
    adv = out.data[1:nf + 1]
    out.data[nf + 1:] = 0.0
    for d, (pair, field) in enumerate(zip(plan.rhs_pair, derivative)):
        np.multiply(rho, u[d], out=rho_u)
        pair()
        field()
        np.divide(gp, rho, out=gp_rho[d])
        if d:
            out.rho_p += flux
            derivs *= u[d]
            adv += derivs
        else:
            np.copyto(out.rho_p, flux)
            np.multiply(u[0], derivs, out=adv)
    np.negative(out.data[:nf + 1], out=out.data[:nf + 1])

    du = out.u
    du -= gp_rho
    buoy = p_prime  # p' is spent
    np.divide(state.rho_p, rho, out=buoy)
    np.multiply(constants.eps, state.q_vp, out=tmp)
    buoy -= tmp
    buoy += state.q_c
    buoy += state.q_r
    buoy *= constants.g
    du[-1] -= buoy
    if sponge_rw is not None:
        np.multiply(sponge_rw, w, out=tmp)
        du[-1] -= tmp
    np.multiply(w, reference.dtheta_v0_dz, out=tmp)
    out.theta_vp -= tmp
    np.multiply(w, reference.dq_v0_dz, out=tmp)
    out.q_vp -= tmp

    if constants.nu != 0.0:
        lap_d = plan.operator[:nf]
        for d, product in enumerate(laplacian):
            product()
            if d:
                derivs += lap_d
        derivs *= constants.nu
        adv += derivs

    du[-1][mesh.bottom_nodes] = 0.0
    du[-1][mesh.top_nodes] = 0.0
    return out


# ---------------------------------------------------------------------------
# Boyd-Vandeven filter

def filter_field(mesh: Mesh, field: np.ndarray, strength: float, out=None) -> np.ndarray:
    """Per-element modal Boyd-Vandeven filter blended by `strength`.

    Applies the mesh's projected 1D filters (`Mesh.modal_filter_1d`)
    along every direction: per element, mode k is scaled by
    (1-mu) + mu sigma(k/N), and continuity is restored by a mass-weighted
    average. Mode 0 is untouched, so constants and integrals are
    preserved exactly. `field` may stack several fields on a leading
    axis. The result goes into `out` (which may be `field`) when given.
    """
    check("filter strength", strength, float, Interval("[0, 1]"))
    if out is None:
        out = np.empty(field.shape)
    if strength == 0.0:
        np.copyto(out, field)
        return out
    return SemOps(mesh).tensor(mesh.modal_filter_1d(strength), field, out=out)


def apply_filter(state: PrognosticState, strength: float, mesh: Mesh,
                 out=None) -> PrognosticState:
    """Filter every prognostic field into `out` (which may be `state`) or a
    new state; identity when strength is zero."""
    if out is None:
        out = PrognosticState.from_vector(np.empty(state.data.size), mesh.dim)
    filter_field(mesh, state.data, strength, out=out.data)
    return out
