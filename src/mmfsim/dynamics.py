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
from scipy.interpolate import PchipInterpolator

from .errors import ConfigurationError, StateError
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
    g: float = 9.81          # m/s2
    R_d: float = 287.0       # J/(kg K)
    R_v: float = 461.5       # J/(kg K)
    c_p: float = 1004.0      # J/(kg K)
    p00: float = 1.0e5       # Pa, Exner reference pressure
    L_v: float = 2.5e6       # J/kg, latent heat of vaporization
    nu: float = 0.0          # m2/s, artificial viscosity

    @property
    def eps(self) -> float:
        """R_v/R_d - 1, about 0.608 for standard air/vapor constants."""
        return self.R_v / self.R_d - 1.0

    @property
    def c_v(self) -> float:
        return self.c_p - self.R_d

    def with_nu(self, nu: float) -> "PhysConstants":
        return replace(self, nu=float(nu))


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
    `out` when given."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise StateError("non-positive density in equation of state")
    if out is None:
        out = np.empty(np.broadcast(rho, theta_v).shape)
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
    z_b: float    # m, bottom of the damping layer
    z_t: float    # m, model top
    R_max: float  # 1/s

    def __post_init__(self):
        if not (0.0 <= self.z_b < self.z_t) or not 0.0 <= self.R_max < np.inf:
            raise ConfigurationError(f"bad sponge config {self}")


def sponge_profile(z, cfg: SpongeConfig):
    """R_w(z) = R_max sin^2((pi/2)(z - z_b)/(z_t - z_b)), zero below z_b."""
    z = np.asarray(z, dtype=float)
    s = np.sin(0.5 * np.pi * (z - cfg.z_b) / (cfg.z_t - cfg.z_b)) ** 2
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
    th, qv, u0, v0 = PchipInterpolator(sounding.z, columns)(mesh.coords_1d[-1]).T
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

    dth, dqv = (mesh.weak_derivative_1d[-1] @ np.stack((theta_v, qv), axis=-1)).T
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
    into a new state; intermediates live in the mesh's "kernel" buffer.
    """
    if out is None:
        out = PrognosticState.from_vector(np.empty(state.data.size), state.dim)
    elif np.may_share_memory(out.data, state.data):
        raise ValueError("evaluate_rhs: out must not overlap the state")
    constants, sponge_rw = reference.constants, reference.sponge_rw
    ops = SemOps(mesh)
    D = mesh.weak_derivative_1d
    dim, npts = mesh.dim, mesh.npts
    fields, u, w = state.data[1:], state.u, state.u[-1]
    block = mesh.work.array("kernel", (2 * dim + 7, npts))
    (rho, tmp, p_prime), derivs, gp_rho = block[:3], block[3:dim + 7], block[dim + 7:]
    np.add(reference.rho0, state.rho_p, out=rho)
    if np.min(rho) <= 0.0:
        raise StateError("vacuum: rho0 + rho' <= 0 somewhere")
    np.add(reference.theta_v0, state.theta_vp, out=tmp)
    equation_of_state(rho, theta_v=tmp, constants=constants, out=p_prime)
    p_prime -= reference.p0

    # first derivatives of velocity and scalars along one direction at a
    # time, then their Laplacian; the mass flux uses the rows first
    np.multiply(rho, u, out=derivs[:dim])
    np.negative(ops.div(derivs[:dim], out=out.rho_p), out=out.rho_p)

    # -u . grad of velocity and scalars into rows 1.. of out, summed over
    # directions in order; the pressure gradient over rho beside it
    adv = out.data[1:]
    for d in range(dim):
        ops.along(D[d], fields, d, out=derivs)
        ops.along(D[d], p_prime, d, out=gp_rho[d])
        gp_rho[d] /= rho
        if d:
            derivs *= u[d]
            adv += derivs
        else:
            np.multiply(u[0], derivs, out=adv)
    np.negative(adv, out=adv)

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
        lap = ops.laplacian(fields, out=derivs)
        lap *= constants.nu
        adv += lap

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
    if not 0.0 <= strength <= 1.0:
        raise ConfigurationError(f"filter strength must lie in [0, 1], got {strength}")
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
