"""IMEX ARK2 time stepping and the matrix-free GMRES it relies on.

One step treats the full nonlinear tendency S(q) explicitly and, when
delta=1, shifts a constant-coefficient linearization L(q) about the
reference state (acoustic, gravity/buoyancy, sponge terms) to the
implicit side:

    S_delta(q, q*) = [S(q) - delta L(q)] + delta L(q*)

Each implicit stage solves (I - gamma dt L) x = rhs by restarted GMRES
with no preconditioner. delta=0 degenerates to the purely explicit
ARK2 explicit table. An optional constant coupling tendency is added
to the explicit part at every stage (it is defined at step
granularity, so it is frozen across stages).

The vector arithmetic works in place: Gram-Schmidt updates and stage
sums are BLAS axpy calls on buffers this module owns, so an Arnoldi
iteration allocates nothing of state size. Results that S, L or a GMRES
operator return are scaled and accumulated in place unless they share
memory with their input, in which case they are copied first; the
caller's state is never written.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
# numpy and scipy each bundle an OpenBLAS with its own thread pool; the
# solver's vector operations all go through scipy's, because alternating
# between the two pools leaves one pool's threads spinning against the
# other's and made multithreaded runs about ten times slower
from scipy.linalg.blas import daxpy, ddot, dgemv

from .dynamics import DEFAULT_CONSTANTS, PhysConstants
from .errors import ConfigurationError, SolverError
from .grid import Mesh
from .operators import PrognosticState, get_ops

__all__ = [
    "Ark2Tableau",
    "ark2_tableau",
    "stability_function",
    "GmresConfig",
    "gmres_solve",
    "ImexOperatorSplit",
    "linear_operator",
    "step_ark2",
]


@dataclass(frozen=True)
class Ark2Tableau:
    """Three-stage, second-order additive RK pair sharing the weights b."""

    a_explicit: np.ndarray
    a_implicit: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        ae, ai, b = self.a_explicit, self.a_implicit, self.b
        if ae.shape != (3, 3) or ai.shape != (3, 3) or b.shape != (3,):
            raise ConfigurationError("tableau must be 3-stage")
        if abs(b.sum() - 1.0) > 1e-14:
            raise ConfigurationError("weights b must sum to 1")
        if np.max(np.abs(ai[2] - b)) > 1e-14:
            raise ConfigurationError("implicit table must be stiffly accurate (last row = b)")

    @property
    def gamma(self) -> float:
        return float(self.a_implicit[1, 1])

    @property
    def c(self) -> np.ndarray:
        """Abscissae from the explicit row sums."""
        return self.a_explicit.sum(axis=1)


def ark2_tableau() -> Ark2Tableau:
    """The ARK(2,3,2)b pair: gamma = 1 - 1/sqrt(2), two-register form."""
    g = 1.0 - 1.0 / math.sqrt(2.0)
    a32 = (3.0 + 2.0 * math.sqrt(2.0)) / 6.0
    ae = np.array([
        [0.0, 0.0, 0.0],
        [2.0 * g, 0.0, 0.0],
        [1.0 - a32, a32, 0.0],
    ])
    ai = np.array([
        [0.0, 0.0, 0.0],
        [g, g, 0.0],
        [1.0 / (2.0 * math.sqrt(2.0)), 1.0 / (2.0 * math.sqrt(2.0)), g],
    ])
    b = ai[2].copy()
    return Ark2Tableau(a_explicit=ae, a_implicit=ai, b=b)


def stability_function(tableau: Ark2Tableau, z):
    """One-step amplification R(z) of the implicit table on q' = z q.

    For dq/dt = lambda q fed through the IMEX split with S = L the
    explicit increments cancel and the step is purely diagonally
    implicit: R(z) = 1 + z b^T (I - z A)^{-1} 1.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    I = np.eye(3)
    ones = np.ones(3)
    for idx, zz in np.ndenumerate(z):
        out[idx] = 1.0 + zz * (tableau.b @ np.linalg.solve(I - zz * tableau.a_implicit, ones))
    return out if out.shape else complex(out)


_ARK2 = ark2_tableau()


# ---------------------------------------------------------------------------
# GMRES

@dataclass(frozen=True)
class GmresConfig:
    tol: float = 1e-6        # relative residual target
    restart: int = 30
    maxiter: int = 300       # Arnoldi matvecs across restarts; the restart
                             # residuals and the final check are not counted

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ConfigurationError(f"GMRES tolerance must be in (0,1), got {self.tol}")
        if self.restart < 1 or self.maxiter < 1:
            raise ConfigurationError("GMRES restart and maxiter must be >= 1")


def _owned(a: np.ndarray, *inputs: np.ndarray) -> np.ndarray:
    """a itself if it is a writable contiguous float64 array sharing no
    memory with `inputs`; otherwise a copy that is."""
    a = np.asarray(a)
    if (a.dtype != np.float64 or not a.flags.c_contiguous or not a.flags.writeable
            or any(np.may_share_memory(a, v) for v in inputs)):
        return np.array(a, dtype=np.float64)
    return a


def gmres_solve(apply_A: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
                config: GmresConfig = GmresConfig()) -> np.ndarray:
    """Restarted GMRES on A x = b with A given only as an action.

    Arnoldi with modified Gram-Schmidt, Givens-rotation least squares,
    zero initial guess. Raises SolverError (carrying the final
    residual) if the relative residual has not reached config.tol
    within config.maxiter Arnoldi matvecs.

    The array apply_A returns for a basis vector becomes GMRES's work
    vector and is overwritten in place; a result that shares memory
    with the Krylov basis, or is not a writable contiguous float64
    array, is copied first.
    """
    b = np.asarray(b, dtype=float)
    bnorm = math.sqrt(ddot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    target = config.tol * bnorm

    x = np.zeros_like(b)
    matvecs = 0
    resnorm = bnorm
    while matvecs < config.maxiter:
        r = b - apply_A(x) if matvecs else b
        resnorm = math.sqrt(ddot(r, r))
        if resnorm <= target:
            return x
        m = min(config.restart, config.maxiter - matvecs)
        V = np.empty((m + 1, b.size))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = resnorm
        np.divide(r, resnorm, out=V[0])
        k_used = 0
        for k in range(m):
            w = _owned(apply_A(V[k]), V)
            matvecs += 1
            for j in range(k + 1):
                H[j, k] = ddot(V[j], w)
                daxpy(V[j], w, a=-H[j, k])
            H[k + 1, k] = math.sqrt(ddot(w, w))
            # previously accumulated Givens rotations
            for j in range(k):
                t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
                H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
                H[j, k] = t
            denom = math.hypot(H[k, k], H[k + 1, k])
            cs[k] = H[k, k] / denom
            sn[k] = H[k + 1, k] / denom
            H[k, k] = denom
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_used = k + 1
            resnorm = abs(g[k + 1])
            happy = H[k + 1, k] <= 1e-14 * max(1.0, abs(H[k, k]))
            if resnorm <= target or happy:
                break
            np.divide(w, H[k + 1, k], out=V[k + 1])
        y = np.linalg.solve(np.triu(H[:k_used, :k_used]), g[:k_used])
        dgemv(1.0, V[:k_used].T, y, beta=1.0, y=x, overwrite_y=True)
        if resnorm <= target:
            # trust but verify: the rotated-residual estimate can drift
            r = b - apply_A(x)
            true_res = math.sqrt(ddot(r, r))
            if true_res <= target * (1.0 + 1e-8) or true_res <= resnorm * 1.01 + 1e-300:
                return x
            resnorm = true_res
    raise SolverError(
        f"GMRES did not reach tol={config.tol:g} within {config.maxiter} iterations "
        f"(relative residual {resnorm / bnorm:.3e})",
        residual=resnorm / bnorm)


# ---------------------------------------------------------------------------
# linearized operator about the reference state

def linear_operator(state_increment: PrognosticState, reference, mesh: Mesh,
                    constants: PhysConstants = DEFAULT_CONSTANTS,
                    sponge_rw=None) -> PrognosticState:
    """Constant-coefficient linearization L of the fast-wave terms.

    Rows: continuity -div(rho0 u); momentum -(1/rho0) grad p'_lin with
    p'_lin = (cp/cv)[(p0/rho0) rho' + (p0/theta_v0) theta_v'], plus
    buoyancy -g rho'/rho0 and sponge -R_w w on the vertical component;
    thermodynamic -w d(theta_v0)/dz; vapor -w d(q_v0)/dz. Cloud and
    rain rows are zero; vertical-velocity rows vanish at the
    impermeable boundaries.

    Each direction takes one derivative call on the stacked pair
    (p'_lin, rho0 u_d), and every row is written in place into one new
    array. The 1D matrices sum each stacked column in the same order,
    so this is bit-identical to separate gradient and divergence calls.
    """
    ops = get_ops(mesh)
    D = mesh.weak_derivative_1d
    dim = mesh.dim
    q = state_increment
    rho0 = reference.rho0
    gam = constants.c_p / constants.c_v
    out = np.empty((5 + dim, mesh.npts))
    d_rho, du, w = out[0], out[1:1 + dim], q.u[-1]
    # the q_c row holds intermediate products until it is zeroed at the end
    d_th, d_qv, scratch = out[-4], out[-3], out[-2]

    pair = np.empty((2, mesh.npts))
    p_lin = pair[0]
    np.divide(reference.p0, rho0, out=p_lin)
    p_lin *= q.rho_p
    np.divide(reference.p0, reference.theta_v0, out=scratch)
    scratch *= q.theta_vp
    p_lin += scratch
    p_lin *= gam
    for d in range(dim):
        np.multiply(rho0, q.u[d], out=pair[1])
        dp, dflux = ops.along(D[d], pair, d)
        np.negative(dp, out=du[d])
        du[d] /= rho0
        if d:
            d_rho += dflux
        else:
            d_rho[:] = dflux
    np.negative(d_rho, out=d_rho)

    np.multiply(constants.g, q.rho_p, out=scratch)
    scratch /= rho0
    du[-1] -= scratch
    if sponge_rw is not None:
        np.multiply(sponge_rw, w, out=scratch)
        du[-1] -= scratch
    # z runs slowest, so the bottom and top nodes are the first and last
    # ncols points
    ncols = mesh.ncols
    du[-1][:ncols] = 0.0
    du[-1][-ncols:] = 0.0
    np.negative(w, out=d_th)
    d_th *= reference.dtheta_v0_dz
    np.negative(w, out=d_qv)
    d_qv *= reference.dq_v0_dz
    out[-2:] = 0.0
    return PrognosticState.from_vector(out, dim)


# ---------------------------------------------------------------------------
# the ARK2 step

@dataclass
class ImexOperatorSplit:
    """Tendency pair for one simulator plus the explicit/implicit switch.

    s and lin map a PrognosticState to a tendency PrognosticState; lin
    must be linear. delta=1 treats lin implicitly, delta=0 runs fully
    explicit. coupling, when present, is a constant tendency added to
    the explicit part of every stage.
    """

    s: Callable[[PrognosticState], PrognosticState]
    lin: Callable[[PrognosticState], PrognosticState]
    delta: int = 1
    coupling: Optional[PrognosticState] = None

    def __post_init__(self):
        if self.delta not in (0, 1):
            raise ConfigurationError(f"delta must be 0 or 1, got {self.delta}")


def step_ark2(state: PrognosticState, dt: float, split: ImexOperatorSplit,
              gmres_cfg: GmresConfig = GmresConfig()) -> PrognosticState:
    """Advance one step of the `ark2_tableau` pair; returns a new state.

    The final update uses the shared weights b on S(q_i) + coupling
    only: the delta L contributions cancel exactly between the
    explicit and implicit tables, which keeps the continuity row in
    pure divergence form regardless of the linear-solve tolerance.
    """
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    dim = state.dim
    ae, ai, b = _ARK2.a_explicit, _ARK2.a_implicit, _ARK2.b
    gamma = _ARK2.gamma
    delta = split.delta
    cvec = split.coupling.as_vector() if split.coupling is not None else None

    def S(vec):
        return split.s(PrognosticState.from_vector(vec, dim)).as_vector()

    def L(vec):
        return split.lin(PrognosticState.from_vector(vec, dim)).as_vector()

    q0 = state.as_vector()
    stages_e = []    # S(q_i) + coupling - delta L(q_i)
    stages_S = []    # S(q_i) + coupling, reused by the final b-sum
    lin_stages = []  # L(q_i), implicit-table contributions

    def solve_stage(rhs):
        if delta == 0:
            return rhs
        shift = delta * dt * gamma

        def apply_A(v):
            out = _owned(L(v), v)
            out *= -shift
            out += v
            return out

        return gmres_solve(apply_A, rhs, gmres_cfg)

    qi = q0
    for i in range(3):
        if i > 0:
            rhs = q0.copy()
            for j in range(i):
                daxpy(stages_e[j], rhs, a=dt * ae[i, j])
                if delta:
                    daxpy(lin_stages[j], rhs, a=dt * delta * ai[i, j])
            qi = solve_stage(rhs)
        sv = _owned(S(qi), qi)
        if cvec is not None:
            daxpy(cvec, sv)
        stages_S.append(sv)
        if i < 2:
            # later stages never reference stage-2 increments
            if delta:
                lv = L(qi)
                lin_stages.append(lv)
                stages_e.append(sv - lv)
            else:
                stages_e.append(sv)

    out = q0.copy()
    for i in range(3):
        daxpy(stages_S[i], out, a=dt * b[i])
    return PrognosticState.from_vector(out, dim)
