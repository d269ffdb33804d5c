"""IMEX ARK2 time stepping and the matrix-free GMRES it relies on.

One step treats the full nonlinear tendency S(q) explicitly and, when
delta=1, shifts a constant-coefficient linearization L(q) about the
reference state (acoustic, gravity/buoyancy, sponge terms) to the
implicit side:

    S_delta(q, q*) = [S(q) - delta L(q)] + delta L(q*)

Each implicit stage solves (I - gamma dt L) x = rhs by restarted GMRES
with no preconditioner. L reads only (rho', u, theta_v'), and its
moisture rows follow from w pointwise, so a split that says so has
GMRES iterate on those 2+dim rows alone and gets the moisture rows of
x by substitution. delta=0 degenerates to the purely explicit
ARK2 explicit table. An optional constant coupling tendency is added
to the explicit part at every stage (it is defined at step
granularity, so it is frozen across stages).

The vector arithmetic works in place: Gram-Schmidt updates and stage
sums are BLAS axpy calls on buffers this module owns, so an Arnoldi
iteration allocates nothing of state size but its operator's result.
The stage vectors and the Krylov basis are named buffers of a
`WorkBuffers` store (a mesh's, when the caller passes one), so
repeated steps reuse them. Results that a GMRES operator returns are
scaled and orthogonalized in place unless they share memory with its
input, in which case they are copied first; the caller's state is
never written.
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

from .dynamics import PhysConstants
from .errors import ConfigurationError, SolverError
from .grid import Mesh, WorkBuffers
from .operators import PrognosticState, SemOps

__all__ = [
    "Ark2Tableau",
    "ark2_tableau",
    "stability_function",
    "GmresConfig",
    "gmres_solve",
    "ImexOperatorSplit",
    "linear_moisture_rows",
    "linear_operator",
    "solve_implicit",
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
                config: GmresConfig = GmresConfig(),
                work: Optional[WorkBuffers] = None, out=None) -> np.ndarray:
    """Restarted GMRES on A x = b with A given only as an action.

    Arnoldi with modified Gram-Schmidt, Givens-rotation least squares,
    zero initial guess. Raises SolverError (carrying the final
    residual) if the relative residual has not reached config.tol
    within config.maxiter Arnoldi matvecs. The solution is built in
    `out` (a contiguous float64 array apart from b) when given, else in
    a new array.

    The basis is the buffer "gmres_solve.basis" of `work` (a fresh
    store when None), whose restart + 1 rows every cycle reuses, and a
    cycle writes only the rows it reaches; residuals are formed in its
    first row. The array apply_A returns for a basis vector becomes
    GMRES's work vector and is overwritten in place; a result that
    shares memory with the Krylov basis, or is not a writable
    contiguous float64 array, is copied first.
    """
    b = np.asarray(b, dtype=float)
    if out is None:
        out = np.empty_like(b)
    elif (out.shape != b.shape or out.dtype != np.float64 or not out.flags.c_contiguous
          or np.may_share_memory(out, b)):
        # dgemv updates x in place only when it is contiguous float64
        raise ValueError("gmres_solve: out must be a contiguous float64 array apart from b")
    x = out
    x.fill(0.0)
    bnorm = math.sqrt(ddot(b, b))
    if bnorm == 0.0:
        return x
    target = config.tol * bnorm

    if work is None:
        work = WorkBuffers()
    basis = work.array("gmres_solve.basis", (config.restart + 1, b.size))

    def residual():
        return np.subtract(b, apply_A(x), out=basis[0])

    matvecs = 0
    resnorm = bnorm
    while matvecs < config.maxiter:
        r = residual() if matvecs else b
        resnorm = math.sqrt(ddot(r, r))
        if resnorm <= target:
            return x
        m = min(config.restart, config.maxiter - matvecs)
        V = basis[:m + 1]
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = resnorm
        # basis vectors are scaled by a reciprocal: half the cost of a divide
        np.multiply(r, 1.0 / resnorm, out=V[0])
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
            np.multiply(w, 1.0 / H[k + 1, k], out=V[k + 1])
        y = np.linalg.solve(np.triu(H[:k_used, :k_used]), g[:k_used])
        dgemv(1.0, V[:k_used].T, y, beta=1.0, y=x, overwrite_y=True)
        if resnorm <= target:
            # trust but verify: the rotated-residual estimate can drift
            r = residual()
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

def linear_operator(state_increment, reference, mesh: Mesh,
                    constants: Optional[PhysConstants] = None, out=None):
    """Constant-coefficient linearization L of the fast-wave terms.

    Rows: continuity -div(rho0 u); momentum -(1/rho0) grad p'_lin with
    p'_lin = (cp/cv)[(p0/rho0) rho' + (p0/theta_v0) theta_v'], plus
    buoyancy -g rho'/rho0 and sponge -R_w w on the vertical component;
    thermodynamic -w d(theta_v0)/dz; the moisture rows as
    `linear_moisture_rows` gives them. Vertical-velocity rows vanish at
    the impermeable boundaries.

    L reads only the coupled rows (rho', u, theta_v'), so the increment
    may be a PrognosticState or the (2+dim, npts) array of those rows
    alone. A state gets every row, written into `out` (a state) or a new
    state; the rows alone get only the coupled rows of L, written into
    `out` (an array of their shape) or a new array. `out` must not
    overlap the increment.

    The coefficients and the sponge row are the reference's, made once,
    so a call does no divide and no arithmetic on the reference alone.
    `constants` is optional, for callers that name theirs (the
    acceptance gate does); when given, it must agree with the
    reference's in c_p, c_v and g (ConfigurationError otherwise). Each direction takes one
    derivative call on the stacked pair (p'_lin, rho0 u_d), which lives
    in the mesh's "operator" buffer. The pair's derivatives land in the
    momentum row of d and the row after it, from which the continuity
    row takes the flux term before anything overwrites it. The 1D
    matrices sum each stacked column in the same order, so this is
    bit-identical to separate gradient and divergence calls.
    """
    ref_c = reference.constants
    if constants is not None and (constants.c_p, constants.c_v, constants.g) != (
            ref_c.c_p, ref_c.c_v, ref_c.g):
        raise ConfigurationError(
            "linear_operator: constants differ from the reference's in c_p, c_v or g")
    ops = SemOps(mesh)
    D = mesh.weak_derivative_1d
    dim = mesh.dim
    full = isinstance(state_increment, PrognosticState)
    q = state_increment.data if full else state_increment
    rho_p, u, theta_vp, w = q[0], q[1:1 + dim], q[1 + dim], q[dim]
    if out is None:
        out = (PrognosticState.from_vector(np.empty(q.size), dim) if full
               else np.empty((2 + dim, q.shape[1])))
    res = out.data if full else out
    if np.may_share_memory(res, q):
        raise ValueError("linear_operator: out must not overlap the increment")
    d_rho, du, d_th, dw = res[0], res[1:1 + dim], res[1 + dim], res[dim]
    pair = mesh.work.array("operator", (2, q.shape[1]))
    p_lin, tmp = pair   # the flux row doubles as scratch outside the loop
    np.multiply(reference.gamma_p0_rho0, rho_p, out=p_lin)
    np.multiply(reference.gamma_p0_theta_v0, theta_vp, out=tmp)
    p_lin += tmp
    for d in range(dim):
        np.multiply(reference.rho0, u[d], out=tmp)
        ops.along(D[d], pair, d, out=res[1 + d:3 + d])
        if d:
            d_rho -= res[2 + d]
        else:
            np.negative(res[2], out=d_rho)
    du *= reference.neg_inv_rho0
    np.multiply(reference.neg_g_rho0, rho_p, out=tmp)
    dw += tmp
    if reference.sponge_rw is not None:
        np.multiply(reference.sponge_rw, w, out=tmp)
        dw -= tmp
    dw[mesh.bottom_nodes] = 0.0
    dw[mesh.top_nodes] = 0.0
    np.negative(w, out=d_th)
    d_th *= reference.dtheta_v0_dz
    if full:
        linear_moisture_rows(w, reference, res[2 + dim:])
    return out


def linear_moisture_rows(w: np.ndarray, reference, out: np.ndarray) -> np.ndarray:
    """The rows of L below the coupled block, from the vertical velocity
    w alone, written into the (3, npts) `out`: vapor -w d(q_v0)/dz,
    cloud and rain zero."""
    np.negative(w, out=out[0])
    out[0] *= reference.dq_v0_dz
    out[1:] = 0.0
    return out


# ---------------------------------------------------------------------------
# the ARK2 step

@dataclass
class ImexOperatorSplit:
    """Tendency pair for one simulator plus the explicit/implicit switch.

    s and lin map a PrognosticState to a tendency PrognosticState; lin
    must be linear. Both may return one and the same array on every
    call (an output buffer): `step_ark2` is done with each result
    before it calls either again. delta=1 treats lin implicitly,
    delta=0 runs fully explicit. coupling, when present, is a constant tendency
    added to the explicit part of every stage.

    implicit_rows = k says that lin reads only the first k field rows
    and that its other rows follow from them pointwise, by lin_rest(q,
    out), which writes them for the state q into the array `out`. The
    implicit solves then iterate on the k rows alone (see
    `solve_implicit`), handing lin the (k, npts) array of those rows, for
    which it must return the k rows of L as an array. None means all.
    """

    s: Callable[[PrognosticState], PrognosticState]
    lin: Callable[[PrognosticState], PrognosticState]
    delta: int = 1
    coupling: Optional[PrognosticState] = None
    implicit_rows: Optional[int] = None
    lin_rest: Optional[Callable[[PrognosticState, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.delta not in (0, 1):
            raise ConfigurationError(f"delta must be 0 or 1, got {self.delta}")
        if (self.implicit_rows is None) != (self.lin_rest is None):
            raise ConfigurationError("implicit_rows and lin_rest must be given together")


def solve_implicit(split: ImexOperatorSplit, shift: float, b: PrognosticState,
                   gmres_cfg: GmresConfig = GmresConfig(),
                   work: Optional[WorkBuffers] = None,
                   out: Optional[PrognosticState] = None) -> PrognosticState:
    """x with (I - shift L) x = b for the split's L, into `out` or a new state.

    GMRES iterates on every row unless the split names its implicit
    rows. Then the system is block lower-triangular: GMRES solves the
    leading rows' closed block alone, and the other rows follow exactly
    by substitution, x_m = b_m + shift (L x)_m, with (L x)_m from
    split.lin_rest. `work` is handed to `gmres_solve`.
    """
    dim = b.dim
    if out is None:
        out = PrognosticState.from_vector(np.empty(b.data.size), dim)
    k = split.implicit_rows
    if k is None:
        def lin(v):
            return split.lin(PrognosticState.from_vector(v, dim)).as_vector()
    else:
        npts = b.data.shape[1]

        def lin(v):
            return split.lin(v.reshape(k, npts)).reshape(-1)

    def apply_A(v):
        Av = _owned(lin(v), v)
        Av *= -shift
        Av += v
        return Av

    gmres_solve(apply_A, b.data[:k].reshape(-1), gmres_cfg, work=work,
                out=out.data[:k].reshape(-1))
    if k is not None:
        rest = split.lin_rest(out, out.data[k:])
        rest *= shift
        rest += b.data[k:]
    return out


def step_ark2(state: PrognosticState, dt: float, split: ImexOperatorSplit,
              gmres_cfg: GmresConfig = GmresConfig(),
              work: Optional[WorkBuffers] = None) -> PrognosticState:
    """Advance one step of the `ark2_tableau` pair; returns a new state.

    The final update uses the shared weights b on S(q_i) + coupling
    only: the delta L contributions cancel exactly between the
    explicit and implicit tables, which keeps the continuity row in
    pure divergence form regardless of the linear-solve tolerance.
    The stage vectors are buffers of `work` (a fresh store when None),
    which the implicit solves also use for their Krylov basis.
    """
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    dim = state.dim
    ae, ai, b = _ARK2.a_explicit, _ARK2.a_implicit, _ARK2.b
    delta = split.delta
    shift = delta * dt * _ARK2.gamma
    cvec = split.coupling.as_vector() if split.coupling is not None else None
    if work is None:
        work = WorkBuffers()

    def S(vec):
        return split.s(PrognosticState.from_vector(vec, dim)).as_vector()

    def L(vec):
        return split.lin(PrognosticState.from_vector(vec, dim)).as_vector()

    q0 = state.as_vector()
    n = q0.size
    # the b-weighted sum of S(q_i) + coupling builds up in `out` stage
    # by stage, in the order of the weights
    out = q0.copy()
    # the right-hand sides of stages 1 and 2, which take each increment
    # as soon as it is known in the order the tableau sums them; then a
    # stage's implicit solution, and L(q_i)
    stages = work.array("step_ark2.stages", (4, n))
    rhs, q, lv = stages[:2], stages[2], stages[3]
    rhs[:] = q0
    q_state = PrognosticState.from_vector(q, dim)

    qi = q0
    for i in range(3):
        if i > 0:
            qi = rhs[i - 1]
            if delta:
                qi = solve_implicit(split, shift, PrognosticState.from_vector(qi, dim),
                                    gmres_cfg, work=work, out=q_state).as_vector()
        if i < 2 and delta:
            np.copyto(lv, L(qi))
        sv = _owned(S(qi), qi)
        if cvec is not None:
            daxpy(cvec, sv)
        daxpy(sv, out, a=dt * b[i])
        if i < 2:
            if delta:
                np.subtract(sv, lv, out=sv)   # S(q_i) + coupling - delta L(q_i)
            for k in range(i + 1, 3):
                daxpy(sv, rhs[k - 1], a=dt * ae[k, i])
                if delta:
                    daxpy(lv, rhs[k - 1], a=dt * delta * ai[k, i])
    return PrognosticState.from_vector(out, dim)
