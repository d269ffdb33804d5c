"""IMEX ARK2 time stepping and the matrix-free GMRES it relies on.

One step treats the full nonlinear tendency S(q) explicitly and, when
delta=1, shifts a constant-coefficient linearization L(q) about the
reference state (acoustic, gravity/buoyancy, sponge terms) to the
implicit side:

    S_delta(q, q*) = [S(q) - delta L(q)] + delta L(q*)

Each implicit stage solves (I - gamma dt L) x = rhs by restarted GMRES
with no preconditioner, as the shifted system (L - sigma I) y = rhs,
sigma = 1/(gamma dt) and x = -sigma y, which has the same relative
residuals: a matvec is one L and one axpy. L reads only (rho', u,
theta_v'), and its moisture rows follow from w pointwise, so a split
that says so has GMRES iterate on those 2+dim rows alone and gets the
moisture rows of x by substitution. delta=0 degenerates to the purely
explicit ARK2 explicit table. An optional constant coupling tendency is
added to the explicit part at every stage (it is defined at step
granularity, so it is frozen across stages).

The vector arithmetic works in place: Gram-Schmidt updates and stage
sums are BLAS axpy calls on the stage vectors and the Krylov basis, so
an Arnoldi iteration allocates nothing of state size but its operator's
result, and its least-squares bookkeeping is plain floats, made into
the triangular matrix once per restart cycle.
`Simulator.step` passes its mesh's step plan's (`Mesh.plan`), made on
the first step and gone with the mesh, whose products S binds once to
the stage vectors it is handed; simulators sharing a mesh share them,
so they must not step concurrently. Dot products sum fixed chunks in
order (`operators.fixed_order_dot`), so the iterates do not depend on
the BLAS thread count; a basis row is cut into its chunks once, when it
is first made. Results that a GMRES operator returns are scaled and
orthogonalized in place unless they share memory with the Krylov basis,
in which case they are copied first; an operator mostly returns one
buffer, so that test runs once per distinct result. The caller's state
is never written.
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
from scipy.linalg.lapack import dtrtrs

from .dynamics import PhysConstants
from .errors import (COUNT, POSITIVE, ConfigurationError, Interval, SolverError, check,
                     check_settings, setting)
from .grid import Mesh
from .operators import _DOT_CHUNK, PrognosticState

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
    tol: float = setting(float, Interval("(0, 1)"), 1e-6)  # relative residual target
    restart: int = setting(int, COUNT, 30)
    maxiter: int = setting(int, COUNT, 300)  # Arnoldi matvecs across restarts; the restart
                                             # residuals and the final check are not counted

    def __post_init__(self):
        check_settings(self)


def _owned(a: np.ndarray, other: np.ndarray) -> np.ndarray:
    """a itself if it is a writable contiguous float64 array sharing no
    memory with `other`; otherwise a copy that is."""
    a = np.asarray(a)
    if (a.dtype != np.float64 or not a.flags.c_contiguous or not a.flags.writeable
            or np.may_share_memory(a, other)):
        return np.array(a, dtype=np.float64)
    return a


class _WorkArrays:
    """Hands back an operator's result as (a, cut(a)) with `a` the result
    itself when it is a writable contiguous float64 array sharing no
    memory with any array of `apart`, else a copy. An operator mostly
    returns one buffer call after call, and memory does not move, so the
    sharing test runs and `cut` is taken once per distinct result; the
    other tests run on every call."""

    def __init__(self, apart, cut):
        self.apart, self.cut, self.last = apart, cut, (None, None)

    def __call__(self, a):
        a = np.asarray(a)
        if a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable:
            if a is self.last[0]:
                return self.last
            if not any(np.may_share_memory(a, other) for other in self.apart):
                self.last = (a, self.cut(a))
                return self.last
        a = np.array(a, dtype=np.float64)
        return a, self.cut(a)


def _dot_chunks(a: np.ndarray) -> list:
    """The `_DOT_CHUNK` views that `fixed_order_dot` sums over, cut once."""
    return [a[i:i + _DOT_CHUNK] for i in range(0, a.size, _DOT_CHUNK)]


def _chunked_dot(a: list, b: list) -> float:
    """`fixed_order_dot` of two vectors given as their `_dot_chunks`."""
    total = 0.0
    for p, q in zip(a, b):
        total += ddot(p, q)
    return total


def gmres_solve(apply_A: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
                config: GmresConfig = GmresConfig(),
                basis: Optional[np.ndarray] = None, out=None) -> np.ndarray:
    """Restarted GMRES on A x = b with A given only as an action.

    Arnoldi with modified Gram-Schmidt, Givens-rotation least squares,
    zero initial guess. Raises SolverError (carrying the final
    residual) if the relative residual has not reached config.tol
    within config.maxiter Arnoldi matvecs. The solution is built in
    `out` (a contiguous float64 array apart from b) when given, else in
    a new array.

    The Krylov basis is the first (restart + 1) b.size elements of the
    contiguous float64 array `basis` (made when None; ValueError, before
    any matvec, when it is smaller), whose restart + 1 rows every cycle
    reuses, and a cycle writes only the rows it reaches; residuals are
    formed in its first row. apply_A is applied to rows of the basis and
    to the solution only. The array apply_A returns for a basis vector
    becomes GMRES's work vector and is overwritten in place; a result
    that shares memory with the Krylov basis, or is not a writable
    contiguous float64 array, is copied first.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    size = (config.restart + 1) * n
    if out is None:
        out = np.empty_like(b)
    elif (out.shape != b.shape or out.dtype != np.float64 or not out.flags.c_contiguous
          or np.may_share_memory(out, b)):
        # dgemv updates x in place only when it is contiguous float64
        raise ValueError("gmres_solve: out must be a contiguous float64 array apart from b")
    basis = np.empty(size) if basis is None else basis
    if basis.dtype != np.float64 or not basis.flags.c_contiguous or basis.size < size:
        # a strided basis would be reshaped into a copy that no caller sees
        raise ValueError(f"gmres_solve: basis must be a contiguous float64 array of at least "
                         f"{size} values ({config.restart + 1} rows of {n}), got {basis.size} "
                         f"{basis.dtype} values{'' if basis.flags.c_contiguous else ', strided'}")
    x = out
    x.fill(0.0)
    # a vector longer than one chunk takes part in dots as its chunks
    cut, dot = (_dot_chunks, _chunked_dot) if n > _DOT_CHUNK else ((lambda a: a), ddot)
    b_cut = cut(b)
    bnorm = math.sqrt(dot(b_cut, b_cut))
    if bnorm == 0.0:
        return x
    target = config.tol * bnorm
    V = basis.reshape(-1)[:size].reshape(-1, n)
    # the basis rows reached so far, each with its chunks
    rows = [(V[0], cut(V[0]))]
    work = _WorkArrays((V,), cut)

    def residual():
        return np.subtract(b, apply_A(x), out=rows[0][0])

    matvecs = 0
    resnorm = bnorm
    while matvecs < config.maxiter:
        r, r_cut = (residual(), rows[0][1]) if matvecs else (b, b_cut)
        resnorm = math.sqrt(dot(r_cut, r_cut))
        if resnorm <= target:
            return x
        m = min(config.restart, config.maxiter - matvecs)
        # the columns of the rotated Hessenberg matrix, upper triangular
        cols, cs, sn, g = [], [], [], [resnorm]
        # basis vectors are scaled by a reciprocal: half the cost of a divide
        np.multiply(r, 1.0 / resnorm, out=rows[0][0])
        for k in range(m):
            w, w_cut = work(apply_A(rows[k][0]))
            matvecs += 1
            h = []
            for v, v_cut in rows[:k + 1]:
                c = dot(v_cut, w_cut)
                h.append(c)
                daxpy(v, w, n, -c)
            norm = math.sqrt(dot(w_cut, w_cut))
            # previously accumulated Givens rotations
            for j in range(k):
                h[j], h[j + 1] = cs[j] * h[j] + sn[j] * h[j + 1], -sn[j] * h[j] + cs[j] * h[j + 1]
            denom = math.hypot(h[k], norm)
            cs.append(h[k] / denom)
            sn.append(norm / denom)
            h[k] = denom
            g.append(-sn[k] * g[k])
            g[k] = cs[k] * g[k]
            cols.append(h)
            resnorm = abs(g[k + 1])
            if resnorm <= target or norm <= 1e-14 * max(1.0, denom):   # or happy breakdown
                break
            if len(rows) == k + 1:
                rows.append((V[k + 1], cut(V[k + 1])))
            np.multiply(w, 1.0 / norm, out=rows[k + 1][0])
        k_used = k + 1
        R = np.zeros((k_used, k_used), order="F")
        for j, col in enumerate(cols):
            R[:j + 1, j] = col
        # LAPACK's triangular solve costs a tenth of np.linalg.solve's LU and
        # gave its bits on each of 60,000 random systems of up to 30 x 30
        y = dtrtrs(R, g[:k_used])[0]
        dgemv(1.0, V[:k_used].T, y, beta=1.0, y=x, overwrite_y=True)
        if resnorm <= target:
            # trust but verify: the rotated-residual estimate can drift
            residual()
            true_res = math.sqrt(dot(rows[0][1], rows[0][1]))
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
    reference's in c_p, c_v and g (ConfigurationError otherwise). Each
    direction takes one derivative call on the stacked pair (p'_lin,
    rho0 u_d) in the step plan's operator rows, into the momentum row of
    d and the row after it, from which the continuity row takes the flux
    term before anything overwrites it; the plan binds these calls and
    the row views once for its own tendency. The 1D matrices sum each
    stacked column in the same order, so this is bit-identical to
    separate gradient and divergence calls.
    """
    ref_c = reference.constants
    if constants is not None and (constants.c_p, constants.c_v, constants.g) != (
            ref_c.c_p, ref_c.c_v, ref_c.g):
        raise ConfigurationError(
            "linear_operator: constants differ from the reference's in c_p, c_v or g")
    plan = mesh.plan
    dim = mesh.dim
    full = isinstance(state_increment, PrognosticState)
    q = state_increment.data if full else state_increment
    rho_p, theta_vp, w = q[0], q[1 + dim], q[dim]
    if out is None:
        out = (PrognosticState.from_vector(np.empty(q.size), dim) if full
               else np.empty((2 + dim, q.shape[1])))
    res = out.data if full else out
    if np.may_share_memory(res, q):
        raise ValueError("linear_operator: out must not overlap the increment")
    own = res is plan.coupled or res is plan.tendency.data
    d_rho, du, d_th, dw, w_ends, derivatives = (
        plan.operator_rows if own else _operator_rows(plan, res, mesh.ncols))
    p_lin, tmp = plan.pair_rows   # the flux row doubles as scratch
    np.multiply(reference.gamma_p0_rho0, rho_p, out=p_lin)
    np.multiply(reference.gamma_p0_theta_v0, theta_vp, out=tmp)
    p_lin += tmp
    for d, (derivative, flux) in enumerate(derivatives):
        np.multiply(reference.rho0, q[1 + d], out=tmp)
        derivative()
        if d:
            d_rho -= flux
        else:
            np.negative(flux, out=d_rho)
    du *= reference.neg_inv_rho0
    np.multiply(reference.neg_g_rho0, rho_p, out=tmp)
    dw += tmp
    if reference.sponge_rw is not None:
        np.multiply(reference.sponge_rw, w, out=tmp)
        dw -= tmp
    for level in w_ends:
        level.fill(0.0)
    np.negative(w, out=d_th)
    d_th *= reference.dtheta_v0_dz
    if full:
        linear_moisture_rows(w, reference, res[2 + dim:])
    return out


def _operator_rows(plan, res, ncols):
    """What `linear_operator` writes of `res`: its rows, w's boundary
    levels, and per direction d the derivative of the plan's pair into
    rows 1 + d and 2 + d, bound, with row 2 + d."""
    dim = len(plan.derivative)
    w = res[dim]
    return (res[0], res[1:1 + dim], res[1 + dim], w, (w[:ncols], w[w.size - ncols:]),
            tuple((plan.derivative[d](plan.pair, res[1 + d:3 + d]), res[2 + d])
                  for d in range(dim)))


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
    delta: int = setting(int, (0, 1), 1)
    coupling: Optional[PrognosticState] = None
    implicit_rows: Optional[int] = None
    lin_rest: Optional[Callable[[PrognosticState, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        check_settings(self)
        if (self.implicit_rows is None) != (self.lin_rest is None):
            raise ConfigurationError("implicit_rows and lin_rest must be given together")


def solve_implicit(split: ImexOperatorSplit, shift: float, b: PrognosticState,
                   gmres_cfg: GmresConfig = GmresConfig(),
                   basis: Optional[np.ndarray] = None,
                   out: Optional[PrognosticState] = None) -> PrognosticState:
    """x with (I - shift L) x = b for the split's L, into `out` or a new state.

    GMRES solves the shifted system (L - sigma I) y = b, sigma = 1/shift,
    whose relative residuals are those of x = -sigma y, so a matvec is one
    call of split.lin and one axpy into its result, and y is scaled into x
    in place. GMRES iterates on every row unless the split names its
    implicit rows. Then the system is block lower-triangular: GMRES solves
    the leading rows' closed block alone, and the other rows follow
    exactly by substitution, x_m = b_m + shift (L x)_m, with (L x)_m from
    split.lin_rest. `basis` is handed to `gmres_solve`. The shift must be
    positive (ConfigurationError otherwise).
    """
    check("implicit shift", shift, float, POSITIVE)
    sigma = 1.0 / shift
    dim = b.dim
    if out is None:
        out = PrognosticState.from_vector(np.empty(b.data.size), dim)
    k = split.implicit_rows
    y = out.data[:k].reshape(-1)
    if basis is None:
        basis = np.empty((gmres_cfg.restart + 1) * y.size)
    if k is None:
        def lin(v):
            return split.lin(PrognosticState.from_vector(v, dim)).data
    else:
        npts = b.data.shape[1]

        def lin(v):
            return split.lin(v.reshape(k, npts))

    # GMRES hands the operator rows of the basis and y only, so a result
    # apart from both may be written
    work = _WorkArrays((basis, y), lambda a: a.reshape(-1))

    def apply_A(v):
        Lv = work(lin(v))[1]
        daxpy(v, Lv, y.size, -sigma)
        return Lv

    gmres_solve(apply_A, b.data[:k].reshape(-1), gmres_cfg, basis=basis, out=y)
    y *= -sigma
    if k is not None:
        rest = split.lin_rest(out, out.data[k:])
        rest *= shift
        rest += b.data[k:]
    return out


def step_ark2(state: PrognosticState, dt: float, split: ImexOperatorSplit,
              gmres_cfg: GmresConfig = GmresConfig(),
              stages: Optional[np.ndarray] = None,
              basis: Optional[np.ndarray] = None) -> PrognosticState:
    """Advance one step of the `ark2_tableau` pair; returns a new state.

    The final update uses the shared weights b on S(q_i) + coupling
    only: the delta L contributions cancel exactly between the
    explicit and implicit tables, which keeps the continuity row in
    pure divergence form regardless of the linear-solve tolerance.
    The stage vectors are the rows of `stages`, a (4, state size)
    array (made when None); `basis` is handed to the implicit solves.
    """
    check("dt", dt, float, POSITIVE)
    dim = state.dim
    ae, ai, b = _ARK2.a_explicit, _ARK2.a_implicit, _ARK2.b
    delta = split.delta
    shift = delta * dt * _ARK2.gamma
    cvec = split.coupling.as_vector() if split.coupling is not None else None

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
    if stages is None:
        stages = np.empty((4, n))
    rhs, q, lv = stages[:2], stages[2], stages[3]
    rhs[:] = q0
    q_state = PrognosticState.from_vector(q, dim)

    for i in range(3):
        # S and L read stage rows, which stay put from step to step: stage
        # 0's state is rhs[0], which holds q0 until S(q0) is added to it
        qi = rhs[max(i - 1, 0)]
        if i > 0 and delta:
            qi = solve_implicit(split, shift, PrognosticState.from_vector(qi, dim),
                                gmres_cfg, basis=basis, out=q_state).as_vector()
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
