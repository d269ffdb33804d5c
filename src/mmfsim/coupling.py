"""Superparameterization plumbing: one coarse simulator per run plus
many fine 2D slab simulators, exchanging column profiles once per
coarse step.

The coarse model (LSP) sees the fine models (SSP) through a relaxation
tendency F = (<q> - Q)/dT built from horizontally averaged SSP
profiles; each SSP sees the coarse model through f = (Q_new - <q>)/dT
held fixed over its M substeps. Only horizontal velocity, theta_v',
q_v', q_c and q_r are coupled; density and vertical velocity never
are. Vertical grids may differ by an integer refinement ratio, bridged
by per-element L2 projection matrices.
The exchange treats all instances and variables as one stacked
(instance, variable, level) array, gathered and scattered through the
coarse mesh's element-column weights; the SSPs then step serially.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import ReferenceState, Sounding, apply_filter, build_reference, evaluate_rhs
from .errors import ConfigurationError, SolverError, StateError
from .grid import Mesh, build_box_mesh, build_lgl_rule
from .microphysics import KesslerParams, apply_microphysics
from .operators import PrognosticState
from .timeint import ImexOperatorSplit, linear_moisture_rows, linear_operator, step_ark2

__all__ = [
    "COUPLED_VARS",
    "MmfConfig",
    "Simulator",
    "SspInstance",
    "VerticalProjection",
    "horizontal_average",
    "build_vertical_projection",
    "project_column_S_to_L",
    "project_column_L_to_S",
    "forcing_tendency",
    "feedback_tendency",
    "spawn_ssp_instances",
    "mmf_step",
]

# coupling order is fixed so diagnostics files are stable
COUPLED_VARS = ("u", "theta_vp", "q_vp", "q_c", "q_r")


@dataclass
class MmfConfig:
    ssp_length: float = 8000.0          # m
    ssp_elems_x: int = 10
    ssp_elems_z: int = 30
    ssp_order: int = 4
    substeps: int = 10                  # M; coarse step = M * fine step
    perturbation_amplitude: float = 0.3  # K
    perturbation_theta_scale: float = 3.0  # envelope normalization (bubble amplitude)

    def __post_init__(self):
        if self.substeps < 1:
            raise ConfigurationError("substeps must be >= 1")


# ---------------------------------------------------------------------------
# one simulator = mesh + reference + state + physics switches

@dataclass
class Simulator:
    """State and physics switches of a single (coarse or fine) model; its
    grid's fixed data is the reference's, shared by a mesh's simulators."""

    mesh: Mesh
    reference: ReferenceState
    state: PrognosticState
    filter_strength: float = 0.0
    kessler: Optional[KesslerParams] = None
    dynamics_enabled: bool = True
    sounding: Optional[Sounding] = None

    def step(self, dt: float, coupling: Optional[PrognosticState] = None,
             state: Optional[PrognosticState] = None):
        """One pure step; returns (new_state, precip_per_column or None).

        Order: IMEX step, floor the moisture fields (dispersive
        advection undershoots), Kessler columns if enabled, modal
        filter, re-impose w=0 on the impermeable boundaries. A solver or
        state error is re-raised with its phase ("dynamics: ..." or
        "microphysics: ...") in front. Does not commit: the caller
        assigns .state, which lets a coarse+fine composite step fail
        atomically. `state` overrides self.state so substep chains stay
        pure.
        """
        if state is None:
            state = self.state
        mesh, ref = self.mesh, self.reference
        if self.dynamics_enabled:
            # S and L write into one buffer, which step_ark2 is done
            # with before it asks for the next tendency
            work = mesh.work
            tend = PrognosticState.from_vector(
                work.array("Simulator.step.tendency", (state.data.size,)), state.dim)
            # GMRES iterates on (rho', u, theta_v'), the rows L couples
            coupled = tend.data[:2 + state.dim]

            def lin(q):
                return linear_operator(
                    q, ref, mesh, out=tend if isinstance(q, PrognosticState) else coupled)

            split = ImexOperatorSplit(
                s=lambda q: evaluate_rhs(q, ref, mesh, out=tend),
                lin=lin, coupling=coupling, implicit_rows=coupled.shape[0],
                lin_rest=lambda q, out: linear_moisture_rows(q.u[-1], ref, out))
            try:
                new = step_ark2(state, dt, split, work=work)
            except (SolverError, StateError) as exc:
                raise exc.prefixed("dynamics") from exc
        else:
            new = state.copy()
            if coupling is not None:
                new.data += dt * coupling.data

        np.maximum(new.q_c, 0.0, out=new.q_c)
        np.maximum(new.q_r, 0.0, out=new.q_r)
        np.maximum(new.q_vp, -ref.q_v0, out=new.q_vp)

        precip = None
        if self.kessler is not None:
            try:
                new, precip = apply_microphysics(new, ref, mesh, dt, self.kessler, out=new)
            except (SolverError, StateError) as exc:
                raise exc.prefixed("microphysics") from exc
        if self.filter_strength > 0.0:
            apply_filter(new, self.filter_strength, mesh, out=new)
            new.u[-1][mesh.bottom_nodes] = 0.0
            new.u[-1][mesh.top_nodes] = 0.0
        return new, precip


# ---------------------------------------------------------------------------
# horizontal averaging and vertical projection

def horizontal_average(mesh: Mesh, field: np.ndarray) -> np.ndarray:
    """Quadrature-weighted horizontal average per vertical level of
    (..., npts) fields, as (..., nz)."""
    w = mesh.column_weights
    return (w @ mesh.column_view(field)) / w.sum()


@dataclass(frozen=True)
class VerticalProjection:
    """Element-level transfer matrices between vertical discretizations.

    An LSP element of order N is split into n_sl SSP elements of the
    same order. s2l is the L2-best-fit restriction (N+1, n_sl*(N+1));
    l2s is polynomial interpolation (n_sl*(N+1), N+1), which equals
    the L2 projection because coarse polynomials are exactly
    representable on the fine side. s2l @ l2s is the identity.
    """

    order: int
    n_sl: int
    s: float
    offsets: np.ndarray
    s2l: np.ndarray
    l2s: np.ndarray


def _lagrange_eval(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix P[a, i] = psi_i(x[a]) of Lagrange basis through `nodes`."""
    n = nodes.size
    bw = np.ones(n)
    for i in range(n):
        bw[i] = 1.0 / np.prod(nodes[i] - np.delete(nodes, i))
    P = np.empty((x.size, n))
    for a, xa in enumerate(np.asarray(x, dtype=float)):
        d = xa - nodes
        hit = np.nonzero(np.abs(d) < 1e-14)[0]
        if hit.size:
            row = np.zeros(n)
            row[hit[0]] = 1.0
        else:
            t = bw / d
            row = t / t.sum()
        P[a] = row
    return P


def build_vertical_projection(order: int, n_sl: int) -> VerticalProjection:
    if n_sl < 1:
        raise ConfigurationError(f"vertical refinement ratio must be >= 1, got {n_sl}")
    rule = build_lgl_rule(order)
    Np = order + 1
    s = 1.0 / n_sl
    offsets = np.array([(2 * k - 1) * s - 1.0 for k in range(1, n_sl + 1)])

    # exact integrals: Gauss-Legendre with enough points for degree 2N
    gx, gw = np.polynomial.legendre.leggauss(order + 2)
    psi_g = _lagrange_eval(rule.points, gx)               # fine basis at quad pts
    blocks = []
    for k in range(n_sl):
        coarse_at = _lagrange_eval(rule.points, s * gx + offsets[k])
        G = s * (coarse_at.T * gw) @ psi_g                # (Np, Np) mixed mass block
        blocks.append(G)
    # coarse full mass on [-1, 1]
    coarse_g = _lagrange_eval(rule.points, gx)
    Mhat = (coarse_g.T * gw) @ coarse_g
    s2l = np.linalg.solve(Mhat, np.hstack(blocks))

    l2s = np.concatenate([_lagrange_eval(rule.points, s * rule.points + offsets[k])
                          for k in range(n_sl)])
    return VerticalProjection(order=order, n_sl=n_sl, s=s, offsets=offsets,
                              s2l=s2l, l2s=l2s)


def _broken(profile: np.ndarray, ne: int, order: int) -> np.ndarray:
    """(ne, N+1) element-wise view of a shared-node column profile."""
    N = order
    idx = np.arange(ne)[:, None] * N + np.arange(N + 1)[None, :]
    return profile[..., idx]


def _assemble(elem_vals: np.ndarray, ne: int, order: int) -> np.ndarray:
    """Average element-wise values (..., ne, N+1) back onto shared nodes."""
    N = order
    out = np.empty(elem_vals.shape[:-2] + (ne * N + 1,))
    out[..., :-1] = elem_vals[..., :-1].reshape(out.shape[:-1] + (ne * N,))
    out[..., -1] = elem_vals[..., -1, -1]
    # each interior element boundary also carries the value from below
    out[..., N:-1:N] = 0.5 * (elem_vals[..., :-1, -1] + out[..., N:-1:N])
    return out


def project_column_S_to_L(ssp_profile: np.ndarray, proj: VerticalProjection,
                          lsp_elems: int) -> np.ndarray:
    """Fine column -> coarse column, element-by-element L2 restriction."""
    N, K = proj.order, proj.n_sl
    nz_s = lsp_elems * K * N + 1
    if ssp_profile.shape[-1] != nz_s:
        raise ConfigurationError(
            f"fine profile has {ssp_profile.shape[-1]} levels, expected {nz_s}")
    B = _broken(ssp_profile, lsp_elems * K, N)           # (..., neS, N+1)
    grouped = B.reshape(B.shape[:-2] + (lsp_elems, K * (N + 1)))
    Y = grouped @ proj.s2l.T                             # (..., neL, N+1)
    return _assemble(Y, lsp_elems, N)


def project_column_L_to_S(lsp_profile: np.ndarray, proj: VerticalProjection,
                          lsp_elems: int) -> np.ndarray:
    """Coarse column -> fine column by interpolation (exact on degree <= N)."""
    N, K = proj.order, proj.n_sl
    nz_l = lsp_elems * N + 1
    if lsp_profile.shape[-1] != nz_l:
        raise ConfigurationError(
            f"coarse profile has {lsp_profile.shape[-1]} levels, expected {nz_l}")
    X = _broken(lsp_profile, lsp_elems, N)               # (..., neL, N+1)
    Y = X @ proj.l2s.T                                   # (..., neL, K*(N+1))
    Y = Y.reshape(Y.shape[:-2] + (lsp_elems * K, N + 1))
    return _assemble(Y, lsp_elems * K, N)


# ---------------------------------------------------------------------------
# relaxation tendencies

def forcing_tendency(Q_n, avg_q_n, dT: float):
    """F = (<q^n> - Q^n)/dT on the coarse levels (arrays, or dicts of them)."""
    if isinstance(Q_n, dict):
        return {v: forcing_tendency(Q_n[v], avg_q_n[v], dT) for v in Q_n}
    return (avg_q_n - Q_n) / dT


def feedback_tendency(Q_np1, avg_q_n, dT: float):
    """f = (Q^{n+1} - <q^n>)/dT on the fine levels (arrays, or dicts of them)."""
    if isinstance(Q_np1, dict):
        return {v: feedback_tendency(Q_np1[v], avg_q_n[v], dT) for v in Q_np1}
    return (Q_np1 - avg_q_n) / dT


# ---------------------------------------------------------------------------
# SSP instances

@dataclass
class SspInstance:
    index: int               # its row of the coarse mesh's element_column_weights
    projection: VerticalProjection
    sim: Simulator


def _rows(state: PrognosticState, names) -> list:
    """Row indices of the named fields in state.data."""
    return [state.field_names().index(n) for n in names]


def _gather(mesh: Mesh, weights: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """Weighted means of (nvar, npts) coarse fields over the element
    columns of (ninst, ncols) weights, as (ninst, nvar, nz)."""
    return np.einsum("ic,vcz->ivz", weights / weights.sum(axis=1, keepdims=True),
                     mesh.column_view(fields))


def spawn_ssp_instances(lsp: Simulator, cfg: MmfConfig, seed: int = 0,
                        kessler: Optional[KesslerParams] = None) -> list:
    """Create, initialize and perturb one fine simulator per lateral
    element column of the coarse mesh.

    Each instance starts horizontally uniform at the coarse column
    profile of every prognostic (interpolated to its vertical grid),
    then receives a bubble-envelope-modulated uniform random
    temperature perturbation drawn from a counter RNG keyed by (seed,
    instance index), so results never depend on spawn or execution
    order. The instances run Kessler microphysics with `kessler`, or
    dry when it is None.
    """
    mesh = lsp.mesh
    if lsp.sounding is None:
        raise ConfigurationError("the coarse simulator needs its sounding to spawn instances")
    ne_z_l = mesh.elem_counts[-1]
    if cfg.ssp_order != mesh.orders[-1]:
        raise ConfigurationError("fine and coarse vertical orders must match")
    if cfg.ssp_elems_z % ne_z_l != 0:
        raise ConfigurationError(
            f"fine vertical element count {cfg.ssp_elems_z} must be an integer "
            f"multiple of the coarse count {ne_z_l}")
    n_sl = cfg.ssp_elems_z // ne_z_l
    proj = build_vertical_projection(cfg.ssp_order, n_sl)

    ssp_mesh = build_box_mesh(
        (cfg.ssp_length, mesh.extents[-1]),
        (cfg.ssp_elems_x, cfg.ssp_elems_z),
        (cfg.ssp_order, cfg.ssp_order),
        periodicity=(True,))
    ssp_ref = build_reference(lsp.sounding, ssp_mesh, lsp.reference.constants,
                              lsp.reference.sponge)

    # every slab starts from its element column's mean coarse column (the
    # coarse v of a 3D run has no slab counterpart)
    names = PrognosticState.zeros(ssp_mesh).field_names()
    W = mesh.element_column_weights
    prof = project_column_L_to_S(_gather(mesh, W, lsp.state.data[_rows(lsp.state, names)]),
                                 proj, ne_z_l)
    init = ssp_mesh.field_from_profile(prof)

    from .cases import PerturbationSpec, random_theta_perturbation

    pspec = PerturbationSpec(amplitude=cfg.perturbation_amplitude, seed=seed,
                             theta_scale=cfg.perturbation_theta_scale)
    instances = []
    for idx in range(W.shape[0]):
        st = PrognosticState.from_vector(init[idx], ssp_mesh.dim)
        st.u[1][ssp_mesh.bottom_nodes] = 0.0
        st.u[1][ssp_mesh.top_nodes] = 0.0
        if pspec.amplitude > 0.0:
            st.theta_vp = st.theta_vp + random_theta_perturbation(
                pspec, st.theta_vp, instance=idx)

        sim = Simulator(mesh=ssp_mesh, reference=ssp_ref, state=st,
                        kessler=kessler,
                        dynamics_enabled=lsp.dynamics_enabled,
                        sounding=lsp.sounding)
        instances.append(SspInstance(index=idx, projection=proj, sim=sim))
    return instances


# ---------------------------------------------------------------------------
# the staggered coarse/fine step

def mmf_step(lsp: Simulator, instances: list, dT: float, M: int = None,
             cfg: MmfConfig = None):
    """Advance the coupled system by one coarse step of size dT.

    Sequence: (1) horizontally average each fine state and restrict to
    the coarse levels, (2) advance the coarse model with the forcing
    F = (<q> - Q)/dT, (3) interpolate the updated coarse columns back
    and form the feedback f = (Q_new - <q>)/dT per instance, (4) run M
    fine substeps per instance with f frozen, instance after instance.
    `instances` are one per coarse element column in index order, as
    spawn_ssp_instances makes them; others raise ConfigurationError.
    Nothing commits until every simulator has finished its step, so
    failures leave all states at time t. A SolverError or StateError
    is re-raised with "coarse grid: " or "embedded grid i, substep s: "
    (s counted from 1) in front of its message.

    Returns (diagnostics, precip) where diagnostics holds per
    (instance, level, variable) the pre-step coupling residual
    |Q - <q>| along with |Q|, and precip maps instance index to
    accumulated surface rain (mm per fine column), with the coarse
    model under index -1 when its microphysics is on.
    """
    if cfg is None:
        cfg = MmfConfig()
    if M is None:
        M = cfg.substeps
    dt_f = dT / M
    mesh = lsp.mesh
    ne_z_l = mesh.elem_counts[-1]
    fine_mesh = instances[0].sim.mesh
    proj = instances[0].projection
    W = mesh.element_column_weights
    if [inst.index for inst in instances] != list(range(W.shape[0])):
        raise ConfigurationError(
            f"need one instance per coarse element column, indices 0..{W.shape[0] - 1} in order")
    rows_l = _rows(lsp.state, COUPLED_VARS)
    rows_s = _rows(instances[0].sim.state, COUPLED_VARS)

    avg = horizontal_average(
        fine_mesh, np.stack([inst.sim.state.data[rows_s] for inst in instances]))
    avg_l = project_column_S_to_L(avg, proj, ne_z_l)
    Q = _gather(mesh, W, lsp.state.data[rows_l])
    resid, abs_q = np.abs(Q - avg_l), np.abs(Q)
    diagnostics = [(inst.index, v, resid[i, j], abs_q[i, j])
                   for i, inst in enumerate(instances) for j, v in enumerate(COUPLED_VARS)]

    # z runs slowest, so (nvar, nz, ncols) rows are the fields' own layout
    F_state = PrognosticState.zeros(mesh)
    F_state.data[rows_l] = np.einsum("ic,ivz->vzc", W / mesh.column_weights,
                                     forcing_tendency(Q, avg_l, dT)).reshape(len(rows_l), -1)
    try:
        new_lsp_state, lsp_precip = lsp.step(dT, coupling=F_state)
    except (SolverError, StateError) as exc:
        raise exc.prefixed("coarse grid") from exc

    Q_new = project_column_L_to_S(_gather(mesh, W, new_lsp_state.data[rows_l]),
                                  proj, ne_z_l)
    f = np.zeros((len(instances),) + instances[0].sim.state.data.shape)
    f[:, rows_s] = fine_mesh.field_from_profile(feedback_tendency(Q_new, avg, dT))

    results = []
    for inst, f_inst in zip(instances, f):
        f_state = PrognosticState.from_vector(f_inst, fine_mesh.dim)
        st, precip = inst.sim.state, None
        for sub in range(1, M + 1):
            try:
                st, pr = inst.sim.step(dt_f, coupling=f_state, state=st)
            except (SolverError, StateError) as exc:
                raise exc.prefixed(f"embedded grid {inst.index}, substep {sub}") from exc
            if pr is not None:
                precip = pr if precip is None else precip + pr
        results.append((st, precip))

    # commit phase: every simulator advanced, in instance order
    lsp.state = new_lsp_state
    precip_out = {}
    if lsp_precip is not None:
        precip_out[-1] = lsp_precip
    for inst, (st, pr) in zip(instances, results):
        inst.sim.state = st
        if pr is not None:
            precip_out[inst.index] = pr
    return diagnostics, precip_out
