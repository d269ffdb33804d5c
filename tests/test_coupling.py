import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from mmfsim import coupling as coupling_module
from mmfsim.cases import build_case
from mmfsim.coupling import (COUPLED_VARS, MmfConfig, Simulator,
                             build_vertical_projection, feedback_tendency,
                             forcing_tendency, horizontal_average, mmf_step,
                             project_column_L_to_S, project_column_S_to_L,
                             spawn_ssp_instances)
from mmfsim.dynamics import DEFAULT_CONSTANTS, build_reference
from mmfsim.errors import ConfigurationError, SolverError, StateError
from mmfsim.grid import build_box_mesh, build_lgl_rule
from mmfsim.microphysics import KesslerParams
from mmfsim.operators import PrognosticState

from conftest import isothermal_sounding

C = DEFAULT_CONSTANTS

# the work buffers of a step, one per layer (see `WorkBuffers`), by
# dimension: "along" holds the CSR product's transposed copies, so it
# exists only where a y axis or an x axis longer than 64 points does
WORK_BUFFERS = {dim: ("Simulator.step.tendency", "step_ark2.stages", "gmres_solve.basis",
                      "kernel", "operator") + ("along",) * (dim == 3) for dim in (2, 3)}


def column_nodes(n_elem, order, height):
    """Shared LGL node heights of a single spectral-element column."""
    rule = build_lgl_rule(order)
    h = height / n_elem
    z = np.empty(n_elem * order + 1)
    for e in range(n_elem):
        z[e * order:e * order + order + 1] = h * (e + 0.5 * (rule.points + 1.0))
    return z


def make_mmf(substeps=2, amplitude=0.0, microphysics=False, seed=0,
             ssp_elems_z=6, dynamics=True, warm=0.0):
    """Small coupled setup; `warm` sets a uniform coarse theta_v' so the
    spawn noise (enveloped by the coarse anomaly) has support."""
    snd = isothermal_sounding(z_top=14e3)
    mesh = build_box_mesh((20e3, 12e3), (2, 3), (4, 4), periodicity=(True,))
    ref = build_reference(snd, mesh, C)
    state = PrognosticState.zeros(mesh)
    if warm:
        state.theta_vp[:] = warm
    lsp = Simulator(mesh=mesh, reference=ref, state=state,
                    sounding=snd, dynamics_enabled=dynamics)
    cfg = MmfConfig(ssp_length=5e3, ssp_elems_x=3, ssp_elems_z=ssp_elems_z,
                    ssp_order=4, substeps=substeps,
                    perturbation_amplitude=amplitude)
    kp = KesslerParams() if microphysics else None
    instances = spawn_ssp_instances(lsp, cfg, seed=seed, kessler=kp)
    return lsp, cfg, instances


def test_horizontal_average_constant(small_mesh):
    avg = horizontal_average(small_mesh, np.full(small_mesh.npts, 4.5))
    assert avg.shape == (small_mesh.npts_1d[-1],)
    assert np.max(np.abs(avg - 4.5)) < 1e-14


def test_horizontal_average_recovers_profile(small_mesh):
    z = small_mesh.coords[:, -1]
    f = 2.0 * z / 24e3 - 1.0 + 0.0 * small_mesh.coords[:, 0]
    avg = horizontal_average(small_mesh, f)
    zc = small_mesh.column_view(z)[0]
    assert np.max(np.abs(avg - (2.0 * zc / 24e3 - 1.0))) < 1e-13


@pytest.mark.parametrize("mesh_name", ["small_mesh", "unit_mesh_3d"])
def test_horizontal_average_inverts_field_from_profile(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    nz = mesh.npts_1d[-1]
    prof = np.stack([np.linspace(-1.0, 2.0, nz), np.cos(np.arange(nz))])
    f = mesh.field_from_profile(prof)
    assert f.shape == (2, mesh.npts)
    assert np.array_equal(mesh.column_view(f), np.repeat(prof[:, None, :], mesh.ncols, axis=1))
    assert np.allclose(horizontal_average(mesh, f), prof, rtol=1e-14, atol=1e-15)


def test_horizontal_average_kills_periodic_modes(small_mesh):
    # a full sine wave across the periodic width integrates to zero
    x = small_mesh.coords[:, 0]
    f = np.sin(2.0 * np.pi * x / 50e3)
    avg = horizontal_average(small_mesh, f)
    assert np.max(np.abs(avg)) < 1e-10


@pytest.mark.parametrize("order,n_sl", [(2, 1), (2, 3), (4, 2), (6, 4)])
def test_restriction_left_inverse(order, n_sl):
    proj = build_vertical_projection(order, n_sl)
    prod = proj.s2l @ proj.l2s
    assert np.max(np.abs(prod - np.eye(order + 1))) < 1e-12


@pytest.mark.parametrize("order,n_sl", [(3, 2), (4, 3)])
def test_projection_preserves_constants(order, n_sl):
    proj = build_vertical_projection(order, n_sl)
    up = proj.l2s @ np.ones(order + 1)
    assert np.max(np.abs(up - 1.0)) < 1e-13
    down = proj.s2l @ np.ones(n_sl * (order + 1))
    assert np.max(np.abs(down - 1.0)) < 1e-13


def test_interpolation_exact_on_polynomials():
    order, n_sl, ne = 4, 3, 2
    H = 1.0
    proj = build_vertical_projection(order, n_sl)
    zc = column_nodes(ne, order, H)
    zf = column_nodes(ne * n_sl, order, H)
    poly = lambda z: 3.0 * z ** 4 - z ** 2 + 0.25 * z - 2.0
    fine = project_column_L_to_S(poly(zc), proj, ne)
    assert np.max(np.abs(fine - poly(zf))) < 1e-12
    back = project_column_S_to_L(fine, proj, ne)
    assert np.max(np.abs(back - poly(zc))) < 1e-12


def test_restriction_is_l2_optimal():
    """The fine->coarse map minimizes the true L2 error: any perturbed
    coarse candidate measures worse against the same fine function."""
    order, n_sl = 3, 2
    proj = build_vertical_projection(order, n_sl)
    rule = build_lgl_rule(order)
    rng = np.random.default_rng(13)
    fine = rng.standard_normal(n_sl * order + 1)
    best = project_column_S_to_L(fine, proj, 1)

    gx, gw = np.polynomial.legendre.leggauss(order + 4)
    polyfit = np.polynomial.polynomial.polyfit
    polyval = np.polynomial.polynomial.polyval

    def l2_err(coarse_vals):
        cpoly = polyfit(rule.points, coarse_vals, order)
        err = 0.0
        for k in range(n_sl):
            zq = proj.s * gx + proj.offsets[k]
            fvals = fine[k * order:(k + 1) * order + 1]
            fpoly = polyfit(proj.s * rule.points + proj.offsets[k], fvals, order)
            diff = polyval(zq, fpoly) - polyval(zq, cpoly)
            err += proj.s * float(gw @ diff ** 2)
        return err

    e0 = l2_err(best)
    for trial in range(6):
        bump = 0.05 * rng.standard_normal(order + 1)
        assert l2_err(best + bump) > e0


def test_projection_rejects_wrong_length():
    proj = build_vertical_projection(3, 2)
    with pytest.raises(ConfigurationError):
        project_column_S_to_L(np.zeros(5), proj, 2)
    with pytest.raises(ConfigurationError):
        project_column_L_to_S(np.zeros(8), proj, 2)


def test_tendencies_vanish_at_fixed_point():
    prof = {"u": np.array([1.0, 2.0]), "theta_vp": np.array([-0.5, 0.25])}
    F = forcing_tendency(prof, {k: v.copy() for k, v in prof.items()}, 10.0)
    f = feedback_tendency(prof, {k: v.copy() for k, v in prof.items()}, 10.0)
    for v in prof:
        assert np.all(F[v] == 0.0)
        assert np.all(f[v] == 0.0)


def test_tendency_directions():
    Q = {"u": np.array([0.0])}
    avg = {"u": np.array([1.0])}
    F = forcing_tendency(Q, avg, 2.0)
    assert F["u"][0] == 0.5          # coarse pulled toward the fine mean
    f = feedback_tendency({"u": np.array([2.0])}, avg, 2.0)
    assert f["u"][0] == 0.5          # fine pulled toward the new coarse value


def test_config_rejects_forbidden_variables():
    with pytest.raises(ConfigurationError):
        MmfConfig(substeps=0)


def test_simulator_step_is_pure(small_mesh, small_reference):
    snd = isothermal_sounding()
    sim = Simulator(mesh=small_mesh, reference=small_reference,
                    state=PrognosticState.zeros(small_mesh), sounding=snd)
    sim.state.theta_vp[:] = 0.01
    before = sim.state.as_vector().copy()
    new, precip = sim.step(1.0)
    assert np.array_equal(sim.state.as_vector(), before)
    assert new is not sim.state
    assert precip is None


def test_spawn_geometry_and_uniformity():
    lsp, cfg, instances = make_mmf(amplitude=0.0)
    assert len(instances) == 2            # one per coarse x element
    for inst in instances:
        m = inst.sim.mesh
        assert m.extents == (5e3, 12e3)
        assert m.elem_counts == (3, 6)
        # no perturbation: each level is horizontally uniform
        cols = m.column_view(inst.sim.state.theta_vp)
        assert np.max(np.abs(cols - cols[0][None, :])) == 0.0
        assert np.all(inst.sim.state.u[-1][m.bottom_nodes] == 0.0)
    # one instance per element column, whose weights tile the coarse
    # mesh: they add up to the coarse quadrature weight of every column
    W = lsp.mesh.element_column_weights
    assert [i.index for i in instances] == list(range(W.shape[0]))
    assert np.allclose(W.sum(axis=0), lsp.mesh.column_weights, rtol=1e-14, atol=0.0)


def test_spawn_noise_needs_an_anomaly():
    # the noise envelope follows the coarse theta_v': cold start => silent
    _, _, quiet = make_mmf(amplitude=0.3, seed=7, warm=0.0)
    assert np.all(quiet[0].sim.state.theta_vp == 0.0)


def test_spawn_seed_reproducible():
    _, _, a = make_mmf(amplitude=0.3, seed=7, warm=1.0)
    _, _, b = make_mmf(amplitude=0.3, seed=7, warm=1.0)
    _, _, c = make_mmf(amplitude=0.3, seed=8, warm=1.0)
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.sim.state.theta_vp, ib.sim.state.theta_vp)
    assert not np.array_equal(a[0].sim.state.theta_vp, c[0].sim.state.theta_vp)
    # instances draw independent streams
    assert not np.array_equal(a[0].sim.state.theta_vp, a[1].sim.state.theta_vp)


def test_spawn_validates_vertical_compatibility():
    lsp, cfg, _ = make_mmf()
    bad = MmfConfig(ssp_elems_x=3, ssp_elems_z=7, ssp_order=4)  # 7 % 3 != 0
    with pytest.raises(ConfigurationError):
        spawn_ssp_instances(lsp, bad, seed=0)


def test_equilibrium_is_a_fixed_point():
    """Zero perturbations everywhere: the coupled step must not invent
    flow, and the reported coupling residuals are exactly zero."""
    lsp, cfg, instances = make_mmf(amplitude=0.0)
    diag, precip = mmf_step(lsp, instances, 2.0, cfg=cfg)
    for _, _, resid, _ in diag:
        assert np.all(resid == 0.0)
    assert np.max(np.abs(lsp.state.as_vector())) < 1e-10
    for inst in instances:
        assert np.max(np.abs(inst.sim.state.as_vector())) < 1e-10
    assert precip == {}


def test_pure_relaxation_converges_in_one_step():
    """With dynamics switched off the exchange is exact: coarse lands on
    the fine mean and the fine columns land on the new coarse profile,
    so the next step sees machine-zero residuals."""
    lsp, cfg, instances = make_mmf(amplitude=0.0, dynamics=False)
    for inst in instances:
        inst.sim.state.theta_vp[:] = 0.2 * (1.0 + inst.index)
    mmf_step(lsp, instances, 2.0, cfg=cfg)
    diag, _ = mmf_step(lsp, instances, 2.0, cfg=cfg)
    for _, var, resid, _ in diag:
        if var == "theta_vp":
            assert np.max(resid) < 1e-13


def element_columns(mesh, index):
    """Column ids and quadrature weights of element column `index`
    (x fastest), periodic duplicates merged."""
    nex = mesh.elem_counts[0]
    anchor = (index,) if mesh.dim == 2 else (index % nex, index // nex)
    ids, wts = [], []
    for d, e in enumerate(anchor):
        N = mesh.orders[d]
        ids.append((e * N + np.arange(N + 1)) % mesh.npts_1d[d])
        wts.append(0.5 * mesh.extents[d] / mesh.elem_counts[d] * mesh.rules[d].weights)
    if len(anchor) == 1:
        cols, w = ids[0], wts[0]
    else:
        cols = (ids[1][:, None] * mesh.npts_1d[0] + ids[0][None, :]).ravel()
        w = np.outer(wts[1], wts[0]).ravel()
    cols, inv = np.unique(cols, return_inverse=True)
    merged = np.zeros(cols.size)
    np.add.at(merged, inv, w)
    return cols, merged


def reference_mmf_step(lsp, instances, dT, cfg):
    """The coupled step one instance and one variable at a time: element
    column ids and weights, per-variable horizontal averages and vertical
    transfers, and an np.add.at scatter of the forcing."""
    mesh, M, coupled = lsp.mesh, cfg.substeps, COUPLED_VARS
    ne_z = mesh.elem_counts[-1]
    anchors = [element_columns(mesh, inst.index) for inst in instances]

    def gather(cols, w, state, v):
        return (w @ mesh.column_view(state[v])[cols]) / w.sum()

    diags, avgs = [], []
    bufs = {v: np.zeros((mesh.ncols, mesh.npts_1d[-1])) for v in coupled}
    for inst, (cols, w) in zip(instances, anchors):
        proj = inst.projection
        av = {v: horizontal_average(inst.sim.mesh, inst.sim.state[v]) for v in coupled}
        avgs.append(av)
        for v in coupled:
            av_l = project_column_S_to_L(av[v], proj, ne_z)
            Q = gather(cols, w, lsp.state, v)
            diags.append((inst.index, v, np.abs(Q - av_l), np.abs(Q)))
            np.add.at(bufs[v], cols, (w / mesh.column_weights[cols])[:, None]
                      * ((av_l - Q) / dT)[None, :])
    F = PrognosticState.zeros(mesh)
    for v in coupled:
        F[v] = bufs[v].T.reshape(-1)
    new_lsp, _ = lsp.step(dT, coupling=F)

    new_states = []
    for inst, (cols, w), av in zip(instances, anchors, avgs):
        fine = inst.sim.mesh
        f = PrognosticState.zeros(fine)
        for v in coupled:
            Q_new = project_column_L_to_S(gather(cols, w, new_lsp, v),
                                          inst.projection, ne_z)
            f[v] = np.repeat((Q_new - av[v]) / dT, fine.ncols)
        st = inst.sim.state
        for _ in range(M):
            st, _ = inst.sim.step(dT / M, coupling=f, state=st)
        new_states.append(st)
    lsp.state = new_lsp
    for inst, st in zip(instances, new_states):
        inst.sim.state = st
    return diags


def noisy_mmf(dim):
    """Coupled setup with dynamics off and every state filled with
    noise: make_mmf in 2D, a 3D coarse box with 2 x 2 periodic lateral
    elements otherwise."""
    if dim == 2:
        lsp, cfg, instances = make_mmf(amplitude=0.3, seed=3, warm=1.0,
                                       dynamics=False)
    else:
        snd = isothermal_sounding(z_top=14e3)
        mesh = build_box_mesh((20e3, 16e3, 12e3), (2, 2, 3), (4, 3, 4),
                              periodicity=(True, True))
        lsp = Simulator(mesh=mesh, reference=build_reference(snd, mesh, C),
                        state=PrognosticState.zeros(mesh), sounding=snd,
                        dynamics_enabled=False)
        cfg = MmfConfig(ssp_length=5e3, ssp_elems_x=3, ssp_elems_z=6,
                        ssp_order=4, substeps=2)
        instances = spawn_ssp_instances(lsp, cfg, seed=3)
    rng = np.random.default_rng(dim)
    for sim in [lsp] + [inst.sim for inst in instances]:
        sim.state.data[:] = rng.uniform(0.0, 1e-3, sim.state.data.shape)
    return lsp, cfg, instances


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_exchange_matches_per_variable_reference(dim):
    lsp_a, cfg, inst_a = noisy_mmf(dim)
    lsp_b, _, inst_b = noisy_mmf(dim)
    assert len(inst_a) == (2 if dim == 2 else 4)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    for _ in range(2):
        diag_a, _ = mmf_step(lsp_a, inst_a, 2.0, cfg=cfg)
        diag_b = reference_mmf_step(lsp_b, inst_b, 2.0, cfg)
        assert [d[:2] for d in diag_a] == [d[:2] for d in diag_b]
        for (_, _, ra, qa), (_, _, rb, qb) in zip(diag_a, diag_b):
            assert close(qa, qb)
            assert np.max(np.abs(ra - rb)) <= 1e-14 * np.max(qb)
    assert close(lsp_a.state.data, lsp_b.state.data)
    for ia, ib in zip(inst_a, inst_b):
        assert close(ia.sim.state.data, ib.sim.state.data)


@pytest.mark.parametrize("dim", [2, 3])
def test_forcing_scatter_matches_column_formula(dim, monkeypatch):
    """mmf_step scatters the forcing straight into the fields' level-major
    rows, bit for bit as the (ncols, nz) scatter transposed into fields."""
    lsp, cfg, instances = noisy_mmf(dim)
    mesh = lsp.mesh
    seen = {}

    def forcing(Q, avg, dT):
        seen["F"] = forcing_tendency(Q, avg, dT)
        return seen["F"]

    def step(dT, coupling):
        seen["state"] = coupling.data.copy()
        return lsp.state, None

    monkeypatch.setattr(coupling_module, "forcing_tendency", forcing)
    lsp.step = step
    mmf_step(lsp, instances, 2.0, cfg=cfg)
    cols = np.einsum("ic,ivz->vcz", mesh.element_column_weights / mesh.column_weights,
                     seen["F"])
    want = np.zeros_like(seen["state"])
    rows = [lsp.state.field_names().index(v) for v in COUPLED_VARS]
    want[rows] = np.swapaxes(cols, -1, -2).reshape(len(rows), mesh.npts)
    assert np.any(want != 0.0)
    assert np.array_equal(seen["state"], want)


def test_vertical_transfer_stacked_matches_rows():
    proj = build_vertical_projection(4, 3)
    ne = 2
    rng = np.random.default_rng(21)
    fine = rng.standard_normal((3, 5, ne * 3 * 4 + 1))
    coarse = rng.standard_normal((3, 5, ne * 4 + 1))
    down = project_column_S_to_L(fine, proj, ne)
    up = project_column_L_to_S(coarse, proj, ne)
    for i in range(3):
        for j in range(5):
            assert np.array_equal(down[i, j], project_column_S_to_L(fine[i, j], proj, ne))
            assert np.array_equal(up[i, j], project_column_L_to_S(coarse[i, j], proj, ne))


def shared_node_average(elem_vals, ne, order):
    """Element-wise (ne, N+1) values averaged onto shared nodes by
    counting the element copies of each node."""
    idx = (np.arange(ne)[:, None] * order + np.arange(order + 1)).ravel()
    out, cnt = np.zeros(ne * order + 1), np.zeros(ne * order + 1)
    np.add.at(out, idx, elem_vals.ravel())
    np.add.at(cnt, idx, 1.0)
    return out / cnt


def test_vertical_transfer_averages_shared_nodes():
    # random (non-polynomial) columns give each side of an element
    # boundary its own value; the transfers return their mean
    N, K, ne = 3, 2, 3
    proj = build_vertical_projection(N, K)
    rng = np.random.default_rng(22)
    fine = rng.standard_normal(ne * K * N + 1)
    coarse = rng.standard_normal(ne * N + 1)
    down = [proj.s2l @ np.concatenate([fine[(e * K + k) * N:(e * K + k + 1) * N + 1]
                                       for k in range(K)]) for e in range(ne)]
    up = [(proj.l2s @ coarse[e * N:(e + 1) * N + 1]).reshape(K, N + 1)
          for e in range(ne)]
    assert np.allclose(project_column_S_to_L(fine, proj, ne),
                       shared_node_average(np.array(down), ne, N), rtol=1e-14, atol=1e-14)
    assert np.allclose(project_column_L_to_S(coarse, proj, ne),
                       shared_node_average(np.concatenate(up), ne * K, N),
                       rtol=1e-14, atol=1e-14)


def test_mmf_precip_keys():
    lsp, cfg, instances = make_mmf(amplitude=0.0, microphysics=True)
    # seed some rain in one fine model so the dict has an entry
    instances[1].sim.state.q_r[:] = 1e-4
    _, precip = mmf_step(lsp, instances, 2.0, cfg=cfg)
    assert set(precip) == {0, 1}      # SSPs report; the dry coarse model does not
    assert -1 not in precip
    assert np.all(precip[1] >= 0.0)


def test_step_failures_name_their_grid():
    lsp, cfg, instances = make_mmf(substeps=3)
    before = lsp.state.data.copy()
    real_step = instances[1].sim.step
    calls = []

    def fail_on_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise SolverError("GMRES did not reach tol", residual=0.25)
        return real_step(*args, **kwargs)

    instances[1].sim.step = fail_on_second
    with pytest.raises(SolverError) as exc:
        mmf_step(lsp, instances, 3.0, cfg=cfg)
    assert str(exc.value) == "embedded grid 1, substep 2: GMRES did not reach tol"
    assert exc.value.residual == 0.25
    assert np.array_equal(lsp.state.data, before)     # nothing committed

    def vacuum(*args, **kwargs):
        raise StateError("negative density")

    lsp.step = vacuum
    with pytest.raises(StateError, match="^coarse grid: negative density$"):
        mmf_step(lsp, instances, 3.0, cfg=cfg)


def test_step_failures_name_their_phase(small_mesh, small_reference):
    # a vacuum in a few nodes: with the dynamics off, the Kessler update
    # rejects it on entry, before sedimentation takes the square root of
    # a density ratio; with them on, the RHS does
    state = PrognosticState.zeros(small_mesh)
    state.rho_p[:5] = -2.0 * small_reference.rho0[:5]
    sim = Simulator(mesh=small_mesh, reference=small_reference, state=state,
                    kessler=KesslerParams(), dynamics_enabled=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StateError, match="^microphysics: non-positive density"):
            sim.step(1.0)
        sim.dynamics_enabled = True
        with pytest.raises(StateError, match="^dynamics: vacuum"):
            sim.step(1.0)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_operator_caches_die_with_their_mesh():
    snd = isothermal_sounding(z_top=14e3)
    mesh = build_box_mesh((20e3, 12e3), (2, 3), (4, 4), periodicity=(True,))
    sim = Simulator(mesh=mesh, reference=build_reference(snd, mesh, C),
                    state=PrognosticState.zeros(mesh), filter_strength=0.2,
                    sounding=snd)
    sim.state.theta_vp[:] = 0.01 * np.sin(mesh.coords[:, 0] / 2e3)
    sim.state, _ = sim.step(1.0)
    assert mesh.weak_derivative_1d and mesh.modal_filter_1d(0.2)
    basis = mesh.work.array("gmres_solve.basis", (1,)).base
    assert basis.size > mesh.npts   # the step's Krylov basis
    alive, basis = weakref.ref(mesh), weakref.ref(basis)
    del sim, mesh
    gc.collect()
    assert alive() is None
    assert basis() is None


def test_meshes_of_equal_size_keep_their_own_buffers():
    """Two simulators on different meshes of one size, stepped in turn,
    share no work buffer and match the same simulators stepped alone."""
    snd = isothermal_sounding(z_top=14e3)

    def make(length):
        mesh = build_box_mesh((length, 12e3), (2, 3), (4, 4), periodicity=(True,))
        sim = Simulator(mesh=mesh, reference=build_reference(snd, mesh, C),
                        state=PrognosticState.zeros(mesh), filter_strength=0.2,
                        kessler=KesslerParams(), sounding=snd)
        sim.state.theta_vp[:] = 0.5 * np.sin(2.0 * np.pi * mesh.coords[:, 0] / length)
        return sim

    alone = []
    for length in (20e3, 30e3):
        sim = make(length)
        for _ in range(2):
            sim.state, _ = sim.step(1.0)
        alone.append(sim.state.data)
    a, b = make(20e3), make(30e3)
    assert a.mesh.npts == b.mesh.npts
    for _ in range(2):
        for sim in (a, b):
            sim.state, _ = sim.step(1.0)
    assert np.array_equal(a.state.data, alone[0])
    assert np.array_equal(b.state.data, alone[1])
    for name in WORK_BUFFERS[2]:
        assert name in a.mesh.work._arrays and name in b.mesh.work._arrays
        assert not np.shares_memory(a.mesh.work.array(name, (1,)),
                                    b.mesh.work.array(name, (1,)))


@pytest.mark.parametrize("dim", [2, 3])
def test_work_buffers_are_one_per_layer(dim):
    """Two warm Kessler steps with viscosity and filter leave one buffer
    per layer of the step, holding at most five states (tendency and
    stages), Kessler's 18 fields and three stacks of dim + 4 fields (the
    operator accumulator and along's transposed pair) besides the basis."""
    snd = isothermal_sounding(z_top=14e3)
    mesh = build_box_mesh((20e3,) * (dim - 1) + (12e3,), (2,) * (dim - 1) + (3,), 3,
                          periodicity=(True,) * (dim - 1))
    sim = Simulator(mesh=mesh, reference=build_reference(snd, mesh, C.with_nu(200.0)),
                    state=PrognosticState.zeros(mesh), filter_strength=0.2,
                    kessler=KesslerParams(), sounding=snd)
    sim.state.theta_vp[:] = 0.5 * np.sin(2.0 * np.pi * mesh.coords[:, 0] / 20e3)
    for _ in range(2):
        sim.state, _ = sim.step(1.0)
    arrays = mesh.work._arrays
    assert sorted(arrays) == sorted(WORK_BUFFERS[dim])
    fields = sum(buf.size for name, buf in arrays.items() if name != "gmres_solve.basis")
    assert fields <= (5 * (5 + dim) + 18 + 3 * (dim + 4)) * mesh.npts


def test_warm_step_peaks_within_eight_states():
    """A warm step of the desk squall fine grid (dynamics, Kessler, filter)
    works in its mesh's buffers: traced allocations peak at most eight
    state sizes above where the step started."""
    setup = build_case("squall", "fine", preset="desk")
    sim = setup.simulator
    for _ in range(2):
        sim.state, _ = sim.step(setup.dt)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sim.state, _ = sim.step(setup.dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 8 * sim.state.data.nbytes


def test_mmf_step_needs_every_element_column_in_order():
    # instance i couples to row i of the coarse element-column weights
    lsp, cfg, instances = make_mmf()
    for bad in (instances[::-1], instances[:1]):
        with pytest.raises(ConfigurationError, match="one instance per coarse element column"):
            mmf_step(lsp, bad, 2.0, cfg=cfg)
