import dataclasses

import numpy as np
import pytest

from mmfsim.cases import build_case
from mmfsim.dynamics import (DEFAULT_CONSTANTS, SpongeConfig, apply_filter,
                             boyd_vandeven_transfer, build_reference,
                             equation_of_state, evaluate_rhs, exner_function,
                             filter_field, read_sounding, sponge_profile,
                             write_sounding)
from mmfsim.errors import ConfigurationError, StateError
from mmfsim.grid import build_box_mesh
from mmfsim.operators import PrognosticState, SemOps, integrate

from conftest import isothermal_sounding

C = DEFAULT_CONSTANTS


def test_eos_reference_point():
    # rho chosen so rho R_d theta_v == p00 exactly: pressure is p00
    rho = C.p00 / (C.R_d * 300.0)
    p = equation_of_state(np.array([rho]), theta_v=np.array([300.0]))
    assert abs(p[0] - C.p00) < 1e-9


def test_eos_power_law():
    rho = C.p00 / (C.R_d * 300.0)
    p1 = equation_of_state(np.array([rho]), theta_v=np.array([300.0]))
    p2 = equation_of_state(np.array([2.0 * rho]), theta_v=np.array([300.0]))
    assert np.isclose(p2[0] / p1[0], 2.0 ** (C.c_p / C.c_v), rtol=1e-14)


def test_exner_at_reference_pressure():
    assert exner_function(C.p00) == 1.0
    assert exner_function(0.5 * C.p00) < 1.0


def test_sounding_round_trip(tmp_path):
    snd = isothermal_sounding()
    path = tmp_path / "profile.txt"
    write_sounding(snd, path)
    back = read_sounding(path)
    assert np.allclose(back.z, snd.z)
    assert np.allclose(back.theta, snd.theta)
    assert np.allclose(back.qv, snd.qv)
    assert back.p_surf == snd.p_surf


def test_sounding_rejects_disorder():
    snd = isothermal_sounding()
    snd.z[3] = snd.z[5]
    with pytest.raises(ConfigurationError):
        snd.__post_init__()


def _edited(column, k, value):
    def edit(snd):
        col = getattr(snd, column).copy()
        col[k] = value
        return {column: col}
    return edit


@pytest.mark.parametrize("edit", [
    lambda snd: {"qv": snd.qv[:-1]},
    _edited("theta", 4, np.nan),
    _edited("u", 0, np.inf),
    _edited("z", -1, np.nan),
    _edited("theta", 4, 0.0),
    _edited("theta", 4, -5.0),
    _edited("qv", 4, -0.5),
    lambda snd: {"p_surf": np.nan},
    lambda snd: {"p_surf": np.inf},
    lambda snd: {"p_surf": 0.0},
    lambda snd: {"p_surf": -1e5},
], ids=["short_qv", "nan_theta", "inf_u", "nan_z", "zero_theta", "negative_theta",
        "negative_qv", "nan_p_surf", "inf_p_surf", "zero_p_surf", "negative_p_surf"])
def test_sounding_rejects_bad_values(edit):
    snd = isothermal_sounding()
    with pytest.raises(ConfigurationError, match="sounding"):
        dataclasses.replace(snd, **edit(snd))
    # the bounds are theta > 0 and qv >= 0, so dry air passes
    dataclasses.replace(snd, qv=np.zeros_like(snd.qv))


def test_reference_surface_values(small_mesh, small_reference):
    ref = small_reference
    p0_levels = small_mesh.column_view(ref.p0)[0]
    assert abs(p0_levels[0] - isothermal_sounding().p_surf) < 1e-9
    assert ref.rho0_surf > 1.0
    assert np.all(ref.rho0 > 0.0)
    assert np.all(np.diff(p0_levels) < 0.0)  # pressure decreases with height


def test_reference_eos_consistency(small_reference):
    """rho0 is defined so the nodal equation of state reproduces p0."""
    p = equation_of_state(small_reference.rho0, theta_v=small_reference.theta_v0)
    assert np.max(np.abs(p - small_reference.p0)) < 1e-6


def test_reference_requires_coverage(small_mesh):
    snd = isothermal_sounding(z_top=10e3)  # domain reaches 24 km
    with pytest.raises(ConfigurationError):
        build_reference(snd, small_mesh, C)


def per_element_weak_ddz(vals, ne, N, h, rule):
    """Weak vertical derivative summed element by element, as
    `build_reference` computed it before using the mesh's 1D operator."""
    num = np.zeros(vals.size)
    den = np.zeros(vals.size)
    for e in range(ne):
        idx = slice(e * N, e * N + N + 1)
        num[idx] += rule.weights * ((2.0 / h) * (rule.diff_matrix @ vals[idx]))
        den[idx] += rule.weights
    return num / den


def per_element_legendre_integral(vals, ne, N, h, rule):
    """Antiderivative (zero at z=0) from one Legendre fit per element, as
    `build_reference` integrated the Exner pressure before."""
    from numpy.polynomial import legendre as L

    out = np.empty(vals.size)
    start = 0.0
    for e in range(ne):
        idx = slice(e * N, e * N + N + 1)
        anti = L.legint(L.legfit(rule.points, vals[idx], N))
        out[idx] = start + 0.5 * h * (L.legval(rule.points, anti) - L.legval(-1.0, anti))
        start = out[idx][-1]
    return out


def desk_simulators():
    squall = build_case("squall", "mmf", preset="desk")
    supercell = build_case("supercell", "coarse", preset="desk")
    return {"squall_coarse": squall.simulator, "squall_ssp": squall.instances[0].sim,
            "supercell": supercell.simulator}


@pytest.mark.parametrize("name", ["squall_coarse", "squall_ssp", "supercell"])
def test_reference_matches_per_element_oracles(name):
    sim = desk_simulators()[name]
    mesh, ref = sim.mesh, sim.reference
    ne, N, rule = mesh.elem_counts[-1], mesh.orders[-1], mesh.rules[-1]
    h = mesh.extents[-1] / ne
    theta_v, q_v = (mesh.column_view(f)[0] for f in (ref.theta_v0, ref.q_v0))
    pi = ((sim.sounding.p_surf / C.p00) ** (C.R_d / C.c_p)
          + per_element_legendre_integral(-C.g / (C.c_p * theta_v), ne, N, h, rule))
    p0 = C.p00 * pi ** (C.c_p / C.R_d)
    assert np.max(np.abs(mesh.column_view(ref.p0)[0] - p0)) <= 1e-14 * np.max(p0)
    for got, vals in ((ref.dtheta_v0_dz, theta_v), (ref.dq_v0_dz, q_v)):
        want = per_element_weak_ddz(vals, ne, N, h, rule)
        assert np.max(np.abs(mesh.column_view(got) - want)) <= 1e-12 * np.max(np.abs(want))


def test_sponge_profile_endpoints():
    cfg = SpongeConfig(z_b=18e3, z_t=24e3, R_max=0.25)
    z = np.array([0.0, 18e3, 21e3, 24e3])
    rw = sponge_profile(z, cfg)
    assert rw[0] == 0.0
    assert rw[1] == 0.0
    assert abs(rw[2] - 0.125) < 1e-15  # sin^2(pi/4) = 1/2 of R_max
    assert abs(rw[3] - 0.25) < 1e-15


def test_sponge_config_validation():
    with pytest.raises(ConfigurationError):
        SpongeConfig(z_b=10.0, z_t=5.0, R_max=0.1)
    with pytest.raises(ConfigurationError):
        SpongeConfig(z_b=0.0, z_t=1.0, R_max=-0.1)


def test_rhs_zero_state_is_zero(small_mesh, small_reference):
    """A resting, unperturbed atmosphere must have no tendency at all:
    the reference is discretely balanced, so p' = 0 identically."""
    st = PrognosticState.zeros(small_mesh)
    rhs = evaluate_rhs(st, small_reference, small_mesh)
    assert np.max(np.abs(rhs.as_vector())) < 1e-10


def test_rhs_buoyancy_direction(small_mesh, small_reference):
    st = PrognosticState.zeros(small_mesh)
    st.rho_p = -1e-3 * np.exp(-((small_mesh.coords[:, 0] - 25e3) / 5e3) ** 2
                              - ((small_mesh.coords[:, 1] - 5e3) / 2e3) ** 2)
    rhs = evaluate_rhs(st, small_reference, small_mesh)
    # light air accelerates upward somewhere in the interior
    assert rhs.u[-1].max() > 0.0
    assert np.all(rhs.u[-1][small_mesh.bottom_nodes] == 0.0)
    assert np.all(rhs.u[-1][small_mesh.top_nodes] == 0.0)


def test_rhs_mass_tendency_integrates_to_zero(small_mesh, small_reference):
    rng = np.random.default_rng(7)
    st = PrognosticState.zeros(small_mesh)
    st.u[0] = rng.standard_normal(small_mesh.npts)
    st.u[1] = rng.standard_normal(small_mesh.npts)
    st.u[1][small_mesh.bottom_nodes] = 0.0
    st.u[1][small_mesh.top_nodes] = 0.0
    rhs = evaluate_rhs(st, small_reference, small_mesh)
    total = integrate(small_mesh, rhs.rho_p)
    scale = integrate(small_mesh, np.abs(rhs.rho_p)) + 1.0
    assert abs(total) < 1e-11 * scale


def test_rhs_rejects_vacuum(small_mesh, small_reference):
    st = PrognosticState.zeros(small_mesh)
    st.rho_p = -2.0 * small_reference.rho0
    with pytest.raises(StateError):
        evaluate_rhs(st, small_reference, small_mesh)


def test_sponge_damps_w(small_mesh, small_reference):
    cfg = SpongeConfig(z_b=18e3, z_t=24e3, R_max=0.25)
    sponged = build_reference(isothermal_sounding(), small_mesh, C, sponge=cfg)
    st = PrognosticState.zeros(small_mesh)
    st.u[-1] = np.where(small_mesh.coords[:, -1] > 20e3, 1.0, 0.0)
    st.u[-1][small_mesh.top_nodes] = 0.0
    plain = evaluate_rhs(st, small_reference, small_mesh)
    damped = evaluate_rhs(st, sponged, small_mesh)
    diff = damped.u[-1] - plain.u[-1]
    inside = (small_mesh.coords[:, -1] > 20e3) & (st.u[-1] > 0.0)
    assert np.all(diff[inside] <= 0.0)
    assert diff[inside].min() < -0.1


def _rhs_reference(state, reference, mesh, constants, sponge_rw):
    """S(q) as one allocating expression per row, with one batched
    gradient call: the formula the buffered `evaluate_rhs` must
    reproduce bit for bit."""
    ops, dim, u = SemOps(mesh), mesh.dim, state.u
    rho = reference.rho0 + state.rho_p
    p = equation_of_state(rho, theta_v=reference.theta_v0 + state.theta_vp, constants=constants)
    grads = ops.grad(np.concatenate((state.data[1:], (p - reference.p0)[None, :])))
    gu = grads[:dim]
    g_thp, g_qvp, g_qc, g_qr, g_pp = grads[dim:]

    def advect(g):
        acc = u[0] * g[0]
        for d in range(1, dim):
            acc = acc + u[d] * g[d]
        return acc

    w = u[-1]
    d_rho = -ops.div(rho * u)
    du = np.empty_like(u)
    for d in range(dim):
        du[d] = -advect(gu[d]) - g_pp[d] / rho
    buoy = state.rho_p / rho - constants.eps * state.q_vp + state.q_c + state.q_r
    du[-1] -= constants.g * buoy
    if sponge_rw is not None:
        du[-1] -= sponge_rw * w
    d_th = -advect(g_thp) - w * reference.dtheta_v0_dz
    d_qv = -advect(g_qvp) - w * reference.dq_v0_dz
    d_qc = -advect(g_qc)
    d_qr = -advect(g_qr)
    if constants.nu != 0.0:
        lap = ops.laplacian(state.data[1:])
        du += constants.nu * lap[:dim]
        d_th += constants.nu * lap[dim]
        d_qv += constants.nu * lap[dim + 1]
        d_qc += constants.nu * lap[dim + 2]
        d_qr += constants.nu * lap[dim + 3]
    du[-1][mesh.bottom_nodes] = 0.0
    du[-1][mesh.top_nodes] = 0.0
    return PrognosticState(rho_p=d_rho, u=du, theta_vp=d_th, q_vp=d_qv, q_c=d_qc, q_r=d_qr)


# (extents, elements, orders, lateral periodicity) of the RHS meshes
RHS_MESHES = {
    "2d_periodic": ((50e3, 24e3), (3, 15), (4, 4), (True,)),
    "3d_periodic": ((30e3, 20e3, 24e3), (3, 2, 4), (3, 3, 3), (True, True)),
    "3d_mixed": ((30e3, 20e3, 24e3), (3, 2, 4), (4, 3, 2), (True, False)),
}


@pytest.fixture(scope="module", params=sorted(RHS_MESHES))
def rhs_case(request):
    """(mesh, two random moist states)."""
    extents, elems, orders, periodic = RHS_MESHES[request.param]
    mesh = build_box_mesh(extents, elems, orders, periodicity=periodic)
    rng = np.random.default_rng(len(request.param))
    states = []
    for _ in range(2):
        st = PrognosticState.from_vector(rng.standard_normal((5 + mesh.dim) * mesh.npts), mesh.dim)
        st.rho_p *= 1e-3
        st.q_vp *= 1e-3
        st.q_c = 1e-3 * np.abs(st.q_c)
        st.q_r = 1e-3 * np.abs(st.q_r)
        states.append(st)
    return mesh, states


@pytest.mark.parametrize("nu", [0.0, 200.0])
@pytest.mark.parametrize("sponge", [False, True])
def test_evaluate_rhs_matches_reference_formula(rhs_case, sponge, nu):
    mesh, (st, other) = rhs_case
    constants = C.with_nu(nu)
    cfg = SpongeConfig(18e3, 24e3, 0.25) if sponge else None
    ref = build_reference(isothermal_sounding(), mesh, constants, sponge=cfg)
    # the oracle's sponge row is the profile on every node, not the reference's
    rw = sponge_profile(mesh.coords[:, -1], cfg) if sponge else None
    before = st.data.copy()
    got = evaluate_rhs(st, ref, mesh)
    kept = got.data.copy()
    assert np.array_equal(got.data, _rhs_reference(st, ref, mesh, constants, rw).data)
    assert np.array_equal(st.data, before)
    # a second call, into a new state or a given one, leaves the first alone
    evaluate_rhs(other, ref, mesh)
    assert np.array_equal(got.data, kept)
    out = PrognosticState.zeros(mesh)
    assert evaluate_rhs(st, ref, mesh, out=out) is out
    assert np.array_equal(out.data, kept)
    with pytest.raises(ValueError):
        evaluate_rhs(st, ref, mesh, out=st)
    # out is keyword-only, so a stale positional argument fails loudly
    with pytest.raises(TypeError):
        evaluate_rhs(st, ref, mesh, constants)


def test_transfer_function_shape():
    eta = np.linspace(0.0, 1.0, 101)
    sig = boyd_vandeven_transfer(eta)
    assert sig[0] == 1.0
    assert sig[-1] == 0.0
    assert np.all(np.diff(sig) <= 1e-12)
    assert np.all((sig >= 0.0) & (sig <= 1.0))


def test_filter_preserves_constants(small_mesh):
    f = np.full(small_mesh.npts, 3.5)
    out = filter_field(small_mesh, f, 0.04)
    assert np.max(np.abs(out - 3.5)) < 1e-12


def test_filter_zero_strength_identity(small_mesh):
    f = np.sin(small_mesh.coords[:, 0] / 1e3)
    out = filter_field(small_mesh, f, 0.0)
    assert np.array_equal(out, f)
    assert out is not f


def test_filter_shrinks_rough_fields(small_mesh):
    rng = np.random.default_rng(2)
    f = rng.standard_normal(small_mesh.npts)
    out = filter_field(small_mesh, f, 1.0)
    mass_in = integrate(small_mesh, f)
    mass_out = integrate(small_mesh, out)
    assert abs(mass_out - mass_in) < 1e-9 * (abs(mass_in) + 1.0)
    assert np.std(out) < np.std(f)


def test_filter_strength_validated(small_mesh):
    with pytest.raises(ConfigurationError):
        filter_field(small_mesh, np.zeros(small_mesh.npts), 1.5)


def test_apply_filter_hits_every_field(small_mesh):
    rng = np.random.default_rng(9)
    st = PrognosticState.zeros(small_mesh)
    for name in ("rho_p", "theta_vp", "q_vp", "q_c", "q_r"):
        setattr(st, name, rng.standard_normal(small_mesh.npts))
    st.u = rng.standard_normal((2, small_mesh.npts))
    out = apply_filter(st, 0.5, small_mesh)
    for name in ("rho_p", "theta_vp", "q_vp", "q_c", "q_r"):
        assert not np.array_equal(getattr(out, name), getattr(st, name))
    assert out.u.shape == st.u.shape
    assert apply_filter(st, 0.5, small_mesh, out=st) is st
    assert np.array_equal(st.data, out.data)
