import functools
import tracemalloc

import numpy as np
import pytest

from mmfsim import dynamics, microphysics
from mmfsim.coupling import Simulator
from mmfsim.dynamics import DEFAULT_CONSTANTS, build_reference, equation_of_state, exner_function
from mmfsim.errors import ConfigurationError, StateError
from mmfsim.grid import build_box_mesh
from mmfsim.microphysics import (ColumnView, KesslerParams, apply_microphysics,
                                 kessler_column_step, saturation_mixing_ratio)
from mmfsim.operators import PrognosticState, integrate

from conftest import isothermal_sounding

C = DEFAULT_CONSTANTS
P = KesslerParams()


def make_column(nlev=20, q_v=0.0, q_c=0.0, q_r=0.0, theta_v=300.0, z_top=5000.0):
    """Uniform toy column with equal level masses and near-surface density.

    Keep z_top low (~2 km) for tests that rely on the air staying
    subsaturated: the diagnostic temperature drops fast with height.
    """
    z = np.linspace(0.0, z_top, nlev)
    rho = 1.1 * np.exp(-z / 8000.0)
    as_arr = lambda v: np.full(nlev, v, dtype=float) if np.isscalar(v) else np.asarray(v, dtype=float)
    return ColumnView(z=z, masses=np.full(nlev, z[1] - z[0]), rho=rho,
                      theta_v=as_arr(theta_v), q_v=as_arr(q_v),
                      q_c=as_arr(q_c), q_r=as_arr(q_r), rho_surf=1.1)


def saturate(col):
    """Pin col.q_v on the saturation curve at fixed theta_v and rho."""
    p = equation_of_state(col.rho, theta_v=col.theta_v, constants=C)
    pi = exner_function(p, C)
    for _ in range(50):
        T = col.theta_v * pi / (1.0 + C.eps * col.q_v)
        col.q_v[:] = saturation_mixing_ratio(p, T, C)


def column_water(col):
    return float(np.sum(col.rho * col.masses * (col.q_v + col.q_c + col.q_r)))


def test_qvs_at_triple_point():
    # at T0 the Tetens exponent vanishes, so e_s = 610.78 Pa exactly
    got = saturation_mixing_ratio(1.0e5, 273.15)
    expect = (C.R_d / C.R_v) * 610.78 / (1.0e5 - 610.78)
    assert np.isclose(got, expect, rtol=1e-14)


def test_qvs_room_temperature():
    # ~14.9 g/kg at 20 C and 1000 hPa (standard Tetens value)
    got = saturation_mixing_ratio(1.0e5, 293.15)
    assert np.isclose(got, 0.01489, rtol=2e-3)


def test_qvs_increases_with_temperature():
    T = np.linspace(250.0, 310.0, 50)
    q = saturation_mixing_ratio(9.0e4, T)
    assert np.all(np.diff(q) > 0.0)


def test_qvs_rejects_saturated_pressure():
    with pytest.raises(StateError):
        saturation_mixing_ratio(500.0, 300.0)


def test_dry_column_untouched():
    col = make_column(q_v=0.002, z_top=2000.0)
    before = col.q_v.copy()
    _, precip = kessler_column_step(col, 10.0, P, C)
    assert precip == 0.0
    assert np.allclose(col.q_v, before, atol=1e-18)
    assert np.all(col.q_c == 0.0)
    assert np.all(col.q_r == 0.0)


def test_subsaturated_cloud_free_batch_is_left_alone(small_mesh, small_reference, monkeypatch):
    """Nothing condenses, evaporates or falls, so theta_v and q_v come
    back bit for bit and the entry pressure serves the whole update:
    one pressure diagnosis, where a cloudy batch needs more. Kessler
    checks its density on entry and diagnoses pressure by the unchecked
    kernel of `equation_of_state`, which is what is counted."""
    ref, rng = small_reference, np.random.default_rng(3)
    st = PrognosticState.zeros(small_mesh)
    st.theta_vp = rng.uniform(-1.0, 1.0, small_mesh.npts)
    st.q_vp = rng.uniform(-1e-3, 1e-3, small_mesh.npts)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return dynamics._pressure(*args, **kwargs)

    monkeypatch.setattr(microphysics, "_pressure", counted)
    out, precip = apply_microphysics(st, ref, small_mesh, 5.0, P)
    assert np.array_equal(out.theta_vp, (ref.theta_v0 + st.theta_vp) - ref.theta_v0)
    assert np.array_equal(out.q_vp, (ref.q_v0 + st.q_vp) - ref.q_v0)
    assert np.all(out.q_c == 0.0) and np.all(out.q_r == 0.0)
    assert np.all(precip == 0.0)
    assert len(calls) == 1

    # the cloud evaporates: the entry pressure and at least one per Newton
    # iteration after the first (rain-free, so no evaporation pressure)
    st.q_c[:] = 1e-4
    apply_microphysics(st, ref, small_mesh, 5.0, P)
    assert len(calls) > 2


@pytest.mark.parametrize("case, expect", [("equal", True), ("nan", True), ("below", False)])
def test_saturation_test_admits_vapor_at_saturation(case, expect, monkeypatch):
    """The saturation Newton runs where q_v reaches q_vs, equality
    included, and where q_vs is NaN; not where q_v stays below it
    everywhere. `_saturation` is replaced to write q_vs outright."""
    q_v = np.linspace(1e-3, 2e-2, 12)

    def fake(theta_v, exner, q_v, p, constants, T, es, tmb, qvs, den, pme):
        np.add(q_v, 1e-5, out=qvs)
        if case == "equal":
            qvs[4] = q_v[4]
        elif case == "nan":
            qvs[7] = np.nan

    monkeypatch.setattr(microphysics, "_saturation", fake)
    scratch = np.empty((5, q_v.size))
    got = microphysics._reaches_saturation(np.full(12, 300.0), q_v, np.full(12, 9e4),
                                           np.ones(12), C, scratch)
    assert got is expect


def test_supersaturation_condenses():
    col = make_column(q_v=0.025, theta_v=300.0)
    _, precip = kessler_column_step(col, 0.0, P, C)
    assert np.all(col.q_c > 0.0)
    assert np.all(col.q_v < 0.025)
    assert np.all(col.theta_v > 300.0)  # latent heating
    assert precip == 0.0


def test_saturation_adjustment_idempotent():
    """A second adjustment right after the first must be a no-op: the
    Newton solve lands on the saturation curve, not near it."""
    col = make_column(q_v=0.025)
    kessler_column_step(col, 0.0, P, C)
    qv1, qc1, th1 = col.q_v.copy(), col.q_c.copy(), col.theta_v.copy()
    kessler_column_step(col, 0.0, P, C)
    assert np.max(np.abs(col.q_v - qv1)) < 1e-13
    assert np.max(np.abs(col.q_c - qc1)) < 1e-13
    assert np.max(np.abs(col.theta_v - th1)) < 1e-10


def test_cloud_evaporates_in_dry_air():
    col = make_column(q_v=0.001, q_c=0.0005, z_top=2000.0)
    kessler_column_step(col, 0.0, P, C)
    assert np.all(col.q_c == 0.0)          # fully evaporated, never negative
    assert np.all(col.q_v > 0.001)
    assert np.all(col.theta_v < 300.0)     # evaporative cooling


def test_autoconversion_threshold():
    # saturate the vapor field so the adjustment leaves the cloud alone
    col = make_column()
    saturate(col)
    col.q_c[:] = 0.5 * P.autoconversion_threshold
    kessler_column_step(col, 5.0, P, C)
    assert np.all(col.q_r == 0.0)


def test_autoconversion_above_threshold_makes_rain():
    col = make_column()
    saturate(col)
    col.q_c[:] = 0.003
    before = column_water(col)
    _, precip = kessler_column_step(col, 1.0, P, C)
    assert np.all(col.q_r > 0.0)
    assert np.all(col.q_c < 0.003)
    assert abs(column_water(col) + precip - before) < 1e-12 * before


def test_rain_falls_and_budget_closes():
    q_r = np.zeros(20)
    q_r[10:15] = 0.002
    col = make_column(q_v=0.015, q_r=q_r)
    before = column_water(col)
    total_precip = 0.0
    for _ in range(40):
        _, mm = kessler_column_step(col, 5.0, P, C)
        total_precip += mm
    assert total_precip > 0.0
    assert abs(column_water(col) + total_precip - before) < 1e-10 * before
    assert np.all(col.q_r >= 0.0)


def test_rain_evaporates_in_subsaturated_air():
    col = make_column(q_v=0.001, q_r=0.0001, z_top=2000.0)
    qv0 = col.q_v.copy()
    kessler_column_step(col, 1.0, P, C)
    assert np.all(col.q_v >= qv0)
    assert col.q_v.max() > qv0.max()


def test_negative_input_rejected():
    col = make_column(q_c=-1e-6)
    with pytest.raises(StateError):
        kessler_column_step(col, 1.0, P, C)


def test_batch_rejects_pressure_at_or_below_saturation(small_mesh, small_reference):
    """Where p <= e_s the batch raises the StateError that
    `saturation_mixing_ratio` raises, instead of condensing the vapor."""
    p, theta_v, q_v = 1222.0, 1500.0, 0.01
    rho = C.p00 / (C.R_d * theta_v) * (p / C.p00) ** (C.c_v / C.c_p)
    col = make_column(nlev=3, q_v=q_v, theta_v=theta_v)
    col.rho[:] = rho
    T = theta_v * exner_function(equation_of_state(rho, theta_v=theta_v, constants=C), C) \
        / (1.0 + C.eps * q_v)
    with pytest.raises(StateError, match="saturation vapor pressure"):
        saturation_mixing_ratio(p, T, C)
    with pytest.raises(StateError, match="saturation vapor pressure"):
        kessler_column_step(col, 1.0, P, C)

    # one hot point on the grid, whose state Simulator.step then names
    st = PrognosticState.zeros(small_mesh)
    st.theta_vp[small_mesh.npts // 2] = 1500.0
    with pytest.raises(StateError, match="saturation vapor pressure"):
        apply_microphysics(st, small_reference, small_mesh, 1.0, P)
    sim = Simulator(mesh=small_mesh, reference=small_reference, state=st, kessler=P,
                    dynamics_enabled=False)
    with pytest.raises(StateError, match="^microphysics: pressure at or below saturation"):
        sim.step(1.0)


def test_params_validated():
    with pytest.raises(ConfigurationError, match="^KesslerParams.accretion_rate = -1.0: expected"):
        KesslerParams(accretion_rate=-1.0)


def test_apply_microphysics_leaves_dynamics_alone(small_mesh, small_reference):
    st = PrognosticState.zeros(small_mesh)
    st.u[0] = 3.0
    st.q_vp = np.full(small_mesh.npts, 0.02)  # push well past saturation
    new, precip = apply_microphysics(st, small_reference, small_mesh, 2.0, P)
    assert np.array_equal(new.rho_p, st.rho_p)
    assert np.array_equal(new.u, st.u)
    assert precip.shape == (small_mesh.ncols,)
    assert np.all(precip >= 0.0)
    assert new.q_c.max() > 0.0


def test_apply_microphysics_grid_budget(small_mesh, small_reference):
    """Domain water integral drops by exactly the area-weighted precip."""
    rng = np.random.default_rng(21)
    st = PrognosticState.zeros(small_mesh)
    st.q_vp = 0.02 * rng.random(small_mesh.npts)
    st.q_r = 0.001 * rng.random(small_mesh.npts)
    rho = small_reference.rho0
    before = integrate(small_mesh, rho * (small_reference.q_v0 + st.q_vp + st.q_c + st.q_r))
    new, precip = apply_microphysics(st, small_reference, small_mesh, 2.0, P)
    after = integrate(small_mesh, rho * (small_reference.q_v0 + new.q_vp + new.q_c + new.q_r))
    area = np.asarray(small_mesh.lumped_1d[0])
    assert abs(after - before + float(area @ precip)) < 1e-8 * before
    # the same update in place
    same, precip_same = apply_microphysics(st, small_reference, small_mesh, 2.0, P, out=st)
    assert same is st
    assert np.array_equal(st.data, new.data)
    assert np.array_equal(precip_same, precip)
    # out is keyword-only, so a stale positional argument fails loudly
    with pytest.raises(TypeError):
        apply_microphysics(st, small_reference, small_mesh, 2.0, P, C)


# ---------------------------------------------------------------------------
# column-major oracle: the grid update on (ncols, nlev) copies of the
# fields, every intermediate a new array, written back through the
# inverse of Mesh.column_view

def oracle_sediment(q_r, rho, masses, rho_surf, dt, params):
    precip = np.zeros(q_r.shape[0])
    if dt <= 0.0:
        return precip
    m_min = float(np.min(masses))
    remaining = np.full(q_r.shape[0], dt)
    while np.any(remaining > 0.0):
        V = (params.fall_speed_coeff
             * (0.001 * rho * np.maximum(q_r, 0.0)) ** params.fall_speed_exponent
             * np.sqrt(rho_surf / rho))
        vmax = float(np.max(V))
        step = dt if vmax == 0.0 else min(dt, 0.9 * m_min / vmax)
        sub = np.minimum(remaining, step)[:, None]
        flux = rho * V * q_r
        dmass = np.empty_like(flux)
        dmass[:, :-1] = flux[:, 1:] - flux[:, :-1]
        dmass[:, -1] = -flux[:, -1]
        q_r += sub * dmass / (rho * masses)
        precip += sub[:, 0] * flux[:, 0]
        remaining = np.maximum(remaining - step, 0.0)
    np.maximum(q_r, 0.0, out=q_r)
    return precip


def oracle_saturation(theta_v, exner, q_v, p, c):
    T = theta_v * exner / (1.0 + c.eps * q_v)
    es = 610.78 * np.exp(17.27 * (T - 273.15) / (T - 35.86))
    return T, es, (c.R_d / c.R_v) * es / (p - es)


def oracle_saturation_adjust(theta_v, q_v, q_c, rho, p_in, exner_in, params, c):
    cr, cp_cv = c.R_d / c.R_v, c.c_p / c.c_v
    A = c.L_v / (c.c_p * exner_in)
    delta = np.zeros_like(q_v)
    th, qv, p, pi = theta_v, q_v, p_in, exner_in
    for it in range(params.newton_iterations):
        if it:
            th = theta_v + A * delta
            qv = q_v - delta
            p = equation_of_state(rho, theta_v=th, constants=c)
            pi = exner_function(p, c)
        T, es, qvs = oracle_saturation(th, pi, qv, p, c)
        dT = (A * pi * cp_cv + c.eps * T) / (1.0 + c.eps * qv)
        dp = p * cp_cv * A / th
        des = es * (17.27 * (273.15 - 35.86)) / (T - 35.86) ** 2 * dT
        dqvs = cr * (des * p - es * dp) / (p - es) ** 2
        new = np.clip(delta - (qv - qvs) / (-1.0 - dqvs), -q_c, q_v)
        done = float(np.max(np.abs(new - delta))) < 1e-16
        delta = new
        if done:
            break
    return delta


def oracle_rain_evaporation(theta_v, q_v, q_r, rho, p, exner, dt, c):
    _, _, qvs = oracle_saturation(theta_v, exner, q_v, p, c)
    deficit = np.maximum(qvs - q_v, 0.0)
    rcgs = 0.001 * rho
    rq = rcgs * np.maximum(q_r, 0.0)
    vent = (1.6 + 124.9 * rq ** 0.2046) * rq ** 0.525
    denom = 2.55e8 / (p * qvs) + 5.4e5
    ern = dt * (vent / denom) * (deficit / (rcgs * qvs))
    return np.minimum(np.minimum(ern, np.maximum(q_r, 0.0)), deficit)


def oracle_apply_microphysics(state, ref, mesh, dt, params, c):
    cv = mesh.column_view
    rho = cv(ref.rho0 + state.rho_p)
    theta_v = cv(ref.theta_v0 + state.theta_vp)
    q_v = cv(ref.q_v0 + state.q_vp)
    q_c = np.maximum(cv(state.q_c), 0.0)
    q_r = np.maximum(cv(state.q_r), 0.0)
    masses = np.broadcast_to(mesh.lumped_1d[-1], q_c.shape)
    precip = oracle_sediment(q_r, rho, masses, ref.rho0_surf, dt, params)
    auto = np.minimum(dt * params.autoconversion_rate
                      * np.maximum(q_c - params.autoconversion_threshold, 0.0), q_c)
    q_c -= auto
    q_r += auto
    accr = np.minimum(dt * params.accretion_rate * q_c * q_r ** 0.875, q_c)
    q_c -= accr
    q_r += accr
    p = equation_of_state(rho, theta_v=theta_v, constants=c)
    exner = exner_function(p, c)
    delta = oracle_saturation_adjust(theta_v, q_v, q_c, rho, p, exner, params, c)
    q_v -= delta
    q_c += delta
    theta_v += (c.L_v / (c.c_p * exner)) * delta
    if dt > 0.0:
        if np.any(delta):
            p = equation_of_state(rho, theta_v=theta_v, constants=c)
            exner = exner_function(p, c)
        ern = oracle_rain_evaporation(theta_v, q_v, q_r, rho, p, exner, dt, c)
        q_r -= ern
        q_v += ern
        theta_v -= (c.L_v / (c.c_p * exner)) * ern

    def back(cols):
        return np.swapaxes(cols, -1, -2).reshape(-1)

    out = state.copy()
    out.theta_vp = back(theta_v) - ref.theta_v0
    out.q_vp = back(q_v) - ref.q_v0
    out.q_c = back(np.maximum(q_c, 0.0))
    out.q_r = back(np.maximum(q_r, 0.0))
    return out, precip


@functools.cache
def oracle_grid(dim):
    """A 2D periodic or a 3D (True, False) mesh with its reference."""
    if dim == 2:
        mesh = build_box_mesh((20e3, 12e3), (3, 4), (4, 4), periodicity=(True,))
    else:
        mesh = build_box_mesh((12e3, 8e3, 12e3), (2, 2, 3), (3, 4, 4),
                              periodicity=(True, False))
    return mesh, build_reference(isothermal_sounding(z_top=14e3), mesh, C)


def moist_state(mesh, kind, seed):
    """Noise in every field. kind True: cloud, rain and vapor up to well
    past saturation at every point; False: subsaturated and cloud-free.
    The patchy kinds are the False state plus rain in two columns
    ("rain_columns"), cloud at a few points, some of it above the
    autoconversion threshold ("cloud_points"), or vapor far above
    saturation at one cloud-free point ("supersaturated_point")."""
    rng = np.random.default_rng(seed)
    st = PrognosticState.zeros(mesh)
    st.rho_p = 1e-3 * rng.standard_normal(mesh.npts)
    st.u = rng.standard_normal(st.u.shape)
    st.theta_vp = rng.uniform(-1.0, 1.0, mesh.npts)
    if kind is True:
        st.q_vp = 0.02 * rng.random(mesh.npts)
        st.q_c = 2e-3 * rng.random(mesh.npts)
        st.q_r = 2e-3 * rng.random(mesh.npts)
        return st
    st.q_vp = rng.uniform(-1e-3, 1e-3, mesh.npts)
    points = rng.choice(mesh.npts, 5, replace=False)
    if kind == "rain_columns":
        # every level of two columns; z runs slowest
        st.q_r.reshape(-1, mesh.ncols)[:, [1, mesh.ncols - 2]] = \
            2e-3 * rng.random((mesh.npts // mesh.ncols, 2))
    elif kind == "cloud_points":
        st.q_c[points] = np.linspace(5e-4, 2.5e-3, points.size)
    elif kind == "supersaturated_point":
        st.q_vp[points[0]] = 0.05
    return st


# (enters _sediment, solves the saturation Newton) for each kind
KINDS = {False: (False, False), True: (True, True), "rain_columns": (True, False),
         "cloud_points": (False, True), "supersaturated_point": (False, True)}


@pytest.mark.parametrize("target", ["new", "state", "other"])
@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("dim", [2, 3])
def test_apply_microphysics_matches_column_major_oracle(dim, kind, target, monkeypatch):
    """The update on the state's own level-major rows is the column-major
    one bit for bit, whichever state receives it, on states wet
    everywhere, nowhere and in patches; the input is left alone unless it
    is the output. A batch without rain never enters the sedimentation,
    and a cloud-free, subsaturated one never enters the saturation
    Newton."""
    mesh, ref = oracle_grid(dim)
    st = moist_state(mesh, kind, seed=dim)
    before = st.data.copy()
    want, want_precip = oracle_apply_microphysics(st, ref, mesh, 30.0, P, C)
    falls, adjusts = KINDS[kind]
    assert not falls or np.any(want_precip > 0.0)
    assert not adjusts or not np.array_equal(want.q_vp, st.q_vp)
    calls = {"_sediment": [], "_saturation_adjust": []}
    for name, made in calls.items():
        def spy(*args, _made=made, _f=getattr(microphysics, name), **kwargs):
            _made.append(1)
            return _f(*args, **kwargs)
        monkeypatch.setattr(microphysics, name, spy)
    out = {"new": None, "state": st,
           "other": PrognosticState.from_vector(np.full(st.data.size, np.nan), mesh.dim)}[target]
    got, precip = apply_microphysics(st, ref, mesh, 30.0, P, out=out)
    assert out is None or got is out
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(precip, want_precip)
    if target != "state":
        assert got is not st and not np.shares_memory(got.data, st.data)
        assert np.array_equal(st.data, before)
    assert bool(calls["_sediment"]) == falls
    assert len(calls["_saturation_adjust"]) == adjusts


def test_warm_in_place_update_allocates_less_than_a_field():
    """A warm in-place update of a cloudy embedded-grid-sized mesh works
    on the state's rows and the mesh's buffers: traced allocations peak
    below one field above where the call started."""
    mesh = build_box_mesh((8e3, 24e3), (10, 30), (4, 4), periodicity=(True,))
    ref = build_reference(isothermal_sounding(), mesh, C)
    st = moist_state(mesh, True, seed=7)
    apply_microphysics(st, ref, mesh, 2.0, P, out=st)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        apply_microphysics(st, ref, mesh, 2.0, P, out=st)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < st.rho_p.nbytes
    assert mesh.plan.kessler_scratch.base is mesh.plan.kernel


def test_newton_iterations_below_one_are_rejected():
    """With no Newton iteration the saturation adjustment used to be
    skipped silently: a supersaturated column kept q_c = 0."""
    with pytest.raises(ConfigurationError,
                       match=r"^KesslerParams.newton_iterations = 0: expected an integer"):
        KesslerParams(newton_iterations=0)
