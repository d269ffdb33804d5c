import numpy as np
import pytest

from mmfsim import microphysics
from mmfsim.dynamics import DEFAULT_CONSTANTS, equation_of_state, exner_function
from mmfsim.errors import StateError
from mmfsim.microphysics import (ColumnView, KesslerParams, apply_microphysics,
                                 kessler_column_step, saturation_mixing_ratio)
from mmfsim.operators import PrognosticState, integrate

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
    one equation-of-state call, where a cloudy batch needs more."""
    ref, rng = small_reference, np.random.default_rng(3)
    st = PrognosticState.zeros(small_mesh)
    st.theta_vp = rng.uniform(-1.0, 1.0, small_mesh.npts)
    st.q_vp = rng.uniform(-1e-3, 1e-3, small_mesh.npts)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return equation_of_state(*args, **kwargs)

    monkeypatch.setattr(microphysics, "equation_of_state", counted)
    out, precip = apply_microphysics(st, ref, small_mesh, 5.0, P, C)
    assert np.array_equal(out.theta_vp, (ref.theta_v0 + st.theta_vp) - ref.theta_v0)
    assert np.array_equal(out.q_vp, (ref.q_v0 + st.q_vp) - ref.q_v0)
    assert np.all(out.q_c == 0.0) and np.all(out.q_r == 0.0)
    assert np.all(precip == 0.0)
    assert len(calls) == 1

    st.q_c[:] = 1e-4
    apply_microphysics(st, ref, small_mesh, 5.0, P, C)
    assert len(calls) > 3


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


def test_params_validated():
    with pytest.raises(ValueError):
        KesslerParams(accretion_rate=-1.0)


def test_apply_microphysics_leaves_dynamics_alone(small_mesh, small_reference):
    st = PrognosticState.zeros(small_mesh)
    st.u[0] = 3.0
    st.q_vp = np.full(small_mesh.npts, 0.02)  # push well past saturation
    new, precip = apply_microphysics(st, small_reference, small_mesh, 2.0, P, C)
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
    new, precip = apply_microphysics(st, small_reference, small_mesh, 2.0, P, C)
    after = integrate(small_mesh, rho * (small_reference.q_v0 + new.q_vp + new.q_c + new.q_r))
    area = np.asarray(small_mesh.lumped_1d[0])
    assert abs(after - before + float(area @ precip)) < 1e-8 * before
