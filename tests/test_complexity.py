import numpy as np
import pytest

from mmfsim.complexity import (CostModelInput, arithmetic_intensity,
                               boundary_points, comm_bytes, cost_report,
                               element_counts, flops, simplified_intensity,
                               step_counts)
from mmfsim.errors import ConfigurationError


def unit_case(**kw):
    """One order-4 element, one step: the kernel cost in isolation."""
    args = dict(n_p=5, l_x=4.0, l_y=4.0, l_z=4.0, dx=1.0, dy=1.0, dz=1.0,
                duration=1.0, dt=1.0)
    args.update(kw)
    return CostModelInput(**args)


def comm_case(**kw):
    args = dict(n_p=3, l_x=8.0, l_y=8.0, l_z=4.0, dx=1.0, dy=1.0, dz=1.0,
                duration=10.0, dt=1.0, n_rx=2)
    args.update(kw)
    return CostModelInput(**args)


def test_single_element_single_step_flops():
    # 5^3 * (816*5 + 4635) worked out by hand
    assert flops(unit_case(), "standard") == 1_089_375.0


def test_flops_scale_with_volume_and_steps():
    base = flops(unit_case(), "standard")
    assert flops(unit_case(l_x=8.0), "standard") == 2.0 * base
    assert flops(unit_case(dt=0.5), "standard") == 2.0 * base
    assert flops(unit_case(duration=3.0), "standard") == 3.0 * base


def test_element_and_step_counts():
    inp = unit_case(l_x=8.0, r_x=2.0, r_z=1.0, r_t=4.0, duration=8.0, dt=1.0)
    ne_s, ne_m = element_counts(inp)
    assert (ne_s, ne_m) == (2.0, 1.0)
    nt_s, nt_m = step_counts(inp)
    assert (nt_s, nt_m) == (8.0, 2.0)


def test_mmf_flop_ratio_closed_form():
    """F^M/F^S = (1 + r_t r_x r_z n_p)/(r_t r_x r_z), e.g. 1 + n_p at
    unit ratios."""
    inp = unit_case()
    assert flops(inp, "mmf") / flops(inp, "standard") == 6.0
    for rt, rx, rz in ((2.0, 3.0, 1.0), (10.0, 10.0, 2.0), (1.0, 7.0, 4.0)):
        inp = unit_case(r_t=rt, r_x=rx, r_z=rz)
        got = flops(inp, "mmf") / flops(inp, "standard")
        R = rt * rx * rz
        assert abs(got - (1.0 + R * inp.n_p) / R) < 1e-13 * got


def test_boundary_points_by_hand():
    # nex = 8/(2*2*1) = 2, ney = 8/(1*2*1) = 4, nez = 4/(2*1) = 2
    # standard: 2*(2+4)*2*3^2 = 216
    assert boundary_points(comm_case(), "standard") == 216.0


def test_boundary_points_mmf_shrinks_x_and_z():
    inp = comm_case(r_x=2.0, r_z=2.0)
    # 2*(2/2 + 4)*(2/2)*9 = 90
    assert boundary_points(inp, "mmf") == 90.0
    # y term is untouched by the horizontal ratio
    assert boundary_points(comm_case(n_ry=2), "standard") == \
        2.0 * (2.0 + 2.0) * 2.0 * 9.0


def test_comm_bytes_by_hand():
    # 10 steps * 2 ranks * 784 B * 216 points
    assert comm_bytes(comm_case(), "standard") == 10.0 * 2.0 * 784.0 * 216.0


def test_intensity_is_literally_f_over_b():
    inp = comm_case(r_t=4.0, r_x=4.0, r_z=1.0)
    i_s, i_m = arithmetic_intensity(inp)
    assert i_s == flops(inp, "standard") / comm_bytes(inp, "standard")
    assert i_m == flops(inp, "mmf") / comm_bytes(inp, "mmf")


def test_simplified_requires_symmetry():
    with pytest.raises(ConfigurationError):
        simplified_intensity(comm_case())          # n_rx != n_ry
    with pytest.raises(ConfigurationError):
        simplified_intensity(unit_case(l_y=8.0))
    with pytest.raises(ConfigurationError):
        simplified_intensity(unit_case(r_t=2.0, r_x=4.0))
    with pytest.raises(ConfigurationError):
        simplified_intensity(unit_case(r_z=2.0))


def test_simplified_tracks_general_form():
    inp = CostModelInput(n_p=5, l_x=150e3, l_y=150e3, l_z=24e3,
                         dx=200.0, dy=200.0, dz=200.0,
                         duration=3600.0, dt=0.5,
                         r_t=10.0, r_x=10.0, r_z=1.0, n_rx=3, n_ry=3)
    gi_s, gi_m = arithmetic_intensity(inp)
    si_s, si_m = simplified_intensity(inp)
    assert abs(si_s - gi_s) / gi_s < 2e-3   # rounded coefficients
    assert abs(si_m - gi_m) / gi_m < 2e-3


def test_intensity_gain_grows_with_refinement():
    gains = []
    for r in (1.0, 2.0, 4.0, 8.0, 16.0):
        inp = unit_case(l_x=64.0, l_y=64.0, r_t=r, r_x=r, r_z=1.0)
        i_s, i_m = arithmetic_intensity(inp)
        gains.append(i_m / i_s)
        assert i_m >= i_s
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_cost_report_consistency():
    inp = comm_case(r_t=2.0, r_x=2.0)
    rep = cost_report(inp)
    assert rep.rows() == [
        ("flops", rep.flops_standard, rep.flops_mmf),
        ("bytes", rep.bytes_standard, rep.bytes_mmf),
        ("intensity", rep.intensity_standard, rep.intensity_mmf)]
    ratios = [m / s for _, s, m in rep.rows()]
    assert ratios[0] == flops(inp, "mmf") / flops(inp, "standard")
    assert ratios[1] == comm_bytes(inp, "mmf") / comm_bytes(inp, "standard")
    assert ratios[2] == (rep.flops_mmf / rep.bytes_mmf) / (rep.flops_standard / rep.bytes_standard)


def test_input_validation():
    with pytest.raises(ConfigurationError):
        unit_case(n_p=1)
    with pytest.raises(ConfigurationError):
        unit_case(l_z=-1.0)
    with pytest.raises(ConfigurationError):
        unit_case(r_x=0.5)
    with pytest.raises(ConfigurationError):
        unit_case(n_rx=2.0)  # must be an integer
