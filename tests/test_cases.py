import numpy as np
import pytest

from mmfsim.cases import (CASE_IDS, TIERS, BubbleSpec, PerturbationSpec,
                          analytic_sounding, bubble_theta, build_case,
                          perturbation_rng, random_theta_perturbation)
from mmfsim.dynamics import SpongeConfig, build_reference, sponge_profile
from mmfsim.errors import ConfigurationError


def test_bubble_center_and_cutoff():
    spec = BubbleSpec(theta_c=3.0, r_c=1.0, center=(10.0, 5.0),
                      semi_axes=(4.0, 2.0))
    pts = np.array([
        [10.0, 5.0],    # center: full amplitude
        [14.0, 5.0],    # on the unit ellipse: cos^2(pi/2) = 0
        [10.0, 7.0],
        [30.0, 5.0],    # far outside
    ])
    th = bubble_theta(pts, spec)
    assert th[0] == 3.0
    assert abs(th[1]) < 1e-15
    assert abs(th[2]) < 1e-15
    assert th[3] == 0.0


def test_bubble_profile_is_cos_squared():
    spec = BubbleSpec(theta_c=2.0, r_c=1.0, center=(0.0, 0.0),
                      semi_axes=(1.0, 1.0))
    r = 0.37
    got = bubble_theta(np.array([[r, 0.0]]), spec)[0]
    assert abs(got - 2.0 * np.cos(np.pi * r / 2.0) ** 2) < 1e-14


def test_bubble_3d_symmetry():
    spec = BubbleSpec(center=(0.0, 0.0, 0.0), semi_axes=(3.0, 2.0, 1.0))
    plus = bubble_theta(np.array([[1.0, 0.7, 0.2]]), spec)
    minus = bubble_theta(np.array([[1.0, -0.7, 0.2]]), spec)
    assert plus[0] == minus[0]
    assert plus[0] > 0.0


def test_bubble_spec_validation():
    with pytest.raises(ConfigurationError):
        BubbleSpec(center=(0.0, 0.0), semi_axes=(1.0, 1.0, 1.0))
    with pytest.raises(ConfigurationError):
        BubbleSpec(center=(0.0, 0.0), semi_axes=(1.0, -1.0))


def test_perturbation_rng_keying():
    a = perturbation_rng(42, 0).random(5)
    b = perturbation_rng(42, 0).random(5)
    c = perturbation_rng(42, 1).random(5)
    d = perturbation_rng(43, 0).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_perturbation_envelope():
    spec = PerturbationSpec(amplitude=0.3, seed=1, theta_scale=3.0)
    theta0 = np.array([0.0, 1.5, 3.0, 6.0, -4.5])
    noise = random_theta_perturbation(spec, theta0, instance=2)
    assert noise[0] == 0.0                       # no anomaly, no noise
    assert np.all(np.abs(noise) <= 0.3 + 1e-15)
    # envelope saturates at |theta0| >= theta_scale; same draw scale
    rng = perturbation_rng(1, 2)
    u = rng.uniform(-1.0, 1.0, size=5)
    expect = 0.3 * np.clip(theta0 / 3.0, -1.0, 1.0) * u
    assert np.allclose(noise, expect, atol=1e-15)


def test_perturbation_uniform_envelope_when_scale_disabled():
    spec = PerturbationSpec(amplitude=0.1, seed=5, theta_scale=0.0)
    theta0 = np.zeros(8)
    noise = random_theta_perturbation(spec, theta0, instance=0)
    assert np.any(noise != 0.0)
    assert np.all(np.abs(noise) <= 0.1)


def test_analytic_sounding_shape():
    snd = analytic_sounding()
    assert snd.z[0] == 0.0 and snd.z[-1] >= 24e3
    assert abs(snd.theta[0] - 300.0) < 1e-12
    assert np.all(np.diff(snd.theta) > 0.0)      # stable stratification
    assert np.all(snd.qv >= 0.0) and snd.qv.max() <= 0.025
    assert np.all(snd.u == 0.0) and np.all(snd.v == 0.0)
    assert snd.p_surf == 1.0e5


def test_analytic_sounding_moist_boundary_layer():
    snd = analytic_sounding()
    # vapor is largest near the surface and decays aloft
    assert snd.qv[0] == snd.qv.max()
    assert snd.qv[0] > 0.015
    high = snd.z > 10e3
    assert snd.qv[high].max() < snd.qv[0] / 10.0


def test_analytic_sounding_brunt_vaisala():
    snd = analytic_sounding(brunt_vaisala_sq=1e-4)
    # d(ln theta)/dz = N^2/g
    slope = np.diff(np.log(snd.theta)) / np.diff(snd.z)
    assert np.allclose(slope, 1e-4 / 9.81, rtol=1e-6)


def test_case_tables_desk_squall():
    coarse = build_case("squall", tier="coarse", preset="desk")
    assert coarse.simulator.mesh.extents == (50e3, 24e3)
    assert coarse.simulator.mesh.elem_counts == (3, 15)
    assert coarse.simulator.mesh.orders == (4, 4)
    assert coarse.dt == 2.0 and coarse.duration == 1200.0
    assert not coarse.is_mmf
    assert coarse.instances is None
    assert coarse.simulator.kessler is not None
    assert coarse.simulator.filter_strength == 0.01
    assert coarse.simulator.reference.constants.nu == 200.0


def test_case_tables_full_squall_fine():
    fine = build_case("squall", tier="fine")
    assert fine.simulator.mesh.elem_counts == (188, 30)
    assert fine.dt == 0.2
    assert fine.duration == 8 * 3600.0
    # ~200 m nodal spacing
    dx = 150e3 / (188 * 4)
    assert abs(dx - 199.5) < 0.5


def test_case_desk_squall_mmf():
    case = build_case("squall", tier="mmf", preset="desk")
    assert case.is_mmf
    assert case.substeps == 10
    assert len(case.instances) == 3              # one per coarse x element
    assert case.simulator.kessler is None        # moist physics lives on the SSPs
    for inst in case.instances:
        assert inst.sim.kessler is not None
        assert inst.sim.mesh.elem_counts == (10, 30)
        assert inst.sim.filter_strength == 0.0   # fine grids run unfiltered
    assert case.mmf_config.substeps == 10


def test_case_desk_supercell_is_3d():
    case = build_case("supercell", tier="coarse", preset="desk")
    assert case.simulator.mesh.dim == 3
    assert case.simulator.mesh.extents == (30e3, 20e3, 24e3)
    assert case.simulator.state.u.shape[0] == 3
    # warm bubble present somewhere in the interior
    assert case.simulator.state.theta_vp.max() > 1.0


def test_case_bubble_seeds_initial_state():
    case = build_case("squall", tier="coarse", preset="desk")
    th = case.simulator.state.theta_vp
    assert abs(th.max() - 3.0) < 0.5             # bubble peak near theta_c
    assert th.min() >= 0.0
    assert np.all(case.simulator.state.q_c == 0.0)


def test_case_sponge_and_seed_plumbing():
    case = build_case("squall", tier="mmf", preset="desk", seed=11)
    cfg = case.simulator.reference.sponge
    assert cfg is not None
    assert cfg.z_t == 24e3 and cfg.z_b == 18e3 and cfg.R_max == 0.25
    # the seed reaches the embedded grids' spawn noise, in every instance
    same = build_case("squall", tier="mmf", preset="desk", seed=11)
    other = build_case("squall", tier="mmf", preset="desk", seed=12)
    for inst, twin, diff in zip(case.instances, same.instances, other.instances):
        assert np.array_equal(inst.sim.state.theta_vp, twin.sim.state.theta_vp)
        assert not np.array_equal(inst.sim.state.theta_vp, diff.sim.state.theta_vp)


def test_reference_holds_sponge_row_and_constants():
    """build_reference forms the sponge row as the profile broadcast to
    every node; every embedded grid's reference takes the coarse grid's
    sponge and its constants object."""
    case = build_case("squall", tier="mmf", preset="desk")
    lsp = case.simulator
    cfg = lsp.reference.sponge
    assert cfg == SpongeConfig(18e3, 24e3, 0.25)
    for sim in (lsp, case.instances[0].sim):
        mesh = sim.mesh
        want = mesh.field_from_profile(sponge_profile(mesh.coords_1d[-1], cfg))
        assert sim.reference.sponge_rw.tobytes() == want.tobytes()
        assert build_reference(sim.sounding, mesh).sponge_rw is None
    for inst in case.instances:
        assert inst.sim.reference.sponge == cfg
        assert inst.sim.reference.constants is lsp.reference.constants


def test_case_overrides():
    case = build_case("squall", tier="coarse", preset="desk",
                      overrides={"duration": 60.0, "dt": 1.0,
                                 "microphysics": False})
    assert case.duration == 60.0 and case.dt == 1.0
    assert case.simulator.kessler is None
    with pytest.raises(ConfigurationError):
        build_case("squall", overrides={"does_not_exist": 1})
    with pytest.raises(ConfigurationError):  # the grid comes from the case table
        build_case("squall", preset="desk", overrides={"elems": (3, 15)})


@pytest.mark.parametrize("tier", ["fine", "coarse"])
@pytest.mark.parametrize("key, value", [("substeps", 7), ("ssp_elems_x", 4), ("ssp_elems_z", 12),
                                        ("ssp_length", 8e3), ("amplitude", 0.1)])
def test_embedded_grid_overrides_need_the_mmf_tier(tier, key, value):
    """A tier without embedded grids refuses their overrides, naming the
    override, rather than dropping them."""
    with pytest.raises(ConfigurationError, match=key):
        build_case("squall", tier=tier, preset="desk", overrides={key: value})


def test_case_id_validation():
    assert set(CASE_IDS) == {"squall", "supercell"}
    assert set(TIERS) == {"fine", "coarse", "mmf"}
    with pytest.raises(ConfigurationError):
        build_case("tornado")
    with pytest.raises(ConfigurationError):
        build_case("squall", tier="medium")
    with pytest.raises(ConfigurationError):
        build_case("squall", preset="laptop")


def test_case_missing_sounding_file():
    with pytest.raises(ConfigurationError):
        build_case("squall", preset="desk", sounding="/nonexistent/snd.txt")


def test_build_case_keeps_nothing_across_calls():
    """Each `build_case` makes its own meshes, LGL rules, 1D operator
    arrays and vertical projection, so a second build repeats the whole
    set-up that perfbench's `setup_s` times, and no build can see what
    another one left."""
    def parts(case):
        sims = [case.simulator] + [inst.sim for inst in case.instances]
        meshes = list({id(sim.mesh): sim.mesh for sim in sims}.values())
        rules = [rule for mesh in meshes for rule in mesh.rules]
        arrays = [A for sim in sims for A in (sim.mesh.weak_derivative_1d
                                              + sim.mesh.weak_laplacian_1d
                                              + sim.mesh.modal_filter_1d(0.1))]
        projections = [inst.projection for inst in case.instances]
        return meshes, rules, arrays, projections

    first, second = (parts(build_case("supercell", tier="mmf", preset="desk")) for _ in range(2))
    for a, b in zip(first, second):
        assert a and b
        assert not {id(x) for x in a} & {id(x) for x in b}
    assert not any(np.shares_memory(A, B) for A in first[2] for B in second[2])
    # within one build, the directions of one order share their mesh's rule
    for mesh in first[0]:
        assert len({id(rule) for rule in mesh.rules}) == 1


def test_analytic_sounding_checks_its_spacing():
    with pytest.raises(ConfigurationError, match=r"^dz = 0.0: expected a number in \(0, inf\)"):
        analytic_sounding(dz=0.0)
    with pytest.raises(ConfigurationError, match="^z_top = 50.0: expected above dz = 100.0"):
        analytic_sounding(z_top=50.0, dz=100.0)
