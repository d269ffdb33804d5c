import hashlib
import os

import numpy as np
import pytest

from mmfsim import coupling, driver
from mmfsim.driver import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                           OUTPUT_DIR_ENV, RunConfig, compute_kinetic_energy,
                           diff_snapshots, format_config, parse_config,
                           read_config, read_snapshot, run, write_snapshot)
from mmfsim.cases import build_case
from mmfsim.dynamics import build_reference
from mmfsim.errors import ConfigurationError
from mmfsim.grid import build_box_mesh
from mmfsim.operators import PrognosticState

from conftest import isothermal_sounding

SAMPLE = """\
# comment lines and blanks are ignored

run.mode = standard
run.case = squall
run.preset = desk
run.tier = coarse
run.seed = 3
run.duration = 60
time.dt = 2.0
micro.enabled = false
"""


def test_parse_config_basics():
    cfg = parse_config(SAMPLE)
    assert cfg.mode == "standard"
    assert cfg.seed == 3
    assert cfg.duration == 60.0
    assert cfg.dt == 2.0
    assert cfg.microphysics is False
    assert cfg.nu is None                 # untouched keys stay None


def test_parse_config_unknown_key_names_the_line():
    with pytest.raises(ConfigurationError) as exc:
        parse_config("run.mode = standard\nrun.bogus = 1\n")
    assert "line 2" in str(exc.value)
    assert "run.bogus" in str(exc.value)


def test_parse_config_bad_value():
    with pytest.raises(ConfigurationError):
        parse_config("run.seed = three\n")
    with pytest.raises(ConfigurationError):
        parse_config("micro.enabled = maybe\n")


def test_parse_config_validates_choices():
    with pytest.raises(ConfigurationError):
        parse_config("run.mode = turbo\n")


def test_config_round_trip(tmp_path):
    cfg = parse_config(SAMPLE)
    text = format_config(cfg)
    again = parse_config(text)
    assert again == cfg
    p = tmp_path / "run.cfg"
    p.write_text(text)
    assert read_config(p) == cfg


def test_config_round_trip_with_cost_block():
    text = ("run.mode = analyze\n"
            "cost.n_p = 5\ncost.l_x = 150e3\ncost.l_y = 150e3\ncost.l_z = 24e3\n"
            "cost.dx = 200\ncost.dy = 200\ncost.dz = 200\n"
            "cost.duration = 3600\ncost.dt = 0.5\n"
            "cost.r_t = 10\ncost.r_x = 10\ncost.r_z = 1\n"
            "cost.n_rx = 3\ncost.n_ry = 3\n")
    cfg = parse_config(text)
    assert cfg.cost is not None and cfg.cost.n_p == 5
    assert parse_config(format_config(cfg)) == cfg


def unit_box():
    return build_box_mesh((1.0, 1.0), (2, 2), (3, 3))


def unit_density_reference(mesh):
    ref = build_reference(isothermal_sounding(z_top=2.0, n=50), mesh)
    return ref


def test_kinetic_energy_oracles():
    mesh = unit_box()
    ref = unit_density_reference(mesh)
    st = PrognosticState.zeros(mesh)
    assert compute_kinetic_energy(st, ref, mesh) == 0.0
    # force total density to exactly 1 so the enclosed mass drops out
    st.rho_p = 1.0 - ref.rho0
    st.u[0][:] = 2.0
    assert abs(compute_kinetic_energy(st, ref, mesh) - 2.0) < 1e-12
    st.u[0] = mesh.coords[:, 0]
    st.u[1][:] = 0.0
    assert abs(compute_kinetic_energy(st, ref, mesh) - 1.0 / 6.0) < 1e-12


def random_state(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return PrognosticState(rng.standard_normal(mesh.npts),
                           rng.standard_normal((mesh.dim, mesh.npts)),
                           rng.standard_normal(mesh.npts),
                           rng.standard_normal(mesh.npts),
                           rng.standard_normal(mesh.npts),
                           rng.standard_normal(mesh.npts))


def test_snapshot_round_trip(tmp_path):
    mesh = unit_box()
    st = random_state(mesh, 1)
    path = tmp_path / "snap.dat"
    write_snapshot(st, mesh, 12.5, path)
    back = read_snapshot(path)
    assert back["time"] == 12.5
    assert back["dim"] == 2
    assert back["elems"] == (2, 2) and back["orders"] == (3, 3)
    assert list(back["fields"]) == ["rho_p", "u", "w", "theta_vp",
                                    "q_vp", "q_c", "q_r"]
    assert np.array_equal(back["fields"]["rho_p"], st.rho_p)
    assert np.array_equal(back["fields"]["w"], st.u[1])
    assert np.array_equal(back["fields"]["q_r"], st.q_r)


def test_snapshot_meta_checksum(tmp_path):
    mesh = unit_box()
    path = tmp_path / "snap.dat"
    write_snapshot(random_state(mesh, 2), mesh, 0.0, path)
    meta = (tmp_path / "snap.dat.meta").read_text().splitlines()
    assert meta[0] == "file snap.dat"
    tag, digest = meta[1].split()
    assert tag == "sha256"
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert sum(1 for line in meta if line.startswith("field ")) == 7


def test_snapshot_checksum_is_verified(tmp_path):
    mesh = unit_box()
    path = tmp_path / "snap.dat"
    write_snapshot(random_state(mesh, 4), mesh, 0.0, path)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x01                      # one payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigurationError, match="checksum mismatch"):
        read_snapshot(path)
    # without its sidecar the same file reads, flipped byte and all
    os.remove(str(path) + ".meta")
    back = read_snapshot(path)
    assert back["fields"]["q_r"][-1] != random_state(mesh, 4).q_r[-1]


@pytest.mark.parametrize("failing_open", [1, 2])
def test_failed_snapshot_write_leaves_no_file(tmp_path, monkeypatch, failing_open):
    """A write that fails partway, in the snapshot (1st open) or in its
    .meta (2nd open), leaves neither the targets nor a temp file."""
    opened = []

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("disk full")

    def fake_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(args[0])
        return HalfWriter(fh) if len(opened) == failing_open else fh

    monkeypatch.setattr(driver, "open", fake_open, raising=False)
    mesh = unit_box()
    with pytest.raises(OSError, match="disk full"):
        write_snapshot(random_state(mesh, 5), mesh, 0.0, tmp_path / "snap.dat")
    assert len(opened) == failing_open
    assert list(tmp_path.iterdir()) == []


def test_snapshot_rejects_garbage(tmp_path):
    bad = tmp_path / "nope.dat"
    bad.write_bytes(b"this is not a snapshot")
    with pytest.raises(ConfigurationError):
        read_snapshot(bad)


def test_diff_snapshots(tmp_path):
    mesh = unit_box()
    st = random_state(mesh, 3)
    a, b = tmp_path / "a.dat", tmp_path / "b.dat"
    write_snapshot(st, mesh, 0.0, a)
    st2 = st.copy()
    st2.theta_vp[4] += 1e-3
    write_snapshot(st2, mesh, 0.0, b)
    diffs = dict(diff_snapshots(a, b))
    assert diffs["rho_p"] == 0.0
    assert abs(diffs["theta_vp"] - 1e-3) < 1e-15


def test_diff_snapshots_rejects_mismatched_grids(tmp_path):
    m1, m2 = unit_box(), build_box_mesh((1.0, 1.0), (2, 3), (3, 3))
    a, b = tmp_path / "a.dat", tmp_path / "b.dat"
    write_snapshot(PrognosticState.zeros(m1), m1, 0.0, a)
    write_snapshot(PrognosticState.zeros(m2), m2, 0.0, b)
    with pytest.raises(ConfigurationError):
        diff_snapshots(a, b)


def run_cfg(tmp_path, **kw):
    args = dict(mode="standard", case="squall", preset="desk", tier="coarse",
                duration=8.0, dt=2.0, output_dir=str(tmp_path / "out"))
    args.update(kw)
    return RunConfig(**args)


def test_standard_run_end_to_end(tmp_path):
    cfg = run_cfg(tmp_path)
    assert run(cfg) == EXIT_OK
    out = tmp_path / "out"
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0].startswith("time,kinetic_energy,total_mass,total_water,")
    assert len(diag) == 1 + 1 + 4            # header, t=0, four steps
    assert (out / "precip.csv").exists()
    snap = read_snapshot(out / "snapshot_final.dat")
    assert snap["time"] == 8.0
    assert np.all(np.isfinite(snap["fields"]["theta_vp"]))
    # initial snapshot is always written
    assert (out / "snapshot_000000.dat").exists()


def test_snapshot_cadence(tmp_path):
    cfg = run_cfg(tmp_path, duration=12.0, snapshot_interval=4.0)
    assert run(cfg) == EXIT_OK
    out = tmp_path / "out"
    names = sorted(p.name for p in out.glob("snapshot_*.dat"))
    # t = 0, 4, 8, 12 -> steps 0, 2, 4, 6, plus the final alias
    assert names == ["snapshot_000000.dat", "snapshot_000002.dat",
                     "snapshot_000004.dat", "snapshot_000006.dat",
                     "snapshot_final.dat"]


def test_mmf_run_writes_residuals(tmp_path):
    cfg = run_cfg(tmp_path, mode="mmf", duration=4.0, workers=2)
    assert run(cfg) == EXIT_OK
    out = tmp_path / "out"
    resid = (out / "coupling_residuals.csv").read_text().splitlines()
    assert resid[0] == "time,instance,variable,level,abs_residual,abs_q"
    assert len(resid) > 10
    body = [ln.split(",") for ln in resid[1:]]
    assert {r[2] for r in body} == {"u", "theta_vp", "q_vp", "q_c", "q_r"}


def test_precip_rows_only_for_grids_that_can_rain(tmp_path):
    """The dry coarse grid of an mmf run writes no precipitation rows;
    the outer grid of a standard run writes its rows under key -1."""
    keys = {}
    for mode in ("mmf", "standard"):
        cfg = run_cfg(tmp_path / mode, mode=mode, duration=4.0)
        assert run(cfg) == EXIT_OK
        rows = (tmp_path / mode / "out" / "precip.csv").read_text().splitlines()[1:]
        keys[mode] = {int(r.split(",")[1]) for r in rows}
    assert keys["mmf"] == {0, 1, 2}
    assert keys["standard"] == {-1}


def test_precip_mean_weights_columns_by_quadrature():
    """Rain on the element-edge columns only: their order-4 end weights
    (0.1 of h/2 from each side) make them a tenth of the area, not the
    quarter of the columns they are."""
    coarse = build_case("squall", "coarse", preset="desk")
    edges = np.zeros(coarse.simulator.mesh.ncols)
    edges[::coarse.simulator.mesh.orders[0]] = 1.0
    assert np.mean(edges) == 0.25
    assert abs(driver._precip_mean({-1: edges}, coarse) - 0.1) < 1e-14
    mmf = build_case("squall", "mmf", preset="desk")
    fine = mmf.instances[0].sim.mesh
    rain = np.zeros(fine.ncols)
    rain[::fine.orders[0]] = 1.0
    accum = {-1: np.ones(coarse.simulator.mesh.ncols), 0: rain, 1: 2.0 * rain,
             2: np.zeros(fine.ncols)}
    assert abs(driver._precip_mean(accum, mmf) - 0.1) < 1e-14


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "elsewhere"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    cfg = run_cfg(tmp_path, duration=2.0)
    assert run(cfg) == EXIT_OK
    assert (target / "diagnostics.csv").exists()
    assert not (tmp_path / "out").exists()


def test_analyze_mode(tmp_path, capsys):
    cost_text = ("run.mode = analyze\n"
                 "cost.n_p = 5\ncost.l_x = 100e3\ncost.l_y = 100e3\n"
                 "cost.l_z = 20e3\ncost.dx = 250\ncost.dy = 250\ncost.dz = 250\n"
                 "cost.duration = 600\ncost.dt = 1\ncost.r_t = 4\ncost.r_x = 4\n")
    cfg = parse_config(cost_text)
    cfg.output_dir = str(tmp_path)
    assert run(cfg) == EXIT_OK
    lines = (tmp_path / "cost_report.csv").read_text().splitlines()
    assert lines[0] == "quantity,standard,mmf,ratio_mmf_over_standard"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["flops", "bytes", "intensity"]
    flop_ratio = float(lines[1].split(",")[3])
    assert abs(flop_ratio - 81.0 / 16.0) < 1e-12   # (1 + 16*5)/16
    assert "mmf/std" in capsys.readouterr().out


def test_analyze_without_cost_keys_is_config_error(tmp_path, capsys):
    cfg = run_cfg(tmp_path, mode="analyze")
    assert run(cfg) == EXIT_CONFIG
    assert "error[config]" in capsys.readouterr().err


def test_partial_sponge_keys_rejected(tmp_path, capsys):
    cfg = run_cfg(tmp_path, sponge_z_bottom=18e3)
    assert run(cfg) == EXIT_CONFIG
    assert "sponge" in capsys.readouterr().err


def test_numerical_failure_truncates_outputs(tmp_path, capsys):
    # a 1000 s step is far outside the solver's reach; the run must fail
    # with the numerical exit code and mark every open CSV
    cfg = run_cfg(tmp_path, duration=2000.0, dt=1000.0)
    assert run(cfg) == EXIT_NUMERICAL
    assert "error[numerical]" in capsys.readouterr().err
    diag = (tmp_path / "out" / "diagnostics.csv").read_text()
    assert "# truncated:" in diag.splitlines()[-1]


@pytest.mark.parametrize("mode, owner, name", [("mmf", driver, "mmf_step"),
                                               ("standard", coupling.Simulator, "step")],
                         ids=["mmf", "standard"])
def test_run_makes_one_step_call_per_coarse_step(tmp_path, monkeypatch, mode, owner, name):
    # perfbench times each coarse step as one call: driver.mmf_step in
    # mmf runs, Simulator.step in standard runs
    real = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    assert run(run_cfg(tmp_path, mode=mode, duration=6.0)) == EXIT_OK
    assert len(calls) == 3


def test_nonfinite_embedded_grid_is_named(tmp_path, monkeypatch, capsys):
    # a NaN in one embedded grid fails the step that made it, naming the
    # instance, before the coarse model can take it in
    real_step = driver.mmf_step

    def poisoned(lsp, instances, *args, **kwargs):
        out = real_step(lsp, instances, *args, **kwargs)
        instances[1].sim.state.theta_vp[0] = np.nan
        return out

    monkeypatch.setattr(driver, "mmf_step", poisoned)
    cfg = run_cfg(tmp_path, mode="mmf", duration=4.0)
    assert run(cfg) == EXIT_NUMERICAL
    assert "non-finite state in embedded grid 1 after step 1" in capsys.readouterr().err


def test_embedded_solve_failure_names_grid_and_step(tmp_path, monkeypatch, capsys):
    # embedded grid 1 gets a linear operator that returns NaN, so its
    # first implicit solve cannot converge; the failure must name the
    # step, the grid and the substep, and every CSV must be marked
    # all embedded grids share one mesh and reference, so the grid is
    # marked by its Simulator, known to L while that simulator steps
    real_build, real_lin = driver.build_case, coupling.linear_operator
    real_step = coupling.Simulator.step
    marked, stepping = [], []

    def build(*args, **kwargs):
        setup = real_build(*args, **kwargs)
        marked.append(setup.instances[1].sim)
        return setup

    def step(self, *args, **kwargs):
        stepping.append(self)
        try:
            return real_step(self, *args, **kwargs)
        finally:
            stepping.pop()

    def lin(*args, **kwargs):
        out = real_lin(*args, **kwargs)
        if any(stepping[-1] is sim for sim in marked):
            # a state, or the array of the rows GMRES iterates on
            (out.data if isinstance(out, PrognosticState) else out)[:] = np.nan
        return out

    monkeypatch.setattr(driver, "build_case", build)
    monkeypatch.setattr(coupling.Simulator, "step", step)
    monkeypatch.setattr(coupling, "linear_operator", lin)
    cfg = run_cfg(tmp_path, mode="mmf", duration=4.0)
    assert run(cfg) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "step 1: embedded grid 1, substep 1: dynamics: GMRES did not reach" in err
    out = tmp_path / "out"
    for name in ("diagnostics.csv", "precip.csv", "coupling_residuals.csv"):
        last = (out / name).read_text().splitlines()[-1]
        assert last.startswith(
            "# truncated: step 1: embedded grid 1, substep 1: dynamics: GMRES")
