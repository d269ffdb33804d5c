import dataclasses
import math
import os

import numpy as np
import pytest

from mmfsim import cases, complexity, coupling, driver, dynamics, microphysics, timeint
from mmfsim.cases import BubbleSpec, PerturbationSpec
from mmfsim.cli import main
from mmfsim.complexity import CostModelInput
from mmfsim.coupling import MmfConfig
from mmfsim.driver import KEYS, RunConfig, read_snapshot, write_snapshot
from mmfsim.dynamics import PhysConstants, SpongeConfig
from mmfsim.errors import ConfigurationError, Interval, format_value
from mmfsim.microphysics import KesslerParams
from mmfsim.timeint import GmresConfig, ImexOperatorSplit
from mmfsim.grid import build_box_mesh
from mmfsim.operators import PrognosticState


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_run_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, "run.mode = standard\nrun.case = squall\n"
                              "run.preset = desk\nrun.duration = 4\n")
    out = tmp_path / "results"
    rc = main(["run", "--config", cfg, "--output-dir", str(out)])
    assert rc == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "snapshot_final.dat").exists()


def test_run_flag_overrides_beat_the_file(tmp_path):
    cfg = write_cfg(tmp_path, "run.mode = standard\nrun.preset = full\n"
                              "run.duration = 4\nrun.seed = 1\n")
    out = tmp_path / "o"
    # --preset desk rescues an otherwise huge run; --seed overrides too
    rc = main(["run", "--config", cfg, "--preset", "desk",
               "--seed", "9", "--output-dir", str(out)])
    assert rc == 0


def test_run_missing_config_file(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 4
    assert "error[io]" in capsys.readouterr().err


def test_run_bad_config_contents(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "run.mode = nonsense\n")
    rc = main(["run", "--config", cfg])
    assert rc == 2
    assert "error[config]" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["time.dt = 0", "run.duration = -4"])
def test_run_rejects_nonpositive_time(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, "run.mode = standard\nrun.preset = desk\n"
                              "run.duration = 4\n" + line + "\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    key = line.partition(" =")[0]
    assert f"error[config]: {key} = " in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_run_rejects_a_step_count_that_overflows(tmp_path, capsys):
    # 4 s / 1e-320 s is not a finite step count; it used to escape as an
    # OverflowError traceback
    cfg = write_cfg(tmp_path, "run.mode = standard\nrun.preset = desk\n"
                              "run.duration = 4\ntime.dt = 1e-320\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[config]: time.dt = 1e-320" in err and "run.duration = 4.0" in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("dt, steps", [("1e-300", "4e+300"), ("3.9e-06", "1.02564e+06")])
def test_run_rejects_more_steps_than_a_run_may_take(tmp_path, capsys, dt, steps):
    # a finite but huge step count used to start a run that appends a
    # diagnostics row per step until the disk fills
    cfg = write_cfg(tmp_path, "run.mode = standard\nrun.preset = desk\n"
                              f"run.duration = 4\ntime.dt = {dt}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error[config]: time.dt = {dt} and run.duration = 4.0 give {steps} steps" in err
    assert str(driver.MAX_STEPS) in err
    assert not out.exists() or list(out.iterdir()) == []


def test_step_bound_counts_rounded_steps(tmp_path, capsys, monkeypatch):
    """A run may take MAX_STEPS steps, counted as the driver rounds them."""
    monkeypatch.setattr(driver, "MAX_STEPS", 4)
    for dt, rc in (("0.9", 0), ("0.8", 2)):   # 4.4 steps run as 4; 5 steps
        cfg = write_cfg(tmp_path, "run.mode = standard\nrun.preset = desk\n"
                                  f"run.duration = 4\ntime.dt = {dt}\n")
        out = tmp_path / f"o{dt}"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == rc
    assert "give 5 steps, more than the 4 a run may take" in capsys.readouterr().err


def test_standard_run_rejects_mmf_keys(tmp_path, capsys):
    """A standard run has no embedded grids: an mmf.* key in it exits 2,
    naming the key, before any output, and the shipped desk squall coarse
    config, which sets none, still runs."""
    cfg = write_cfg(tmp_path, "run.mode = standard\nrun.preset = desk\n"
                              "run.duration = 4\nmmf.substeps = 7\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "mmf.substeps = 7" in err
    assert not out.exists() or list(out.iterdir()) == []
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "desk_squall_coarse.cfg"), encoding="utf-8") as fh:
        shipped = fh.read()
    cfg = write_cfg(tmp_path, shipped + "run.duration = 4\n")
    out = tmp_path / "shipped"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
    assert (out / "snapshot_final.dat").exists()


@pytest.mark.parametrize("line", [
    "filter.strength = nan", "filter.strength = 2", "viscosity.nu = -200",
    "viscosity.nu = nan", "mmf.ssp_length = nan", "mmf.amplitude = inf",
    "mmf.amplitude = nan", "run.duration = inf", "run.snapshot_interval = nan",
    "run.snapshot_interval = inf", "run.seed = -1", "run.seed = 18446744073709551616",
    "run.mode = standard\nrun.seed = -1",
    "run.mode = standard\nrun.seed = 18446744073709551616",
    "sponge.z_bottom = 8000\nsponge.z_top = 10000\nsponge.r_max = nan",
    "sponge.z_bottom = 8000\nsponge.z_top = 10000\nsponge.r_max = inf"])
def test_run_rejects_out_of_range_settings(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, "run.mode = mmf\nrun.preset = desk\n"
                              "run.duration = 4\n" + line + "\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    assert "error[config]" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


# a whole sponge triple, so that one bad sponge value is the only fault
RUN_BASE = ("run.mode = mmf\nrun.preset = desk\nrun.duration = 4\n"
            "sponge.z_bottom = 18000\nsponge.z_top = 24000\nsponge.r_max = 0.25\n")
COST_BASE = ("cost.n_p = 5\ncost.l_x = 100e3\ncost.l_y = 100e3\n"
             "cost.l_z = 20e3\ncost.dx = 250\ncost.dy = 250\n"
             "cost.dz = 250\ncost.duration = 600\ncost.dt = 1\n")


def outside(typ, domain):
    """Config texts of values outside a setting's domain. For a number:
    NaN and both infinities, each open finite edge of its domain, the
    nearest value outside each closed edge, and true; for choices, one
    that is not among them; for a path, a number."""
    if domain is None:
        return ["5", "true"]
    if isinstance(domain, tuple):
        if typ is int:
            return [str(max(domain) + 1), "true"]
        return ["bogus", "5"] if typ is str else ["1", "yes"]
    lo, hi = domain[1:-1].split(", ")
    values = ["nan", "inf", "-inf"]
    for edge, closed, outward in ((lo, domain[0] == "[", -math.inf),
                                  (hi, domain[-1] == "]", math.inf)):
        if closed:
            values.append(str(int(edge) + (1 if outward > 0 else -1)) if typ is int
                          else repr(float(np.nextafter(float(edge), outward))))
        elif edge not in ("inf", "-inf"):
            values.append(edge if typ is int else repr(float(edge)))
    return values + ["true"]


def inside(typ, domain):
    """Config texts of values in a setting's domain: every choice, or the
    nearest value inside each finite edge, or a path."""
    if domain is None:
        return ["some/dir"]
    if isinstance(domain, tuple):
        return [format_value(v) for v in domain]
    lo, hi = domain[1:-1].split(", ")
    values = []
    for edge, closed, inward in ((lo, domain[0] == "[", math.inf),
                                 (hi, domain[-1] == "]", -math.inf)):
        if edge in ("inf", "-inf"):
            continue
        if closed:
            values.append(edge if typ is int else repr(float(edge)))
        else:
            values.append(str(int(edge) + (1 if inward > 0 else -1)) if typ is int
                          else repr(float(np.nextafter(float(edge), inward))))
    return values


def out_of_domain_lines():
    """For every numeric key, each value of `outside`."""
    for key in KEYS:
        if isinstance(key.domain, Interval):
            for v in outside(key.type, key.domain):
                yield pytest.param(key.name, v, id=f"{key.name} = {v}")


@pytest.mark.parametrize("name, value", out_of_domain_lines())
def test_run_rejects_every_value_outside_a_key_domain(tmp_path, capsys, name, value):
    out = tmp_path / "o"
    command = "analyze" if name.startswith("cost.") else "run"
    base = f"run.output_dir = {out}\n" + (COST_BASE if command == "analyze" else RUN_BASE)
    cfg = write_cfg(tmp_path, base + f"{name} = {value}\n")
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and f"{name} = {value}" in err
    assert not out.exists() or list(out.iterdir()) == []


# every record whose fields are declared settings, with the arguments it
# needs besides its defaults
RECORDS = {
    RunConfig: {},
    CostModelInput: dict(n_p=5, l_x=100e3, l_y=100e3, l_z=20e3, dx=250.0, dy=250.0,
                         dz=250.0, duration=600.0, dt=1.0),
    GmresConfig: {},
    ImexOperatorSplit: dict(s=abs, lin=abs),
    KesslerParams: {},
    MmfConfig: {},
    PerturbationSpec: {},
    PhysConstants: {},
    SpongeConfig: dict(z_b=18e3, z_t=24e3, R_max=0.25),
    BubbleSpec: {},
}


def _library_value(text):
    """A config text of `outside` as a library caller would pass it."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return True if text == "true" else text


def record_settings():
    """Every declared setting of every record, with each value of
    `outside`, and the name its message must give."""
    for record in RECORDS:
        for f in dataclasses.fields(record):
            if "setting" in f.metadata:
                typ, domain, key = f.metadata["setting"]
                name = key or f"{record.__name__}.{f.name}"
                for text in outside(typ, domain):
                    value = _library_value(text)
                    yield pytest.param(record, f.name, value, name,
                                       id=f"{name} = {format_value(value)}")


@pytest.mark.parametrize("record, field, value, name", record_settings())
def test_every_record_setting_rejects_values_outside_its_domain(record, field, value, name):
    with pytest.raises(ConfigurationError) as exc:
        record(**dict(RECORDS[record], **{field: value}))
    assert str(exc.value).startswith(f"{name} = {format_value(value)}: expected ")


def test_every_record_with_declared_settings_is_listed():
    modules = (cases, complexity, coupling, driver, dynamics, microphysics, timeint)
    found = {obj for module in modules for obj in vars(module).values()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)
             and any("setting" in f.metadata for f in dataclasses.fields(obj))}
    assert found == set(RECORDS)


@pytest.mark.parametrize("name, value", [
    pytest.param(key.name, v, id=f"{key.name} = {v}")
    for key in KEYS for v in inside(key.type, key.domain)])
def test_config_round_trips_every_value_next_to_a_key_edge(name, value):
    cfg = driver.parse_config((COST_BASE if name.startswith("cost.") else "")
                              + f"{name} = {value}\n")
    assert driver.parse_config(driver.format_config(cfg)) == cfg


SOUNDING = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "sounding_idealized.txt")


@pytest.mark.parametrize("row, column, value", [
    (0, 5, "nan"),      # surface pressure
    (30, 1, "nan"),     # theta at 3000 m
    (4, 1, "-5"),       # theta at 400 m
    (4, 2, "-0.5"),     # qv at 400 m
    (4, 1, "3O1.2"),    # theta at 400 m, not a number
], ids=["nan_p_surf", "nan_theta", "negative_theta", "negative_qv", "non_numeric_theta"])
def test_run_rejects_bad_sounding_values(tmp_path, capsys, row, column, value):
    with open(SOUNDING) as fh:
        header, *rows = fh.read().splitlines()
    parts = rows[row].split()
    parts[column] = value
    rows[row] = " ".join(parts)
    snd = tmp_path / "sounding.txt"
    snd.write_text("\n".join([header] + rows) + "\n")
    cfg = write_cfg(tmp_path, "run.mode = standard\nrun.case = squall\nrun.preset = desk\n"
                              f"run.duration = 4\nrun.sounding = {snd}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "sounding" in err
    assert not out.exists() or list(out.iterdir()) == []


def test_analyze_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    "run.output_dir = " + str(tmp_path / "a") + "\n"
                    "cost.n_p = 5\ncost.l_x = 100e3\ncost.l_y = 100e3\n"
                    "cost.l_z = 20e3\ncost.dx = 250\ncost.dy = 250\n"
                    "cost.dz = 250\ncost.duration = 600\ncost.dt = 1\n")
    rc = main(["analyze", "--config", cfg])
    assert rc == 0
    assert (tmp_path / "a" / "cost_report.csv").exists()
    assert "intensity" in capsys.readouterr().out


def test_run_flag_overrides_are_validated(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "run.mode = standard\nrun.duration = 4\n")
    rc = main(["run", "--config", cfg, "--workers", "0",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "workers" in capsys.readouterr().err


def test_analyze_bad_cost_value(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "run.output_dir = " + str(tmp_path / "a") + "\n"
                              "cost.n_p = five\n")
    assert main(["analyze", "--config", cfg]) == 2
    assert "error[config]: line 2" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["cost.l_x = inf", "cost.dz = inf", "cost.duration = inf",
                                  "cost.dt = nan", "cost.r_t = inf", "cost.r_x = nan"])
def test_analyze_rejects_non_finite_cost_values(tmp_path, capsys, line):
    out = tmp_path / "a"
    cfg = write_cfg(tmp_path,
                    "run.output_dir = " + str(out) + "\n"
                    "cost.n_p = 5\ncost.l_x = 100e3\ncost.l_y = 100e3\n"
                    "cost.l_z = 20e3\ncost.dx = 250\ncost.dy = 250\n"
                    "cost.dz = 250\ncost.duration = 600\ncost.dt = 1\n" + line + "\n")
    assert main(["analyze", "--config", cfg]) == 2
    assert "error[config]" in capsys.readouterr().err
    assert not (out / "cost_report.csv").exists()


SHIPPED_ANALYZE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                               "analyze_squall.cfg")


@pytest.mark.parametrize("command, text", [
    ("run", "run.mode = standard\nrun.preset = desk\nrun.duration = 4\nmmf.substeps = 7\n"),
    ("run", "run.mode = mmf\nrun.preset = desk\nrun.duration = 4\nsponge.z_top = 20000\n"),
    ("run", "run.mode = standard\nrun.preset = desk\ntime.dt = 1e-7\n"),
    ("run", "run.mode = standard\nrun.preset = desk\nrun.duration = 4\n"
            "run.sounding = missing_sounding.txt\n"),
    ("analyze", "run.mode = analyze\n"),
    ("analyze", COST_BASE + "time.dt = 3\n")])
def test_a_configuration_error_leaves_no_output_directory(tmp_path, capsys, command, text):
    """Each mode makes its output directory only once its configuration
    is checked, so a run that exits 2 leaves none behind."""
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, f"run.output_dir = {out}\n" + text)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error[config]: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "run"])
@pytest.mark.parametrize("line", ["mmf.substeps = 7", "time.dt = 3.0", "run.case = supercell",
                                  "micro.enabled = false", "run.seed = 4"])
def test_analyze_refuses_simulation_keys(tmp_path, capsys, monkeypatch, command, line):
    """The cost model reads only the cost.* keys: any other key of a
    simulation in an analyze config exits 2, naming the key, before any
    output, whether `mmfsim analyze` or `mmfsim run` reads it; the shipped
    analyze config, which sets none, still exits 0."""
    out = tmp_path / "o"
    monkeypatch.setenv(driver.OUTPUT_DIR_ENV, str(out))
    with open(SHIPPED_ANALYZE, encoding="utf-8") as fh:
        shipped = fh.read()
    assert main([command, "--config", write_cfg(tmp_path, shipped + line + "\n")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and line in err
    assert not out.exists()
    assert main([command, "--config", SHIPPED_ANALYZE]) == 0
    assert (out / "cost_report.csv").exists()


def snapshots_for_diff(tmp_path, bump=0.0):
    mesh = build_box_mesh((1.0, 1.0), (2, 2), (2, 2))
    st = PrognosticState.zeros(mesh)
    st.theta_vp[:] = 1.0
    a = tmp_path / "a.dat"
    write_snapshot(st, mesh, 0.0, a)
    st.theta_vp[0] += bump
    b = tmp_path / "b.dat"
    write_snapshot(st, mesh, 0.0, b)
    return str(a), str(b)


def test_diff_snapshots_pass(tmp_path, capsys):
    a, b = snapshots_for_diff(tmp_path)
    rc = main(["diff-snapshots", a, b])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert out.count("max|diff|") == 7


def test_diff_snapshots_differ(tmp_path, capsys):
    a, b = snapshots_for_diff(tmp_path, bump=1e-6)
    assert main(["diff-snapshots", a, b]) == 1
    assert "DIFFER" in capsys.readouterr().out
    # a loose tolerance turns the same pair into a pass
    assert main(["diff-snapshots", a, b, "--tol", "1e-5"]) == 0


def test_diff_snapshots_counts_nan_as_a_difference(tmp_path, capsys):
    a, _ = snapshots_for_diff(tmp_path)
    mesh = build_box_mesh((1.0, 1.0), (2, 2), (2, 2))
    st = PrognosticState.zeros(mesh)
    st.theta_vp[:] = 1.0
    st["w"][3] = np.nan   # not the first field, and a later field differs by 0
    b = str(tmp_path / "nan.dat")
    write_snapshot(st, mesh, 0.0, b)
    assert main(["diff-snapshots", a, b, "--tol", "1e300"]) == 1
    out = capsys.readouterr().out
    assert "w          max|diff| = nan" in out and "DIFFER (worst nan" in out


@pytest.mark.parametrize("tol", ["nan", "-1e-9", "-inf"])
def test_diff_snapshots_rejects_bad_tolerance(tmp_path, capsys, tol):
    a, b = snapshots_for_diff(tmp_path)
    assert main(["diff-snapshots", a, b, "--tol=" + tol]) == 2
    captured = capsys.readouterr()
    assert "error[config]: --tol" in captured.err and "PASS" not in captured.out


def test_diff_snapshots_missing_file(tmp_path, capsys):
    a, _ = snapshots_for_diff(tmp_path)
    rc = main(["diff-snapshots", a, str(tmp_path / "ghost.dat")])
    assert rc == 4
    assert "error[io]" in capsys.readouterr().err


def test_diff_snapshots_checksum_mismatch(tmp_path, capsys):
    a, b = snapshots_for_diff(tmp_path)
    with open(b, "r+b") as fh:
        fh.seek(-1, 2)
        last = fh.read(1)
        fh.seek(-1, 2)
        fh.write(bytes([last[0] ^ 0x01]))
    assert main(["diff-snapshots", a, b]) == 2
    assert f"error[config]: {b}: checksum mismatch" in capsys.readouterr().err


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("old, new", [(b"npts ", b"npoints "), (b"time ", b"time x")])
def test_diff_snapshots_malformed_header(tmp_path, capsys, old, new):
    a, b = snapshots_for_diff(tmp_path)
    with open(b, "rb") as fh:
        blob = fh.read()
    with open(b, "wb") as fh:
        fh.write(blob.replace(old, new, 1))
    assert main(["diff-snapshots", a, b]) == 2
    assert "malformed header" in capsys.readouterr().err


@pytest.mark.parametrize("cut", [3, 8])
def test_diff_snapshots_truncated_payload(tmp_path, capsys, cut):
    """A payload cut mid-value or at a value boundary is a config error."""
    a, b = snapshots_for_diff(tmp_path)
    with open(b, "rb") as fh:
        blob = fh.read()
    with open(b, "wb") as fh:
        fh.write(blob[:-cut])
    assert main(["diff-snapshots", a, b]) == 2
    assert "truncated payload" in capsys.readouterr().err


def test_diff_snapshots_without_fields(tmp_path, capsys):
    empty = tmp_path / "empty.dat"
    empty.write_bytes(b"mmfsim-snapshot 1\ntime 0\ndim 2\nextents 1 1\nelems 1 1\n"
                      b"orders 1 1\nfields \nnpts 4\nend-header\n")
    assert main(["diff-snapshots", str(empty), str(empty)]) == 2
    assert "malformed header" in capsys.readouterr().err
