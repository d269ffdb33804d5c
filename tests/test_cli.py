import os

import numpy as np
import pytest

from mmfsim.cli import main
from mmfsim.driver import read_snapshot, write_snapshot
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
    assert "error[config]: dt and duration must be positive" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


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
