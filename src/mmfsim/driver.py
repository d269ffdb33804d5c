"""Run orchestration: config parsing, time loop, diagnostics, snapshots.

Output files are plain text (flat key=value config, CSV time series) plus
a simple self-describing snapshot format: a text header followed by raw
little-endian float64 nodal values, with checksums in a sidecar `.meta`
file.  All floating-point output uses %.17e so reruns are byte-stable.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, SolverError, StateError
from .grid import Mesh
from .operators import PrognosticState, integrate
from .dynamics import SpongeConfig
from .complexity import CostModelInput, CostReport, cost_report
from .coupling import COUPLED_VARS, mmf_step
from .cases import CaseSetup, build_case

OUTPUT_DIR_ENV = "MMFSIM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_SNAPSHOT_MAGIC = "mmfsim-snapshot 1"


def _fmt(x: float) -> str:
    return f"{float(x):.17e}"


# ---------------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    """Flat key=value run description (section prefixes, no nesting)."""

    mode: str = "standard"            # standard | mmf | analyze
    case: str = "squall"
    preset: str = "desk"              # desk | full
    tier: str = "coarse"              # fine | coarse, standard mode only
    seed: int = 0
    workers: int = 1                  # accepted, no effect: embedded grids step serially
    duration: Optional[float] = None  # s, overrides the case default
    snapshot_interval: float = 0.0    # s, 0 = final snapshot only
    output_dir: str = "out"
    sounding: Optional[str] = None
    dt: Optional[float] = None
    substeps: Optional[int] = None
    ssp_elems_x: Optional[int] = None
    ssp_elems_z: Optional[int] = None
    ssp_length: Optional[float] = None
    amplitude: Optional[float] = None
    filter_strength: Optional[float] = None
    nu: Optional[float] = None
    microphysics: bool = True
    sponge_z_bottom: Optional[float] = None
    sponge_z_top: Optional[float] = None
    sponge_r_max: Optional[float] = None
    cost: Optional[CostModelInput] = None

    def __post_init__(self):
        if self.mode not in ("standard", "mmf", "analyze"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.preset not in ("desk", "full"):
            raise ConfigurationError(f"unknown preset {self.preset!r}")
        if self.tier not in ("fine", "coarse"):
            raise ConfigurationError(f"unknown tier {self.tier!r}")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if not 0.0 <= self.snapshot_interval < np.inf:
            raise ConfigurationError("snapshot_interval must be finite and >= 0")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must lie in [0, 2**64), got {self.seed}")


# key in file -> (attribute, type); cost.* handled separately
_KEYMAP = {
    "run.mode": ("mode", str),
    "run.case": ("case", str),
    "run.preset": ("preset", str),
    "run.tier": ("tier", str),
    "run.seed": ("seed", int),
    "run.workers": ("workers", int),
    "run.duration": ("duration", float),
    "run.snapshot_interval": ("snapshot_interval", float),
    "run.output_dir": ("output_dir", str),
    "run.sounding": ("sounding", str),
    "time.dt": ("dt", float),
    "mmf.substeps": ("substeps", int),
    "mmf.ssp_elems_x": ("ssp_elems_x", int),
    "mmf.ssp_elems_z": ("ssp_elems_z", int),
    "mmf.ssp_length": ("ssp_length", float),
    "mmf.amplitude": ("amplitude", float),
    "filter.strength": ("filter_strength", float),
    "viscosity.nu": ("nu", float),
    "micro.enabled": ("microphysics", bool),
    "sponge.z_bottom": ("sponge_z_bottom", float),
    "sponge.z_top": ("sponge_z_top", float),
    "sponge.r_max": ("sponge_r_max", float),
}

_COST_KEYS = ("n_p", "l_x", "l_y", "l_z", "dx", "dy", "dz",
              "duration", "dt", "r_t", "r_x", "r_z", "n_rx", "n_ry")
_COST_INTS = ("n_p", "n_rx", "n_ry")


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ConfigurationError(f"expected a boolean, got {s!r}")


def parse_config(text: str) -> RunConfig:
    """Parse flat `section.key = value` lines; unknown keys are errors."""
    values = {}
    cost_values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key.startswith("cost.") and key[5:] in _COST_KEYS:
            target, attr = cost_values, key[5:]
            typ = int if attr in _COST_INTS else float
        elif key in _KEYMAP:
            target = values
            attr, typ = _KEYMAP[key]
        else:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        try:
            target[attr] = _parse_bool(val) if typ is bool else typ(val)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: {exc}") from None
    if cost_values:
        try:
            values["cost"] = CostModelInput(**cost_values)
        except TypeError as exc:
            raise ConfigurationError(f"incomplete cost model: {exc}") from None
    return RunConfig(**values)


def format_config(cfg: RunConfig) -> str:
    """Serialize so that parse_config(format_config(cfg)) == cfg."""
    lines = []
    for key, (attr, typ) in _KEYMAP.items():
        v = getattr(cfg, attr)
        if v is None:
            continue
        if typ is bool:
            lines.append(f"{key} = {'true' if v else 'false'}")
        elif typ is float:
            lines.append(f"{key} = {v!r}")
        else:
            lines.append(f"{key} = {v}")
    if cfg.cost is not None:
        for ck in _COST_KEYS:
            v = getattr(cfg.cost, ck)
            lines.append(f"cost.{ck} = {v if ck in _COST_INTS else repr(v)}")
    return "\n".join(lines) + "\n"


def read_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _case_overrides(cfg: RunConfig) -> dict:
    ov = {}
    for name in ("duration", "dt", "substeps", "ssp_elems_x", "ssp_elems_z",
                 "ssp_length", "amplitude", "nu", "microphysics", "filter_strength"):
        v = getattr(cfg, name)
        if v is not None and not (name == "microphysics" and v is True):
            ov[name] = v
    sponge_keys = (cfg.sponge_z_bottom, cfg.sponge_z_top, cfg.sponge_r_max)
    if any(v is not None for v in sponge_keys):
        if any(v is None for v in sponge_keys):
            raise ConfigurationError(
                "sponge overrides need all of z_bottom, z_top, r_max")
        ov["sponge"] = SpongeConfig(*sponge_keys)
    return ov


# ---------------------------------------------------------------------------
# diagnostics

# diagnostics.csv columns; residual maxima are zero in standard runs
_DIAG_HEADER = ("time,kinetic_energy,total_mass,total_water,precip_mean,"
                + ",".join(f"max_resid_{v}" for v in COUPLED_VARS))


def compute_kinetic_energy(state: PrognosticState, reference, mesh: Mesh) -> float:
    """Domain-mean kinetic energy density, 0.5 rho |u|^2 averaged over volume."""
    rho = reference.rho0 + state.rho_p
    speed2 = np.sum(state.u ** 2, axis=0)
    return integrate(mesh, 0.5 * rho * speed2) / integrate(mesh, np.ones(mesh.npts))


def _total_water(state: PrognosticState, reference, mesh: Mesh) -> float:
    rho = reference.rho0 + state.rho_p
    return integrate(mesh, rho * (state.q_vp + state.q_c + state.q_r))


def _check_finite(state: PrognosticState, where: str):
    if not np.all(np.isfinite(state.as_vector())):
        raise StateError(f"non-finite state {where}")


# ---------------------------------------------------------------------------
# snapshots

def _replace_all(files) -> None:
    """Write each (path, buffers) pair to a temp file beside its path, the
    buffers one after another, then rename every temp file into place;
    on failure no temp file is left and every path keeps its old contents."""
    tmps = []
    try:
        for path, buffers in files:
            tmps.append(f"{path}.tmp")
            with open(tmps[-1], "wb") as fh:
                for data in buffers:
                    fh.write(data)
        for (path, _), tmp in zip(files, tmps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def write_snapshot(state: PrognosticState, mesh: Mesh, t: float, path) -> None:
    """Text header + raw little-endian float64 data, checksums in .meta.

    Both files are written to temp files and renamed into place, so a
    failed write leaves no partial snapshot behind.
    """
    path = os.fspath(path)
    names = state.field_names()
    arrays = np.ascontiguousarray(state.data, dtype="<f8")
    header = "\n".join([
        _SNAPSHOT_MAGIC,
        f"time {_fmt(t)}",
        f"dim {mesh.dim}",
        "extents " + " ".join(_fmt(e) for e in mesh.extents),
        "elems " + " ".join(str(e) for e in mesh.elem_counts),
        "orders " + " ".join(str(o) for o in mesh.orders),
        "fields " + " ".join(names),
        f"npts {mesh.npts}",
        "data float64 little-endian",
        "end-header",
    ]) + "\n"
    # hashed and written from the array itself, as a bytes copy of the
    # state would raise the run's peak memory at every snapshot
    head = header.encode("ascii")
    whole = hashlib.sha256(head)
    whole.update(arrays)
    meta = [f"file {os.path.basename(path)}", f"sha256 {whole.hexdigest()}"]
    for name, a in zip(names, arrays):
        meta.append(f"field {name} sha256 {hashlib.sha256(a).hexdigest()}")
    _replace_all([(path, (head, arrays)),
                  (path + ".meta", [("\n".join(meta) + "\n").encode("ascii")])])


def read_snapshot(path) -> dict:
    """Inverse of write_snapshot; returns header fields plus field arrays.

    When the `.meta` sidecar exists, the whole file's sha256 must match
    the one it records; a header or size fault is reported first.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    mark = b"end-header\n"
    pos = blob.find(mark)
    if not blob.startswith(_SNAPSHOT_MAGIC.encode("ascii")) or pos < 0:
        raise ConfigurationError(f"{path}: not a snapshot file")
    try:
        info = {}
        for line in blob[:pos].decode("ascii").splitlines()[1:]:
            key, _, rest = line.partition(" ")
            info[key] = rest
        out = {
            "time": float(info["time"]),
            "dim": int(info["dim"]),
            "extents": tuple(float(v) for v in info["extents"].split()),
            "elems": tuple(int(v) for v in info["elems"].split()),
            "orders": tuple(int(v) for v in info["orders"].split()),
            "npts": int(info["npts"]),
            "fields": {},
        }
        names = info["fields"].split()
        if not names:
            raise ValueError("no fields")
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed header ({exc!r})") from None
    npts = out["npts"]
    if len(blob) != pos + len(mark) + 8 * npts * len(names):
        raise ConfigurationError(f"{path}: truncated payload")
    meta_path = os.fspath(path) + ".meta"
    if os.path.exists(meta_path):
        with open(meta_path, "rb") as fh:
            sums = [ln[7:].strip() for ln in fh if ln.startswith(b"sha256 ")]
        if sums != [hashlib.sha256(blob).hexdigest().encode("ascii")]:
            raise ConfigurationError(f"{path}: checksum mismatch")
    data = np.frombuffer(blob[pos + len(mark):], dtype="<f8")
    for k, name in enumerate(names):
        out["fields"][name] = data[k * npts:(k + 1) * npts].copy()
    return out


def diff_snapshots(path_a, path_b) -> list:
    """Per-field (name, max abs difference) between two snapshots."""
    a = read_snapshot(path_a)
    b = read_snapshot(path_b)
    for key in ("dim", "extents", "elems", "orders", "npts"):
        if a[key] != b[key]:
            raise ConfigurationError(
                f"snapshots differ in {key}: {a[key]} vs {b[key]}")
    if list(a["fields"]) != list(b["fields"]):
        raise ConfigurationError("snapshots carry different field sets")
    return [(name, float(np.max(np.abs(a["fields"][name] - b["fields"][name]))))
            for name in a["fields"]]


# ---------------------------------------------------------------------------
# the run loop

class _CsvWriter:
    def __init__(self, path, header):
        self.fh = open(path, "w", encoding="ascii", newline="\n")
        self.fh.write(header + "\n")

    def row(self, line):
        self.fh.write(line + "\n")

    def truncate_marker(self, reason):
        self.fh.write(f"# truncated: {reason}\n")

    def close(self):
        self.fh.flush()
        self.fh.close()


def _snapshot_name(step: int) -> str:
    return f"snapshot_{step:06d}.dat"


def exit_code_of(fn, *args) -> int:
    """Call fn(*args) and return its exit code, mapping package errors.

    Configuration errors exit 2, numerical failures 3 and IO errors 4,
    each with a one-line message on stderr.
    """
    try:
        return fn(*args)
    except ConfigurationError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, StateError, FloatingPointError) as exc:
        print(f"error[numerical]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_IO


def run(cfg: RunConfig) -> int:
    """Execute a configured run; returns the process exit code."""
    return exit_code_of(_run, cfg)


def _run(cfg: RunConfig) -> int:
    out_dir = os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    if cfg.mode == "analyze":
        return _run_analyze(cfg, out_dir)
    return _run_sim(cfg, out_dir)


def _run_analyze(cfg: RunConfig, out_dir: str) -> int:
    if cfg.cost is None:
        raise ConfigurationError("analyze mode needs the cost.* keys")
    report = cost_report(cfg.cost)
    path = os.path.join(out_dir, "cost_report.csv")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("quantity,standard,mmf,ratio_mmf_over_standard\n")
        for name, std, mmf in report.rows():
            fh.write(f"{name},{_fmt(std)},{_fmt(mmf)},{_fmt(mmf / std)}\n")
    print(format_cost_report(report))
    return EXIT_OK


def format_cost_report(report: CostReport) -> str:
    inp = report.inputs
    head = (f"cost model: n_p={inp.n_p} ranks={inp.n_r} "
            f"ratios r_t={inp.r_t:g} r_x={inp.r_x:g} r_z={inp.r_z:g}")
    lines = [head, f"{'quantity':<12}{'standard':>16}{'mmf':>16}{'mmf/std':>12}"]
    for name, s, m in report.rows():
        lines.append(f"{name:<12}{s:>16.6e}{m:>16.6e}{m / s:>12.4f}")
    return "\n".join(lines)


def _run_sim(cfg: RunConfig, out_dir: str) -> int:
    tier = "mmf" if cfg.mode == "mmf" else cfg.tier
    preset = "desk" if cfg.preset == "desk" else None
    setup = build_case(cfg.case, tier, preset=preset, sounding=cfg.sounding,
                       seed=cfg.seed, overrides=_case_overrides(cfg))
    sim = setup.simulator
    mesh = sim.mesh
    dt = setup.dt
    n_steps = max(1, int(round(setup.duration / dt)))
    instances = setup.instances or []

    def advance():
        """One coarse step: (coupling diagnostics, precipitation by grid key)."""
        if setup.is_mmf:
            return mmf_step(sim, instances, dt, cfg=setup.mmf_config)
        sim.state, precip = sim.step(dt)
        return [], {} if precip is None else {-1: precip}

    # accumulated surface precipitation, mm: keyed -1 for the outer grid
    # when it can rain (always in standard mode, with Kessler in mmf
    # mode), instance index for embedded grids
    accum = {}
    if not setup.is_mmf or sim.kessler is not None:
        accum[-1] = np.zeros(mesh.ncols)
    for inst in instances:
        accum[inst.index] = np.zeros(inst.sim.mesh.ncols)

    diag_csv = _CsvWriter(os.path.join(out_dir, "diagnostics.csv"), _DIAG_HEADER)
    precip_csv = _CsvWriter(os.path.join(out_dir, "precip.csv"),
                            "time,instance,column,accum_mm")
    writers = [diag_csv, precip_csv]
    if setup.is_mmf:
        resid_csv = _CsvWriter(os.path.join(out_dir, "coupling_residuals.csv"),
                               "time,instance,variable,level,abs_residual,abs_q")
        writers.append(resid_csv)

    def record_diag(t, residual_max):
        vals = [t, compute_kinetic_energy(sim.state, sim.reference, mesh),
                integrate(mesh, sim.state.rho_p),
                _total_water(sim.state, sim.reference, mesh),
                _precip_mean(accum, setup)]
        vals += [residual_max.get(v, 0.0) for v in COUPLED_VARS]
        diag_csv.row(",".join(_fmt(v) for v in vals))

    # one "%" template of a step's residual rows per block shape
    # ((instance, variable, levels) per block), which is fixed in a run
    resid_templates = {}

    def record_resid(t, diag):
        shape = tuple((i, v, resid.size) for i, v, resid, _ in diag)
        template = resid_templates.get(shape)
        if template is None:
            template = resid_templates[shape] = "\n".join(
                f"%.17e,{i},{v},{lev},%.17e,%.17e" for i, v, n in shape for lev in range(n))
        cols = np.empty((3, sum(n for _, _, n in shape)))
        cols[0] = t
        np.concatenate([resid for _, _, resid, _ in diag], out=cols[1])
        np.concatenate([absq for _, _, _, absq in diag], out=cols[2])
        resid_csv.row(template % tuple(cols.T.ravel().tolist()))

    def record_precip(t):
        for key in sorted(accum):
            vals = accum[key]
            for col in range(vals.size):
                precip_csv.row(f"{_fmt(t)},{key},{col},{_fmt(vals[col])}")

    try:
        write_snapshot(sim.state, mesh, 0.0,
                       os.path.join(out_dir, _snapshot_name(0)))
        record_diag(0.0, {})
        record_precip(0.0)
        t = 0.0
        for k in range(1, n_steps + 1):
            try:
                diag, precip = advance()
            except (SolverError, StateError) as exc:
                raise exc.prefixed(f"step {k}") from exc
            residual_max = {}
            for _, var, resid, _ in diag:
                residual_max[var] = max(residual_max.get(var, 0.0),
                                        float(np.max(resid)))
            if diag:
                record_resid(t, diag)
            for key, pr in precip.items():
                accum[key] += pr
            t = k * dt
            _check_finite(sim.state, f"after step {k}")
            for inst in instances:
                _check_finite(inst.sim.state,
                              f"in embedded grid {inst.index} after step {k}")
            record_diag(t, residual_max)
            if cfg.snapshot_interval > 0.0 and _on_tick(t, cfg.snapshot_interval, dt):
                write_snapshot(sim.state, mesh, t,
                               os.path.join(out_dir, _snapshot_name(k)))
                record_precip(t)
        write_snapshot(sim.state, mesh, t,
                       os.path.join(out_dir, "snapshot_final.dat"))
        record_precip(t)
        return EXIT_OK
    except (SolverError, StateError, FloatingPointError) as exc:
        for w in writers:
            w.truncate_marker(exc)
        raise
    finally:
        for w in writers:
            w.close()


def _on_tick(t: float, interval: float, dt: float) -> bool:
    remainder = t % interval
    return remainder < 0.5 * dt or interval - remainder < 0.5 * dt


def _precip_mean(accum: dict, setup: CaseSetup) -> float:
    """Horizontal quadrature mean of the accumulated rain, mm; in mmf
    runs the mean over the embedded grids of each grid's mean."""
    if setup.is_mmf:
        grids = [(inst.sim.mesh, accum[inst.index]) for inst in setup.instances]
    else:
        grids = [(setup.simulator.mesh, accum[-1])]
    return float(np.mean([(m.column_weights @ a) / m.column_weights.sum() for m, a in grids]))
