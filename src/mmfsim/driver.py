"""Run orchestration: config parsing, time loop, diagnostics, snapshots.

Output files are plain text (flat key=value config, CSV time series) plus
a simple self-describing snapshot format: a text header followed by raw
little-endian float64 nodal values, with checksums in a sidecar `.meta`
file.  All floating-point output uses %.17e so reruns are byte-stable.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import (COUNT, NONNEGATIVE, POSITIVE, ConfigurationError, Interval, SolverError,
                     StateError, check_settings, describe, format_value, setting)
from .grid import Mesh
from .operators import PrognosticState, integrate
from .dynamics import SpongeConfig
from .complexity import CostModelInput, CostReport, cost_report
from .coupling import COUPLED_VARS, mmf_step
from .cases import CASE_IDS, SEEDS, CaseSetup, build_case

OUTPUT_DIR_ENV = "MMFSIM_OUTPUT_DIR"

# a run steps at most this many times: each step appends output rows,
# so a tiny time.dt would otherwise fill the disk
MAX_STEPS = 10 ** 6

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_SNAPSHOT_MAGIC = "mmfsim-snapshot 1"


def _fmt(x: float) -> str:
    return f"{float(x):.17e}"


# ---------------------------------------------------------------------------
# configuration

# A config key: its name in the file, the field that holds its value (of
# RunConfig, or of CostModelInput for cost.*), its type, and its domain: a
# tuple of choices, an Interval, or None for a path. KEYS lists every key.
Key = namedtuple("Key", "name attr type domain")

_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_PARSERS = {str: str, bool: lambda s: _BOOLS[s.lower()], int: int, float: float}


def _value(cfg, key: Key):
    """`key`'s value in `cfg`, None where unset."""
    return getattr(cfg.cost if key.name.startswith("cost.") else cfg, key.attr, None)


@dataclass
class RunConfig:
    """Flat key=value run description (section prefixes, no nesting); each
    field gives its config key, the key's type and domain, and a default."""

    mode: str = setting(str, ("standard", "mmf", "analyze"), "standard", "run.mode")
    case: str = setting(str, CASE_IDS, "squall", "run.case")
    preset: str = setting(str, ("desk", "full"), "desk", "run.preset")
    tier: str = setting(str, ("fine", "coarse"), "coarse", "run.tier")  # standard mode only
    seed: int = setting(int, SEEDS, 0, "run.seed")
    workers: int = setting(int, COUNT, 1, "run.workers")  # accepted, no effect
    duration: Optional[float] = setting(float, POSITIVE, None, "run.duration")  # s
    snapshot_interval: float = setting(float, NONNEGATIVE, 0.0, "run.snapshot_interval")
    output_dir: str = setting(str, None, "out", "run.output_dir")
    sounding: Optional[str] = setting(str, None, None, "run.sounding")
    dt: Optional[float] = setting(float, POSITIVE, None, "time.dt")
    substeps: Optional[int] = setting(int, COUNT, None, "mmf.substeps")
    ssp_elems_x: Optional[int] = setting(int, COUNT, None, "mmf.ssp_elems_x")
    ssp_elems_z: Optional[int] = setting(int, COUNT, None, "mmf.ssp_elems_z")
    ssp_length: Optional[float] = setting(float, POSITIVE, None, "mmf.ssp_length")
    amplitude: Optional[float] = setting(float, NONNEGATIVE, None, "mmf.amplitude")
    filter_strength: Optional[float] = setting(float, Interval("[0, 1]"), None, "filter.strength")
    nu: Optional[float] = setting(float, NONNEGATIVE, None, "viscosity.nu")
    microphysics: bool = setting(bool, (False, True), True, "micro.enabled")
    sponge_z_bottom: Optional[float] = setting(float, NONNEGATIVE, None, "sponge.z_bottom")
    sponge_z_top: Optional[float] = setting(float, POSITIVE, None, "sponge.z_top")
    sponge_r_max: Optional[float] = setting(float, NONNEGATIVE, None, "sponge.r_max")
    # parse_config passes the cost.* values as a namespace of CostModelInput
    # fields, from which the model is built and checked here
    cost: Optional[CostModelInput] = None

    def __post_init__(self):
        check_settings(self)
        if isinstance(self.cost, SimpleNamespace):
            given = vars(self.cost)
            missing = [f"cost.{f.name}" for f in fields(CostModelInput)
                       if f.default is MISSING and f.name not in given]
            if missing:
                raise ConfigurationError(f"the cost model needs {', '.join(missing)}")
            self.cost = CostModelInput(**given)


KEYS = tuple(Key(key, f.name, typ, domain) for record in (RunConfig, CostModelInput)
             for f in fields(record) if "setting" in f.metadata
             for typ, domain, key in [f.metadata["setting"]])
_BY_NAME = {key.name: key for key in KEYS}


def parse_config(text: str) -> RunConfig:
    """Parse flat `section.key = value` lines; unknown keys are errors."""
    values, cost = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value")
        name, _, val = (part.strip() for part in line.partition("="))
        key = _BY_NAME.get(name)
        if key is None:
            raise ConfigurationError(f"line {lineno}: unknown key {name!r}")
        try:
            (cost if name.startswith("cost.") else values)[key.attr] = _PARSERS[key.type](val)
        except (KeyError, ValueError):
            raise ConfigurationError(f"line {lineno}: {name} = {val}: expected "
                                     f"{describe(key.type, key.domain)}") from None
    return RunConfig(**values, cost=SimpleNamespace(**cost) if cost else None)


def format_config(cfg: RunConfig) -> str:
    """Serialize so that parse_config(format_config(cfg)) == cfg."""
    return "".join(f"{key.name} = {format_value(v)}\n" for key in KEYS
                   if (v := _value(cfg, key)) is not None)


def read_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


_SPONGE_KEYS = "sponge.z_bottom, sponge.z_top, sponge.r_max"


def _case_overrides(cfg: RunConfig) -> dict:
    if cfg.mode != "mmf":
        # the embedded grids' keys; a standard run has no embedded grids
        given = [f"{key.name} = {format_value(v)}" for key in KEYS
                 if key.name.startswith("mmf.") and (v := _value(cfg, key)) is not None]
        if given:
            raise ConfigurationError(f"{', '.join(given)}: only run.mode = mmf takes mmf.* keys")
    names = ("duration", "dt", "substeps", "ssp_elems_x", "ssp_elems_z",
             "ssp_length", "amplitude", "nu", "microphysics", "filter_strength")
    ov = {name: getattr(cfg, name) for name in names if getattr(cfg, name) is not None}
    sponge_keys = (cfg.sponge_z_bottom, cfg.sponge_z_top, cfg.sponge_r_max)
    if any(v is not None for v in sponge_keys):
        if any(v is None for v in sponge_keys):
            raise ConfigurationError(f"set all of {_SPONGE_KEYS} or none")
        try:
            ov["sponge"] = SpongeConfig(*sponge_keys)
        except ConfigurationError as exc:
            raise exc.prefixed(_SPONGE_KEYS) from None
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
    # each mode makes the output directory once its configuration is checked
    out_dir = os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir)
    if cfg.mode == "analyze":
        return _run_analyze(cfg, out_dir)
    return _run_sim(cfg, out_dir)


def _run_analyze(cfg: RunConfig, out_dir: str) -> int:
    # a key at its default changes nothing, so only the others are named
    defaults = {f.name: f.default for f in fields(RunConfig)}
    given = [f"{key.name} = {format_value(v)}" for key in KEYS
             if not key.name.startswith("cost.") and key.name not in ("run.mode", "run.output_dir")
             and (v := _value(cfg, key)) != defaults[key.attr]]
    if given:
        raise ConfigurationError(f"{', '.join(given)}: run.mode = analyze takes only "
                                 "run.output_dir and the cost.* keys")
    if cfg.cost is None:
        raise ConfigurationError("analyze mode needs the cost.* keys")
    report = cost_report(cfg.cost)
    os.makedirs(out_dir, exist_ok=True)
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
    steps = setup.duration / dt
    if not math.isfinite(steps) or round(steps) > MAX_STEPS:
        raise ConfigurationError(f"time.dt = {format_value(dt)} and run.duration = "
                                 f"{format_value(setup.duration)} give {steps:.6g} steps, "
                                 f"more than the {MAX_STEPS} a run may take")
    n_steps = max(1, int(round(steps)))
    instances = setup.instances or []
    os.makedirs(out_dir, exist_ok=True)

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
