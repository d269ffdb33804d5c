"""One `mmfsim run` in a fresh process, timed at the driver boundary or traced.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the run (case, mode, tier, seed, duration,
snapshot_interval, output_dir) and whether to trace it. The run goes
through the public path, `mmfsim.driver.run` with a `RunConfig`. Nothing
under src/ is edited: the hooks rebind module and class attributes
before the run starts.

Untraced, the only timers are one around `build_case` (set-up) and one
around each coarse step at the driver boundary (`mmf_step` in mmf mode,
the case simulator's `Simulator.step` in standard mode). Each of these
is bracketed by short fixed calibration kernels (`calibrate`, and for
set-up also `calibrate_arrays`), whose time tracks the host's current CPU
speed; see CALIBRATION_REF_S below. A spec with
`setup_repeats` stops each run once its case is ready and sets up that
many times in the one process, the first cold and the rest warm, which
gives many set-up samples for the cost of one process start. Traced, every layer
call named in `install_tracer` becomes a span; spans stay in memory and
are written to `spans_path` only after the run has ended.

The last stdout line is one JSON object with the run's measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np

from mmfsim import cases, coupling, driver, timeint
from mmfsim.complexity import FLOP_A, FLOP_B
from mmfsim.coupling import Simulator
from mmfsim.operators import SemOps, integrate

perf_counter = time.perf_counter

# The host's CPU speed drifts by up to 1.5x for spells of seconds to
# minutes (other tenants), in CPU time as much as in wall time. A fixed
# pure-Python loop slows by the same factor as a coarse step, so every
# timed interval is also reported scaled to a host on which the loop takes
# CALIBRATION_REF_S. Set-up is array-heavier and slows more than the loop;
# it is scaled by the loop plus a fixed numpy kernel, which together take
# CALIBRATION_REF_S + ARRAY_CALIBRATION_REF_S there.
CALIBRATION_LOOPS = 30000
CALIBRATION_REF_S = 2.0e-3
ARRAY_CALIBRATION_REF_S = 3.0e-3
_rng = np.random.default_rng(0)
_CAL_D = _rng.standard_normal((7, 7))
_CAL_U = _rng.standard_normal((600, 7, 7))
_CAL_V = _rng.standard_normal((600, 7, 7))


def calibrate():
    """Wall seconds of the fixed calibration loop."""
    t0 = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return perf_counter() - t0


def calibrate_arrays():
    """Wall seconds of the fixed numpy kernel: tensor-product derivatives
    and pointwise arithmetic on 29,400-point arrays."""
    t0 = perf_counter()
    for _ in range(3):
        a = np.einsum("ij,ejl->eil", _CAL_D, _CAL_U)
        b = np.einsum("lj,eij->eil", _CAL_D, _CAL_V)
        c = a * b + _CAL_U
        c -= 0.5 * a
        np.sqrt(np.abs(c), out=c)
        c.sum()
    return perf_counter() - t0


def scaled(seconds, cal_s):
    """`seconds` measured beside a calibration of `cal_s`, at the
    reference speed."""
    return seconds * CALIBRATION_REF_S / cal_s


class Probe:
    """Set-up time, the case, and the coarse-step timings of one run.

    `cals` holds (start, end) of every calibration made during the run;
    the stepping loop's scaled time is built from the gaps between them.
    """

    def __init__(self):
        self.setup = None
        self.setup_s = None
        self.setup_scaled_s = None
        self.loop_start = None
        self.step_s = []
        self.step_scaled_s = []
        self.cals = []
        self.stop_after_setup = False

    def calibrate(self):
        t0 = perf_counter()
        cal_s = calibrate()
        self.cals.append((t0, t0 + cal_s))
        return cal_s

    def loop_times(self, loop_end):
        """(wall, scaled) seconds of the stepping loop without its
        calibrations: each gap between calibrations is scaled by the mean
        of the two around it. The loop starts right after the calibration
        that closes set-up."""
        wall = total = 0.0
        prev_end = self.loop_start
        prev_cal = None
        for start, end in self.cals:
            cal_s = end - start
            if start < self.loop_start:
                prev_cal = cal_s
                continue
            wall += start - prev_end
            total += scaled(start - prev_end, 0.5 * (prev_cal + cal_s))
            prev_end, prev_cal = end, cal_s
        wall += loop_end - prev_end
        total += scaled(loop_end - prev_end, prev_cal)
        return wall, total


class SetupDone(Exception):
    """Ends a set-up-only run once its case is ready."""


def _rebind(owner, name, make):
    setattr(owner, name, make(getattr(owner, name)))


def _hook_build_case(probe):
    def make(fn):
        def build_case(*args, **kwargs):
            cal0 = probe.calibrate() + calibrate_arrays()
            t0 = perf_counter()
            setup = fn(*args, **kwargs)
            t1 = perf_counter()
            # the loop's calibration last: it opens the stepping loop
            cal1 = calibrate_arrays() + probe.calibrate()
            probe.setup, probe.setup_s = setup, t1 - t0
            probe.setup_scaled_s = (t1 - t0) * (
                CALIBRATION_REF_S + ARRAY_CALIBRATION_REF_S) / (
                0.5 * (cal0 + cal1))
            probe.loop_start = perf_counter()
            if probe.stop_after_setup:
                raise SetupDone
            return setup
        return build_case
    _rebind(driver, "build_case", make)


def _hook_coarse_step(probe, mode):
    """One timer per coarse step, at the driver boundary."""
    def make(fn):
        def timed(*args, **kwargs):
            cal0 = probe.calibrate()
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            step_s = perf_counter() - t0
            cal1 = probe.calibrate()
            probe.step_s.append(step_s)
            probe.step_scaled_s.append(scaled(step_s, 0.5 * (cal0 + cal1)))
            return out
        return timed
    if mode == "mmf":
        _rebind(driver, "mmf_step", make)
    else:
        # standard mode: the driver's only Simulator.step calls are its steps
        _rebind(Simulator, "step", make)


class Tracer:
    """In-memory spans: [name, tier, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, tier_of=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][0] == name:
                # a same-named layer called from inside itself is one span
                return fn(*args, **kwargs)
            if tier_of is not None:
                tier = tier_of(args)
            else:
                tier = spans[parent][1] if parent >= 0 else ""
            rec = [name, tier, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
        return traced

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,tier,start_s,end_s,parent\n")
            for i, (name, tier, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{tier},{t0:.9f},{t1:.9f},{parent}\n")


def install_tracer(tracer, probe, mode):
    """Span every layer boundary the per-layer metrics need."""
    wrap = tracer.wrap

    def tier_of_step(args):
        return "coarse" if args[0] is probe.setup.simulator else "fine"

    def span(owner, attr, name, tier_of=None):
        _rebind(owner, attr, lambda fn: wrap(name, fn, tier_of))

    # set-up: build_case resolves its constructors through mmfsim.cases, and
    # SSP spawning resolves its own through mmfsim.coupling
    span(cases, "build_box_mesh", "grid.build_box_mesh")
    span(cases, "build_reference", "dynamics.build_reference")
    span(cases, "spawn_ssp_instances", "coupling.spawn_ssp_instances")
    span(coupling, "build_box_mesh", "grid.build_box_mesh")
    span(coupling, "build_reference", "dynamics.build_reference")
    span(driver, "build_case", "cases.build_case")
    # stepping: Simulator.step resolves its layers through mmfsim.coupling,
    # step_ark2 resolves gmres_solve through mmfsim.timeint
    span(driver, "mmf_step", "coupling.mmf_step")
    span(coupling, "step_ark2", "timeint.step_ark2")
    span(coupling, "evaluate_rhs", "dynamics.evaluate_rhs")
    span(coupling, "linear_operator", "timeint.linear_operator")
    span(coupling, "apply_microphysics", "microphysics.apply_microphysics")
    span(coupling, "apply_filter", "dynamics.apply_filter")
    span(timeint, "gmres_solve", "timeint.gmres_solve")
    for op in ("grad", "div", "laplacian"):
        span(SemOps, op, f"operators.{op}")
    # driver: snapshot files, CSV writes and per-step diagnostics
    span(driver, "write_snapshot", "driver.write_snapshot")
    for meth in ("__init__", "row", "truncate_marker", "close"):
        span(driver._CsvWriter, meth, "driver.csv")
    for fn in ("compute_kinetic_energy", "_total_water", "_precip_mean",
               "integrate"):
        span(driver, fn, "driver.diagnostics")
    span(Simulator, "step", "coupling.sim_step", tier_of_step)
    # installed last, so these timers sit outside the spans they share
    _hook_build_case(probe)
    _hook_coarse_step(probe, mode)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

TIERS = ("coarse", "fine")


def _aggregate(spans):
    """(name, tier) -> [calls, total s, self s]; plus parent-name counts."""
    child_s = [0.0] * len(spans)
    for name, tier, t0, t1, parent in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    agg = {}
    under = {}
    for i, (name, tier, t0, t1, parent) in enumerate(spans):
        for key in ((name, tier), (name, "*")):
            a = agg.setdefault(key, [0, 0.0, 0.0])
            a[0] += 1
            a[1] += t1 - t0
            a[2] += (t1 - t0) - child_s[i]
        pname = spans[parent][0] if parent >= 0 else ""
        under[(name, tier, pname)] = under.get((name, tier, pname), 0) + 1
    return agg, under


def layer_metrics(tracer, probe, out_dir):
    """Per-layer metrics, name -> (value, unit); see perfbench/README.md."""
    agg, under = _aggregate(tracer.spans)
    setup, nsteps = probe.setup, len(probe.step_s)
    meshes = {"coarse": setup.simulator.mesh}
    if setup.is_mmf:
        meshes["fine"] = setup.instances[0].sim.mesh
    n_p = setup.simulator.mesh.orders[0] + 1
    m = {}

    def get(name, tier="*"):
        return agg.get((name, tier), (0, 0.0, 0.0))

    def put(name, value, unit):
        m[name] = (value, unit)

    def us_per(total, calls, items):
        return 1e6 * total / (calls * items) if calls else 0.0

    for name in ("cases.build_case", "grid.build_box_mesh",
                 "dynamics.build_reference", "coupling.spawn_ssp_instances"):
        put(f"{name}.s", get(name)[1], "s")
    put("coupling.mmf_step.self_ms",
        1e3 * get("coupling.mmf_step")[2] / nsteps, "ms/step")
    for t in TIERS:
        mesh = meshes.get(t)
        npts, ncols = (mesh.npts, mesh.ncols) if mesh else (0, 0)
        calls, total, _ = get("coupling.sim_step", t)
        put(f"coupling.sim_step.{t}.calls", calls / nsteps, "1/step")
        put(f"coupling.sim_step.{t}.ms", 1e3 * total / nsteps, "ms/step")
        # modelled, not measured: the cost model's per-point kernel over
        # the tier's element-local points, per step it took
        flop = (calls * mesh.nelem * n_p ** mesh.dim * (FLOP_A * n_p + FLOP_B)
                if calls else 0.0)
        put(f"complexity.model_gflops_per_s.{t}",
            flop / total / 1e9 if calls else 0.0, "GFLOP/s")

        calls, total, self_s = get("timeint.step_ark2", t)
        put(f"timeint.step_ark2.{t}.self_ms", 1e3 * self_s / nsteps,
            "ms/step")
        put(f"timeint.step_ark2.{t}.step_share", total / sum(probe.step_s),
            "1")
        calls, total, self_s = get("timeint.gmres_solve", t)
        matvecs = under.get(("timeint.linear_operator", t,
                             "timeint.gmres_solve"), 0)
        put(f"timeint.gmres_solve.{t}.calls", calls / nsteps, "1/step")
        put(f"timeint.gmres_solve.{t}.matvecs_per_solve",
            matvecs / calls if calls else 0.0, "1/solve")
        put(f"timeint.gmres_solve.{t}.self_ms", 1e3 * self_s / nsteps,
            "ms/step")
        calls, total, _ = get("timeint.linear_operator", t)
        put(f"timeint.linear_operator.{t}.calls", calls / nsteps, "1/step")
        put(f"timeint.linear_operator.{t}.us_per_point",
            us_per(total, calls, npts), "us")

        calls, total, self_s = get("dynamics.evaluate_rhs", t)
        put(f"dynamics.evaluate_rhs.{t}.calls", calls / nsteps, "1/step")
        put(f"dynamics.evaluate_rhs.{t}.self_ms", 1e3 * self_s / nsteps,
            "ms/step")
        put(f"dynamics.evaluate_rhs.{t}.us_per_point",
            us_per(total, calls, npts), "us")
        put(f"dynamics.apply_filter.{t}.ms",
            1e3 * get("dynamics.apply_filter", t)[1] / nsteps, "ms/step")

        calls, total, _ = get("microphysics.apply_microphysics", t)
        put(f"microphysics.apply_microphysics.{t}.calls", calls / nsteps,
            "1/step")
        put(f"microphysics.apply_microphysics.{t}.ms", 1e3 * total / nsteps,
            "ms/step")
        put(f"microphysics.apply_microphysics.{t}.us_per_column",
            us_per(total, calls, ncols), "us")
    for op in ("grad", "div", "laplacian"):
        calls, total, _ = get(f"operators.{op}")
        put(f"operators.{op}.calls", calls / nsteps, "1/step")
        put(f"operators.{op}.ms", 1e3 * total / nsteps, "ms/step")
    snaps, total, _ = get("driver.write_snapshot")
    put("driver.output.s", total + get("driver.csv")[1], "s")
    put("driver.output.bytes", float(sum(
        os.path.getsize(os.path.join(out_dir, f))
        for f in os.listdir(out_dir))), "B")
    put("driver.write_snapshot.ms", 1e3 * total / snaps, "ms")
    put("driver.diagnostics.ms",
        1e3 * get("driver.diagnostics")[1] / nsteps, "ms/step")
    return m


def span_counts(tracer):
    """Exact call totals the span-coverage check compares to closed forms."""
    agg, _ = _aggregate(tracer.spans)
    count = lambda name, tier="*": agg.get((name, tier), [0])[0]
    return {
        "sim_step": count("coupling.sim_step"),
        "sim_step_fine": count("coupling.sim_step", "fine"),
        "step_ark2": count("timeint.step_ark2"),
        "gmres_solve": count("timeint.gmres_solve"),
        "evaluate_rhs": count("dynamics.evaluate_rhs"),
    }


def main(argv):
    spec = json.loads(argv[1])
    probe = Probe()
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install_tracer(tracer, probe, spec["mode"])
    else:
        _hook_build_case(probe)
        _hook_coarse_step(probe, spec["mode"])

    cfg = driver.RunConfig(
        mode=spec["mode"], case=spec["case"], preset="desk",
        tier=spec["tier"], seed=spec["seed"], workers=1,
        duration=spec["duration"],
        snapshot_interval=spec["snapshot_interval"],
        output_dir=spec["output_dir"])
    if spec.get("setup_repeats"):
        probe.stop_after_setup = True
        samples = []
        for _ in range(spec["setup_repeats"]):
            try:
                driver.run(cfg)
            except SetupDone:
                samples.append((probe.setup_s, probe.setup_scaled_s))
            else:
                return 1
        print(json.dumps({"returncode": 0, "setup_samples": samples}))
        return 0
    rc = driver.run(cfg)
    loop_end = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"returncode": rc, "peak_rss_mb": peak_rss_mb}
    if probe.setup is not None:
        # the stepping loop runs from the end of set-up to the return of run
        result["setup_s"] = probe.setup_s
        result["setup_scaled_s"] = probe.setup_scaled_s
        result["loop_s"], result["loop_scaled_s"] = probe.loop_times(loop_end)
        result["step_s"] = probe.step_s
        result["step_scaled_s"] = probe.step_scaled_s
        result["dt"] = probe.setup.dt
        sim = probe.setup.simulator
        result["mass_base"] = integrate(sim.mesh, sim.reference.rho0)
        result["instances"] = len(probe.setup.instances or ())
        result["substeps"] = probe.setup.substeps or 0
    if tracer is not None and rc == 0:
        result["layers"] = layer_metrics(tracer, probe, spec["output_dir"])
        result["span_counts"] = span_counts(tracer)
        tracer.write(spec["spans_path"])
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
