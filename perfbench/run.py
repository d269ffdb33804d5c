"""mmfsim benchmark: desk workloads through `mmfsim.driver.run`.

Usage (from the repository root):

    python3 perfbench/run.py --workload squall_mmf --seed 1 --seconds 30 \
        --trace 0

Each workload is run as a series of fresh, single-threaded child
processes (`perfbench/child.py`), one `mmfsim run` each, one after
another, until `--seconds` of wall time have been spent (at least
MIN_RUNS runs at the given seed). An mmf workload first makes one
untraced run at the reference seed, whose final diagnostics row is
compared with `perfbench/reference.json`. Every run's outputs are
checked. With `--trace 0` the runs are untimed apart from set-up and one
timer per coarse step, and the end-to-end metrics are reported, their
times scaled to a reference CPU speed by calibration kernels timed
beside each of them (see child.py; the unscaled wall figures are printed
too); with
`--trace 1` untraced and traced runs alternate, and the per-layer
metrics come from the traced ones. Every metric is printed by name with its unit; the last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")

# Each workload is one desk-preset run configuration; `duration` is the
# simulated seconds of one run. Standard-mode runs ignore the seed, which
# only perturbs the embedded grids.
WORKLOADS = {
    # 2D coupled: fine-tier IMEX substeps and GMRES dominate
    "squall_mmf": dict(case="squall", mode="mmf", tier="coarse",
                       duration=16.0, snapshot_interval=0.0),
    # 3D coupled: coarse step plus many small-array calls on 6 SSPs
    "supercell_mmf": dict(case="supercell", mode="mmf", tier="coarse",
                          duration=60.0, snapshot_interval=0.0),
    # one large standard grid: kernel throughput and snapshot I/O
    "squall_fine": dict(case="squall", mode="standard", tier="fine",
                        duration=6.0, snapshot_interval=0.4),
}

MIN_RUNS = 2            # same-seed repeats to compare byte for byte
SETUP_REPEATS = 20      # set-ups per set-up-only child, the first cold
CHILD_TIMEOUT_S = 60.0
MASS_DRIFT_BOUND = 1e-9  # acceptance check 04, relative to the rho0 integral
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.pop("MMFSIM_OUTPUT_DIR", None)  # would redirect the run's outputs
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(spec):
    """Run one child to completion; returns its result dict."""
    os.makedirs(spec["output_dir"])
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"returncode": -1, "error": "timed out", "spec": spec,
                "wall_s": time.monotonic() - t0}
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        res = {"error": proc.stderr.strip()[-2000:]}
    res["returncode"] = proc.returncode
    res["spec"] = spec
    res["wall_s"] = time.monotonic() - t0
    return res


# ---------------------------------------------------------------------------
# output checks

def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def check_snapshot(path):
    """The .meta sidecar's file and per-field sha256 match the snapshot."""
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path + ".meta", encoding="ascii") as fh:
        meta = [line.split() for line in fh if line.strip()]
    problems = []
    want = {m[1]: m[3] for m in meta if m[0] == "field"}
    file_sha = [m[1] for m in meta if m[0] == "sha256"]
    if file_sha != [_sha256(blob)]:
        problems.append(f"{os.path.basename(path)}: file sha256 mismatch")
    mark = b"end-header\n"
    pos = blob.find(mark)
    header = dict(line.split(" ", 1)
                  for line in blob[:pos].decode("ascii").splitlines()[1:])
    nbytes = 8 * int(header["npts"])
    payload = blob[pos + len(mark):]
    for k, name in enumerate(header["fields"].split()):
        if want.get(name) != _sha256(payload[k * nbytes:(k + 1) * nbytes]):
            problems.append(f"{os.path.basename(path)}: field {name} "
                            "sha256 mismatch")
    return problems


def read_diagnostics(out_dir):
    path = os.path.join(out_dir, "diagnostics.csv")
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    names = lines[0].split(",")
    rows = [dict(zip(names, map(float, line.split(","))))
            for line in lines[1:] if not line.startswith("#")]
    return rows, any(line.startswith("#") for line in lines)


def compare_final_row(row, ref):
    """Final diagnostics row against the recorded reference values."""
    problems = []
    rtol, atol = ref["rtol"], ref["atol"]
    for name, want in ref["final"].items():
        got = row[name]
        if abs(got - want) > rtol * abs(want) + atol:
            problems.append(f"final {name} {got!r} differs from reference "
                            f"{want!r} by more than {rtol:g} relative + "
                            f"{atol:g}")
    return problems


def check_run(res, ref):
    """Problems with one run's outputs; empty when the run passes."""
    if res["returncode"] != 0 or "error" in res:
        return [f"exit code {res['returncode']}: {res.get('error', '')}"]
    if res["spec"].get("setup_repeats"):
        return []
    out_dir = res["spec"]["output_dir"]
    problems = []
    snaps = sorted(f for f in os.listdir(out_dir) if f.endswith(".dat"))
    if "snapshot_final.dat" not in snaps:
        problems.append("no snapshot_final.dat")
    for name in snaps:
        problems += check_snapshot(os.path.join(out_dir, name))
    rows, truncated = read_diagnostics(out_dir)
    if truncated:
        problems.append("diagnostics.csv is truncated")
    drift = abs(rows[-1]["total_mass"] - rows[0]["total_mass"]) \
        / res["mass_base"]
    if not drift < MASS_DRIFT_BOUND:
        problems.append(f"density-mass drift {drift:.2e} >= "
                        f"{MASS_DRIFT_BOUND:g}")
    if ref is not None:
        problems += compare_final_row(rows[-1], ref)
    if res.get("span_counts") is not None:
        problems += check_span_counts(res)
    return problems


def check_span_counts(res):
    """Exact call totals against the closed forms of the scheme."""
    c = res["span_counts"]
    steps = len(res["step_s"])
    fine = steps * res["instances"] * res["substeps"]
    expect = {
        "sim_step_fine": fine,
        "sim_step": steps + fine,
        "step_ark2": c["sim_step"],
        "gmres_solve": 2 * c["step_ark2"],
        "evaluate_rhs": 3 * c["step_ark2"],
    }
    return [f"span coverage: {k} = {c[k]}, expected {v}"
            for k, v in expect.items() if c[k] != v]


def final_snapshot_sha(res):
    path = os.path.join(res["spec"]["output_dir"], "snapshot_final.dat")
    with open(path, "rb") as fh:
        return _sha256(fh.read())


# ---------------------------------------------------------------------------
# the measurement

def spec_for(name, seed, out_dir, trace=False):
    return dict(WORKLOADS[name], seed=seed, output_dir=out_dir, trace=trace,
                spans_path=os.path.join(out_dir, "spans.csv"))


def measure(name, seed, seconds, trace, ref_seed):
    """Runs, one after another, until `seconds` have passed.

    `ref_seed`, if not None, gets one untraced run first. Then every
    untraced run is preceded by a set-up-only child, which adds
    SETUP_REPEATS set-up samples for the price of one process start;
    traced, untraced and traced runs at `seed` alternate. Returns
    (runs, set-up-only children).
    """
    runs, setups = [], []
    t0 = time.monotonic()

    def add(run_seed, traced):
        if not trace:
            out_dir = os.path.join(WORK, name, f"setup{len(setups):02d}")
            setups.append(run_child(dict(spec_for(name, run_seed, out_dir),
                                         setup_repeats=SETUP_REPEATS)))
        out_dir = os.path.join(WORK, name, f"run{len(runs):02d}")
        runs.append(run_child(spec_for(name, run_seed, out_dir, traced)))

    if ref_seed is not None:
        add(ref_seed, False)
    first = len(runs)
    while True:
        n = len(runs) - first
        add(seed, trace and n % 2 == 1)
        n += 1
        elapsed = time.monotonic() - t0
        enough = n % 2 == 0 if trace else n >= MIN_RUNS
        if enough and elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs, setups


def loop_rate(run, key="loop_scaled_s"):
    """Simulated seconds per wall second of the whole stepping loop, with
    its diagnostics and output; scaled to the reference speed unless `key`
    is "loop_s"."""
    return len(run["step_s"]) * run["dt"] / run[key]


def end_to_end(runs, setups):
    """Medians over the untraced runs, in seconds at the calibration's
    reference speed; `setups` are (wall, scaled) set-up seconds."""
    med = statistics.median
    steps = [s for r in runs for s in r["step_scaled_s"]]
    rates = [loop_rate(r) for r in runs]
    print(f"step_s_p50 over {len(steps)} coarse steps, sim_s_per_wall_s "
          f"over {len(rates)} runs, setup_s over {len(setups)} set-ups")
    # the highest percentile with at least ten steps beyond it
    hi = int(100 * (1 - 10 / len(steps)))
    if hi > 50:
        q = statistics.quantiles(steps, n=100, method="inclusive")[hi - 1]
        print(f"step_s p{hi} = {q:.6g} s")
    raw_steps = [s for r in runs for s in r["step_s"]]
    print(f"unscaled wall time: step_s_p50 = {med(raw_steps):.6g} s, "
          f"sim_s_per_wall_s = "
          f"{med([loop_rate(r, 'loop_s') for r in runs]):.6g} s/s, "
          f"setup_s = {med([w for w, _ in setups]):.6g} s; host speed "
          f"(reference calibration / measured) median "
          f"{med([x / w for w, x in zip(raw_steps, steps)]):.4f}")
    return {
        "sim_s_per_wall_s": (med(rates), "s/s"),
        "step_s_p50": (med(steps), "s"),
        "setup_s": (med([x for _, x in setups]), "s"),
        "peak_rss_mb": (med([r["peak_rss_mb"] for r in runs]), "MB"),
    }


def per_layer(traced, pairs):
    """Medians over traced runs; `pairs` are (untraced, traced) runs made
    one after the other at one seed, for the throughput tracing costs."""
    metrics = {k: (statistics.median([r["layers"][k][0] for r in traced]),
                   unit)
               for k, (_, unit) in traced[0]["layers"].items()}
    overhead = [1.0 - loop_rate(t) / loop_rate(u) for u, t in pairs]
    print(f"trace.overhead_frac median over {len(pairs)} untraced/traced "
          f"pairs: {', '.join(f'{x:.4f}' for x in overhead)}")
    metrics["trace.overhead_frac"] = (statistics.median(overhead), "1")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mmfsim", "driver.py")):
        print(f"error: no mmfsim sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="ascii") as fh:
        ref = json.load(fh)[args.workload]
    if ref["duration"] != WORKLOADS[args.workload]["duration"]:
        print("error: reference.json was recorded over another duration; "
              "run perfbench/record_reference.py", file=sys.stderr)
        return 2

    shutil.rmtree(os.path.join(WORK, args.workload), ignore_errors=True)
    # the seed does not enter a standard run, so every run is checked
    # against the reference; an mmf workload gets one reference-seed run
    standard = WORKLOADS[args.workload]["mode"] == "standard"
    runs, setups = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), None if standard else ref["seed"])
    checked = runs + setups
    problems = [check_run(r, ref if standard or r["spec"]["seed"] == ref["seed"]
                          else None) for r in checked]
    # same-seed repeats, traced or not, must give byte-identical output
    first = {}
    for r, p in zip(runs, problems):
        if not p:
            sha = final_snapshot_sha(r)
            if first.setdefault(r["spec"]["seed"], sha) != sha:
                p.append("snapshot_final.dat differs from the first run "
                         "of the same seed")
    passed = [r for r, p in zip(runs, problems) if not p]
    failed = [(r, p) for r, p in zip(checked, problems) if p]
    with open(os.path.join(WORK, args.workload, "runs.json"), "w",
              encoding="ascii") as fh:
        json.dump([dict(r, problems=p) for r, p in zip(checked, problems)],
                  fh)
    for r in passed:
        print(f"run {os.path.basename(r['spec']['output_dir'])}: "
              f"seed={r['spec']['seed']} traced={int(r['spec']['trace'])} "
              f"steps={len(r['step_s'])} loop_s={r['loop_s']:.3f} "
              f"scaled {r['loop_scaled_s']:.3f} setup_s={r['setup_s']:.4f} "
              f"scaled {r['setup_scaled_s']:.4f} wall_s={r['wall_s']:.2f}")
    for r, p in failed:
        print(f"FAILED run {r['spec']['output_dir']}: " + "; ".join(p))

    metrics = {}
    untraced = [r for r in passed if not r["spec"]["trace"]]
    traced = [r for r in passed if r["spec"]["trace"]]
    if args.trace:
        pairs = [(u, t) for u, t in zip(passed, passed[1:])
                 if t["spec"]["trace"] and not u["spec"]["trace"]
                 and t["spec"]["seed"] == u["spec"]["seed"]]
        if pairs:
            metrics = per_layer(traced, pairs)
    elif untraced:
        samples = [(r["setup_s"], r["setup_scaled_s"]) for r in untraced] + [
            tuple(x) for r, p in zip(setups, problems[len(runs):]) if not p
            for x in r["setup_samples"]]
        metrics = end_to_end(untraced, samples)
    print(f"workload = {args.workload}, seed = {args.seed}, "
          f"runs = {len(checked)}, traced = {len(traced)}")
    print(f"failed_frac = {len(failed) / len(checked):.4f} "
          f"({len(failed)} of {len(checked)} runs)")
    for k, (v, unit) in metrics.items():
        print(f"{k} = {v:.6g} {unit}")
    print(json.dumps({
        "correct": not failed and bool(metrics),
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
