"""Per-call times of Kessler and S(q) on the desk embedded grids, and a
before/after comparison of two source trees that writes a BENCH file.

    python3 tools/layer_bench.py layers [--src DIR [--src DIR ...]]
    python3 tools/layer_bench.py cloudrun [--src DIR] [--steps 600]
    python3 tools/layer_bench.py compare --before TREE --after TREE \\
        --topic implicit_stage [--rounds 7] [--e2e-pairs 10] [--e2e-seed 1,3] \\
        [--traced-pairs 3] [--cloud-steps 600] \\
        [--workloads squall_mmf,supercell_mmf,squall_fine]

`layers` times `apply_microphysics` (into a spare state, so every call
sees the same input) and `evaluate_rhs` (on the state copied into a
stage row of the mesh's step plan before each timing block, as
`step_ark2` hands it over, into the plan's tendency) on the embedded
grid of desk squall `mmf` (4840 points) and desk supercell `mmf` (784
points), each in three states:
- `dry`: the embedded grid's first state as spawned, cloud-free and
  subsaturated, as every benchmark workload stays;
- `patchy`: that state with a cloud blob over a few per cent of the
  points, saturated vapor in it and rain in the columns beneath;
- `cloudy`: cloud, rain and supersaturated vapor at every point.
On the dry state it also times the implicit stage's layers: one
`linear_operator` call on the coupled rows into the plan's, as GMRES
makes it (`linear_operator_us`); one GMRES matvec, the operator that
`solve_implicit` hands GMRES applied to a unit vector (`matvec_us`);
the two GMRES solves of one substep, captured from a step and made
again into spare arrays (`solves_us`); and the whole substep,
`Simulator.step` (`substep_us`). On the desk squall `fine` grid (252 x
121 points, `squall_fine`) it times the same layers and
`evaluate_rhs_us` of the dry first state, where a substep is a whole
step. On both squall grids it times the weak
derivative along x and along z of the dry state's first 2 and 6 rows
into spare rows, bound once as the step plan binds its own products
(`along_x2_us`, `along_x6_us`, `along_z2_us`, `along_z6_us`), and on
the squall fine grid the modal filter of the dry state's rows into a
spare state (`filter_us`), as each step applies it, and its x matrix
alone on the 7 rows into spare rows (`along_x7_us`). It also times
`build_case` of desk supercell `mmf`, squall `mmf` and squall `fine`
(`supercell_mmf.desk.build_case_us`, `squall_mmf.desk.build_case_us`,
`squall_fine.desk.build_case_us`), the set-up that perfbench's `setup_s`
measures. Before any of that,
per tree and alternating, `IMPORT_REPEATS` fresh child processes import
`mmfsim.cli` and report the wall time of the import and their peak
resident memory after it (`ru_maxrss`); the medians go under "imports"
as `import_s` and `import_rss_mb`.
Each `--src` names the `src` directory of a tree to import mmfsim from
(default: this tree's). The trees are imported side by side in this
process and their timing blocks alternate, so a drift in host speed
hits them alike. It prints one JSON object: under "us", per tree and
(grid, state, layer), the median over blocks of the mean us per call;
under "ratio_to_first", per tree, the median over adjacent block pairs
of its time over the first tree's.

`cloudrun` steps desk squall `coarse` (the case of acceptance check
14, which forms cloud and then rain) `--steps` times and prints the
sha256 over the state and the precipitation after every step, with the
shares of the points that hold cloud and rain at the end.

`compare` runs `layers` on both trees in a fresh, single-threaded child
process, `--rounds` times, alternating which tree goes first, and then,
per workload, per seed S of the comma-separated `--e2e-seed` list and in
each tree's own directory, `--e2e-pairs` alternating pairs of
`perfbench/run.py --workload W --seed S --seconds 30 --trace 0`, and at
the list's first seed `--traced-pairs` alternating pairs of the same
with `--seconds 15 --trace 1`. Each end-to-end pair also compares the
sha256 of every run's `snapshot_final.dat` between the trees, seed by
seed (perfbench's reference seed included). The layer rounds, and what
follows, run once for all seeds. Last it runs the
acceptance gate (`tests/test_acceptance.py`) and `cloudrun` in each tree
and compares their printed lines and digests. Every child runs with one
BLAS thread. The result goes to `BENCH_<topic>.json` in the after tree.
"""

import argparse
import functools
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
GRIDS = {"squall_ssp": "squall", "supercell_ssp": "supercell"}
BUILDS = {"supercell_mmf": ("supercell", "mmf"), "squall_mmf": ("squall", "mmf"),
          "squall_fine": ("squall", "fine")}
ALONG_GRIDS = ("squall_ssp", "squall_fine")
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import json, resource, time; t0 = time.perf_counter(); import mmfsim.cli; "
                "t = time.perf_counter() - t0; print(json.dumps({'import_s': t, 'import_rss_mb': "
                "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))")
E2E_METRICS = {"step_s_p50": "lower", "sim_s_per_wall_s": "higher", "setup_s": "lower",
               "peak_rss_mb": "lower"}
TRACED_METRICS = ("timeint.gmres_solve.coarse.matvecs_per_solve",
                  "timeint.gmres_solve.fine.matvecs_per_solve",
                  "microphysics.apply_microphysics.fine.ms",
                  "microphysics.apply_microphysics.coarse.ms",
                  "dynamics.evaluate_rhs.fine.self_ms", "dynamics.evaluate_rhs.coarse.self_ms",
                  "operators.laplacian.ms", "operators.div.ms",
                  # layers that condensate work does not reach: the host's speed
                  "timeint.gmres_solve.fine.self_ms", "timeint.linear_operator.fine.us_per_point")


# ---------------------------------------------------------------------------
# layers: the trees side by side in one process

def _states(mesh, reference, spawned):
    """The dry, patchy and cloudy states of one embedded grid; called by
    `_load`, so mmfsim here is the tree it has just imported."""
    import numpy as np
    from mmfsim.microphysics import saturation_mixing_ratio
    from mmfsim.dynamics import equation_of_state, exner_function

    dry = spawned.copy()
    x, z = mesh.coords[:, 0], mesh.coords[:, -1]
    lx = mesh.extents[0]
    # a blob 1.5 km wide and 1 km deep at 3 km, saturated, with rain below
    r2 = ((x - 0.5 * lx) / 750.0) ** 2 + ((z - 3000.0) / 500.0) ** 2
    blob = r2 < 1.0
    patchy = dry.copy()
    rho = reference.rho0 + dry.rho_p
    theta_v = reference.theta_v0 + dry.theta_vp
    p = equation_of_state(rho, theta_v=theta_v, constants=reference.constants)
    T = theta_v * exner_function(p, reference.constants)
    q_vs = saturation_mixing_ratio(p, T, reference.constants)
    patchy.q_vp = np.where(blob, q_vs - reference.q_v0, dry.q_vp)
    patchy.q_c = np.where(blob, 1.5e-3 * (1.0 - r2), 0.0)
    patchy.q_r = np.where((np.abs(x - 0.5 * lx) < 200.0) & (z < 3000.0), 5e-4, 0.0)
    rng = np.random.default_rng(0)
    cloudy = dry.copy()
    cloudy.q_vp = 1.05 * q_vs - reference.q_v0 + 1e-3 * rng.random(mesh.npts)
    cloudy.q_c = 1e-4 + 2e-3 * rng.random(mesh.npts)
    cloudy.q_r = 1e-4 + 2e-3 * rng.random(mesh.npts)
    return {"dry": dry, "patchy": patchy, "cloudy": cloudy}


def _load(src):
    """Import mmfsim from `src` as a set of module objects of its own, and
    make the calls to time: (grid, state, layer) key -> call."""
    for name in [m for m in sys.modules if m == "mmfsim" or m.startswith("mmfsim.")]:
        del sys.modules[name]
    sys.path.insert(0, os.path.abspath(src))
    try:
        import numpy as np
        from mmfsim import timeint
        from mmfsim.cases import build_case
        from mmfsim.dynamics import evaluate_rhs, filter_field
        from mmfsim.microphysics import apply_microphysics
        from mmfsim.operators import PrognosticState
    finally:
        sys.path.pop(0)
    calls = {}
    sims = {}
    for grid, case_id in GRIDS.items():
        case = build_case(case_id, tier="mmf", preset="desk")
        sims[grid] = (case.instances[0].sim, case.dt / case.substeps)
    case = build_case("squall", tier="fine", preset="desk")
    sims["squall_fine"] = (case.simulator, case.dt)
    for grid, (sim, dt) in sims.items():
        mesh, ref, params = sim.mesh, sim.reference, sim.kessler
        sim.step(dt)  # makes the mesh's step plan
        plan = mesh.plan
        coupled = sim.state.data[:len(plan.coupled)].copy()
        calls[f"{grid}.dry.linear_operator_us"] = functools.partial(
            timeint.linear_operator, coupled, ref, mesh, out=plan.coupled)
        solves = _captured_solves(timeint, sim, dt, np)
        calls[f"{grid}.dry.solves_us"] = functools.partial(_solve_all, timeint.gmres_solve, solves)
        apply_A, b = solves[0][:2]
        calls[f"{grid}.dry.matvec_us"] = functools.partial(apply_A, b / np.linalg.norm(b))
        calls[f"{grid}.dry.substep_us"] = functools.partial(sim.step, dt)
        states = _states(mesh, ref, sim.state)
        if grid == "squall_fine":
            states = {"dry": states["dry"]}
        spare = PrognosticState.zeros(mesh)
        stage = PrognosticState.from_vector(plan.stages[0], mesh.dim)
        for name, st in states.items():
            if grid != "squall_fine":
                calls[f"{grid}.{name}.kessler_us"] = functools.partial(
                    apply_microphysics, st, ref, mesh, dt, params, out=spare)
            rhs = functools.partial(evaluate_rhs, stage, ref, mesh, out=plan.tendency)
            rhs.prepare = functools.partial(np.copyto, stage.data, st.data)
            calls[f"{grid}.{name}.evaluate_rhs_us"] = rhs
        if grid == "squall_fine":
            calls[f"{grid}.dry.filter_us"] = functools.partial(
                filter_field, mesh, states["dry"].data, sim.filter_strength, out=spare.data)
        if grid in ALONG_GRIDS:
            for d, axis in ((0, "x"), (mesh.dim - 1, "z")):
                for rows in (2, 6):
                    f = states["dry"].data[:rows].copy()
                    calls[f"{grid}.dry.along_{axis}{rows}_us"] = plan.product(
                        mesh.weak_derivative_1d[d], d)(f, np.empty(f.shape))
        if grid == "squall_fine":
            f = states["dry"].data.copy()
            calls[f"{grid}.dry.along_x7_us"] = plan.product(
                mesh.modal_filter_1d(sim.filter_strength)[0], 0)(f, np.empty(f.shape))
    for name, (case_id, tier) in BUILDS.items():
        calls[f"{name}.desk.build_case_us"] = functools.partial(
            build_case, case_id, tier=tier, preset="desk")
    return calls


def _captured_solves(timeint, sim, dt, np):
    """The two GMRES solves of one step of `sim` from its state, as the
    step made them: (operator, b, config, basis, spare out) each."""
    real, solves = timeint.gmres_solve, []

    def capture(apply_A, b, config=timeint.GmresConfig(), basis=None, out=None):
        solves.append((apply_A, np.array(b), config, basis, np.empty_like(b)))
        return real(apply_A, b, config, basis=basis, out=out)

    timeint.gmres_solve = capture
    try:
        sim.step(dt)
    finally:
        timeint.gmres_solve = real
    return solves


def _solve_all(gmres_solve, solves):
    """Make the captured solves again, into their spare arrays."""
    for apply_A, b, config, basis, out in solves:
        gmres_solve(apply_A, b, config, basis=basis, out=out)


def _prepare(call):
    """Set up the input of a timed call before a block of it, where the
    call says how (the stage row that `evaluate_rhs` reads, which another
    key's steps overwrite)."""
    prepare = getattr(call, "prepare", None)
    if prepare is not None:
        prepare()


def import_footprint(srcs, repeats=IMPORT_REPEATS):
    """Per tree, the median over `repeats` fresh one-thread child
    processes, alternating between the trees, of the wall seconds that
    `import mmfsim.cli` takes and of the child's peak resident MB after
    it."""
    runs = [[] for _ in srcs]
    for r in range(repeats):
        for k in (range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))):
            env = dict(os.environ, PYTHONPATH=os.path.abspath(srcs[k]), **THREADS)
            out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                 capture_output=True, text=True, timeout=300).stdout
            runs[k].append(json.loads(out.strip().splitlines()[-1]))
    return [{key: statistics.median(run[key] for run in tree) for key in tree[0]}
            for tree in runs]


def layers(srcs, blocks=31, target_s=0.01):
    """Per (grid, state, layer) key: per tree, the median over blocks of
    the mean us per call, and each tree's median over block pairs of its
    time over the first tree's. The trees' blocks alternate, and a ratio
    of adjacent blocks cancels a drift in host speed. Under "imports",
    per tree, `import_footprint`, measured first, in fresh children."""
    imports = import_footprint(srcs)
    trees = [_load(src) for src in srcs]
    us, ratio = [{} for _ in srcs], [{} for _ in srcs]
    for key in trees[0]:
        for calls in trees:
            _prepare(calls[key])
            for _ in range(3):
                calls[key]()
        _prepare(trees[0][key])
        t0 = time.perf_counter()
        trees[0][key]()
        n = max(1, int(target_s / max(time.perf_counter() - t0, 1e-7)))
        times = [[] for _ in srcs]
        for b in range(blocks):
            for k in (range(len(srcs)) if b % 2 == 0 else reversed(range(len(srcs)))):
                call = trees[k][key]
                _prepare(call)
                t0 = time.perf_counter()
                for _ in range(n):
                    call()
                times[k].append((time.perf_counter() - t0) / n)
        for k in range(len(srcs)):
            us[k][key] = 1e6 * statistics.median(times[k])
            ratio[k][key] = statistics.median(t / t0 for t, t0 in zip(times[k], times[0]))
    return {"us": us, "ratio_to_first": ratio, "imports": imports}


def cloud_run(src, steps):
    """Desk squall `coarse` for `steps` steps: the sha256 over the state
    and the precipitation after every step, and the shares of the points
    that hold cloud and rain at the end."""
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np
    from mmfsim.cases import build_case
    case = build_case("squall", tier="coarse", preset="desk")
    sim, h = case.simulator, hashlib.sha256()
    for _ in range(steps):
        sim.state, precip = sim.step(case.dt)
        h.update(sim.state.data.tobytes())
        if precip is not None:
            h.update(precip.tobytes())
    return {"steps": steps, "sha256": h.hexdigest(),
            "cloud_frac": round(float(np.mean(sim.state.q_c > 0.0)), 4),
            "rain_frac": round(float(np.mean(sim.state.q_r > 0.0)), 4)}


# ---------------------------------------------------------------------------
# compare: two trees, child processes only

def _run(args, cwd, check=True, timeout=3600):
    """Run args one-threaded; its stdout."""
    return subprocess.run(args, cwd=cwd, env=dict(os.environ, **THREADS), capture_output=True,
                          text=True, timeout=timeout, check=check).stdout


def _child(args, cwd):
    """Run args one-threaded; its last stdout line, as JSON."""
    return json.loads(_run(args, cwd).strip().splitlines()[-1])


def _pairs(trees, n, run):
    """n alternating pairs of run(tree key) over the two trees: per tree
    the results in pair order, and which tree went first in each pair."""
    results, first_in_pair = {k: [] for k in trees}, []
    for i in range(n):
        first = ("before", "after") if i % 2 == 0 else ("after", "before")
        first_in_pair.append(first[0])
        for k in first:
            results[k].append(run(k))
    return results, first_in_pair


def _cpu():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _summary(before, after, better):
    def quart(xs):
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        return {"median": round(med, 6), "iqr": round(q3 - q1, 6), "q1": round(q1, 6),
                "q3": round(q3, 6)}
    wins = sum((a < b) if better == "lower" else (a > b) for b, a in zip(before, after))
    b, a = statistics.median(before), statistics.median(after)
    return {"better": better, "before": quart(before), "after": quart(after),
            "change_frac": round((a - b) / b, 4), "after_better": f"{wins}/{len(before)}",
            "before_runs": [round(x, 6) for x in before],
            "after_runs": [round(x, 6) for x in after]}


def _snapshot_shas(tree, workload):
    """seed -> sha256 of snapshot_final.dat over the runs of one invocation."""
    with open(os.path.join(tree, ".bench_out", workload, "runs.json"), encoding="ascii") as fh:
        runs = json.load(fh)
    shas = {}
    for r in runs:
        path = os.path.join(r["spec"]["output_dir"], "snapshot_final.dat")
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                shas.setdefault(str(r["spec"]["seed"]), set()).add(
                    hashlib.sha256(fh.read()).hexdigest())
    return {seed: sorted(v) for seed, v in shas.items()}


def seed_list(text):
    """The seeds of a comma-separated `--e2e-seed` list, in order, once each."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of seeds: {text!r}")
    if min(seeds) < 0 or len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"expected distinct seeds >= 0: {text!r}")
    return seeds


def compare(a):
    trees = {"before": os.path.abspath(a.before), "after": os.path.abspath(a.after)}
    me = os.path.abspath(__file__)
    per_tree = {k: [] for k in trees}
    imports = {k: [] for k in trees}
    ratios, order = [], []
    for i in range(a.rounds):
        first = ("before", "after") if i % 2 == 0 else ("after", "before")
        order.append(first[0])
        args = [sys.executable, me, "layers"]
        for k in first:
            args += ["--src", os.path.join(trees[k], "src")]
        res = _child(args, cwd=ROOT)
        for k, us, imp in zip(first, res["us"], res["imports"]):
            per_tree[k].append(us)
            imports[k].append(imp)
        r = res["ratio_to_first"][1]
        ratios.append(r if first[0] == "before" else {key: 1.0 / v for key, v in r.items()})
    layer = {"method": f"tools/layer_bench.py layers with both trees imported side by side "
                       f"in one fresh one-thread child process per round, {a.rounds} rounds "
                       f"alternating which tree is loaded and timed first; per round 31 "
                       f"interleaved blocks of ~10 ms per tree. before/after: median over "
                       f"rounds of each tree's median block (mean us per call); ratio: median "
                       f"over rounds of the median over adjacent block pairs of after/before, "
                       f"which cancels the host's speed drift that moves the us figures",
             "first_in_round": order, "us_per_call": {},
             "imports": {"method": f"per round, {IMPORT_REPEATS} fresh one-thread child "
                                   f"processes per tree, alternating, each timing `import "
                                   f"mmfsim.cli` and reading its ru_maxrss after it; per tree "
                                   f"the median over rounds of the round medians"}}
    for key in imports["before"][0]:
        layer["imports"][key] = {
            k: round(statistics.median(r[key] for r in imports[k]), 4) for k in trees}
    for key in per_tree["before"][0]:
        layer["us_per_call"][key] = {
            "before": round(statistics.median(r[key] for r in per_tree["before"]), 1),
            "after": round(statistics.median(r[key] for r in per_tree["after"]), 1),
            "ratio": round(statistics.median(r[key] for r in ratios), 4),
            "ratio_rounds": [round(r[key], 4) for r in ratios]}

    e2e = {"method": "perfbench/run.py --workload W --seed S --seconds 30 --trace 0 in each "
                     "tree's directory, one after another, which runs first alternating by "
                     "pair; per workload and seed S; metrics are perfbench's (speed-scaled "
                     "times); after_better counts pairs where the change read better; iqr is "
                     "q3 - q1 of the runs; snapshot_sha_equal compares snapshot_final.dat of "
                     "every run, seed by seed, between the trees in each pair",
           "seeds": a.e2e_seed, "workloads": {}}
    workloads = a.workloads.split(",")
    for w, seed in itertools.product(workloads, a.e2e_seed if a.e2e_pairs > 0 else ()):
        def run(k, w=w, seed=seed):
            res = _child([sys.executable, "perfbench/run.py", "--workload", w, "--seed",
                          str(seed), "--seconds", "30", "--trace", "0"], cwd=trees[k])
            return res, _snapshot_shas(trees[k], w)
        pairs, first_in_pair = _pairs(trees, a.e2e_pairs, run)
        runs = {k: [res for res, _ in v] for k, v in pairs.items()}
        shas = [(b, s) for (_, b), (_, s) in zip(pairs["before"], pairs["after"])]
        equal = all(b == s and all(len(v) == 1 for v in s.values()) for b, s in shas)
        seeds = {seed for _, s in shas for seed in s}
        res = runs["before"] + runs["after"]
        entry = {"pairs": a.e2e_pairs,
                 "all_correct": all(r["correct"] for r in res),
                 "failed_runs": sum(r["failed"] for r in res),
                 "attempted_runs": sum(r["attempted"] for r in res),
                 "first_in_pair": first_in_pair,
                 "snapshot_sha_equal": equal, "snapshot_seeds": sorted(seeds)}
        for m, better in E2E_METRICS.items():
            entry[m] = _summary([r["metrics"][m]["value"] for r in runs["before"]],
                                [r["metrics"][m]["value"] for r in runs["after"]], better)
        e2e["workloads"].setdefault(w, {})[str(seed)] = entry

    traced = {"method": f"perfbench/run.py --workload W --seed {a.e2e_seed[0]} --seconds 15 "
                        f"--trace 1 in each tree's directory, {a.traced_pairs} pairs, which "
                        f"runs first alternating by pair; raw wall ms per coarse step, not "
                        f"speed-scaled, so single runs spread by +-20% on a shared host (the "
                        f"GMRES self time and linear operator per point show the host's speed "
                        f"in each run); "
                        f"correct includes perfbench's span-coverage check; matvec counts "
                        f"per solve are exact",
              "workloads": {}}
    for w in workloads if a.traced_pairs > 0 else ():
        runs, first_in_pair = _pairs(trees, a.traced_pairs, lambda k, w=w: _child(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(a.e2e_seed[0]),
             "--seconds", "15", "--trace", "1"], cwd=trees[k]))
        entry = {"first_in_pair": first_in_pair}
        for k, rs in runs.items():
            entry[k] = {"all_correct": all(r["correct"] for r in rs),
                        "failed_runs": sum(r["failed"] for r in rs)}
        for m in TRACED_METRICS:
            got = {k: [r["metrics"][m]["value"] for r in rs if m in r["metrics"]]
                   for k, rs in runs.items()}
            entry[m] = {k: {"median": round(statistics.median(v), 5) if v else None,
                            "runs": [round(x, 5) for x in v]} for k, v in got.items()}
        traced["workloads"][w] = entry

    def accept(k):
        out = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "tests/test_acceptance.py"], cwd=trees[k], check=False)
        return sorted({ln for ln in out.splitlines() if ln.startswith("ACCEPT ")})
    scoreboards = {k: accept(k) for k in trees}
    clouds = {k: _child([sys.executable, me, "cloudrun", "--src",
                         os.path.join(trees[k], "src"), "--steps", str(a.cloud_steps)],
                        cwd=ROOT) for k in trees}
    outputs = {"method": "the acceptance gate (python3 -m pytest tests/test_acceptance.py) "
                         "in each tree, its ACCEPT lines compared; and tools/layer_bench.py "
                         f"cloudrun --steps {a.cloud_steps} at each tree, a desk squall coarse "
                         "run (check 14's case) that forms cloud and rain, its sha256 over "
                         "the state and precipitation after every step compared",
               "acceptance_passed": {k: f"{sum(': PASS' in ln for ln in v)}/{len(v)}"
                                     for k, v in scoreboards.items()},
               "acceptance_lines_equal": scoreboards["before"] == scoreboards["after"],
               "acceptance_lines": scoreboards["after"],
               "cloud_run": clouds,
               "cloud_run_sha_equal": clouds["before"]["sha256"] == clouds["after"]["sha256"]}

    import numpy
    import scipy
    bench = {"topic": a.topic, "change": a.change, "parent": a.parent,
             "machine": {"cpu": _cpu(),
                         "cores": os.cpu_count(), "python": platform.python_version(),
                         "numpy": numpy.__version__, "scipy": scipy.__version__,
                         "blas_threads": 1},
             "layers": layer, "end_to_end": e2e, "traced": traced, "outputs": outputs}
    path = os.path.join(trees["after"], f"BENCH_{a.topic}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(path)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    lp = sub.add_parser("layers")
    lp.add_argument("--src", action="append",
                    help="a tree's src directory; repeat to time trees side by side "
                         "(default: this tree's)")
    cp = sub.add_parser("compare")
    cp.add_argument("--before", required=True)
    cp.add_argument("--after", required=True)
    cp.add_argument("--topic", required=True)
    cp.add_argument("--change", default="")
    cp.add_argument("--parent", default="")
    cp.add_argument("--rounds", type=int, default=7)
    cp.add_argument("--e2e-pairs", type=int, default=10)
    cp.add_argument("--e2e-seed", type=seed_list, default=[1],
                    help="comma-separated seeds; the end-to-end pairs run per seed")
    cp.add_argument("--traced-pairs", type=int, default=3)
    cp.add_argument("--cloud-steps", type=int, default=600)
    cp.add_argument("--workloads", default="squall_mmf,supercell_mmf,squall_fine")
    rp = sub.add_parser("cloudrun")
    rp.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the src directory of the tree to run (default: this tree's)")
    rp.add_argument("--steps", type=int, default=600)
    a = ap.parse_args(argv)
    if a.mode == "layers":
        print(json.dumps(layers(a.src or [os.path.join(ROOT, "src")])))
    elif a.mode == "cloudrun":
        print(json.dumps(cloud_run(a.src, a.steps)))
    else:
        compare(a)
    return 0


if __name__ == "__main__":
    sys.exit(main())
