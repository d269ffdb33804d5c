"""Run every workload over several seeds and write perfbench/baseline.json.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 [--seconds S] [--commit ID]

Each workload gets one untraced invocation of run.py per seed and one
traced invocation (at the first seed), one after another, never
concurrently. For every end-to-end metric the file records the median,
the quartiles, the spread (interquartile range over median) and the
bound from BENCHMARK.json; for the
per-layer metrics, the traced values. Machine facts and solver settings
are recorded with them, so later changes compare against named numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, child_env


def invoke(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the "
                         f"checks\n{out}")
    print(workload, seed, trace, {k: v["value"] for k, v in
                                  res["metrics"].items()}, flush=True)
    return res


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "values": values}


def machine_facts():
    probe = ("import json, numpy, scipy; "
             "from mmfsim.timeint import GmresConfig; g = GmresConfig(); "
             "print(json.dumps({'numpy': numpy.__version__, "
             "'scipy': scipy.__version__, 'gmres_tol': g.tol, "
             "'gmres_restart': g.restart, 'gmres_maxiter': g.maxiter}))")
    facts = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, check=True).stdout)
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return dict(nproc=os.cpu_count(), cpu_model=model,
                python=sys.version.split()[0], threads_per_process=1,
                **facts)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--commit", default="", help="commit measured")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    why = {w["name"]: w["why"] for w in bench["workloads"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = {}
    for name in WORKLOADS:
        runs = [invoke(name, s, args.seconds, 0) for s in seeds]
        traced = invoke(name, seeds[0], args.seconds, 1)
        workloads[name] = {
            "why": why[name],
            "end_to_end": {k: dict(summary([r["metrics"][k]["value"]
                                            for r in runs]),
                                   unit=runs[0]["metrics"][k]["unit"],
                                   bound=bound[k])
                           for k in runs[0]["metrics"]},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "per_layer": {k: v["value"] for k, v in
                          traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w",
              encoding="ascii") as fh:
        json.dump({"commit": args.commit, "seeds": seeds,
                   "run_seconds": args.seconds,
                   "machine": machine_facts(), "workloads": workloads},
                  fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
