"""Record the reference final diagnostics rows in perfbench/reference.json.

Run from the repository root, only after a deliberate change to the
numerics, and say so in the change that commits the new values:

    python3 perfbench/record_reference.py

Every workload is recorded over its timed duration at REFERENCE_SEED.
The seed does not enter a standard-mode run, so all of its runs are
compared with the reference; an mmf invocation makes one timed run at
REFERENCE_SEED for the comparison, so the fine-tier results of every
coarse step reach the compared row through the forcing and residuals.
"""

import json
import os
import shutil

from run import HERE, WORK, WORKLOADS, check_run, read_diagnostics, \
    run_child, spec_for

REFERENCE_SEED = 0
RTOL = 1e-6   # admits reordered sums; a changed scheme moves these by far more
ATOL = 1e-12  # far below any physical value in the row, e.g. rain onset


def main():
    refs = {}
    for name, wl in WORKLOADS.items():
        out_dir = os.path.join(WORK, "reference", name)
        shutil.rmtree(out_dir, ignore_errors=True)
        res = run_child(spec_for(name, REFERENCE_SEED, out_dir))
        problems = check_run(res, None)
        if problems:
            raise SystemExit(f"{name}: " + "; ".join(problems))
        rows, _ = read_diagnostics(out_dir)
        # total mass is held to the drift bound instead
        final = {k: v for k, v in rows[-1].items() if k != "total_mass"}
        refs[name] = {"seed": REFERENCE_SEED, "duration": wl["duration"],
                      "rtol": RTOL, "atol": ATOL, "final": final}
        print(name, final)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="ascii") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
