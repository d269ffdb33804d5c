"""Command-line entry points: run, analyze, diff-snapshots."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import driver
from .errors import Interval, check


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mmfsim",
        description="Multiscale moist atmospheric simulator (coarse grid "
                    "with embedded fine grids) and its cost analyzer.")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a configured simulation")
    runp.add_argument("--config", required=True, help="flat key=value file")
    runp.add_argument("--preset", choices=("desk", "full"),
                      help="override run.preset")
    runp.add_argument("--mode", choices=("standard", "mmf"),
                      help="override run.mode")
    runp.add_argument("--workers", type=int,
                      help="accepted for compatibility, no effect: embedded "
                           "grids step serially in instance order")
    runp.add_argument("--seed", type=int, help="override run.seed")
    runp.add_argument("--output-dir", help="override run.output_dir")

    ana = sub.add_parser("analyze", help="evaluate the closed-form cost model")
    ana.add_argument("--config", required=True,
                     help="config file with cost.* keys")

    diff = sub.add_parser("diff-snapshots",
                          help="compare two snapshot files field by field")
    diff.add_argument("a")
    diff.add_argument("b")
    diff.add_argument("--tol", type=float, default=0.0,
                      help="max allowed per-field abs difference (>= 0); NaN "
                           "in a field counts as a difference")
    return p


def _cmd_run(args) -> int:
    # replace() re-runs RunConfig's validation on the overridden values
    given = {k: getattr(args, k) for k in ("preset", "mode", "workers", "seed", "output_dir")
             if getattr(args, k) is not None}
    return driver.run(dataclasses.replace(driver.read_config(args.config), **given))


def _cmd_analyze(args) -> int:
    return driver.run(dataclasses.replace(driver.read_config(args.config), mode="analyze"))


def _cmd_diff(args) -> int:
    check("--tol", args.tol, float, Interval("[0, inf]"))
    rows = driver.diff_snapshots(args.a, args.b)
    diffs = [d for _, d in rows]
    # max() skips a NaN that is not first; a field that differs by NaN differs
    worst = math.nan if any(map(math.isnan, diffs)) else max(diffs)
    for name, d in rows:
        print(f"{name:<10} max|diff| = {d:.17e}")
    if worst <= args.tol:
        print(f"PASS (worst {worst:.3e} <= tol {args.tol:.3e})")
        return 0
    print(f"DIFFER (worst {worst:.3e} > tol {args.tol:.3e})")
    return 1


_COMMANDS = {"run": _cmd_run, "analyze": _cmd_analyze, "diff-snapshots": _cmd_diff}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return driver.exit_code_of(_COMMANDS[args.command], args)


if __name__ == "__main__":
    sys.exit(main())
