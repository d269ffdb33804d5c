"""Smoke test of the committed benchmark harness, `tools/layer_bench.py`:
it reaches into `plan`, `operators`, `grid` and the cases by name, so a
rename there must fail here rather than in the next BENCH run."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import mmfsim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_layer_bench_loads_this_tree_and_makes_every_call():
    """`_load` imports this tree's src and returns the calls that
    `layers` times; each runs once, after its prepare step, in a child
    process, because `_load` swaps the mmfsim modules of its process."""
    src = os.path.dirname(os.path.dirname(mmfsim.__file__))
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {os.path.join(ROOT, 'tools')!r})\n"
        "import layer_bench\n"
        f"calls = layer_bench._load({src!r})\n"
        "for call in calls.values():\n"
        "    layer_bench._prepare(call)\n"
        "    call()\n"
        "print(json.dumps(sorted(calls)))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    keys = set(json.loads(done.stdout.strip().splitlines()[-1]))
    assert {f"{w}.desk.build_case_us" for w in ("supercell_mmf", "squall_mmf", "squall_fine")} <= keys
    for grid in ("squall_ssp", "supercell_ssp"):
        assert {f"{grid}.{state}.{layer}_us" for state in ("dry", "patchy", "cloudy")
                for layer in ("kessler", "evaluate_rhs")} <= keys
    for grid in ("squall_ssp", "supercell_ssp", "squall_fine"):
        assert {f"{grid}.dry.{layer}_us" for layer in ("linear_operator", "matvec", "solves",
                                                       "substep")} <= keys
    assert {f"squall_fine.dry.{layer}_us" for layer in ("evaluate_rhs", "filter")} <= keys
    assert {f"{grid}.dry.along_{axis}{rows}_us" for grid in ("squall_ssp", "squall_fine")
            for axis in "xz" for rows in (2, 6)} <= keys
    assert "squall_fine.dry.along_x7_us" in keys


def test_compare_takes_a_list_of_seeds(monkeypatch):
    """`compare --e2e-seed 1,3` runs its end-to-end pairs per seed; the
    list keeps its order and refuses repeats, negatives and non-integers."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import layer_bench
    assert layer_bench.seed_list("1,3") == [1, 3]
    assert layer_bench.seed_list("3, 1") == [3, 1]
    for bad in ("1,1", "-1", "1,x", "", "1,,3", "1.5"):
        with pytest.raises(argparse.ArgumentTypeError):
            layer_bench.seed_list(bad)
    runs = []
    monkeypatch.setattr(layer_bench, "compare", runs.append)
    args = ["compare", "--before", "b", "--after", "a", "--topic", "t"]
    layer_bench.main(args)
    layer_bench.main(args + ["--e2e-seed", "1,3"])
    assert [r.e2e_seed for r in runs] == [[1], [1, 3]]
    with pytest.raises(SystemExit):
        layer_bench.main(args + ["--e2e-seed", "1,1"])
