"""The benchmark's own test.

    python3 perfbench/selftest.py [workload ...]

Run from the root of a checkout.  For each workload (default: all four) it
makes two separate traced runs with one seed and requires:
- both pass the correctness gate (which includes traced and untraced
  samples rendering the same report bytes);
- every count and ratio metric agrees exactly between the two runs;
- geometry makes no walker steps.
It also checks that a paired sample, which runs geometry suite by suite
and pipeline spin by spin, renders the same report bytes as an unsplit run,
that the metric names, units and directions in
BENCHMARK.json are the ones run.py prints, and that run.py refuses to run,
without printing a result, in a directory holding only BENCHMARK.json and
perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import run
import workloads

SEED = workloads.DEFAULT_SEED


def bench(*args, cwd="."):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_traced(workload):
    a, b = (result_of(bench("--workload", workload, "--seed", str(SEED),
                            "--seconds", "1", "--trace", "1")) for _ in range(2))
    assert a["correct"] and b["correct"], (workload, a, b)
    for name, metric in a["metrics"].items():
        if metric["unit"] != "s":
            assert metric["value"] == b["metrics"][name]["value"], (workload, name)
    if workload == "geometry":
        assert a["metrics"]["holo.walker_steps"]["value"] == 0
    print(f"ok   traced counts repeat on {workload}")


def check_declaration():
    with open("BENCHMARK.json") as f:
        decl = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in decl["per_layer"]] \
        == run.per_layer_spec()
    assert {w["name"] for w in decl["workloads"]} <= set(workloads.WORKLOADS)
    res = result_of(bench("--workload", "continuation", "--seconds", "1", "--trace", "0"))
    assert res["correct"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} \
        == {m["name"]: m["unit"] for m in decl["end_to_end"]}
    print("ok   BENCHMARK.json matches the printed metrics")


def check_paired_report(workload):
    runner = run.Runner(workload, workloads.suite_seed(SEED), time.monotonic())
    plain, paired = runner.spawn("plain"), runner.spawn("paired", "0")
    assert paired["report"] == plain["report"], workload
    print(f"ok   piecewise report of {workload} renders the same bytes as an unsplit run")


def check_refuses_without_program():
    bare = ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.mkdir(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "geometry", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   refuses to run without the program")


def main():
    check_refuses_without_program()
    check_declaration()
    for workload in ("geometry", "pipeline"):
        check_paired_report(workload)
    for workload in sys.argv[1:] or sorted(workloads.WORKLOADS):
        check_traced(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
