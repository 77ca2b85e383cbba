"""anyonstat benchmark: time to a passing verdict, per workload.

    python3 perfbench/run.py --workload pipeline --seed 6 --seconds 40 --trace 0

Run from the root of a checkout.  Every sample is a fresh single-threaded
interpreter (perfbench/worker.py) that runs the workload's suites through
`suites.run_suite` and renders the report with `cli.render_json`, so an
in-process cache never survives from one sample to the next.  Samples are
taken one at a time (a closed loop with one client) until --seconds is used
up, with at least two so that report bytes can be compared.

Every sample passes the correctness gate: the (suite, anchor, residual keys)
list must equal the one stored in workloads.py, every residual must be
inside today's tolerance (negative controls above their floor), and every
sample of one run must render byte-identical JSON.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
pass_frac).  On a shared VM the speed can drift by up to 2x within seconds, so
wall_s and setup_s are timed against a control: control/anyonstat_control,
a frozen copy of the program as it was when the benchmark was defined.  A
paired sample runs the workload piece by piece, each piece once in the
program and once in the frozen copy right after each other; wall_s is the
median of program time / frozen-copy time over the paired samples, times
the frozen copy's time on the baseline machine (CONTROL_WALL_S).  setup_s
is the same ratio for set-up.  The frozen copy runs in a child process of
the sample, so peak_rss_mb is the program's alone.  The raw times are
printed above the result line.  --trace 1 alternates traced and
untraced samples and prints the per-layer metrics of tracer.py plus
per-suite and rendering times and trace_overhead_s; the counts of all
traced samples must agree exactly.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PAIRS = 3
# Median time of one workload run and of set-up in the frozen copy, on the
# machine of baseline.json.  They only set the unit of the declared wall_s
# and setup_s: a value equal to the constant means "as fast as the frozen
# copy".
CONTROL_WALL_S = {"pipeline": 9.5, "wide-grid": 3.0, "geometry": 3.0,
                  "continuation": 1.45}
CONTROL_SETUP_S = 0.20
DEADLINE_S = 170.0
# suites.SUITE_NAMES; this process does not import the program.
ALL_SUITES = ("group", "wigner", "continuation", "cones", "pauli-lubanski", "spinstat")


class BenchmarkError(RuntimeError):
    """The program's output no longer matches what the benchmark measures."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.abspath("src"),
                                         os.path.join(HERE, "control")])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, started: float):
        self.workload, self.seed, self.started = workload, seed, started
        self.env = child_env()

    def spawn(self, mode: str, *extra: str) -> dict:
        """Run one worker; returns its JSON plus setup_s (spawn to ready)."""
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchmarkError("out of time before the run finished")
        t_spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        # Own process group, so that a timeout also ends a paired sample's
        # control-server child.
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), self.workload,
             str(self.seed), mode, *extra],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=left)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited {proc.returncode}: {stderr[-2000:]}")
        out = json.loads(stdout.strip().splitlines()[-1])
        out["setup_s"] = (out["ready_ns"] - t_spawn) / 1e9
        return out


def _violations(rec: dict, gates: dict) -> list:
    bad = []
    for key, (op, bound) in gates.items():
        v = rec["residuals"][key]
        ok = v < bound if op == "<" else v > bound
        if not (ok and math.isfinite(v)):
            bad.append(f"{key}={v!r} not {op} {bound}")
    for key, floor in workloads.INPUT_FLOORS.get(rec["anchor"], {}).items():
        if not rec["inputs"][key] > floor:
            bad.append(f"{key}={rec['inputs'][key]!r} not > {floor}")
    if not rec["passed"]:
        bad.append("program verdict FAIL")
    return bad


def gate(sample: dict, expected: dict) -> tuple:
    """Check one sample; returns (records attempted, records failed, messages).

    A suite that raised counts all its records as failed.  A suite that
    returned a different record list is a BenchmarkError, not a number.
    """
    records = json.loads(sample["report"])["records"]
    attempted = failed = 0
    messages = []
    pos = 0
    for suite, want in expected.items():
        attempted += len(want)
        if suite in sample["errors"]:
            failed += len(want)
            messages.append(f"{suite} raised {sample['errors'][suite]}")
            continue
        got = records[pos:pos + len(want)]
        pos += len(want)
        have = [(r["suite"], r["anchor"], sorted(r["residuals"])) for r in got]
        need = [(suite, anchor, sorted(g)) for anchor, g in want]
        if have != need:
            raise BenchmarkError(f"record list of suite {suite} changed:\n"
                                 f"  stored  {need}\n  produced {have}")
        for rec, (_, gates) in zip(got, want):
            bad = _violations(rec, gates)
            if bad:
                failed += 1
                messages.append(f"{suite}/{rec['anchor']}: " + "; ".join(bad))
    if pos != len(records):
        raise BenchmarkError(f"{len(records) - pos} records beyond the stored list")
    return attempted, failed, messages


def describe_timing(name: str, values: list, unit: str) -> str:
    """Median with sample count and the highest percentile that has ten
    samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    line = f"{name}: median {statistics.median(xs):.6g} {unit} over {n} samples"
    if n >= 11:
        line += f"; p{100.0 * (n - 10) / n:.0f} {xs[n - 11]:.6g} {unit}"
    else:
        line += "; no percentile has ten samples beyond it"
    return line


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Samples one at a time until `seconds` would be overrun.

    A traced run alternates traced and untraced samples.  An untraced run
    takes SETUP_PAIRS pairs of set-up-only interpreters (program, then
    frozen copy) and then paired samples, at least two of either kind.
    """
    started = time.monotonic()
    runner.spawn("setup")  # untimed: compiles bytecode caches in the checkout
    plain, traced, paired, setup_pairs = [], [], [], []
    if not trace:
        runner.spawn("control-setup")
        for _ in range(SETUP_PAIRS):
            setup_pairs.append((runner.spawn("setup")["setup_s"],
                                runner.spawn("control-setup")["setup_s"]))
    t0 = time.monotonic()
    while True:
        if not trace:
            paired.append(runner.spawn("paired", str(len(paired) % 2)))
            setup_pairs.append((paired[-1]["setup_s"], paired[-1]["control_setup_s"]))
        elif len(traced) < len(plain):
            traced.append(runner.spawn("trace"))
        else:
            plain.append(runner.spawn("plain"))
        n_done = len(paired) + len(plain) + len(traced)
        now = time.monotonic()
        enough = len(paired) >= 2 or len(traced) >= 2
        if enough and now - started + (now - t0) / n_done > seconds:
            break
    return {"setup_pairs": setup_pairs, "plain": plain, "traced": traced,
            "paired": paired}


def report_line(m: dict, trace: bool, expected: dict, workload: str) -> dict:
    attempted = failed = 0
    problems = []
    for s in m["plain"] + m["traced"] + m["paired"]:
        a, f, msgs = gate(s, expected)
        attempted, failed = attempted + a, failed + f
        problems += msgs
    reports = {s["report"] for s in m["plain"] + m["traced"] + m["paired"]}
    if len(reports) != 1:
        problems.append(f"{len(reports)} different report texts from one seed")
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    if trace:
        values, problems2 = layer_metrics(m)
        problems += problems2
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in per_layer_spec()}
    else:
        program = [sum(s["program_s"]) for s in m["paired"]]
        control = [sum(s["control_s"]) for s in m["paired"]]
        wall_ratio = statistics.median(p / c for p, c in zip(program, control))
        setup_ratio = statistics.median(p / c for p, c in m["setup_pairs"])
        print(describe_timing("raw wall_s", program, "s"))
        print(describe_timing("raw frozen-copy wall_s", control, "s"))
        print(describe_timing("raw setup_s", [p for p, _ in m["setup_pairs"]], "s"))
        print(describe_timing("raw frozen-copy setup_s",
                              [c for _, c in m["setup_pairs"]], "s"))
        print(f"program / frozen copy: wall {wall_ratio:.4f}, set-up {setup_ratio:.4f}")
        metrics = {
            "wall_s": {"value": wall_ratio * CONTROL_WALL_S[workload], "unit": "s"},
            "setup_s": {"value": setup_ratio * CONTROL_SETUP_S, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in m["paired"]),
                            "unit": "MiB"},
            "pass_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    for p in problems:
        print("FAIL " + p)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer_spec() -> list:
    """(name, unit, better) of every --trace 1 metric, in output order."""
    return ([(n, u, b) for n, u, b, _ in tracer.LAYER_METRICS]
            + [(f"suites.{s}.s", "s", "lower") for s in ALL_SUITES]
            + [("suites.records", "count", "higher"),
               ("cli.render_json.s", "s", "lower"),
               ("cli.report_bytes", "bytes", "lower"),
               ("trace_overhead_s", "s", "lower")])


def layer_metrics(m: dict) -> tuple:
    units = {n: u for n, u, _ in per_layer_spec()}
    per_sample = []
    for s in m["traced"]:
        v = tracer.layer_values(s["trace"])
        for suite in ALL_SUITES:
            v[f"suites.{suite}.s"] = s["suite_s"].get(suite, 0.0)
        v["suites.records"] = len(json.loads(s["report"])["records"])
        v["cli.render_json.s"] = s["render_s"]
        v["cli.report_bytes"] = len(s["report"].encode("utf-8"))
        per_sample.append(v)
    values, problems = {}, []
    for name in per_sample[0]:
        xs = [v[name] for v in per_sample]
        if units[name] == "s":
            values[name] = statistics.median(xs)
        else:
            values[name] = xs[0]
            if len(set(xs)) != 1:
                problems.append(f"count {name} differs between traced samples: {xs}")
    values["trace_overhead_s"] = (statistics.median(s["wall_s"] for s in m["traced"])
                                  - statistics.median(s["wall_s"] for s in m["plain"]))
    return values, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join("src", "anyonstat", "suites.py")):
        print("no anyonstat sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts (they never run
    # at once): the two vCPUs of a shared VM slow down independently, so a
    # program piece and its frozen-copy piece must run on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seed = workloads.suite_seed(args.seed)
    print(f"workload {args.workload}, seed {args.seed} (suite seed {seed}), "
          f"trace {args.trace}")
    runner = Runner(args.workload, seed, started)
    expected = workloads.expected_records(args.workload)
    try:
        m = measure(runner, args.seconds, bool(args.trace))
        result = report_line(m, bool(args.trace), expected, args.workload)
    except (BenchmarkError, subprocess.TimeoutExpired) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
