"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py <workload> <suite seed> <mode> [<flip>]

mode is one of
- "setup": import anyonstat, build the SuiteConfig, stop;
- "control-setup": the same for the frozen copy control/anyonstat_control;
- "plain": run the workload untraced;
- "trace": run it with the outside-in spans of tracer.py;
- "paired": run the workload piece by piece (workloads.pieces), each piece
  once here and once in a "control-server" child that runs the frozen copy,
  right after each other, alternating which goes first; flip 1 swaps the
  order, so that two samples with flip 0 and 1 see each piece in both.
Prints one JSON object on stdout.  The caller puts the checkout's src
directory and perfbench/control on PYTHONPATH and pins BLAS/OpenMP thread
counts to 1.
"""

import importlib
import sys
import time
from dataclasses import asdict

import workloads

workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
flip = len(sys.argv) > 4 and sys.argv[4] == "1"
package = "anyonstat_control" if mode.startswith("control") else "anyonstat"
names, overrides = workloads.WORKLOADS[workload]

# Timed as part of set-up.
cli = importlib.import_module(package + ".cli")
suites = importlib.import_module(package + ".suites")
config = suites.SuiteConfig(seed=seed, **overrides)
ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402


def run() -> dict:
    tracer = None
    if mode == "trace":
        from anyonstat import conegeom, covergroup, holo, minkowski, repn, spinstat, wigner
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install({"holo": holo, "spinstat": spinstat, "conegeom": conegeom,
                        "covergroup": covergroup, "wigner": wigner, "repn": repn,
                        "minkowski": minkowski})
    report, errors, suite_s = None, {}, {}
    t0 = time.perf_counter()
    for name in names:
        s0 = time.perf_counter()
        try:
            part = suites.run_suite(name, config)
        except Exception as e:  # a raising suite is counted as failed records
            errors[name] = f"{type(e).__name__}: {e}"
        else:
            if report is None:
                report = part
            else:
                report.records.extend(part.records)
        suite_s[name] = time.perf_counter() - s0
    if report is None:
        report = suites.Report(version="1", config={})
    r0 = time.perf_counter()
    text = cli.render_json(report)
    t1 = time.perf_counter()
    return {"ready_ns": ready_ns, "wall_s": t1 - t0, "render_s": t1 - r0,
            "suite_s": suite_s, "errors": errors, "report": text,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "trace": tracer.aggregates() if tracer else None}


def timed(module, name: str, piece_overrides: dict) -> tuple:
    cfg = module.SuiteConfig(seed=seed, **{**overrides, **piece_overrides})
    t0 = time.perf_counter()
    try:
        part = module.run_suite(name, cfg)
    except Exception as e:
        return time.perf_counter() - t0, None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, part, None


def serve_control() -> None:
    """Run the pieces whose indices arrive on stdin; answer with their times."""
    pieces = workloads.pieces(workload)
    print(json.dumps({"ready_ns": ready_ns}), flush=True)
    for line in sys.stdin:
        name, piece_overrides = pieces[int(line)]
        dt, _, error = timed(suites, name, piece_overrides)
        print(json.dumps({"s": dt, "error": error}), flush=True)


def run_paired() -> dict:
    """The workload piece by piece, each piece in this process and in a
    control-server process running the frozen copy, strictly one after the
    other (the two never run at once)."""
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    server = subprocess.Popen([sys.executable, __file__, workload, str(seed), "control-server"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        control_ready_ns = json.loads(server.stdout.readline())["ready_ns"]

        def control(k: int) -> float:
            server.stdin.write(f"{k}\n")
            server.stdin.flush()
            reply = json.loads(server.stdout.readline())
            if reply["error"]:
                raise RuntimeError(f"frozen copy failed on piece {k}: {reply['error']}")
            return reply["s"]

        records = {name: [] for name in names}
        errors, program_s, control_s = {}, [], []
        for k, (name, piece_overrides) in enumerate(workloads.pieces(workload)):
            control_first = (k % 2 == 0) != flip
            if control_first:
                control_s.append(control(k))
            dt, part, error = timed(suites, name, piece_overrides)
            program_s.append(dt)
            if error:
                errors[name] = error
            else:
                records[name].extend(part.records)
            if not control_first:
                control_s.append(control(k))
        server.stdin.close()
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    report = suites.Report(version="1", config=asdict(config))
    for name in names:
        if name not in errors:
            report.records.extend(records[name])
    text = cli.render_json(report)
    return {"ready_ns": ready_ns, "control_setup_s": (control_ready_ns - spawn_ns) / 1e9,
            "program_s": program_s,
            "control_s": control_s, "errors": errors, "report": text,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


if mode.endswith("setup"):
    print(json.dumps({"ready_ns": ready_ns}))
elif mode == "control-server":
    serve_control()
elif mode == "paired":
    print(json.dumps(run_paired()))
else:
    print(json.dumps(run()))
