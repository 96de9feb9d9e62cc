"""Benchmark of the stacksort CLI: one client, closed loop, one process.

    python3 perfbench/run.py --workload query --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each pass sends the workload's seeded command list through
``stacksort.cli.main(argv)`` (and ``stacksort.audit`` for the cache
workload), one request after the other, with stdout captured and compared
with the recorded golden. Passes repeat until ``--seconds`` have been
measured (by default ``run_seconds`` from ``BENCHMARK.json``). With
``--trace 0`` the last line reports the end-to-end metrics, and between
passes the set-up is timed ``SETUPS`` times, each in a fresh interpreter
(``setup_once.py``);
with ``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics plus the tracing overhead. The last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from setup_once import ROOT, WORK_DIR, import_package
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 25  # setup_s is the median of this many set-ups, each in a fresh interpreter

UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms",
         "peak_rss_mb": "MB", "failed_frac": "ratio"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, timed from inside it."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_once.py"),
                           workload, str(seed)],
                          capture_output=True, text=True, check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def execute(package, command) -> tuple[object, str]:
    """Run one command; return (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            if command.kind == "audit":
                print(package.audit(command.argv[0]))
                rc = 0
            else:
                rc = package.cli.main(list(command.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def run_pass(package, inputs, tracer: Tracer | None = None):
    """One pass over the command list; return (wall seconds, latencies, failures)."""
    inputs.restore_fixture()
    results, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for i, command in enumerate(inputs.commands):
        t0 = clock()
        if tracer is None:
            results.append(execute(package, command))
        else:
            results.append(tracer.run_command(i, command.argv,
                                              lambda: execute(package, command)))
        latencies.append(clock() - t0)
    wall = clock() - start
    failed = count_failures(inputs.commands, results)
    return wall, latencies, failed


def count_failures(commands, results) -> int:
    """A command fails when its exit code or stdout differs from the golden."""
    return sum(1 for c, (rc, out) in zip(commands, results) if rc != c.rc or out != c.stdout)


def environment(inputs) -> dict:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "workload": inputs.workload, "seed": inputs.seed,
            "sizes": inputs.sizes}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    package = import_package()
    os.makedirs(WORK_DIR, exist_ok=True)
    inputs = workloads.build(workload, seed, WORK_DIR)
    print("env " + json.dumps(environment(inputs)), flush=True)

    _, _, failed = run_pass(package, inputs)  # warm-up: OS caches, lazy imports
    # Every pass starts the same pool workers, so their peak is known now,
    # before the set-up interpreters below become children as well.
    workers_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted = len(inputs.commands)
    plain_walls, traced_walls, latencies, setup_times = [], [], [], []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    while (time.perf_counter() < start + seconds or not plain_walls
           or (trace and not traced_walls)):
        traced = trace and len(traced_walls) < len(plain_walls)
        if traced:
            tracer.install(package)
            try:
                wall, _, bad = run_pass(package, inputs, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
        else:
            wall, lats, bad = run_pass(package, inputs)
            plain_walls.append(wall)
            latencies += lats
        failed += bad
        attempted += len(inputs.commands)
        # Set-ups are spread over the run, between passes, so that their
        # median sees the same stretches of machine speed as the passes'.
        due = SETUPS * (time.perf_counter() - start) / seconds
        while not trace and len(setup_times) < min(due, SETUPS):
            setup_times.append(setup_seconds(workload, seed))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        metrics = tracer.layer_metrics(len(traced_walls))
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(plain_walls))
        result["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        tracer.write_spans(os.path.join(WORK_DIR, f"spans-{workload}.bin"))
        print(f"spans {len(tracer.span_start)} over {len(traced_walls)} traced passes")
    else:
        while len(setup_times) < SETUPS:
            setup_times.append(setup_seconds(workload, seed))
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        e2e = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(plain_walls),
            "cmd_p50_ms": statistics.median(latencies) * 1e3,
            "cmd_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            "peak_rss_mb": (own_rss + workers_rss) / 1024.0,
        }
        result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
        print(f"passes {len(plain_walls)}, command samples {len(latencies)}, "
              f"failed_frac {failed / attempted} (failed {failed} of {attempted})")
    return result


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run_workload(root: str, workload: str, seed: int, seconds: int) -> dict:
    """Run ``root``'s benchmark on one workload in its own process; return its result.

    A run whose commands fail still returns its result, with ``correct``
    false; a run that prints no result raises ``RuntimeError``.
    """
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, check=False, cwd=root)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {proc.returncode} "
                           f"without a result:\n{proc.stderr}") from None


def run_all(seed: int, seconds: int) -> int:
    """Run every workload in its own process and print one table."""
    rows, ok, attempted, failed = [], True, 0, 0
    for workload in workloads.WORKLOADS:
        result = run_workload(ROOT, workload, seed, seconds)
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics = dict(result["metrics"])
        metrics["failed_frac"] = {"value": result["failed"] / result["attempted"],
                                  "unit": UNITS["failed_frac"]}
        for name, m in metrics.items():
            rows.append((workload, name, m["value"], m["unit"]))
    for workload, name, value, unit in rows:
        print(f"{workload:<6} {name:<12} {value:>12.4f} {unit}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {f"{w}.{n}": {"value": v, "unit": u} for w, n, v, u in rows}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
