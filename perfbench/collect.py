"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/collect.py .bench_build/runs/a
    python3 perfbench/collect.py .bench_build/runs/pr --base ../parent-checkout

Runs this checkout's ``run.py`` once per workload and seed, one at a time,
for ``run_seconds`` from ``BENCHMARK.json``, and keeps each run as
``<out>/change/<workload>.<seed>.json``: the time it started and its result
line. With ``--base``, the checkout there is run on the same seeds into
``<out>/base/``, each seed right next to this checkout's run, and the side
that runs first alternates from seed to seed, so that a machine that speeds
up or slows down during the collection does not favour either side. Then it
prints, per workload and metric, the median and the quartile spread
(q3 - q1) / median next to the metric's bound. ``compare.py`` compares the
two sides.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from run import ROOT, load_spec, run_workload


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_runs(directory: str, workload: str) -> list[dict]:
    """Runs of one workload, in seed order: ``{"seed", "started", "result"}``."""
    runs = []
    for name in os.listdir(directory):
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == workload and parts[2] == "json":
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                runs.append(json.load(fh))
    return sorted(runs, key=lambda run: run["seed"])


def collect(root: str, directory: str, workload: str, seed: int, seconds: int) -> dict:
    started = time.time()
    result = run_workload(root, workload, seed, seconds)
    with open(os.path.join(directory, f"{workload}.{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "started": started, "result": result}, fh)
        fh.write("\n")
    return result


def report(directory: str, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [r["result"] for r in read_runs(directory, workload)]
        print(f"\n{directory} {workload}: {len(results)} runs, "
              f"{sum(r['failed'] for r in results)} failed commands, "
              f"all correct: {all(r['correct'] for r in results)}")
        if len(results) < 2:
            continue
        for name, bound in bounds.items():
            q1, q2, q3 = quartiles([r["metrics"][name]["value"] for r in results])
            spread = (q3 - q1) / q2
            print(f"  {name:<12} median {q2:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound:.3f} {'ok' if spread < bound / 3 else 'WIDE'}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--base", help="checkout of the parent commit to pair with this one")
    args = parser.parse_args(argv)
    sides = [(ROOT, os.path.join(args.out, "change"))]
    if args.base:
        sides.append((os.path.abspath(args.base), os.path.join(args.out, "base")))
    for _, directory in sides:
        os.makedirs(directory, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for root, directory in (sides if i % 2 else sides[::-1]):
                result = collect(root, directory, workload, seed, spec["run_seconds"])
                print(f"{os.path.basename(directory)} {workload} seed {seed}: "
                      f"{json.dumps(result)}", flush=True)
    for _, directory in sides:
        report(directory, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
