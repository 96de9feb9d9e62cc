"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py OUT/base OUT/change

Both directories hold runs as ``collect.py`` writes them, made with the same
benchmark code and run length. Runs are paired by seed. For each workload
and end-to-end metric it prints both medians, both quartile ranges, the
bound from ``BENCHMARK.json`` and a verdict:

* ``worse``: the change's median is worse than the base median by more
  than the bound;
* ``better``: the change wins at least nine tenths of the pairs (ties
  count for neither), the medians differ by more than the base's own
  quartile spread, and the pairs alternate which side ran first, as
  ``collect.py --base`` runs them. Without that alternation a machine that
  sped up between the two sets would read as a gain, so such a win is
  ``unresolved``;
* ``unresolved``: also when neither of the above holds and a side's
  quartile spread is wider than the bound, so "no change" cannot be told
  from noise, unless every change run reads better than every base run;
* ``unchanged``: otherwise.

It exits 1 when any verdict is ``worse`` or the change fails more commands
than the base.
"""
from __future__ import annotations

import argparse
import sys

from collect import quartiles, read_runs
from run import load_spec


def verdict(base: list[float], change: list[float], better: str, bound: float,
            alternated: bool) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
    if sign * (c2 - b2) > bound * abs(b2):
        return "worse"
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    if sign * (c2 - b2) < 0 and wins >= 0.9 * len(base) and abs(c2 - b2) > b3 - b1:
        return "better" if alternated else "unresolved"
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if max((b3 - b1) / abs(b2), (c3 - c1) / abs(c2)) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def alternates(base: list[dict], change: list[dict]) -> bool:
    """Whether the base ran first in about half of the pairs."""
    base_first = sum(1 for b, c in zip(base, change) if b["started"] < c["started"])
    return abs(2 * base_first - len(base)) <= 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    regressed = False
    print(f"{'workload':<8} {'metric':<12} {'base q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        base, change = read_runs(args.base, workload), read_runs(args.change, workload)
        if len(base) < 2 or [r["seed"] for r in base] != [r["seed"] for r in change]:
            print(f"{workload:<8} needs at least two runs on each side, on the same seeds")
            regressed = True
            continue
        alternated = alternates(base, change)
        base_failed = sum(r["result"]["failed"] for r in base)
        change_failed = sum(r["result"]["failed"] for r in change)
        if change_failed > base_failed:
            print(f"{workload:<8} failed commands: {base_failed} -> {change_failed}")
            regressed = True
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base]
            c = [r["result"]["metrics"][name]["value"] for r in change]
            v = verdict(b, c, metric["better"], metric["bound"], alternated)
            regressed |= v == "worse"
            bq, cq = quartiles(b), quartiles(c)
            print(f"{workload:<8} {name:<12} "
                  f"{bq[0]:10.4g} {bq[1]:10.4g} {bq[2]:10.4g} "
                  f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g} "
                  f"{metric['bound']:6.2f}  {v}")
        if not alternated:
            print(f"{workload:<8} the pairs did not alternate which side ran first")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
