"""Record the expected output of every pooled command, and cross-check it.

    python3 perfbench/record_goldens.py            # record all three pools
    python3 perfbench/record_goldens.py --check    # re-check the stored goldens

Recording runs each pooled argv through ``stacksort.cli.main`` of this
checkout and stores exit code and stdout in ``goldens/<workload>.jsonl``;
the cache pool stores each word's fertility. Goldens are recorded once, at
a reference commit, and every later run is compared with them.

Each answer is checked by a method independent of the hook kernel before it
is written (and again with ``--check``):

* closed forms: 2m, 4m+1, 5(m+1) + 4 C(m+1, 2), and the Catalan number for
  the identity; 27 and 95 for the worked examples;
* brute force for words of length at most 9 (stack-sort image tallies) and
  ``stacksort.oracle.fertility_histogram`` for the value sets of
  ``spectrum`` and ``classify``;
* for every other word, the recursion fert(s n) = sum_i fert(s[:i]) fert(s[i:])
  over the decomposition s(L n R) = s(L) s(R) n.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections import Counter
from functools import lru_cache

import workloads as wl
from run import execute
from setup_once import import_package


def parse_word(text: str) -> tuple[int, ...]:
    tokens = text.replace(",", " ").split()
    if len(tokens) == 1 and tokens[0].isdigit() and len(tokens[0]) > 1 and "0" not in tokens[0]:
        return tuple(int(ch) for ch in tokens[0])
    return tuple(int(t) for t in tokens)


def ref_fertility(word) -> int:
    """Preimage count by the interval recursion; no hook configurations."""
    w = tuple(word)

    @lru_cache(maxsize=None)
    def fert(a: int, b: int) -> int:
        if a == b:
            return 1
        if w[b - 1] != max(w[a:b]):
            return 0
        return sum(fert(a, i) * fert(i, b - 1) for i in range(a, b))

    return fert(0, len(w))


@lru_cache(maxsize=None)
def image_tally(n: int) -> Counter:
    """Brute force: how often each word of S_n is a stack-sort image."""
    return Counter(wl.stack_sort(w) for w in itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def lex_least(n: int) -> dict[int, tuple[int, ...]]:
    """Brute force: the lexicographically least word of S_n per fertility."""
    tally, first = image_tally(n), {}
    for w in itertools.permutations(range(1, n + 1)):
        first.setdefault(tally.get(w, 0), w)
    return first


@lru_cache(maxsize=None)
def attained(n: int) -> frozenset:
    from stacksort.oracle import fertility_histogram
    return frozenset(v for v in fertility_histogram(n) if v > 0)


def interleaved_fertility(m: int) -> int:
    from stacksort.families import interleaved_fertility as closed_form
    return closed_form(m)


def expected_fertility(word) -> int:
    if len(word) <= 9:
        return image_tally(len(word)).get(tuple(word), 0) if word else 1
    return ref_fertility(word)


def check_query(argv, rc, out) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if argv[0] == "fertility":
        word = parse_word(argv[1])
        want = expected_fertility(word)
        n = len(word)
        closed = {wl.even_word(n // 2): n, wl.one_mod4_word((n - 1) // 2): 2 * (n - 1) + 1,
                  tuple(range(1, n + 1)): math.comb(2 * n, n) // (n + 1)}
        if n % 2 and n >= 5:
            m = (n - 3) // 2
            if wl.interleaved_value(m) != interleaved_fertility(m):
                return f"interleaved closed forms disagree at m = {m}"
            closed[wl.interleaved_word(m)] = wl.interleaved_value(m)
        closed.update({(3, 1, 4, 2, 5, 6, 7): 27, (1, 2, 4, 3, 5, 6, 7): 95})
        if word in closed and closed[word] != want:
            return f"closed form {closed[word]} != independent {want}"
        return None if out == f"{want}\n" else f"stdout {out!r}, expected {want}"
    if argv[0] == "construct":
        f = int(argv[1])
        lines = out.splitlines()
        method = lines[1].split()[1]
        wants = {0: "even", 1: "one-mod-4", 2: "even"}
        if f % 4 in wants and f > 1 and method != wants[f % 4]:
            return f"method {method} for {f}"
        if f in wl.unconstructed_targets():
            return None if method == "none" and len(lines) == 2 else f"method {method} for {f}"
        got = ref_fertility(parse_word(lines[2].split(" ", 1)[1]))
        return None if got == f and lines[0] == f"f {f}" else f"witness has fertility {got}"
    if argv[0] == "vhc":
        obj = json.loads(out)
        total = sum(math.prod(math.comb(2 * x, x) // (x + 1) for x in q)
                    for q in obj["compositions"])
        comps = {tuple(q) for q in obj["compositions"]}
        if obj["count"] != len(comps) or total != expected_fertility(parse_word(argv[1])):
            return f"compositions weigh {total}"
        return None
    return f"unexpected command {argv[0]}"


def check_sweep(argv, rc, out) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    if argv[0] == "spectrum":
        n = int(argv[1])
        values = [int(v) for v in lines[1].split()[1:]]
        if lines[0] != f"n {n}" or set(values) != attained(n):
            return "achieved values differ from fertility_histogram"
        wants = [f"{v} {wl.compact(lex_least(n)[v])}" for v in sorted(values)]
        return None if lines[2:] == wants else "witnesses are not the lex-least ones"
    f, max_n = int(argv[1]), int(argv[3])
    hit = next((n for n in range(1, max_n + 1) if f in attained(n)), None)
    if hit is not None:
        if f in wl.classify_targets():
            return f"{f} is attained in S_{hit}; add it to ATTAINED_BY_SCAN"
        want = [f"f {f}", "verdict fertile", f"witness {wl.compact(lex_least(hit)[f])}",
                f"searched_n {hit}"]
    else:
        verdict = "proven-infertile" if max_n >= f + 1 else "unknown-up-to"
        want = [f"f {f}", f"verdict {verdict}", f"searched_n {min(max_n, f + 1)}"]
    return None if lines == want else f"expected {want}"


def record(workload: str, package) -> int:
    rows, errors = [], 0
    if workload == "cache":
        for word in wl.cache_pool():
            rc, out = execute(package, wl.Command("fertility", ("fertility", wl.text(word)), 0, ""))
            want = expected_fertility(word)
            if rc != 0 or out != f"{want}\n":
                print(f"MISMATCH {wl.text(word)}: {out!r} vs {want}", file=sys.stderr)
                errors += 1
            rows.append({"perm": wl.text(word), "fertility": out.strip()})
    else:
        argvs = ([a for group in wl.query_pool().values() for a in group]
                 if workload == "query" else wl.sweep_pool())
        check = check_query if workload == "query" else check_sweep
        for argv in dict.fromkeys(argvs):
            rc, out = execute(package, wl.Command(argv[0], argv, 0, ""))
            problem = check(argv, rc, out)
            if problem:
                print(f"MISMATCH {' '.join(argv)[:60]}: {problem}", file=sys.stderr)
                errors += 1
            rows.append({"argv": list(argv), "rc": rc, "stdout": out})
    os.makedirs(wl.GOLDEN_DIR, exist_ok=True)
    with open(wl.golden_path(workload), "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    print(f"{workload}: {len(rows)} goldens, {errors} mismatches")
    return errors


def check_stored(workload: str) -> int:
    errors = 0
    table = wl.load_goldens(workload)
    for key, value in table.items():
        if workload == "cache":
            problem = None if expected_fertility(parse_word(key)) == value else "value"
        else:
            problem = (check_query if workload == "query" else check_sweep)(key, *value)
        if problem:
            print(f"MISMATCH {' '.join(key)[:60] if workload != 'cache' else key}: {problem}",
                  file=sys.stderr)
            errors += 1
    print(f"{workload}: {len(table)} goldens checked, {errors} mismatches")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), default="all")
    parser.add_argument("--check", action="store_true", help="only re-check stored goldens")
    args = parser.parse_args(argv)
    chosen = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    package = import_package()
    errors = sum(check_stored(w) if args.check else record(w, package) for w in chosen)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
