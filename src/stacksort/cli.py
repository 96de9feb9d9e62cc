"""Command-line surface. Every subcommand is a thin adapter over the library.

A command returns its exit code, its ``--json`` object and its text lines,
and prints nothing: ``main`` prints one or the other.

A command imports only the modules it runs: ``cache`` when ``--cache`` is
given, ``search`` in the sweeps and the bound check, ``svg``, ``csv`` and
``random`` for the options that need them, and ``main`` imports ``json``
only under ``--json``.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Mapping

from . import families
from .errors import InvalidArgumentError, StacksortError
from .hooks import enumerate_vhc, fertility, induced_composition, valid_compositions
from .oracle import BRUTE_FORCE_LIMIT, fertility_brute, preimages
from .perms import Perm, parse_permutation, perm_text, stack_sort


def _canon(p: Perm) -> str:
    return perm_text(p, compact=False)


def _load_cache(path: str | None) -> Mapping[str, int]:
    if not path:
        return {}
    from . import cache
    return cache.load(path)


def _store_cache(path: str | None, entries: dict[Perm, int], known: Mapping[str, int]) -> None:
    """Append the entries that ``known``, the table loaded from ``path``, lacks."""
    if not path:
        return
    from . import cache
    fresh = []
    for perm, value in entries.items():
        key = cache.cache_key(perm)
        if known.get(key) != value:
            fresh.append(cache.CacheRecord(key, value))
    cache.append_records(path, fresh)


def _cmd_sort(args):
    p = parse_permutation(" ".join(args.perm))
    out = stack_sort(p)
    return 0, {"perm": _canon(p), "sorted": _canon(out)}, [perm_text(out)]


def _cmd_fertility(args):
    p = parse_permutation(" ".join(args.perm))
    vhc = None  # brute force goes first: an oversized word never reaches the cache or kernel
    brute = fertility_brute(p, limit=args.max_n) if args.method != "vhc" else None
    if args.method != "brute":
        table = _load_cache(args.cache)
        if table:  # no key to build for an empty table, or with no --cache at all
            from .cache import cache_key
            vhc = table.get(cache_key(p))
        if vhc is None:
            vhc = fertility(p)
            _store_cache(args.cache, {p: vhc}, table)
    # a zero count is never "exceeded", whatever F
    exceeded = vhc is not None and args.early_exit is not None and vhc > max(args.early_exit, 0)
    reported = brute if args.method == "brute" else vhc
    disagree = args.method == "both" and not exceeded and vhc != brute
    obj = {"perm": _canon(p), "fertility": None if exceeded else str(reported),
           "method": args.method}
    if exceeded:
        obj["exceeded"] = True
    if args.method == "both":
        lines = [f"vhc {'exceeded' if exceeded else vhc}", f"brute {brute}"]
        if not exceeded:
            lines.append("disagree" if disagree else "agree")
    else:
        lines = [f"exceeded {args.early_exit}" if exceeded else obj["fertility"]]
    return 1 if disagree else 0, obj, lines


def _cmd_preimages(args):
    p = parse_permutation(" ".join(args.perm))
    members = sorted(preimages(p, limit=args.max_n))
    obj = {"perm": _canon(p), "count": len(members), "preimages": [_canon(w) for w in members]}
    return 0, obj, [perm_text(w) for w in members]


def _cmd_vhc(args):
    p = parse_permutation(" ".join(args.perm))
    configs = enumerate_vhc(p)
    comps = [induced_composition(p, c) for c in configs]
    if args.svg_out:
        from .svg import render_svg
        docs = render_svg(p, configs)  # raises before the directory exists
        os.makedirs(args.svg_out, exist_ok=True)
        stem = "-".join(str(x) for x in p) or "empty"
        for ordinal, doc in enumerate(docs, start=1):
            with open(os.path.join(args.svg_out, f"{stem}-vhc-{ordinal:03d}.svg"),
                      "w", encoding="utf-8") as fh:
                fh.write(doc)
    lines = [f"count {len(configs)}"]
    for ordinal, (config, q) in enumerate(zip(configs, comps), start=1):
        hooks = " ".join(f"({h.sw},{h.ne})" for h in config) or "-"
        comp = "(" + ",".join(str(x) for x in q) + ")"
        lines.append(f"{ordinal} hooks {hooks} composition {comp}")
    obj = {"perm": _canon(p), "count": len(configs), "compositions": [list(q) for q in comps]}
    return 0, obj, lines


def _cmd_spectrum(args):
    from . import search
    table = _load_cache(args.cache)  # a bad cache fails before the sweep and the CSV
    report = search.spectrum(args.n)
    values = sorted(report.achieved)
    if args.csv:
        import csv
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "witness"])
            for v in values:
                writer.writerow([v, _canon(report.witnesses[v])])
    _store_cache(args.cache, {w: v for v, w in report.witnesses.items()}, table)
    obj = {"n": report.n, "achieved": [str(v) for v in values],
           "witnesses": {str(v): _canon(report.witnesses[v]) for v in values}}
    return 0, obj, [f"n {report.n}", "achieved " + " ".join(obj["achieved"]),
                    *(f"{v} {perm_text(report.witnesses[v])}" for v in values)]


def _cmd_classify(args):
    from . import search
    table = _load_cache(args.cache)
    result = search.classify(args.f, args.max_n, cache=table)
    if result.witness is not None:
        _store_cache(args.cache, {result.witness: result.f}, table)
    obj = {"f": str(result.f), "verdict": result.verdict, "searched_n": result.searched_n}
    lines = [f"f {result.f}", f"verdict {result.verdict}"]
    if result.witness is not None:
        obj["witness"] = _canon(result.witness)
        lines.append(f"witness {perm_text(result.witness)}")
    return 0, obj, [*lines, f"searched_n {result.searched_n}"]


def _cmd_construct(args):
    report = families.witness(args.f)
    obj = {"f": str(report.target_fertility), "method": report.method, "witness": None}
    lines = [f"f {report.target_fertility}", f"method {report.method}"]
    if report.witness is not None:
        obj["witness"] = _canon(report.witness)
        lines.append(f"witness {perm_text(report.witness)}")
    return 0, obj, lines


def _cmd_density(args):
    from . import search
    count, ratio = search.density_lower_bound(args.n)
    obj = {"n": args.n, "count": str(count), "ratio": f"{ratio}"}
    return 0, obj, [f"count {count}", f"ratio {ratio}"]


def _random_matrix(rng, max_dim: int, max_entry: int) -> list[list[int]]:
    a = rng.randint(1, max_dim)
    b = rng.randint(1, max_dim)
    rows = [[rng.randint(1, max_entry) for _ in range(b)] for _ in range(a)]
    for j in range(b):
        if all(row[j] == 1 for row in rows):
            rows[rng.randrange(a)][j] = rng.randint(2, max_entry)
    return rows


def _cmd_bound_check(args):
    p = parse_permutation(args.perm) if args.perm else None
    matrices: list[list[list[int]]] = []
    for row_text in args.rows or []:
        try:
            matrices.append([[int(x) for x in row.split(",")] for row in row_text.split(";")])
        except ValueError:
            raise InvalidArgumentError(f"not a matrix: {row_text!r}") from None
    if args.random:
        if args.max_dim < 1 or args.max_entry < 2:
            raise InvalidArgumentError("--random needs --max-dim >= 1 and --max-entry >= 2")
        import random
        rng = random.Random(args.seed)
        matrices.extend(_random_matrix(rng, args.max_dim, args.max_entry)
                        for _ in range(args.random))
    if p is not None:  # enumerated only once the other inputs are valid, listed first
        comps = sorted(valid_compositions(p))
        if not comps:
            raise StacksortError(f"{perm_text(p)} is unsorted: empty composition matrix")
        matrices.insert(0, [list(q) for q in comps])
    if not matrices:
        raise StacksortError("nothing to check: give a matrix, --perm or --random")
    from . import search
    failures = []
    for m in matrices:
        if not search.matrix_bound_holds(m):
            failures.append(m)
    obj = {"checked": len(matrices), "all_hold": not failures, "failures": failures}
    lines = [f"violated {m}" for m in failures] or ["all hold"]
    return 1 if failures else 0, obj, [f"checked {len(matrices)}", *lines]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once and then reused; not cached itself, as the
    benchmark's tracer wraps only ``inspect.isfunction`` values."""
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacksort",
        description="Fertilities of permutations under the stack-sorting map.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        cmd.add_argument("--json", action="store_true", help="machine-readable output")
        return cmd

    cmd = add("sort", _cmd_sort, "apply the stack-sorting map once")
    cmd.add_argument("perm", nargs="+", help="permutation word")

    cmd = add("fertility", _cmd_fertility, "count stack-sorting preimages")
    cmd.add_argument("perm", nargs="+")
    cmd.add_argument("--method", choices=("vhc", "brute", "both"), default="vhc")
    cmd.add_argument("--early-exit", type=int, default=None, metavar="F",
                     help="report 'exceeded' when the fertility exceeds F (vhc method)")
    cmd.add_argument("--max-n", type=int, default=BRUTE_FORCE_LIMIT, metavar="N",
                     help="brute-force size limit")
    cmd.add_argument("--cache", metavar="FILE", help="JSON-lines fertility cache")

    cmd = add("preimages", _cmd_preimages, "list stack-sorting preimages")
    cmd.add_argument("perm", nargs="+")
    cmd.add_argument("--max-n", type=int, default=BRUTE_FORCE_LIMIT, metavar="N")

    cmd = add("vhc", _cmd_vhc, "enumerate hook configurations")
    cmd.add_argument("perm", nargs="+")
    cmd.add_argument("--svg-out", metavar="DIR", help="write one SVG per configuration")

    cmd = add("spectrum", _cmd_spectrum, "fertility values attained in S_n")
    cmd.add_argument("n", type=int)
    cmd.add_argument("--jobs", type=int, default=1, metavar="J")
    cmd.add_argument("--csv", metavar="FILE", help="write value,witness rows")
    cmd.add_argument("--cache", metavar="FILE")

    cmd = add("classify", _cmd_classify, "is a number a fertility value?")
    cmd.add_argument("f", type=int)
    cmd.add_argument("--max-n", type=int, required=True, metavar="N",
                     help="largest length to scan")
    cmd.add_argument("--jobs", type=int, default=1, metavar="J")
    cmd.add_argument("--cache", metavar="FILE")

    cmd = add("construct", _cmd_construct, "build a witness with a given fertility")
    cmd.add_argument("f", type=int)

    cmd = add("density", _cmd_density, "how many targets below N the constructions cover")
    cmd.add_argument("n", type=int)

    cmd = add("bound-check", _cmd_bound_check, "check N_D <= F_D + 1 on matrices")
    cmd.add_argument("rows", nargs="*",
                     help="matrix as rows joined by ';' with ',' inside, e.g. '1,2;2,1'")
    cmd.add_argument("--perm", metavar="PERM", help="use the composition matrix of PERM")
    cmd.add_argument("--random", type=int, default=0, metavar="COUNT")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--max-dim", type=int, default=6)
    cmd.add_argument("--max-entry", type=int, default=5)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and print what it returns: its ``--json`` object or its
    text lines. A domain, file-system or memory error, also one raised while
    printing, ends as one ``error:`` line on stderr and exit code 1."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # print fertilities of any length
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:  # only validated: the sweeps run in this process
            raise InvalidArgumentError("jobs must be at least 1")
        code, obj, lines = args.func(args)
        if args.json:
            import json
            print(json.dumps(obj))
        else:
            for line in lines:
                print(line)
        return code
    except (StacksortError, OSError, MemoryError) as exc:
        message = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
