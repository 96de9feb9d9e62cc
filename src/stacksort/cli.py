"""Command-line surface. Every subcommand is a thin adapter over the library."""
from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys

from . import cache as cache_mod
from . import families, search, svg
from .errors import InvalidArgumentError, StacksortError
from .hooks import enumerate_vhc, fertility, induced_composition, valid_compositions
from .oracle import BRUTE_FORCE_LIMIT, fertility_brute, preimages
from .perms import Perm, parse_permutation, perm_text, stack_sort


def _canon(p: Perm) -> str:
    return perm_text(p, compact=False)


def _emit_json(obj) -> None:
    print(json.dumps(obj))


def _load_cache(path: str | None) -> dict[str, int]:
    return cache_mod.load(path) if path else {}


def _store_cache(path: str | None, entries: dict[Perm, int], known: dict[str, int]) -> None:
    """Append the entries that ``known``, the table loaded from ``path``, lacks."""
    if not path:
        return
    fresh = []
    for perm, value in entries.items():
        key = cache_mod.cache_key(perm)
        if known.get(key) != value:
            fresh.append(cache_mod.CacheRecord(key, value))
    cache_mod.append_records(path, fresh)


def _cmd_sort(args) -> int:
    p = parse_permutation(" ".join(args.perm))
    out = stack_sort(p)
    if args.json:
        _emit_json({"perm": _canon(p), "sorted": _canon(out)})
    else:
        print(perm_text(out))
    return 0


def _cmd_fertility(args) -> int:
    p = parse_permutation(" ".join(args.perm))
    values: dict[str, int | None] = {}
    if args.method in ("vhc", "both"):
        table = _load_cache(args.cache)
        cached = table.get(cache_mod.cache_key(p)) if args.early_exit is None else None
        values["vhc"] = cached if cached is not None else fertility(p, early_exit=args.early_exit)
        if cached is None and values["vhc"] is not None:
            _store_cache(args.cache, {p: values["vhc"]}, table)
    if args.method in ("brute", "both"):
        values["brute"] = fertility_brute(p, limit=args.max_n)
    exceeded = "vhc" in values and values["vhc"] is None
    agree = not exceeded and len(set(values.values())) == 1
    reported = values.get("vhc") if args.method != "brute" else values["brute"]
    if args.json:
        obj = {"perm": _canon(p),
               "fertility": None if exceeded else str(reported),
               "method": args.method}
        if exceeded:
            obj["exceeded"] = True
        _emit_json(obj)
    else:
        if args.method == "both":
            print(f"vhc {'exceeded' if exceeded else values['vhc']}")
            print(f"brute {values['brute']}")
            if not exceeded:
                print("agree" if agree else "disagree")
        elif exceeded:
            print(f"exceeded {args.early_exit}")
        else:
            print(reported)
    if args.method == "both" and not exceeded and not agree:
        return 1
    return 0


def _cmd_preimages(args) -> int:
    p = parse_permutation(" ".join(args.perm))
    members = sorted(preimages(p, limit=args.max_n))
    if args.json:
        _emit_json({"perm": _canon(p), "count": len(members),
                    "preimages": [_canon(w) for w in members]})
    else:
        for w in members:
            print(perm_text(w))
    return 0


def _cmd_vhc(args) -> int:
    p = parse_permutation(" ".join(args.perm))
    configs = enumerate_vhc(p)
    comps = [induced_composition(p, c) for c in configs]
    if args.svg_out:
        os.makedirs(args.svg_out, exist_ok=True)
        stem = "-".join(str(x) for x in p) or "empty"
        for ordinal, doc in enumerate(svg.render_svg(p, "all"), start=1):
            with open(os.path.join(args.svg_out, f"{stem}-vhc-{ordinal:03d}.svg"),
                      "w", encoding="utf-8") as fh:
                fh.write(doc)
    if args.json:
        _emit_json({"perm": _canon(p), "count": len(configs),
                    "compositions": [list(q) for q in comps]})
    else:
        print(f"count {len(configs)}")
        for ordinal, (config, q) in enumerate(zip(configs, comps), start=1):
            hooks = " ".join(f"({h.sw},{h.ne})" for h in config) or "-"
            comp = "(" + ",".join(str(x) for x in q) + ")"
            print(f"{ordinal} hooks {hooks} composition {comp}")
    return 0


def _cmd_spectrum(args) -> int:
    report = search.spectrum(args.n, jobs=args.jobs)
    values = sorted(report.achieved)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "witness"])
            for v in values:
                writer.writerow([v, _canon(report.witnesses[v])])
    _store_cache(args.cache, {w: v for v, w in report.witnesses.items()},
                 _load_cache(args.cache))
    if args.json:
        _emit_json({"n": report.n, "achieved": [str(v) for v in values],
                    "witnesses": {str(v): _canon(report.witnesses[v]) for v in values}})
    else:
        print(f"n {report.n}")
        print("achieved " + " ".join(str(v) for v in values))
        for v in values:
            print(f"{v} {perm_text(report.witnesses[v])}")
    return 0


def _cmd_classify(args) -> int:
    table = _load_cache(args.cache)
    result = search.classify(args.f, args.max_n, jobs=args.jobs, cache=table)
    if result.witness is not None:
        _store_cache(args.cache, {result.witness: result.f}, table)
    if args.json:
        obj = {"f": str(result.f), "verdict": result.verdict, "searched_n": result.searched_n}
        if result.witness is not None:
            obj["witness"] = _canon(result.witness)
        _emit_json(obj)
    else:
        print(f"f {result.f}")
        print(f"verdict {result.verdict}")
        if result.witness is not None:
            print(f"witness {perm_text(result.witness)}")
        print(f"searched_n {result.searched_n}")
    return 0


def _cmd_construct(args) -> int:
    report = families.witness(args.f)
    if args.json:
        obj = {"f": str(report.target_fertility), "method": report.method,
               "witness": _canon(report.witness) if report.witness is not None else None}
        _emit_json(obj)
    else:
        print(f"f {report.target_fertility}")
        print(f"method {report.method}")
        if report.witness is not None:
            print(f"witness {perm_text(report.witness)}")
    return 0


def _cmd_density(args) -> int:
    count, ratio = search.density_lower_bound(args.n)
    if args.json:
        _emit_json({"n": args.n, "count": str(count), "ratio": f"{ratio}"})
    else:
        print(f"count {count}")
        print(f"ratio {ratio}")
    return 0


def _random_matrix(rng: random.Random, max_dim: int, max_entry: int) -> list[list[int]]:
    a = rng.randint(1, max_dim)
    b = rng.randint(1, max_dim)
    rows = [[rng.randint(1, max_entry) for _ in range(b)] for _ in range(a)]
    for j in range(b):
        if all(row[j] == 1 for row in rows):
            rows[rng.randrange(a)][j] = rng.randint(2, max_entry)
    return rows


def _cmd_bound_check(args) -> int:
    matrices: list[list[list[int]]] = []
    if args.perm:
        p = parse_permutation(args.perm)
        comps = sorted(valid_compositions(p))
        if not comps:
            raise StacksortError(f"{perm_text(p)} is unsorted: empty composition matrix")
        matrices.append([list(q) for q in comps])
    for row_text in args.rows or []:
        try:
            matrices.append([[int(x) for x in row.split(",")] for row in row_text.split(";")])
        except ValueError:
            raise InvalidArgumentError(f"not a matrix: {row_text!r}") from None
    if args.random:
        if args.max_dim < 1 or args.max_entry < 2:
            raise InvalidArgumentError("--random needs --max-dim >= 1 and --max-entry >= 2")
        rng = random.Random(args.seed)
        matrices.extend(_random_matrix(rng, args.max_dim, args.max_entry)
                        for _ in range(args.random))
    if not matrices:
        raise StacksortError("nothing to check: give a matrix, --perm or --random")
    failures = []
    for m in matrices:
        if not search.matrix_bound_holds(m):
            failures.append(m)
    if args.json:
        _emit_json({"checked": len(matrices), "all_hold": not failures,
                    "failures": failures})
    else:
        print(f"checked {len(matrices)}")
        if failures:
            for m in failures:
                print(f"violated {m}")
        else:
            print("all hold")
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
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
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # print fertilities of any length
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StacksortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
