"""Tracing for the benchmark's traced run.

``Tracer.install`` replaces every public function of the six measured
modules (cli, perms, hooks, families, search, cache) at each module
namespace that binds it, the package's own included, so a call is seen
whichever caller makes it: ``fertility`` is wrapped separately where cli,
search, families and cache import it. ``uninstall`` puts the originals
back.

Every wrapped call is a frame on one stack: its duration is added to the
enclosing frame's child time, and its self time is its duration minus that
child time. Calls at layer boundaries (``SPAN_NAMES``) also record a span:
name, start, end, parent span and command id, kept in flat arrays and
written once by ``write_spans``. Hot leaves (parsing, colouring, Catalan
weights, each ``next()`` on ``iter_vhc``) only add to per-name totals, so a
sweep of S_8 does not store millions of spans.

Pool workers forked by ``--jobs`` inherit the wrappers; there they call
straight through, so their work counts in the span of the caller that waits
for them.
"""
from __future__ import annotations

import inspect
import json
import os
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "perms", "hooks", "families", "search", "cache")
SPAN_NAMES = frozenset({
    "cli.main", "cli.build_parser", "hooks.fertility", "hooks.enumerate_vhc",
    "families.witness", "search.spectrum", "search.classify", "cache.load",
    "cache.read_records", "cache.append_records", "cache.audit",
})
_SEARCH_SPANS = ("search.spectrum", "search.classify")


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_cmd = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # frames: [child_s, span_index, search_calls_at_entry]
        self.open_span = -1
        self.command = -1
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)  # outermost calls only
        self.self_time: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.binding_calls: Counter = Counter()
        self.binding_total: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- frames --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _push(self, nid: int, is_span: bool, t0: float) -> list:
        span = -1
        if is_span:
            span = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.open_span)
            self.span_cmd.append(self.command)
            self.span_start.append(t0)
            self.span_end.append(t0)
            self.open_span = span
        frame = [0.0, span, self.binding_calls[("hooks.fertility", "search")]]
        self.stack.append(frame)
        return frame

    def _pop(self, frame: list, name: str, binding: str, t0: float, t1: float) -> None:
        self.stack.pop()
        dt = t1 - t0
        if self.stack:
            self.stack[-1][0] += dt
        span = frame[1]
        if span >= 0:
            self.span_end[span] = t1
            self.open_span = self.span_parent[span]
        self.calls[name] += 1
        self.self_time[name] += dt - frame[0]
        self.depth[name] -= 1
        if self.depth[name] == 0:
            self.total[name] += dt
        self.binding_calls[(name, binding)] += 1
        self.binding_total[(name, binding)] += dt
        if name in _SEARCH_SPANS and self.binding_calls[("hooks.fertility", "search")] > frame[2]:
            self.counts["search.in_process_s"] += dt

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "hooks.fertility":
            if result is None or result > 0:
                self.counts["fertility.sorted"] += 1
            early_exit = kwargs.get("early_exit", args[1] if len(args) > 1 else None)
            if early_exit is not None:
                self.counts["fertility.early_exit_calls"] += 1
                self.counts["fertility.early_exit_none"] += result is None
        elif name == "cache.read_records":
            self.counts["cache.records_read"] += len(result)
        elif name == "cache.append_records" and isinstance(args[1], (list, tuple)):
            self.counts["cache.records_appended"] += len(args[1])

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, binding: str):
        tracer, nid, is_span = self, self._name_id(name), name in SPAN_NAMES
        clock, getpid = time.perf_counter, os.getpid
        if name == "hooks.iter_vhc":
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                return gen if getpid() != tracer.pid else _TimedIter(tracer, gen, nid, binding)
        else:
            def wrapper(*args, **kwargs):
                if getpid() != tracer.pid:
                    return fn(*args, **kwargs)
                tracer.depth[name] += 1
                t0 = clock()
                frame = tracer._push(nid, is_span, t0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._pop(frame, name, binding, t0, clock())
                tracer._observe(name, args, kwargs, result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of the layers at each binding of it."""
        modules = {"stacksort": package}
        modules.update({layer: getattr(package, layer) for layer in LAYERS})
        owners = {f"stacksort.{layer}": layer for layer in LAYERS}
        wrapped: dict[tuple[int, str], object] = {}
        for binding, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in owners):
                    continue
                key = (id(value), binding)
                if key not in wrapped:
                    name = f"{owners[value.__module__]}.{value.__name__}"
                    wrapped[key] = self._wrap(name, value, binding)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrapped[key])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- commands ------------------------------------------------------------

    def run_command(self, index: int, argv, call):
        """Run one command under command id ``index``; classify cache lookups."""
        self.command = index
        before = self.binding_calls[("hooks.fertility", "cli")]
        result = call()
        if argv and argv[0] == "fertility" and "--cache" in argv:
            hit = self.binding_calls[("hooks.fertility", "cli")] == before
            self.counts["cache.lookups"] += 1
            self.counts["cache.hits"] += hit
        self.command = -1
        return result

    # -- results -------------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        """(name, start, end, parent index, command id) per recorded span."""
        return [(self.names[self.span_name[i]], self.span_start[i], self.span_end[i],
                 self.span_parent[i], self.span_cmd[i]) for i in range(len(self.span_start))]

    def write_spans(self, path: str) -> None:
        """One JSON header line, then the five span arrays as raw bytes."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": ["name:i", "parent:i", "cmd:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_cmd,
                        self.span_start, self.span_end):
                arr.tofile(fh)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per traced pass; a ratio with no base is 0."""
        def per(x):
            return x / passes

        def ratio(a, b):
            return a / b if b else 0.0

        c, t, s, k = self.calls, self.total, self.self_time, self.counts
        words = self.binding_calls[("hooks.fertility", "search")]
        return {
            "cli.commands": per(c["cli.main"]),
            "cli.self_s": per(s["cli.main"]),
            "cli.build_parser_s": per(t["cli.build_parser"]),
            "perms.parse_permutation.calls": per(c["perms.parse_permutation"]),
            "perms.parse_permutation.s": per(t["perms.parse_permutation"]),
            "perms.normalize.calls": per(c["perms.normalize"]),
            "perms.normalize.s": per(t["perms.normalize"]),
            "hooks.fertility.calls": per(c["hooks.fertility"]),
            "hooks.fertility.s": per(t["hooks.fertility"]),
            "hooks.fertility.self_s": per(s["hooks.fertility"]),
            "hooks.iter_vhc.configs": per(k["iter_vhc.configs"]),
            "hooks.iter_vhc.s": per(t["hooks.iter_vhc"]),
            "hooks.induced_composition.s": per(t["hooks.induced_composition"]),
            "hooks.composition_weight.s": per(t["hooks.composition_weight"]),
            "hooks.sorted_ratio": ratio(k["fertility.sorted"], c["hooks.fertility"]),
            "hooks.early_exit_ratio": ratio(k["fertility.early_exit_none"],
                                            k["fertility.early_exit_calls"]),
            "families.witness.calls": per(c["families.witness"]),
            "families.witness.s": per(t["families.witness"]),
            "families.witness.verify_s": per(self.binding_total[("hooks.fertility", "families")]),
            "search.spectrum.s": per(t["search.spectrum"]),
            "search.classify.s": per(t["search.classify"]),
            "search.words_scanned": per(words),
            "search.self_s": per(s["search.spectrum"] + s["search.classify"]),
            "search.words_per_s": ratio(words, k["search.in_process_s"]),
            "cache.load.calls": per(c["cache.load"]),
            "cache.load.s": per(t["cache.load"]),
            "cache.records_read": per(k["cache.records_read"]),
            "cache.append_records.calls": per(c["cache.append_records"]),
            "cache.append_records.records": per(k["cache.records_appended"]),
            "cache.append_records.s": per(t["cache.append_records"]),
            "cache.audit.s": per(t["cache.audit"]),
            "cache.hit_ratio": ratio(k["cache.hits"], k["cache.lookups"]),
        }


class _TimedIter:
    """``iter_vhc``'s generator with each ``next()`` timed as a leaf frame."""

    __slots__ = ("tracer", "gen", "nid", "binding")

    def __init__(self, tracer: Tracer, gen, nid: int, binding: str) -> None:
        self.tracer, self.gen, self.nid, self.binding = tracer, gen, nid, binding

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        tracer.depth["hooks.iter_vhc"] += 1
        t0 = time.perf_counter()
        frame = tracer._push(self.nid, False, t0)
        try:
            item = next(self.gen)
        finally:
            tracer._pop(frame, "hooks.iter_vhc", self.binding, t0, time.perf_counter())
        tracer.counts["iter_vhc.configs"] += 1
        return item
