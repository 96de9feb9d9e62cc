"""Self-test of the benchmark harness (not of the package).

    python3 -m pytest perfbench/test_harness.py -q
"""
from __future__ import annotations

import dataclasses

import pytest

import compare
import record_goldens
import run
import workloads
from setup_once import import_package
from tracing import Tracer


@pytest.fixture(scope="module")
def package():
    return import_package()


def _built(workload, seed, tmp_path):
    inputs = workloads.build(workload, seed, str(tmp_path))
    return inputs.commands, inputs.fixture_bytes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload, tmp_path):
    assert _built(workload, 5, tmp_path) == _built(workload, 5, tmp_path)
    assert _built(workload, 5, tmp_path) != _built(workload, 6, tmp_path)


def test_golden_outputs_pass_and_tampered_outputs_fail(package, tmp_path):
    inputs = workloads.build("query", 1, str(tmp_path))
    commands = [c for c in inputs.commands if c.kind in ("fertility", "construct")][:4]
    results = [run.execute(package, c) for c in commands]
    assert run.count_failures(commands, results) == 0

    tampered = [(rc, out + "0") if i == 0 else (rc, out) for i, (rc, out) in enumerate(results)]
    assert run.count_failures(commands, tampered) == 1
    crashed = results[:-1] + [("ValueError: boom", "")]
    assert run.count_failures(commands, crashed) == 1


def _small_inputs(tmp_path):
    """A few commands of every workload, cheap enough for a unit test."""
    query = workloads.build("query", 2, str(tmp_path)).commands
    cache = workloads.build("cache", 2, str(tmp_path))
    sweep = [c for c in workloads.build("sweep", 2, str(tmp_path)).commands
             if c.argv in (("spectrum", "6"), ("classify", "3", "--max-n", "6"))]
    picked = ([c for c in query if c.kind == "construct"][:3]
              + [c for c in query if c.kind == "vhc"][:1]
              + sweep + [c for c in cache.commands if c.kind != "audit"][:6])
    return dataclasses.replace(cache, commands=picked)


def test_spans_nest_and_self_times_are_nonnegative(package, tmp_path):
    inputs = _small_inputs(tmp_path)
    original_main = package.cli.main
    tracer = Tracer()
    tracer.install(package)
    try:
        _, _, failed = run.run_pass(package, inputs, tracer)
    finally:
        tracer.uninstall()
    assert failed == 0
    assert package.cli.main is original_main

    spans = tracer.spans()
    names = {s[0] for s in spans}
    assert {"cli.main", "cli.build_parser", "hooks.fertility", "families.witness",
            "search.spectrum", "search.classify", "cache.load"} <= names
    for name, start, end, parent, cmd in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_cmd = spans[parent]
            assert p_start <= start and end <= p_end
            assert cmd == p_cmd
        else:
            assert name == "cli.main" and cmd >= 0
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    assert min(end - start - c for (_, start, end, _, _), c in zip(spans, covered)) >= -1e-9
    assert min(tracer.self_time.values()) >= -1e-9

    metrics = tracer.layer_metrics(1)
    assert metrics["cli.commands"] == len(inputs.commands)
    assert metrics["search.words_scanned"] > 0 and metrics["cache.load.calls"] > 0
    assert 0 < metrics["cache.hit_ratio"] <= 1


def test_compare_claims_a_gain_only_from_alternating_pairs():
    base = [10.0 + 0.1 * i for i in range(10)]
    faster = [8.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(base, faster, "lower", 0.25, alternated=True) == "better"
    assert compare.verdict(base, faster, "lower", 0.25, alternated=False) == "unresolved"
    assert compare.verdict(base, [13.0 + x for x in base], "lower", 0.25, True) == "worse"
    assert compare.verdict(base, list(reversed(base)), "lower", 0.25, True) == "unchanged"

    def runs(starts):
        return [{"started": t} for t in starts]
    assert compare.alternates(runs([0, 11, 20, 31]), runs([1, 10, 21, 30]))
    assert not compare.alternates(runs([0, 10, 20, 30]), runs([100, 110, 120, 130]))


def test_goldens_agree_with_independent_methods():
    table = workloads.load_goldens("query")
    for argv in [("fertility", w) for w in workloads.WORKED_EXAMPLES]:
        assert record_goldens.check_query(argv, *table[argv]) is None
    sweep = workloads.load_goldens("sweep")
    for argv in [("spectrum", str(n)) for n in range(1, 8)]:
        assert record_goldens.check_sweep(argv, *sweep[argv]) is None
    values = workloads.load_goldens("cache")
    for text in list(values)[:50]:
        word = record_goldens.parse_word(text)
        assert record_goldens.ref_fertility(word) == values[text]
