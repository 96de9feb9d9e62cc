"""Acceptance suite: one timed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. The exhaustive sweeps share one session-built table of hook
configurations for S_1 .. S_8.
"""
import math
import random
import time
from contextlib import contextmanager

import pytest

from stacksort import (
    VERDICT_PROVEN_INFERTILE,
    Hook,
    classify,
    composition_weight,
    density_lower_bound,
    enumerate_vhc,
    even_witness,
    factor_at_hook,
    fertility,
    fertility_brute,
    interleaved_fertility,
    interleaved_witness,
    interval_dominates,
    matrix_bound_holds,
    nd_fd,
    one_mod4_witness,
    product_witness,
    reduce_stationary,
    spectrum,
    stack_sort,
    valid_compositions,
)
from stacksort.cli import _random_matrix, main as cli_main
from stacksort.hooks import _project
from conftest import all_perms, compositions_of, image_counts, table_fertility, vhc_table

P27 = (3, 1, 4, 2, 5, 6, 7)
P95 = (1, 2, 4, 3, 5, 6, 7)
BIG = (1, 8, 11, 4, 3, 5, 7, 6, 13, 14, 2, 12, 15, 9, 10, 16)
SMALL_3_MOD_4 = {3, 7, 11, 15, 19, 23}


@contextmanager
def criterion(number, label, limit):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: PASS  ({elapsed:6.1f}s < {limit}s)  {label}")
    assert elapsed < limit, f"criterion {number} overran its {limit}s budget"


@pytest.fixture(scope="module")
def tables8():
    return {n: vhc_table(n) for n in range(1, 9)}


def test_criterion_1_cli_sort(capsys):
    with criterion(1, "cli `sort 4162` prints 1426", limit=5):
        code = cli_main(["sort", "4162"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "1426\n"


def test_criterion_2_fertility_27():
    with criterion(2, "3142567: 6 configurations, known compositions, 27 = brute", limit=5):
        configs = enumerate_vhc(P27)
        assert len(configs) == 6
        assert valid_compositions(P27) == {
            (3, 1, 1), (2, 2, 1), (1, 3, 1), (2, 1, 2), (1, 2, 2), (1, 1, 3)}
        assert fertility(P27) == 27
        assert fertility_brute(P27) == 27


def test_criterion_3_fertility_95():
    with criterion(3, "1243567: compositions {(5,1),(4,2),(3,3)}, 42+28+25 = 95", limit=1):
        comps = valid_compositions(P95)
        assert comps == {(5, 1), (4, 2), (3, 3)}
        weights = sorted((composition_weight(q) for q in comps), reverse=True)
        assert weights == [42, 28, 25]
        assert fertility(P95) == 95


def test_criterion_4_families():
    with criterion(4, "witness families hit 2m, 4m+1 and (m+1)(2m+5) exactly", limit=30):
        for m in range(1, 7):
            assert fertility(even_witness(m)) == 2 * m
            assert fertility(one_mod4_witness(m)) == 4 * m + 1
        for m in range(1, 5):
            z = interleaved_witness(m)
            assert fertility(z) == interleaved_fertility(m) \
                == 5 * (m + 1) + 4 * math.comb(m + 1, 2)
            types = {tuple(sorted(q, reverse=True)) for q in valid_compositions(z)}
            assert types == {(3,) + (1,) * m, (2, 2) + (1,) * (m - 1)}


def test_criterion_5_oracle_equivalence(tables8):
    with criterion(5, "engine equals brute force on all of S_1..S_7; mass n!", limit=120):
        for n in range(1, 8):
            images = image_counts(n)
            total = 0
            for w, (_, comps) in tables8[n].items():
                f = table_fertility(comps)
                assert f == images.get(w, 0), w
                total += f
            assert total == math.factorial(n)


def test_criterion_6_injectivity(tables8):
    with criterion(6, "configuration -> composition is injective on S_1..S_7", limit=120):
        for n in range(1, 8):
            for w, (configs, comps) in tables8[n].items():
                assert len(set(comps)) == len(configs), w


def test_criterion_7_small_3_mod_4_spectra(tables8):
    with criterion(7, "no 3,7,..,23 in any spectrum to n=8; 27 at n=7; classify(3,4)",
                   limit=600):
        for n in range(1, 9):
            report = spectrum(n)
            table_achieved = {table_fertility(comps)
                              for _, comps in tables8[n].values()} - {0}
            assert report.achieved == frozenset(table_achieved), n
            assert not report.achieved & SMALL_3_MOD_4, n
            if n == 7:
                assert 27 in report.achieved
                assert fertility(report.witnesses[27]) == 27
        result = classify(3, 4)
        assert result.verdict == VERDICT_PROVEN_INFERTILE
        assert result.searched_n >= 3 + 1


def test_criterion_8_stationary_factorization(tables8):
    with criterion(8, "stationary hook (3,10) of the 16-example; all of S_1..S_8 factor",
                   limit=900):
        outer, inner = factor_at_hook(BIG, Hook(3, 10))
        assert outer == (1, 8, 11, 4, 14, 2, 12, 15, 9, 10, 16)
        assert inner == (4, 3, 5, 7, 6, 13)
        assert fertility(BIG) == fertility(outer) * fertility(inner)
        for n in range(1, 9):
            for w, (configs, comps) in tables8[n].items():
                if not configs:
                    continue
                common = set(configs[0])
                for c in configs[1:]:
                    common &= set(c)
                    if not common:
                        break
                f = table_fertility(comps)
                for hook in common:
                    i, j = hook
                    out_w = w[:i + 1] + w[j - 1:]
                    in_w = w[i:j - 1]
                    assert fertility(out_w) * fertility(in_w) == f, (w, hook)


def test_criterion_9_multiplicativity():
    with criterion(9, "product construction multiplies fertilities (l<=4, m<=3)",
                   limit=60):
        for n_left in range(1, 5):
            for left in all_perms(n_left):
                if left[-1] != n_left:
                    continue
                f_left = fertility(left)
                for n_right in range(1, 4):
                    for right in all_perms(n_right):
                        combined = product_witness(left, right)
                        assert fertility(combined) == f_left * fertility(right)


def test_criterion_10_interval_domination_closure(tables8):
    with criterion(10, "window-dominating compositions stay valid on S_1..S_8",
                   limit=900):
        for n in range(1, 9):
            for w, (configs, comps) in tables8[n].items():
                vs = set(comps)
                if len(vs) < 2:
                    continue
                k = len(configs[0])
                candidates = [q for q in compositions_of(n - k, k + 1) if q not in vs]
                for q1 in vs:
                    for q2 in vs:
                        for q in candidates:
                            assert not interval_dominates(q, q1, q2), (w, q, q1, q2)


def test_criterion_11_reduction(tables8):
    with criterion(11, "forced-part reduction verified on every S_1..S_8 instance",
                   limit=600):
        checked = 0
        for n in range(3, 9):
            for w, (configs, comps) in tables8[n].items():
                if not configs:
                    continue
                k = len(configs[0])
                for i in range(1, k + 1):
                    if any(q[i] != 1 for q in comps):
                        continue
                    z = reduce_stationary(w, i)
                    assert len(z) == n - 2
                    assert valid_compositions(z) == _project(set(comps), i)
                    assert fertility(z) == table_fertility(comps)
                    checked += 1
        assert checked > 0


def test_criterion_12_density_and_matrix_bound():
    with criterion(12, "density 1954/2565 at 10260; N_D <= F_D + 1 incl. 1000 random",
                   limit=60):
        from fractions import Fraction

        count, ratio = density_lower_bound(10260)
        assert ratio == Fraction(1954, 2565)
        matrix = sorted(valid_compositions(P27))
        n_d, f_d = nd_fd(matrix)
        assert (n_d, f_d) == (7, 27)
        assert matrix_bound_holds(matrix)
        rng = random.Random(0)
        for _ in range(1000):
            assert matrix_bound_holds(_random_matrix(rng, 6, 5))


def test_all_images_are_reachable_sanity(tables8):
    # not a numbered criterion: the stack-sort image of S_8 is exactly the
    # set of words the engine calls sorted, tying both sides once more
    images = set()
    for w in all_perms(8):
        images.add(stack_sort(w))
    sorted_words = {w for w, (configs, _) in tables8[8].items() if configs}
    assert images == sorted_words
