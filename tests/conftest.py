"""Shared sweep data and independent mini-oracles for the test suite.

The expensive artefacts (hook configurations for whole symmetric groups,
stack-sort image tallies) are built once per session and shared; everything
else here is a deliberately naive re-implementation used to cross-check the
engine.
"""
from __future__ import annotations

import faulthandler
import itertools
import os
import sys
from collections import Counter
from functools import lru_cache

import pytest

from stacksort import Hook, induced_composition, iter_vhc, stack_sort


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


@lru_cache(maxsize=None)
def vhc_table(n):
    """perm -> (configs, comps) for every word in S_n."""
    table = {}
    for w in all_perms(n):
        configs = list(iter_vhc(w))
        table[w] = (configs, [induced_composition(w, c) for c in configs])
    return table


@lru_cache(maxsize=None)
def image_counts(n):
    """Counter of stack-sort images over S_n: the brute-force fertility of
    any w in S_n is image_counts(n)[w]."""
    return Counter(stack_sort(w) for w in all_perms(n))


def compositions_of(total, parts):
    """All compositions of ``total`` into ``parts`` positive parts."""
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        out.extend((first,) + rest for rest in compositions_of(total - first, parts - 1))
    return out


def stack_sort_recursive(p):
    """Reference stack sort by the recursion s(L m R) = s(L) s(R) m, with m
    the largest entry; Python recursion limits it to short words."""
    word = tuple(p)
    if not word:
        return ()
    i = word.index(max(word))
    return stack_sort_recursive(word[:i]) + stack_sort_recursive(word[i + 1:]) + (word[i],)


def naive_vhc(p):
    """Reference hook configurations, without the interval kernel: every map
    from descents to columns j > d with p_x < p_j for all d <= x < j, kept
    when each pair of hooks is disjoint or strictly nested, sorted by the
    tuple of northeast columns."""
    n = len(p)
    ds = [d for d in range(1, n) if p[d - 1] > p[d]]
    ends = [[j for j in range(d + 1, n + 1) if all(p[x - 1] < p[j - 1] for x in range(d, j))]
            for d in ds]
    configs = []
    for nes in itertools.product(*ends):
        hooks = tuple(Hook(d, j) for d, j in zip(ds, nes))
        # hooks are ordered by southwest column, so i < i' in every pair
        if all(j <= i2 or j2 < j for (_, j), (i2, j2) in itertools.combinations(hooks, 2)):
            configs.append(hooks)
    return sorted(configs, key=lambda c: tuple(h.ne for h in c))


def naive_point_colors(p, config):
    """Reference coloring rule: scan every hook for every point."""
    n = len(p)
    ne_cols = {h.ne for h in config}
    colors = []
    for x in range(1, n + 1):
        if x in ne_cols:
            colors.append(-1)
            continue
        best, best_v = 0, None
        for t, h in enumerate(config, start=1):
            if h.sw < x < h.ne and (best_v is None or p[h.ne - 1] < best_v):
                best, best_v = t, p[h.ne - 1]
        colors.append(best)
    return tuple(colors)


#: Seconds one test may run before the run is stopped with every thread's
#: traceback; the slowest test takes under 2 s.
TEST_TIME_LIMIT = 120

_STDERR = pytest.StashKey()


def pytest_configure(config):
    # During a test, sys.stderr and even fd 2 feed pytest's capture, which a
    # process killed by the watchdog never prints; keep a copy of the real one.
    config.stash[_STDERR] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Turn a test that hangs into a failed run: past TEST_TIME_LIMIT the
    tracebacks go to stderr and the process exits with status 1. A hook, not
    an autouse fixture, so that the setup of shared fixtures is bounded too."""
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True,
                                      file=item.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def int_digit_limit():
    """``cli.main`` lifts the int-to-decimal digit limit for its process;
    give it back so each test starts from the interpreter's own limit."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="session")
def tables6():
    return {n: vhc_table(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def tables7():
    return {n: vhc_table(n) for n in range(1, 8)}
