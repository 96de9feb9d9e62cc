"""Shared sweep data, independent mini-oracles and new interpreters for the
test suite.

The expensive artefacts (hook configurations for whole symmetric groups,
stack-sort image tallies) are built once per session and shared; the
mini-oracles are deliberately naive re-implementations used to cross-check
the engine.
"""
from __future__ import annotations

import itertools
import logging
import math
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache

import pytest

import stacksort
from stacksort import (
    CacheRecord,
    CorruptRecordError,
    Hook,
    StacksortError,
    WitnessReport,
    append_records,
    composition_weight,
    induced_composition,
    interleaved_fertility,
    interleaved_witness,
    iter_vhc,
    one_mod4_witness,
    product_witness,
    stack_sort,
)
from stacksort import cache
from stacksort.cache import _parse_line, record_line


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


def table_fertility(comps):
    """Fertility by the hook-weight sum over distinct induced compositions."""
    return sum(composition_weight(q) for q in set(comps))


def compositions_of(total, parts):
    """All compositions of ``total`` into ``parts`` positive parts."""
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        out.extend((first,) + rest for rest in compositions_of(total - first, parts - 1))
    return out


@lru_cache(maxsize=None)
def stack_sort_recursive(p):
    """Reference stack sort by the recursion s(L m R) = s(L) s(R) m, with m
    the largest entry; Python recursion limits it to short words. Memoised,
    as the factors L and R recur across the words of S_n."""
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


def interval_rows(w):
    """Reference table F(a, b) = fert(w[a:b]) over every interval of ``w``,
    without the sortedness bitsets or the demand pass of the kernel.

    ``rows[b]`` maps each a with F(a, b) > 0 to that value, keyed by a in
    decreasing order. F(a, a) = 1, and for a < b, with r = b - 1,

        F(a, b) = sum_{i=a}^{r} F(a, i) * F(i, r)   if w[r] = max w[a:b],

    else 0. So F(a, b) vanishes for a at or before the previous greater
    entry of w[r], and an increasing interval of length L has F = catalan(L).
    The key order lets each sum stop at the first a left of its bound.
    """
    rows = [{0: 1}]
    stack = []  # columns still waiting for a larger entry
    cat = [1]  # catalan(0 .. longest increasing run so far)
    rs = 0  # first index of the increasing run ending at w[r]
    for b, v in enumerate(w, start=1):
        r = b - 1
        while stack and w[stack[-1] - 1] < v:
            stack.pop()
        lo = stack[-1] if stack else 0  # one past the previous greater entry
        stack.append(b)
        rs = rs if r and w[r - 1] < v else r
        if b - rs == len(cat):
            j = len(cat) - 1
            cat.append(cat[j] * (4 * j + 2) // (j + 2))
        # F(a, b) for rs <= a <= b is a Catalan number; the sums fill a < rs.
        # Pushing each nonzero F(i, r) into the F(a, i) it multiplies touches
        # nonzero products only.
        acc = {}
        for i, f_ir in rows[r].items():
            if i < lo:
                break
            left = rows[i].items()
            # skip the first i - rs + 1 keys of rows[i] (a = i .. rs): set below
            for a, f_ai in itertools.islice(left, i - rs + 1, None) if i >= rs else left:
                if a < lo:
                    break
                acc[a] = acc.get(a, 0) + f_ai * f_ir
        row = {a: cat[b - a] for a in range(b, rs - 1, -1)}
        for a in sorted(acc, reverse=True):
            row[a] = acc[a]
        rows.append(row)
    return rows


def level_tables(n_max):
    """Reference level tables: ``tables[n]`` maps every sorted word of S_n,
    as a tuple, to its fertility, for n = 0 .. n_max. It builds each word of
    S_n as u(A) v(B) n, as ``search._levels`` does, but relabels the patterns
    entry by entry into tuples, with no ``bytes`` keys or translate tables."""
    tables = [{(): 1}]
    for n in range(1, n_max + 1):
        table = {}
        letters = range(1, n)
        for k in range(n):
            for a in itertools.combinations(letters, k):
                b = [x for x in letters if x not in a]
                lefts = [(tuple([a[x - 1] for x in u]), fu) for u, fu in tables[k].items()]
                rights = [(tuple([b[x - 1] for x in v]) + (n,), fv)
                          for v, fv in tables[n - 1 - k].items()]
                for u, fu in lefts:
                    for v, fv in rights:
                        w = u + v
                        table[w] = table.get(w, 0) + fu * fv
        tables.append(table)
    return tables


def parse_lines(text, name=""):
    """Reference reader of a cache file's text, without the bulk pass of
    ``cache._read``: one ``_parse_line`` call per line that is not empty or a
    lone ``\\r``, and an unterminated last line that does not parse skipped
    with the same warning on the same logger."""
    *lines, tail = text.split("\n")
    records = [_parse_line(line, i) for i, line in enumerate(lines, start=1)
               if line not in ("", "\r")]
    if tail:
        try:
            records.append(_parse_line(tail, len(lines) + 1))
        except CorruptRecordError as exc:
            logging.getLogger("stacksort.cache").warning(
                "%s: skipping an unterminated last line (%s)", name, exc)
    return records


def cold_load(path):
    """``cache.load`` as a fresh process runs it: from an empty slot. The
    slot the last load left is put back afterwards."""
    last = cache._last
    cache._last = (b"", 1, None, {})
    try:
        return cache.load(path)
    finally:
        cache._last = last


def reference_load(path):
    """Reference ``cache.load``: the records :func:`parse_lines` reads from the
    file decoded whole, first value per key, and a conflicting duplicate or
    invalid UTF-8 is corrupt."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptRecordError(f"{path}: {exc}") from None
    table = {}
    for key, value in parse_lines(text, os.fspath(path)):
        old = table.setdefault(key, value)
        if old != value:
            raise CorruptRecordError(f"conflicting values for {key!r}: {old} and {value}")
    return table


def load_outcome(load, path):
    """A cache load's items in order, or the class and text of the error it
    raised, with the warnings it logged."""
    logged = []
    handler = logging.Handler()
    handler.emit = logged.append
    logger = logging.getLogger("stacksort")
    logger.addHandler(handler)
    try:
        got = list(load(path).items())
    except StacksortError as exc:
        got = (type(exc).__name__, str(exc))
    finally:
        logger.removeHandler(handler)
    return got, [(r.name, r.levelname, r.getMessage()) for r in logged]


def warm_and_cold_loads(seed, steps, path, edits=None):
    """Edit the cache file at ``path`` ``steps`` times, seeded, and after each
    edit compare ``cache.load``, whose slot carries over from step to step,
    with :func:`cold_load` and :func:`reference_load`. Return the first edit
    after which they differ, with the file's bytes and the three outcomes, or
    None. A ``Counter`` passed as ``edits`` counts the edits made, by kind.

    The edits append record_line lines (a few with a conflicting value),
    odd lines (CRLF, blank, reordered, spaced, bad) and torn tails, mostly
    after cutting off an unterminated last line, and records through
    ``append_records``; they truncate the file, anywhere or at a line
    end; they change one digit in place and keep the mtime, or write a fresh
    file; and they switch the digit limit and append a value above it. Three
    work on bytes: a line holding an invalid ``\xff``, a valid line with
    non-ASCII text, and a torn tail of such a line that ends inside a
    multi-byte sequence; truncations can then cut one too.
    """
    rng = random.Random(seed)
    keys = [" ".join(map(str, w)) for n in range(7) for w in all_perms(n)]
    values = {key: rng.randrange(10 ** rng.randint(1, 30)) for key in keys}
    has_limit = hasattr(sys, "set_int_max_str_digits")
    limit = sys.get_int_max_str_digits() if has_limit else 0
    if has_limit:
        sys.set_int_max_str_digits(0)
    big = (record_line(CacheRecord("1 2 3 4 5 6 7", 10 ** 4400)) + "\n").encode()

    def record():
        key = rng.choice(keys)
        return CacheRecord(key, values[key] + (rng.random() < 0.005))

    def lines(count):
        return "".join(record_line(record()) + "\n" for _ in range(count)).encode()

    def odd():
        key = rng.choice(keys)
        value = values[key]
        return rng.choice([
            record_line(CacheRecord(key, value)) + "\r\n", "\n", "\r\n",
            '{"perm": "%s","fertility":"%s"}\n' % (key, value),
            '{"fertility":"%s","perm":"%s"}\n' % (value, key),
            "not json\n", '{"perm":"1 1","fertility":"2"}\n',
            '{"perm":"%s","fertility":"0%s"}\n' % (key, value)]).encode()

    def non_ascii():
        """A valid record whose line holds a non-ASCII field name and value."""
        key = rng.choice(keys)
        return ('{"perm":"%s","fertility":"%s","cl\u00e9":"\u2028\U0001d11e"}\n'
                % (key, values[key])).encode()

    try:
        for step in range(steps):
            data = path.read_bytes() if path.exists() else b""
            edit = rng.choices(["append", "append_records", "odd", "torn", "truncate",
                                "digit", "fresh", "limit", "big", "invalid", "non_ascii",
                                "torn_utf8"],
                               [5, 2, 1, 1, 2, 1, 0.5, 0.5, 0.3, 0.2, 0.5, 0.3])[0]
            if edits is not None:
                edits[edit] += 1
            if edit in ("append", "odd", "big", "invalid", "non_ascii") and rng.random() < 0.8:
                data = data[:data.rfind(b"\n") + 1]  # as append_records cuts a torn tail
            if edit == "append":
                data += lines(rng.randint(1, 6))
            elif edit == "append_records":
                try:
                    append_records(path, [record() for _ in range(rng.randint(1, 6))])
                except StacksortError:  # a tail above the digit limit
                    pass
                data = path.read_bytes()
            elif edit == "odd":
                data += odd()
            elif edit == "torn":
                line = record_line(record()).encode()
                data += line[:rng.randint(1, len(line))]
            elif edit == "truncate":
                cut = rng.randint(0, len(data))
                data = data[:data.rfind(b"\n", 0, cut) + 1 if rng.random() < 0.5 else cut]
            elif edit == "digit":
                digits = [i for i, c in enumerate(data) if c in b"0123456789"]
                if digits:
                    at = rng.choice(digits)
                    data = data[:at] + bytes([rng.choice(b"0123456789")]) + data[at + 1:]
            elif edit == "fresh":
                data = lines(rng.randint(0, 12))
            elif edit == "limit" and has_limit:
                sys.set_int_max_str_digits(4300 if sys.get_int_max_str_digits() == 0 else 0)
            elif edit == "big":
                data += big
            elif edit == "invalid":
                line = record_line(record()).encode()
                at = rng.randint(0, len(line))
                data += line[:at] + b"\xff" + line[at:] + b"\n"
            elif edit == "non_ascii":
                data += non_ascii()
            elif edit == "torn_utf8":  # cut before a continuation byte
                line = non_ascii()
                data += line[:rng.choice([i for i, c in enumerate(line) if c & 0xC0 == 0x80])]
            if edit != "append_records":
                stat = path.stat() if path.exists() else None
                path.write_bytes(data)
                if stat is not None:  # the same mtime: only the bytes tell of the edit
                    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            warm = load_outcome(cache.load, path)
            cold = load_outcome(cold_load, path)
            reference = load_outcome(reference_load, path)
            if not warm == cold == reference:
                return step, edit, data, warm, cold, reference
    finally:
        if has_limit:
            sys.set_int_max_str_digits(limit)
    return None


@lru_cache(maxsize=None)
def lassalle(k):
    """The k-th term of Lassalle's sequence (OEIS A180874), the number of
    words of S_{2k-1} with exactly one preimage, by Lassalle's recurrence
    (JCTA 119, 2012), with C_k the k-th Catalan number:
    a(k) = (-1)^(k-1) (C_k + sum_{j=1}^{k-1} (-1)^j binom(2k-1, 2j-1) a(j) C_{k-j})."""
    def catalan(m):
        return math.comb(2 * m, m) // (m + 1)
    return (-1) ** (k - 1) * (catalan(k) + sum(
        (-1) ** j * math.comb(2 * k - 1, 2 * j - 1) * lassalle(j) * catalan(k - j)
        for j in range(1, k)))


def seed_witness_reference(f):
    """Reference 3-mod-4 branch of ``families.witness``, unverified: build
    the word of every seed up to ``f`` (95 and the interleaved values 27,
    119, 275, ...), sort them by value, return the seed equal to ``f`` if
    there is one, else the product with the first seed that divides ``f``,
    else a report without a witness."""
    seeds = [(95, "base-case", (1, 2, 4, 3, 5, 6, 7))] if f >= 95 else []
    m = 2
    while (value := interleaved_fertility(m)) <= f:
        seeds.append((value, "interleaved", interleaved_witness(m)))
        m += 4
    seeds.sort()
    for value, method, perm in seeds:
        if value == f:
            return WitnessReport(f, perm, method)
    for value, _, perm in seeds:
        if f % value == 0:
            cofactor = one_mod4_witness((f // value - 1) // 4)
            return WitnessReport(f, product_witness(perm, cofactor), "product")
    return WitnessReport(f, None, "none")


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


def in_new_interpreter(*args):
    """Start ``python *args`` with this package first on its path."""
    src = os.path.dirname(os.path.dirname(stacksort.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def outcome(process):
    """Exit code, stdout and stderr of a process started by in_new_interpreter;
    one still running after 60 s is killed, as ``subprocess.run`` would."""
    with process:
        try:
            out, err = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            raise
    return process.returncode, out, err


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
