"""Hook configurations and the fertility of a permutation.

The number of stack-sorting preimages of a word can be computed without ever
enumerating preimages. :func:`fertility` does it with the defining recursion
of the map: ``s(L n R) = s(L) s(R) n`` around the maximum ``n``, so a
nonempty word ``w`` has preimages only when it ends in its maximum, and then

    fert(w) = sum over i of fert(w[:i]) * fert(w[i:-1]),

the split i marking where ``s(L)`` ends. Every term is the fertility of an
interval of ``w``, so the count is exact and polynomial, whatever the number
of hook configurations. It runs in two phases:

1. :func:`_sortedness` marks the sorted intervals (of positive count), one
   bitset per right end, in O(1) big-integer operations per column and per
   bit new to a run (0.34 ms for ``interleaved_witness(300)`` on 2 vCPUs);
2. :func:`_demanded_fertility` evaluates F(0, n) over only the intervals it
   reaches through those bitsets, an increasing interval of length L being
   ``catalan(L)`` outright.

The hook model is the structural view of the same number, and the rest of
this module implements it. Draw the plot of ``p`` (1-based columns and
values). A *hook* runs from a southwest endpoint (i, p_i) vertically up and
then right to a northeast endpoint (j, p_j); this forces i < j and
p_i < p_j. A *valid hook configuration* places one hook per descent,
subject to:

1. the southwest endpoints are exactly the descent tops;
2. no plot point lies strictly above a hook, i.e. p_x < p_j for all i < x < j;
3. two hooks (i, j) and (i', j') with i < i' are either disjoint (j <= i',
   where j = i' is allowed: an endpoint may be shared corner-to-corner) or
   strictly nested (i' < j' < j). Equal northeast endpoints and crossings
   are forbidden.

Each configuration colors the plot: the k northeast endpoints stay uncolored,
and every other point takes the color of the lowest hook passing over its
column, or the sky color if none does (a southwest endpoint looks past its
own hook). Counting points per color, sky first, gives a composition
(q_0, ..., q_k) of n - k into k + 1 positive parts; distinct configurations
induce distinct compositions. The fertility of ``p`` is also the sum, over
the induced compositions, of the products of Catalan numbers of the parts;
the test suite holds :func:`fertility` to that formula.

Configurations are produced in a canonical order: descents are filled left to
right and northeast columns scanned increasingly, so the output is sorted
lexicographically by the tuple of northeast columns. :func:`iter_vhc` prunes
the search with the sortedness bitsets of phase 1.
"""
from __future__ import annotations

import math
from bisect import bisect
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    InvalidArgumentError,
    LengthMismatchError,
    NotStationaryError,
    PreconditionFailedError,
    ReductionNotFoundError,
    SumMismatchError,
    UnsortedPermutationError,
    VerificationFailedError,
)
from .perms import Perm, descents

Composition = tuple[int, ...]


class Hook(NamedTuple):
    """A hook identified by the 1-based columns of its two endpoints."""

    sw: int
    ne: int


HookConfig = tuple[Hook, ...]


def iter_vhc(p: Sequence[int]) -> Iterator[HookConfig]:
    """Yield every valid hook configuration of ``p`` in canonical order.

    A word with no descents has exactly one configuration, the empty one; an
    unsorted word yields nothing.

    By constraint 2 a hook from column d can end only at a column above p_d
    and above every column between: the chain ``up[d], up[up[d]], ...`` of
    next greater entries. The search never meets a dead end. The descents
    ``ds[t:]`` left of a column ``stop`` can all be hooked below ``stop``
    exactly when columns ``ds[t] .. stop - 1`` form a sorted word, because
    constraints 2 and 3 only look at columns under a hook; that is one bit of
    the bitsets of phase 1 (:func:`_sortedness`), and the search counts
    nothing, so it never runs phase 2. Column
    ``stop - 1`` is never a descent, since ``stop`` is a northeast candidate
    (above its left neighbour) or n + 1. A hook ``(d, j)`` is taken only when
    the region under it and the rest of the enclosing hook both pass this
    test, so every partial configuration extends to a full one.
    """
    ds = descents(p)
    k = len(ds)
    if k == 0:
        yield ()
        return
    n = len(p)
    if p[-1] != max(p):
        return  # no hook can leave the maximum
    sets, _, up = _sortedness(tuple(p))

    def hookable(t: int, stop: int) -> bool:
        return t >= k or ds[t] >= stop or bool(sets[stop - 1] >> (ds[t] - 1) & 1)

    def choices(t: int, bounds: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
        # bounds: n + 1, then the open northeast columns, innermost last
        d = ds[t]
        while bounds[-1] <= d:
            bounds = bounds[:-1]  # hooks ending at or before d no longer bind
        j = up[d]
        while j < bounds[-1]:
            if hookable(t + 1, j) and hookable(bisect(ds, j - 1), bounds[-1]):
                yield j, bounds + (j,)
            j = up[j]

    # One generator per descent on an explicit stack: a word may have
    # hundreds of descents.
    chosen: list[Hook] = []
    stack = [choices(0, (n + 1,))]
    while stack:
        for j, bounds in stack[-1]:
            chosen.append(Hook(ds[len(chosen)], j))
            if len(chosen) < k:
                stack.append(choices(len(chosen), bounds))
                break
            yield tuple(chosen)
            chosen.pop()
        else:
            stack.pop()
            if chosen:
                chosen.pop()


def enumerate_vhc(p: Sequence[int]) -> list[HookConfig]:
    """All valid hook configurations of ``p``, canonically ordered.

    >>> enumerate_vhc((2, 1))
    []
    >>> enumerate_vhc((1, 2, 3))
    [()]
    """
    return list(iter_vhc(p))


def point_colors(p: Sequence[int], config: HookConfig) -> tuple[int, ...]:
    """Color of each plot point under ``config``: 0 for sky, t for the t-th
    hook, -1 for an uncolored northeast endpoint.

    ``config`` must come from :func:`iter_vhc` for the same word.
    """
    starts = {h.sw: t for t, h in enumerate(config, start=1)}
    ends = {h.ne for h in config}
    colors = [0] * len(p)
    active: list[int] = []  # hook ordinals covering the current column, innermost last
    for x in range(1, len(p) + 1):
        if x in ends:
            active.pop()  # nesting means the ending hook is always innermost
            colors[x - 1] = -1
        elif active:
            colors[x - 1] = active[-1]
        t = starts.get(x)
        if t is not None:
            active.append(t)
    return tuple(colors)


def induced_composition(p: Sequence[int], config: HookConfig) -> Composition:
    """The composition (q_0, ..., q_k) counting points per color.

    >>> induced_composition((1, 2, 3), ())
    (3,)
    """
    if not p:
        return ()
    counts = [0] * (len(config) + 1)
    for c in point_colors(p, config):
        if c >= 0:
            counts[c] += 1
    return tuple(counts)


def valid_compositions(p: Sequence[int]) -> set[Composition]:
    """The set of compositions induced by the configurations of ``p``.

    Its size equals the number of configurations (the induced map is
    injective), so an unsorted word gives the empty set.
    """
    return {induced_composition(p, config) for config in iter_vhc(p)}


def catalan(j: int) -> int:
    """The j-th Catalan number, exactly.

    >>> [catalan(j) for j in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if j < 0:
        raise InvalidArgumentError("catalan is defined for nonnegative arguments")
    return math.comb(2 * j, j) // (j + 1)


def composition_weight(q: Sequence[int]) -> int:
    """Product of the Catalan numbers of the parts.

    >>> composition_weight((4, 2))
    28
    """
    return math.prod(catalan(x) for x in q)


def fertility(p: Sequence[int]) -> int:
    """Number of stack-sorting preimages of ``p``, by the interval recursion.

    A word that does not end in its maximum has none and an increasing word
    has ``catalan(n)``, each found in one pass; phases 1 and 2 count the rest.

    >>> fertility((3, 1, 4, 2, 5, 6, 7))
    27
    >>> fertility((2, 1))
    0
    """
    w = tuple(p)
    if w and w[-1] != max(w):
        return 0
    if all(x < y for x, y in zip(w, w[1:])):
        return catalan(len(w))  # the empty word included
    return _demanded_fertility(w)


def _sortedness(w: Perm) -> tuple[list[int], list[int], list[int]]:
    """Phase 1: which intervals of ``w`` are sorted, as one bitset per right end.

    Returns ``(sets, starts, up)``. Bit a of ``sets[b]`` is set exactly when
    F(a, b) > 0, that is when ``w[a:b]`` is a stack-sorting image. Bit b
    always is, and for a < b, with r = b - 1 and lo one past the previous
    greater entry of w[r], the recursion F(a, b) = sum of F(a, i) * F(i, r)
    over a <= i <= r (when w[r] = max w[a:b], else 0) gives

        sets[b] = {b} | (OR of sets[i] over i in sets[r]) >> lo << lo,

    the union asking for a split into a sorted ``w[a:i]`` and ``w[i:r]``
    (the bits of sets[i] are at most i, so the mask also drops every i < lo).
    Along an increasing run the sets only grow (a sorted ``w[a:r]`` before a
    larger w[r] is a split with an empty right part), so the union is kept,
    holding sets[i] for each i in ``sets[r]`` but the bits new to it, which an
    ascent ORs in; a run start (lo == r) masks to {r, b}, so it seeds the union
    with ``sets[r]``. ``starts[b]`` is the first index of the increasing run
    ending at w[b - 1], so ``w[a:b]`` is increasing exactly when a >= starts[b],
    and the run has two or more entries exactly when starts[b] < b - 1. ``up[c]``
    is the first 1-based column right of column c with a larger entry, or n + 1.
    """
    n = len(w)
    sets = [1]
    starts = [0] * (n + 1)
    up = [n + 1] * (n + 1)
    stack: list[int] = []  # columns still waiting for a larger entry
    for b, v in enumerate(w, start=1):
        r = b - 1
        while stack and w[stack[-1] - 1] < v:
            up[stack.pop()] = b
        lo = stack[-1] if stack else 0
        stack.append(b)
        if lo == r:  # v opens a run: the mask keeps only r and b
            starts[b], union = r, sets[r]
        else:  # an ascent: OR in sets[i] for each bit new to sets[r]
            starts[b], fresh = starts[r], sets[r] & ~sets[r - 1]
            while fresh:
                i = fresh.bit_length() - 1
                union |= sets[i]
                fresh ^= 1 << i
        sets.append(union >> lo << lo | 1 << b)
    return sets, starts, up


def _demanded_fertility(w: Perm) -> int:
    """Phase 2: F(0, n) evaluated over only the intervals it reaches.

    The splits of a sorted, non-increasing interval (a, b) are the bits of
    ``sets[b - 1] & cols[a]``, ``cols`` being ``sets`` transposed. The sets
    only grow along an increasing run, so a bit new to ``sets[b]`` stays set
    up to the run's last right end, and one span of right ends per new bit
    fills ``cols``. Bit a of ``need[b]`` marks (a, b) as demanded. A
    right-to-left pass from (0, n) puts the splits of all the demanded,
    non-increasing (a, b) into ``need[b - 1]`` at once, and into each such
    ``need[i]`` the demanded a in ``sets[i]``; a left-to-right pass
    evaluates the demanded intervals, an increasing one (a >= ``starts[b]``)
    as ``catalan(b - a)``. All tables live for one call.
    """
    n = len(w)
    sets, starts, _ = _sortedness(w)
    if not sets[n] & 1:
        return 0
    cols = [0] * (n + 1)  # bit b of cols[a] is bit a of sets[b]
    end = n  # last right end of the increasing run that holds b
    for b in range(n, -1, -1):
        grows = starts[b] < b - 1
        new = sets[b] & ~sets[b - 1] if grows else sets[b]
        span = (2 << end) - (1 << b)
        while new:
            a = new.bit_length() - 1
            cols[a] |= span
            new ^= 1 << a
        if not grows:
            end = b - 1
    need = [0] * (n + 1)  # bit a of need[b]: F(a, b) is demanded
    need[n] = 1
    for b in range(n, 0, -1):
        row = rest = need[b] & ((1 << starts[b]) - 1)  # the non-increasing ones
        at = 0  # every split of a demanded (a, b)
        while rest:
            a = rest.bit_length() - 1
            rest ^= 1 << a
            at |= cols[a]
        at &= sets[b - 1]
        need[b - 1] |= at
        while at:
            i = at.bit_length() - 1
            at ^= 1 << i
            need[i] |= row & sets[i]  # the demanded a that i splits
    cat = [1]  # catalan(0 .. longest increasing run so far)
    keys = list(range(n + 1))  # shared left ends: ints past 256 are not cached
    value = [{0: 1}]  # value[b]: a -> F(a, b) for a in need[b]
    for b, row in enumerate(need[1:], start=1):
        if b - starts[b] == len(cat):
            j = len(cat) - 1
            cat.append(cat[j] * (4 * j + 2) // (j + 2))
        prev = value[-1]  # F(i, b - 1)
        got = {}
        while row:
            a = keys[row.bit_length() - 1]
            row ^= 1 << a
            if a >= starts[b]:
                got[a] = cat[b - a]
                continue
            total = 0
            both = sets[b - 1] & cols[a]
            while both:
                i = both.bit_length() - 1
                both ^= 1 << i
                total += value[i][a] * prev[i]
            got[a] = total
        value.append(got)
    return value[n][0]


def is_sorted(p: Sequence[int]) -> bool:
    """True when ``p`` is a stack-sorting image: it must end in its maximum,
    and then phase 1 (:func:`_sortedness`) decides, counting no preimages."""
    w = tuple(p)
    return not w or w[-1] == max(w) and bool(_sortedness(w)[0][len(w)] & 1)


def stationary_hooks(p: Sequence[int]) -> set[Hook]:
    """Hooks present in every configuration of ``p``.

    >>> stationary_hooks((3, 1, 2, 4))
    {Hook(sw=1, ne=4)}
    """
    configs = iter_vhc(p)
    first = next(configs, None)
    if first is None:
        raise UnsortedPermutationError("an unsorted word has no hooks at all")
    common = set(first)
    for config in configs:
        common &= set(config)
        if not common:
            break
    return common


def factor_at_hook(p: Sequence[int], hook: Hook) -> tuple[Perm, Perm]:
    """Split ``p`` at a stationary hook into an outer and an inner word.

    For a stationary hook with endpoints at columns i < j, the outer word is
    p_1 .. p_{i+1} p_j .. p_n and the inner word is p_{i+1} .. p_{j-1} (the
    entry after the southwest corner appears in both). The fertility of ``p``
    is the product of the fertilities of the two parts.
    """
    hook = Hook(*hook)
    if hook not in stationary_hooks(p):
        raise NotStationaryError(f"{hook} is not stationary for {tuple(p)}")
    i, j = hook
    outer = tuple(p[:i + 1]) + tuple(p[j - 1:])
    inner = tuple(p[i:j - 1])
    return outer, inner


def interval_dominates(q: Sequence[int], q1: Sequence[int], q2: Sequence[int]) -> bool:
    """Whether every window sum of ``q`` reaches the smaller of the
    corresponding window sums of ``q1`` and ``q2``.

    All three must have the same length and the same total.
    """
    if not (len(q) == len(q1) == len(q2)):
        raise LengthMismatchError("compositions must have equal length")
    if not (sum(q) == sum(q1) == sum(q2)):
        raise SumMismatchError("compositions must have equal part sums")
    k = len(q)
    for m1 in range(k):
        s = s1 = s2 = 0
        for m2 in range(m1, k):
            s += q[m2]
            s1 += q1[m2]
            s2 += q2[m2]
            if s < min(s1, s2):
                return False
    return True


def _project(comps: set[Composition], i: int) -> set[Composition]:
    return {q[:i] + q[i + 1:] for q in comps}


def _reduction_candidate(p: Sequence[int], hook: Hook) -> Perm:
    """Delete a stationary hook and re-rank the survivors by region.

    Points strictly under the hook keep their columns shifted left by one and
    their values moved into a middle band; points outside the span move to a
    low band when they sit under the nearer hook corner (below the southwest
    value on the left, below the northeast value on the right) and to a high
    band otherwise. Relative order inside each band is preserved. The caller
    verifies the outcome, so this only has to be right in practice.
    """
    ic, jc = hook
    a, b = p[ic - 1], p[jc - 1]
    remaining = [(x, p[x - 1]) for x in range(1, len(p) + 1) if x != ic and x != jc]

    def band(x: int, v: int) -> int:
        if ic < x < jc:
            return 1
        return 0 if v < (a if x < ic else b) else 2

    by_value = sorted(remaining, key=lambda pt: (band(*pt), pt[1]))
    rank = {pt: r for r, pt in enumerate(by_value, start=1)}
    return tuple(rank[pt] for pt in remaining)


def reduce_stationary(p: Sequence[int], i: int) -> Perm:
    """Shrink ``p`` by two letters while deleting the i-th part of every
    induced composition, which must equal 1 throughout.

    ``i`` is a 1-based descent ordinal. When q_i = 1 for every induced
    composition, the i-th hook is the same in every configuration; removing
    it yields a word in S_{n-2} whose composition set is the projection of
    the original one (and whose fertility therefore matches). The
    construction is verified before being returned, and
    ReductionNotFoundError is raised if it misses.
    """
    word = tuple(p)
    configs = enumerate_vhc(word)
    if not configs:
        raise PreconditionFailedError("reduction requires a sorted permutation")
    k = len(configs[0])
    if not 1 <= i <= k:
        raise PreconditionFailedError(f"descent ordinal {i} out of range 1..{k}")
    comps = {induced_composition(word, c) for c in configs}
    if any(q[i] != 1 for q in comps):
        raise PreconditionFailedError(f"part {i} is not 1 in every induced composition")

    hook = configs[0][i - 1]
    if any(c[i - 1] != hook for c in configs):
        raise VerificationFailedError(f"part {i} is forced but hook {i} is not stationary")

    target = _project(comps, i)
    candidate = _reduction_candidate(word, hook)
    if valid_compositions(candidate) != target:
        raise ReductionNotFoundError(f"the reduced word {candidate} misses the projected set")
    return candidate
