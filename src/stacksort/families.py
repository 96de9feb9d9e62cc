"""Explicit permutations with prescribed fertilities.

Three families cover most targets:

* ``even_witness(m)`` has fertility 2m;
* ``one_mod4_witness(m)`` has fertility 4m + 1;
* ``interleaved_witness(m)`` has fertility 5(m+1) + 4*C(m+1, 2), which is
  congruent to 3 mod 4 exactly when m is (so m = 2, 6, 10, ... contribute
  27, 119, 275, ...).

Fertility multiplies under :func:`product_witness`, so targets congruent to
3 mod 4 can sometimes be assembled from the seeds 27, 95 and the interleaved
values. :func:`witness` packages the whole strategy; it is a constructor, not
a decision procedure, and a report without a witness proves nothing.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import InvalidArgumentError, VerificationFailedError
from .hooks import fertility
from .perms import Perm, bracket, direct_sum, drop_final_max

_WITNESS_95: Perm = (1, 2, 4, 3, 5, 6, 7)


def even_witness(m: int) -> Perm:
    """m (m-1) .. 1 followed by (m+1) .. 2m; fertility 2m.

    >>> even_witness(4)
    (4, 3, 2, 1, 5, 6, 7, 8)
    """
    if m < 1:
        raise InvalidArgumentError("m must be positive")
    return tuple(range(m, 0, -1)) + tuple(range(m + 1, 2 * m + 1))


def one_mod4_witness(m: int) -> Perm:
    """A new minimum in front of :func:`even_witness`; fertility 4m + 1."""
    return direct_sum((1,), even_witness(m))


def interleaved_witness(m: int) -> Perm:
    """(m+1) 1 (m+2) 2 ... (2m) m followed by three rising entries.

    >>> interleaved_witness(2)
    (3, 1, 4, 2, 5, 6, 7)
    """
    if m < 1:
        raise InvalidArgumentError("m must be positive")
    word: list[int] = []
    for t in range(1, m + 1):
        word += [m + t, t]
    word += [2 * m + 1, 2 * m + 2, 2 * m + 3]
    return tuple(word)


def interleaved_fertility(m: int) -> int:
    """Closed form for the fertility of :func:`interleaved_witness`."""
    return 5 * (m + 1) + 4 * math.comb(m + 1, 2)


def product_witness(a: Sequence[int], b: Sequence[int]) -> Perm:
    """Combine two normalized words so fertilities multiply.

    ``a`` must end in its maximum. The result drops that maximum and appends
    ``b`` bracketed between two new top values; its fertility is the product
    of the fertilities of ``a`` and ``b``.

    >>> product_witness((1, 2), (1,))
    (1, 3, 2, 4)
    """
    return direct_sum(drop_final_max(a), bracket(b))


class WitnessReport(NamedTuple):
    """Outcome of a witness construction for one target fertility."""

    target_fertility: int
    witness: Perm | None
    method: str  # even | one-mod-4 | interleaved | product | base-case | none


def _verified(f: int, perm: Perm, method: str) -> WitnessReport:
    got = fertility(perm)
    if got != f:
        raise VerificationFailedError(f"construction for {f} produced fertility {got}")
    return WitnessReport(f, perm, method)


def witness(f: int) -> WitnessReport:
    """Try to construct a permutation with fertility exactly ``f``.

    Zero and one have fixed witnesses; even targets and targets congruent to
    1 mod 4 come from the two witness families. A target congruent to 3 mod 4
    is matched against the seeds up to it (95 and the interleaved values 27,
    119, 275, ...) or factored as seed * cofactor with the least seed that
    divides it; both are 3 mod 4, so the cofactor is 1 mod 4 and
    :func:`one_mod4_witness` builds it in one step. The seeds are kept as
    numbers, and only the word returned is built. Every returned witness is
    verified once through the fertility engine. ``method == "none"`` means
    only that this strategy found nothing.
    """
    if f < 0:
        raise InvalidArgumentError("fertility targets are nonnegative")
    if f == 0:
        return _verified(0, (2, 1), "base-case")
    if f == 1:
        return _verified(1, (1,), "base-case")
    if f % 2 == 0:
        return _verified(f, even_witness(f // 2), "even")
    if f % 4 == 1:
        return _verified(f, one_mod4_witness((f - 1) // 4), "one-mod-4")
    seeds = {95: 0}  # seed value -> m of its interleaved word; 0 for 95
    m = 2
    while (value := interleaved_fertility(m)) <= f:
        seeds[value] = m
        m += 4
    # f itself if it is a seed, else the least seed that divides f
    value = f if f in seeds else min((v for v in seeds if f % v == 0), default=0)
    if not value:
        return WitnessReport(f, None, "none")
    m = seeds[value]
    seed = interleaved_witness(m) if m else _WITNESS_95
    if value == f:
        return _verified(f, seed, "interleaved" if m else "base-case")
    # f // value is 1 mod 4 and above 1
    cofactor = one_mod4_witness((f // value - 1) // 4)
    return _verified(f, product_witness(seed, cofactor), "product")
