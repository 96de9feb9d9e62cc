"""Brute-force ground truth for fertilities.

Everything here enumerates rearrangements directly and applies the one-pass
stack sort, independently of the hook machinery; it exists to check the
engine and to histogram whole symmetric groups at small sizes.
"""
from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

from .errors import SizeLimitExceededError
from .perms import Perm, stack_sort

#: Largest length enumerated by default (9! rearrangements).
BRUTE_FORCE_LIMIT = 9


def _check_size(n: int, limit: int) -> None:
    if n > limit:
        raise SizeLimitExceededError(f"length {n} exceeds brute-force limit {limit}")


def preimages(p: Sequence[int], limit: int = BRUTE_FORCE_LIMIT) -> set[Perm]:
    """All rearrangements of the entries of ``p`` that stack-sort to ``p``.

    Reported over the original alphabet of ``p``, which need not be
    normalized.
    """
    target = tuple(p)
    _check_size(len(target), limit)
    return {w for w in itertools.permutations(sorted(target)) if stack_sort(w) == target}


def fertility_brute(p: Sequence[int], limit: int = BRUTE_FORCE_LIMIT) -> int:
    """Preimage count of ``p`` by direct enumeration."""
    return len(preimages(p, limit))


def fertility_histogram(n: int) -> dict[int, int]:
    """Map fertility value -> number of words in S_n attaining it.

    One pass applies the stack sort to every word of S_n and counts images;
    a second pass reads each word's count off that tally. Values weighted by
    multiplicity always sum to n!. Sizes past ``BRUTE_FORCE_LIMIT`` are refused.
    """
    _check_size(n, BRUTE_FORCE_LIMIT)
    universe = range(1, n + 1)
    images = Counter(stack_sort(w) for w in itertools.permutations(universe))
    hist = Counter(images.get(w, 0) for w in itertools.permutations(universe))
    return dict(hist)
