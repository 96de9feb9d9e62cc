"""Permutation words and the stack-sorting map.

A permutation is a word of distinct positive integers, held as a tuple in
one-line notation. Positions and values are 1-based throughout the package:
the plot of ``p`` is the point set ``{(i, p[i-1]) for i = 1..n}``. A word is
*normalized* when its entry set is exactly ``{1, ..., n}``; most operations
accept arbitrary words of distinct entries, since everything downstream only
ever compares entries.
"""
from __future__ import annotations

from typing import Sequence

from .errors import (
    DuplicateEntryError,
    InvalidArgumentError,
    LastEntryNotMaxError,
    NonPositiveEntryError,
    NotNormalizedError,
)

Perm = tuple[int, ...]


def _validated(entries: Sequence[int]) -> Perm:
    word = tuple(entries)
    for x in word:
        if x < 1:
            raise NonPositiveEntryError(f"entries must be positive, got {x}")
    if len(set(word)) != len(word):
        raise DuplicateEntryError(f"entries must be distinct: {word}")
    return word


def parse_permutation(text: str) -> Perm:
    """Parse a permutation from whitespace- or comma-separated text.

    A single token of decimal digits is read compactly, one entry per digit,
    as long as no digit is ``0``; the usual distinctness check then applies, so
    ``"11"`` is rejected rather than read as the 1-entry word (11). Tokens
    containing ``0`` (or inputs with several tokens) are read as ordinary
    decimal numbers, which is how words with entries above 9 are written.

    >>> parse_permutation("4162")
    (4, 1, 6, 2)
    >>> parse_permutation("13 2 12 15")
    (13, 2, 12, 15)
    >>> parse_permutation("")
    ()
    """
    tokens = text.replace(",", " ").split()
    if len(tokens) == 1 and tokens[0].isdecimal() and len(tokens[0]) > 1 and "0" not in tokens[0]:
        return _validated([int(ch) for ch in tokens[0]])
    try:
        entries = [int(t) for t in tokens]
    except ValueError:
        raise InvalidArgumentError(f"not a permutation word: {text!r}") from None
    return _validated(entries)


def perm_text(p: Sequence[int], compact: bool = True) -> str:
    """Render a permutation: compact digits when every entry is below 10.

    >>> perm_text((1, 4, 2, 6))
    '1426'
    >>> perm_text((13, 2, 12, 15))
    '13 2 12 15'
    """
    if compact and p and all(x <= 9 for x in p):
        return "".join(str(x) for x in p)
    return " ".join(str(x) for x in p)


def is_normalized(p: Sequence[int]) -> bool:
    """True when the entry set is exactly {1, .., n}."""
    return sorted(p) == list(range(1, len(p) + 1))


def normalize(w: Sequence[int]) -> Perm:
    """Replace each entry by its rank, giving the order-isomorphic word in S_n.

    >>> normalize((1, 2, 5, 4, 7))
    (1, 2, 4, 3, 5)
    >>> normalize((13, 2, 12, 15, 9, 10, 16))
    (5, 1, 4, 6, 2, 3, 7)
    """
    word = _validated(w)
    rank = {v: r for r, v in enumerate(sorted(word), start=1)}
    # From a list, not a generator: CPython 3.11 grows a generator's tuple
    # from 10 slots, and every such call leaves one more tuple of the final
    # size (up to 20) on a free list, up to 2,000 each, so RSS creeps.
    return tuple([rank[v] for v in word])


def stack_sort(p: Sequence[int]) -> Perm:
    """One pass of the stack-sorting map.

    Entries are pushed onto a stack; whenever the next entry is larger than
    the top of the stack, the top is popped to the output first. The stack is
    flushed at the end.

    >>> stack_sort((4, 1, 6, 2))
    (1, 4, 2, 6)
    >>> stack_sort(())
    ()
    """
    stack: list[int] = []
    out: list[int] = []
    for x in p:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    out.extend(reversed(stack))
    return tuple(out)


def descents(p: Sequence[int]) -> tuple[int, ...]:
    """1-based positions i with p_i > p_{i+1}, in increasing order.

    >>> descents((3, 1, 4, 2, 5, 6, 7))
    (1, 3)
    >>> descents((1, 2, 3))
    ()
    """
    return tuple([i for i in range(1, len(p)) if p[i - 1] > p[i]])  # a list: see normalize


def direct_sum(lower: Sequence[int], upper: Sequence[int]) -> Perm:
    """Place the plot of ``upper`` above and to the right of ``lower``.

    Both arguments must be normalized; the result lives in S_{l+m}.

    >>> direct_sum((1,), (2, 1, 3))
    (1, 3, 2, 4)
    """
    if not is_normalized(lower) or not is_normalized(upper):
        raise NotNormalizedError("direct_sum requires normalized words")
    shift = len(lower)
    return tuple(lower) + tuple([x + shift for x in upper])  # a list: see normalize


def bracket(p: Sequence[int]) -> Perm:
    """Surround a normalized word with two new top values: (n+1) p (n+2).

    >>> bracket((1,))
    (2, 1, 3)
    >>> bracket((1, 2))
    (3, 1, 2, 4)
    """
    if not is_normalized(p):
        raise NotNormalizedError("bracket requires a normalized word")
    n = len(p)
    return (n + 1,) + tuple(p) + (n + 2,)


def drop_final_max(p: Sequence[int]) -> Perm:
    """Remove the last entry of a normalized word ending in its maximum.

    >>> drop_final_max((2, 1, 3))
    (2, 1)
    >>> drop_final_max((1,))
    ()
    """
    if not is_normalized(p) or not p or p[-1] != len(p):
        raise LastEntryNotMaxError("word must be normalized and end in its maximum")
    return tuple(p[:-1])
