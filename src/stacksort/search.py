"""Desk-scale searches over symmetric groups and the finite-check bound.

A positive fertility value f, if attained at all, is attained by a word of
length at most f + 1, so ruling f out only requires scanning S_1 .. S_{f+1}.
``classify`` implements that search (with construction shortcuts),
``spectrum`` collects every value attained in one S_n, and the matrix
helpers expose the arithmetic behind the f + 1 bound. Only a word ending
in its maximum has preimages, so sweeps visit just the (n-1)! words of S_n
that end in n, in blocks split on the first entry.
"""
from __future__ import annotations

import contextlib
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import families
from .errors import HypothesisViolatedError, SizeLimitExceededError
from .hooks import composition_weight, fertility
from .perms import Perm, parse_permutation

VERDICT_FERTILE = "fertile"
VERDICT_UNKNOWN = "unknown-up-to"
VERDICT_PROVEN_INFERTILE = "proven-infertile"

#: Largest n a symmetric-group sweep accepts: (n-1)! = 3,628,800 words at 11.
SWEEP_LIMIT = 11


@dataclass(frozen=True)
class SpectrumReport:
    """Fertility values attained in S_n, with one witness per value."""

    n: int
    achieved: frozenset[int]
    witnesses: dict[int, Perm]  # value -> lexicographically least witness


@dataclass(frozen=True)
class ClassifyResult:
    """Verdict for one fertility target."""

    f: int
    verdict: str
    witness: Perm | None
    searched_n: int


def _block(n: int, first: int, f: int | None) -> dict[int, Perm]:
    """Lex-least witness per positive fertility, or for ``f`` alone (stopping
    at its first hit), among the words (first, ..., n) in lexicographic order."""
    head = (first,) if first < n else ()  # n = 1: the single word (1,)
    found: dict[int, Perm] = {}
    for middle in itertools.permutations([v for v in range(1, n) if v != first]):
        w = (*head, *middle, n)
        value = fertility(w, early_exit=f)
        if value and (f is None or value == f):
            found.setdefault(value, w)
            if f is not None:
                break
    return found


def _sweep(n: int, jobs: int, f: int | None = None) -> dict[int, Perm]:
    """Merge the blocks first = 1 .. n-1 in order, so the earliest (least)
    witness wins; with ``f`` given, stop at the first block holding it."""
    firsts = range(1, max(n, 2))
    workers = min(jobs, len(firsts))
    witnesses: dict[int, Perm] = {}
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for block in mapper(_block, itertools.repeat(n), firsts, itertools.repeat(f)):
            for value, w in block.items():
                witnesses.setdefault(value, w)
            if f in witnesses:
                break
    return witnesses


def _check_sweep(n: int, jobs: int) -> None:
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if n > SWEEP_LIMIT:
        raise SizeLimitExceededError(f"a sweep of S_{n} exceeds the limit n <= {SWEEP_LIMIT}")


def spectrum(n: int, jobs: int = 1) -> SpectrumReport:
    """Every positive fertility attained in S_n, by the fertility kernel.

    Only the (n-1)! words ending in n are visited, in blocks split on the
    first entry; witnesses are lexicographically least, regardless of ``jobs``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _check_sweep(n, jobs)
    witnesses = _sweep(n, jobs)
    return SpectrumReport(n, frozenset(witnesses), dict(sorted(witnesses.items())))


def classify(
    f: int,
    n_max: int,
    jobs: int = 1,
    cache: Mapping[str, int] | None = None,
) -> ClassifyResult:
    """Decide whether ``f`` is a fertility value, searching up to length n_max.

    A cache of known fertilities, if given, is consulted first (entries are
    re-verified before being trusted), then the witness constructions; either
    ends the search with no scan (searched_n = 0). Otherwise S_1, S_2, ...
    are scanned in lexicographic order with early-exit fertility evaluation,
    over the (n-1)! words ending in n, in blocks split on the first entry.
    Scanning stops at min(n_max, f + 1): beyond f + 1 nothing new can
    appear, so exhausting that range proves infertility; exhausting a
    smaller range is only ever "unknown".
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if f < 0:
        raise ValueError("fertility targets are nonnegative")
    _check_sweep(1, jobs)  # the scan length is checked once no shortcut applies
    if cache:
        for text, value in cache.items():
            if value == f:
                w = parse_permutation(text)
                if fertility(w) == f:
                    return ClassifyResult(f, VERDICT_FERTILE, w, 0)
    report = families.witness(f)
    if report.witness is not None:
        return ClassifyResult(f, VERDICT_FERTILE, report.witness, 0)
    bound = min(n_max, f + 1)  # f >= 1 here: 0 always has a witness above
    _check_sweep(bound, jobs)
    for n in range(1, bound + 1):
        hit = _sweep(n, jobs, f).get(f)
        if hit is not None:
            return ClassifyResult(f, VERDICT_FERTILE, hit, n)
    if n_max >= f + 1:
        return ClassifyResult(f, VERDICT_PROVEN_INFERTILE, None, bound)
    return ClassifyResult(f, VERDICT_UNKNOWN, None, bound)


class DensityBound(NamedTuple):
    """Count and exact ratio of provably-fertile targets below some N."""

    count: int
    ratio: Fraction


def density_lower_bound(n: int) -> DensityBound:
    """How many f in [0, n) are covered by the witness constructions.

    Counts f with f % 4 != 3, or f divisible by 27 or by 95. The count is
    periodic with period 4 * 27 * 95 = 10260, over which the ratio is exactly
    1954/2565.
    """
    if n < 1:
        raise ValueError("n must be positive")
    count = sum(1 for f in range(n) if f % 4 != 3 or f % 27 == 0 or f % 95 == 0)
    return DensityBound(count, Fraction(count, n))


def _validated_matrix(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    rows = [tuple(row) for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValueError("matrix rows must have equal length")
        for x in row:
            if not isinstance(x, int) or x < 1:
                raise ValueError("matrix entries must be positive integers")
    return rows


def nd_fd(matrix: Sequence[Sequence[int]]) -> tuple[Fraction, int]:
    """The pair (N_D, F_D) for a positive integer matrix D.

    N_D is (columns - 1) plus the mean row sum, exactly; F_D sums the Catalan
    weight of each row. When the rows are the induced compositions of a word
    in S_n, N_D = n and F_D is the word's fertility.
    """
    rows = _validated_matrix(matrix)
    n_d = len(rows[0]) - 1 + Fraction(sum(sum(row) for row in rows), len(rows))
    f_d = sum(composition_weight(row) for row in rows)
    return n_d, f_d


def matrix_bound_holds(matrix: Sequence[Sequence[int]]) -> bool:
    """Check N_D <= F_D + 1 for a matrix with no all-ones column.

    The hypothesis (every column contains an entry other than 1) is required;
    under it the bound is expected to hold always, so a False return would be
    a counterexample worth escalating.
    """
    rows = _validated_matrix(matrix)
    for col in zip(*rows):
        if all(x == 1 for x in col):
            raise HypothesisViolatedError("every column must contain an entry other than 1")
    n_d, f_d = nd_fd(rows)
    return n_d <= f_d + 1


_SMALL_ODD_STATUS = {3: False, 7: False, 11: False, 15: False, 19: False, 23: False, 27: True}


def small_odd_status(f: int) -> bool | None:
    """Known status of the first few targets congruent to 3 mod 4.

    27 is attained; 3, 7, 11, 15, 19 and 23 are not attainable by any word of
    any length. Returns None outside this table.
    """
    return _SMALL_ODD_STATUS.get(f)
