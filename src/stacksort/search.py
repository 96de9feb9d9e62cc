"""Desk-scale searches over symmetric groups and the finite-check bound.

A positive fertility value f, if attained at all, is attained by a word of
length at most f + 1, so ruling f out only requires scanning S_1 .. S_{f+1}.
``classify`` implements that search (with construction shortcuts),
``spectrum`` collects every value attained in one S_n, and the matrix
helpers expose the arithmetic behind the f + 1 bound.
"""
from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import families
from .errors import HypothesisViolatedError
from .hooks import composition_weight, fertility
from .perms import Perm, parse_permutation

VERDICT_FERTILE = "fertile"
VERDICT_UNKNOWN = "unknown-up-to"
VERDICT_PROVEN_INFERTILE = "proven-infertile"


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


def _block_perms(n: int, first: int):
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in itertools.permutations(rest):
        yield (first, *tail)


def _spectrum_block(args: tuple[int, int]) -> dict[int, Perm]:
    n, first = args
    found: dict[int, Perm] = {}
    for w in _block_perms(n, first):
        f = fertility(w)
        if f and f not in found:
            found[f] = w
    return found


def spectrum(n: int, jobs: int = 1) -> SpectrumReport:
    """Every positive fertility attained in S_n, by the fertility kernel.

    Witnesses are lexicographically least, regardless of ``jobs``: blocks are
    split on the first entry and merged by minimum.
    """
    if n < 1:
        raise ValueError("n must be positive")
    witnesses: dict[int, Perm] = {}
    if jobs <= 1 or n < 3:
        for w in itertools.permutations(range(1, n + 1)):
            f = fertility(w)
            if f and f not in witnesses:
                witnesses[f] = w
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for block in pool.map(_spectrum_block, [(n, first) for first in range(1, n + 1)]):
                for f, w in block.items():
                    if f not in witnesses or w < witnesses[f]:
                        witnesses[f] = w
    return SpectrumReport(n, frozenset(witnesses), dict(sorted(witnesses.items())))


def _classify_block(args: tuple[int, int, int]) -> Perm | None:
    f, n, first = args
    for w in _block_perms(n, first):
        if fertility(w, early_exit=f) == f:
            return w
    return None


def _scan_length(f: int, n: int, jobs: int) -> Perm | None:
    if jobs <= 1 or n < 3:
        for w in itertools.permutations(range(1, n + 1)):
            if fertility(w, early_exit=f) == f:
                return w
        return None
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for hit in pool.map(_classify_block, [(f, n, first) for first in range(1, n + 1)]):
            if hit is not None:
                return hit
    return None


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
    are scanned in lexicographic order with early-exit fertility evaluation.
    Scanning stops at min(n_max, f + 1): beyond f + 1 nothing new can
    appear, so exhausting that range proves infertility; exhausting a
    smaller range is only ever "unknown".
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if f < 0:
        raise ValueError("fertility targets are nonnegative")
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
    for n in range(1, bound + 1):
        hit = _scan_length(f, n, jobs)
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
