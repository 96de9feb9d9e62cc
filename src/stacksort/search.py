"""Desk-scale searches over symmetric groups and the finite-check bound.

A positive fertility value f, if attained at all, is attained by a word of
length at most f + 1, so ruling f out only requires scanning S_1 .. S_{f+1}.
``classify`` implements that search (with construction shortcuts),
``spectrum`` collects every value attained in one S_n, and the matrix
helpers expose the arithmetic behind the f + 1 bound. Both sweeps read the
level tables of ``_levels``: every sorted word of S_n is u v n with u and v
sorted words over complementary alphabets, so the sorted words of S_n and
their fertilities are built from those of S_0 .. S_{n-1}, with no per-word
kernel call and no visit to a word that has no preimage.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping, NamedTuple, Sequence

from . import families
from .errors import (
    HypothesisViolatedError,
    InvalidArgumentError,
    SizeLimitExceededError,
    VerificationFailedError,
)
from .hooks import composition_weight, fertility
from .perms import Perm, parse_permutation

VERDICT_FERTILE = "fertile"
VERDICT_UNKNOWN = "unknown-up-to"
VERDICT_PROVEN_INFERTILE = "proven-infertile"

#: Largest n a symmetric-group sweep accepts: S_11 has 578,290 sorted words,
#: built from 905,024 splits (2.6 s and 140 MB peak RSS on a 2-vCPU Xeon VM).
SWEEP_LIMIT = 11


class SpectrumReport(NamedTuple):
    """Fertility values attained in S_n, with one witness per value."""

    n: int
    achieved: frozenset[int]
    witnesses: dict[int, Perm]  # value -> lexicographically least witness


class ClassifyResult(NamedTuple):
    """Verdict for one fertility target."""

    f: int
    verdict: str
    witness: Perm | None
    searched_n: int


def _levels(n_max: int) -> Iterator[tuple[int, dict[Perm, int]]]:
    """Yield (n, table) for n = 1 .. n_max; ``table`` maps every sorted word
    of S_n to its fertility.

    fert(σ n) = Σ_i fert(σ[:i])·fert(σ[i:]) depends only on the patterns of
    the two parts, so for every alphabet split A ⊔ B = [n-1] and sorted
    patterns u of S_|A|, v of S_|B|, the word u(A) v(B) n gains
    fert(u)·fert(v). Every permutation has exactly one image, so the values
    of a table add up to n!; a level that does not is rejected.
    """
    tables: list[dict[Perm, int]] = [{(): 1}]
    for n in range(1, n_max + 1):
        table: dict[Perm, int] = {}
        letters = range(1, n)
        for k in range(n):
            for a in itertools.combinations(letters, k):
                b = [x for x in letters if x not in a]
                lefts = [(tuple(a[x - 1] for x in u), fu) for u, fu in tables[k].items()]
                rights = [(tuple(b[x - 1] for x in v) + (n,), fv)
                          for v, fv in tables[n - 1 - k].items()]
                for u, fu in lefts:
                    for v, fv in rights:
                        w = u + v
                        table[w] = table.get(w, 0) + fu * fv
        if sum(table.values()) != factorial(n):
            raise VerificationFailedError(f"the fertilities of S_{n} do not add up to {n}!")
        tables.append(table)
        yield n, table


def _check_sweep(n: int, jobs: int) -> None:
    if jobs < 1:
        raise InvalidArgumentError("jobs must be at least 1")
    if n > SWEEP_LIMIT:
        raise SizeLimitExceededError(f"a sweep of S_{n} exceeds the limit n <= {SWEEP_LIMIT}")


def spectrum(n: int, jobs: int = 1) -> SpectrumReport:
    """Every positive fertility attained in S_n, read off the level tables.

    Each witness is the lexicographically least word carrying its value.
    ``jobs`` is validated (at least 1) but the sweep runs in this process:
    shipping the tables to workers costs more than splitting them saves.
    """
    if n < 1:
        raise InvalidArgumentError("n must be positive")
    _check_sweep(n, jobs)
    *_, (_, table) = _levels(n)
    witnesses: dict[int, Perm] = {}
    for w, value in table.items():
        if value not in witnesses or w < witnesses[value]:
            witnesses[value] = w
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
    ends the search with no scan (searched_n = 0). Otherwise the level tables
    of S_1, S_2, ... are built in turn, and the first one holding ``f`` gives
    its lexicographically least word as the witness. Scanning stops at
    min(n_max, f + 1): beyond f + 1 nothing new can appear, so exhausting
    that range proves infertility; exhausting a smaller range is only ever
    "unknown". ``jobs`` is validated as in :func:`spectrum`.
    """
    if n_max < 1:
        raise InvalidArgumentError("n_max must be positive")
    if f < 0:
        raise InvalidArgumentError("fertility targets are nonnegative")
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
    for n, table in _levels(bound):
        hit = min((w for w, value in table.items() if value == f), default=None)
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
    """How many f in [0, n) are fertility values by the paper's two facts.

    Counts f with f % 4 != 3, or f divisible by the seed 27 or 95: fertility
    values are closed under products, and every f % 4 != 3 is one. This is a
    lower bound on what the constructions cover, since :func:`families.witness`
    also builds some other 3-mod-4 targets (119 and 275 by the interleaved
    family). Membership has period 4 * 27 * 95 = 10260, with 7816 members in
    each period (ratio 1954/2565), so only the remainder is scanned.
    """
    if n < 1:
        raise InvalidArgumentError("n must be positive")
    periods, rest = divmod(n, 4 * 27 * 95)
    count = 7816 * periods + sum(
        1 for f in range(rest) if f % 4 != 3 or f % 27 == 0 or f % 95 == 0)
    return DensityBound(count, Fraction(count, n))


def _validated_matrix(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    rows = [tuple(row) for row in matrix]
    if not rows or not rows[0]:
        raise InvalidArgumentError("matrix must be nonempty")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise InvalidArgumentError("matrix rows must have equal length")
        for x in row:
            if not isinstance(x, int) or x < 1:
                raise InvalidArgumentError("matrix entries must be positive integers")
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
