"""Desk-scale searches over symmetric groups and the finite-check bound.

A positive fertility value f, if attained at all, is attained by a word of
length at most f + 1, so ruling f out only requires scanning S_1 .. S_{f+1},
and for an odd f only S_1 .. S_f, since even lengths have even fertility.
``classify`` implements that search (with construction shortcuts), and so
machine-checks that 3, 7 and 11 are not fertility values by classify(f, f + 1);
``spectrum`` collects every value attained in one S_n, and the matrix
helpers expose the arithmetic behind the f + 1 bound. Both sweeps read the
level tables of ``_levels``: every sorted word of S_n is u v n with u and v
sorted words over complementary alphabets, so the sorted words of S_n and
their fertilities are built from those of S_0 .. S_{n-1}, with no per-word
kernel call and no visit to a word that has no preimage. Words are ``bytes``,
relabelled with ``bytes.translate``; byte order is tuple order below 256.
"""
from __future__ import annotations

import functools
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
#: built from 905,024 (A, u, v) products over its 1,024 alphabet splits
#: (0.6-1.0 s and 70 MB peak RSS on a 2-vCPU Xeon VM).
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


@functools.cache
def _splits(n: int) -> tuple[tuple[tuple[bytes, bytes], ...], ...]:
    """For k = 0 .. n-1, the (into_a, into_b) translate tables of every
    k-subset A of ``letters`` = the bytes 1 .. n-1, in ``combinations`` order:
    into_a relabels ``letters[:k]`` onto A, and into_b relabels
    ``letters[:n-1-k]`` onto B = ``letters.translate(None, A)``. They depend
    only on n, so each level's plan is built once per process."""
    letters = bytes(range(1, n))
    return tuple(
        tuple((bytes.maketrans(letters[:k], a),
               bytes.maketrans(letters[:n - 1 - k], letters.translate(None, a)))
              for a in map(bytes, itertools.combinations(letters, k)))
        for k in range(n))


def _levels(n_max: int) -> Iterator[tuple[int, dict[bytes, int]]]:
    """Yield (n, table) for n = 1 .. n_max; ``table`` maps every sorted word
    of S_n, as ``bytes`` with letter x stored as byte x, to its fertility.

    fert(σ n) = Σ_i fert(σ[:i])·fert(σ[i:]) depends only on the patterns of
    the two parts, so for every alphabet split A ⊔ B = [n-1] and sorted
    patterns u of S_|A|, v of S_|B|, the word u(A) v(B) n gains
    fert(u)·fert(v); u(A) is one ``u.translate``. The translate tables of
    the splits depend only on n and come from ``_splits``, built once per
    process; the tables of words are built afresh on every call. Keys hash
    once and, with letters < 256, sort as tuples do. Every permutation has
    exactly one image, so a table whose values do not add up to n! is rejected.
    A build past ``SWEEP_LIMIT`` is refused before any work.
    """
    if n_max > SWEEP_LIMIT:
        raise SizeLimitExceededError(f"a sweep of S_{n_max} exceeds the limit n <= {SWEEP_LIMIT}")
    tables: list[dict[bytes, int]] = [{b"": 1}]
    for n in range(1, n_max + 1):
        table: dict[bytes, int] = {}
        get = table.get
        top = bytes([n])
        for k, plan in enumerate(_splits(n)):
            for into_a, into_b in plan:
                rights = [(v.translate(into_b) + top, fv) for v, fv in tables[n - 1 - k].items()]
                for u, fu in tables[k].items():
                    u = u.translate(into_a)
                    for v, fv in rights:
                        w = u + v
                        table[w] = get(w, 0) + fu * fv
        if sum(table.values()) != factorial(n):
            raise VerificationFailedError(f"the fertilities of S_{n} do not add up to {n}!")
        tables.append(table)
        yield n, table


def spectrum(n: int) -> SpectrumReport:
    """Every positive fertility attained in S_n, read off the level tables.

    Each witness is the lexicographically least word carrying its value. The
    sweep runs in this process: shipping the tables to workers costs more
    than splitting them saves.
    """
    if n < 1:
        raise InvalidArgumentError("n must be positive")
    *_, (_, table) = _levels(n)
    witnesses: dict[int, bytes] = {}
    for w, value in table.items():
        if witnesses.setdefault(value, w) > w:
            witnesses[value] = w
    return SpectrumReport(n, frozenset(witnesses),
                          {value: tuple(w) for value, w in sorted(witnesses.items())})


def classify(f: int, n_max: int, cache: Mapping[str, int] | None = None) -> ClassifyResult:
    """Decide whether ``f`` is a fertility value, searching up to length n_max.

    A cache of known fertilities, if given, is consulted first (entries are
    re-verified before being trusted), then the witness constructions; either
    ends the search with no scan (searched_n = 0). Otherwise the level tables
    of S_1, S_2, ... are built in turn, and the first one holding ``f`` gives
    its lexicographically least word as the witness. The search covers
    bound = min(n_max, f + 1), reported as ``searched_n``: beyond f + 1
    nothing new can appear, so exhausting that range proves infertility;
    exhausting a smaller range is only ever "unknown".

    A word of even length n >= 2 has even fertility, so for an odd f an even
    bound is settled without building S_bound: the scan stops at bound - 1.
    The proof uses only the recursion that ``fertility`` implements, F(a, b)
    for the fertility of w[a:b]:
    - a w not ending in n has fertility 0; else fert(w) = Σ_i F(0, i)·F(i, n-1),
      whose parts have lengths i and n-1-i, of opposite parity;
    - for 1 <= i <= n-2 the even part has length >= 2, so its term is even by
      induction, and the terms i = 0 and i = n-1 both equal fert(w[:n-1]);
    - the base case is n = 2, whose fertilities are 0 and 2.
    """
    if n_max < 1:
        raise InvalidArgumentError("n_max must be positive")
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
    top = bound - 1 if f % 2 and bound % 2 == 0 else bound
    for n, table in _levels(top):
        if f in table.values():
            hit = min(w for w, value in table.items() if value == f)
            return ClassifyResult(f, VERDICT_FERTILE, tuple(hit), n)
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
    any length. Of these, 3, 7 and 11 are machine-checked by
    ``classify(f, f + 1)``, which scans up to S_f within ``SWEEP_LIMIT``; the
    others rest on the paper. Returns None outside this table.
    """
    return _SMALL_ODD_STATUS.get(f)
