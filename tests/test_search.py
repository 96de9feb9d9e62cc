import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksort import (
    SWEEP_LIMIT,
    VERDICT_FERTILE,
    VERDICT_PROVEN_INFERTILE,
    VERDICT_UNKNOWN,
    HypothesisViolatedError,
    SizeLimitExceededError,
    VerificationFailedError,
    catalan,
    classify,
    density_lower_bound,
    descents,
    fertility,
    fertility_histogram,
    matrix_bound_holds,
    nd_fd,
    small_odd_status,
    spectrum,
    witness,
)
from stacksort import search
from conftest import image_counts, lassalle, level_tables, vhc_table


# one draw per shape and per row, not per entry: hypothesis pays for every draw
SHAPES = st.sampled_from([(a, b) for a in range(1, 6) for b in range(1, 6)])
ROWS = {b: st.sampled_from(list(itertools.product(range(1, 6), repeat=b))) for b in range(1, 6)}


@st.composite
def bound_matrices(draw):
    """A 1..5 x 1..5 matrix of entries 1..5 with a 2..5 in every column."""
    a, b = draw(SHAPES)
    rows = [list(draw(ROWS[b])) for _ in range(a)]
    for j in range(b):
        if all(r[j] == 1 for r in rows):
            rows[draw(st.integers(0, a - 1))][j] = draw(st.integers(2, 5))
    return rows


@pytest.fixture(scope="module")
def levels():
    """n -> level table of S_n, for n = 1 .. 10, keyed by tuples."""
    return {n: {tuple(w): value for w, value in table.items()}
            for n, table in search._levels(10)}


@pytest.fixture(scope="module")
def reference():
    """The tuple-keyed reference tables of S_0 .. S_9."""
    return level_tables(9)


class TestLevels:
    def test_tables_are_the_brute_force_image_tallies(self, levels):
        for n in range(1, 9):
            assert levels[n] == dict(image_counts(n))

    def test_tables_past_brute_force(self, levels):
        for n in (9, 10):
            assert sum(levels[n].values()) == math.factorial(n)
        sample = random.Random(10).sample(sorted(levels[10]), 200)
        for w in sample:
            assert fertility(w) == levels[10][w]

    def test_tables_equal_the_tuple_reference(self, levels, reference):
        for n in range(1, 10):
            assert levels[n] == reference[n], n

    def test_count_check_raises(self, monkeypatch):
        monkeypatch.setattr(search, "factorial", lambda n: math.factorial(n) + (n == 4))
        assert spectrum(3).achieved == frozenset({1, 5})
        with pytest.raises(VerificationFailedError):
            spectrum(4)
        with pytest.raises(VerificationFailedError):
            classify(31, 5)
        # 3 is odd, so its scan stops at S_3 and never meets the bad S_4
        assert classify(3, 4) == (3, VERDICT_PROVEN_INFERTILE, None, 4)

    def test_cached_plans_give_the_same_tables(self, reference):
        def build():
            return [{tuple(w): value for w, value in table.items()}
                    for _, table in search._levels(9)]

        first, second = build(), build()
        search._splits.cache_clear()
        assert first == second == build() == reference[1:]

    def test_each_plan_is_built_once_per_process(self):
        search._splits.cache_clear()
        spectrum(6)
        assert search._splits.cache_info()[:2] == (0, 6)  # (hits, misses)
        assert classify(43, 8).verdict == VERDICT_UNKNOWN  # 43 is odd: S_8 is not built
        assert search._splits.cache_info()[:2] == (6, 7)
        spectrum(8)
        assert search._splits.cache_info()[:2] == (13, 8)

    def test_plans_relabel_onto_every_split(self):
        for n in range(1, 9):
            letters = bytes(range(1, n))
            plans = search._splits(n)
            assert len(plans) == n
            for k, plan in enumerate(plans):
                assert len(plan) == math.comb(n - 1, k)
                alphabets = [bytes(range(1, k + 1)).translate(into_a) for into_a, _ in plan]
                assert alphabets == list(map(bytes, itertools.combinations(letters, k))), (n, k)
                for a, (_, into_b) in zip(alphabets, plan):
                    b = bytes(x for x in letters if x not in a)
                    assert letters[:n - 1 - k].translate(into_b) == b, (n, a)

    def test_refused_sweeps_build_no_plan(self):
        search._splits.cache_clear()
        with pytest.raises(SizeLimitExceededError):
            spectrum(SWEEP_LIMIT + 1)
        with pytest.raises(SizeLimitExceededError):
            classify(31, 20)
        with pytest.raises(SizeLimitExceededError) as refused:
            next(search._levels(SWEEP_LIMIT + 1))
        assert str(refused.value) == "a sweep of S_12 exceeds the limit n <= 11"
        assert search._splits.cache_info().currsize == 0

    def test_uniquely_sorted_words(self, levels):
        # Lassalle's sequence (OEIS A180874), computed by its recurrence;
        # Defant, "Catalan intervals and uniquely sorted permutations" (JCTA
        # 2020): a sorted word has fertility 1 exactly when it has (n - 1) / 2
        # descents, and no sorted word has more.
        assert [lassalle(k) for k in range(1, 8)] == [1, 1, 5, 56, 1092, 32670, 1387815]
        counts = []
        for n, table in levels.items():
            ones = 0
            for w, value in table.items():
                k = len(descents(w))
                assert 2 * k <= n - 1, w
                assert (value == 1) == (2 * k == n - 1), w
                ones += value == 1
            counts.append(ones)
        assert counts == [lassalle((n + 1) // 2) if n % 2 else 0 for n in levels]

    def test_even_length_means_even_fertility(self, levels):
        # fert(w) = sum_i fert(w[:i]) * fert(w[i:n-1]) for w ending in n; at
        # even n the two parts have lengths of opposite parity, so by induction
        # every middle term is even, and the terms i = 0 and i = n - 1 are equal
        for n, table in levels.items():
            assert any(value % 2 for value in table.values()) == (n % 2 == 1), n

    def test_only_the_identity_attains_catalan(self, levels):
        for n, table in levels.items():
            top = max(table.values())
            assert top == catalan(n)
            assert [w for w, value in table.items() if value == top] == [tuple(range(1, n + 1))]


class TestSpectrum:
    def test_s3(self):
        report = spectrum(3)
        assert report.achieved == frozenset({1, 5})
        assert report.witnesses == {1: (2, 1, 3), 5: (1, 2, 3)}

    def test_matches_histogram(self):
        for n in range(1, 6):
            hist = fertility_histogram(n)
            assert spectrum(n).achieved == frozenset(v for v in hist if v)

    def test_27_present_at_n7(self):
        report = spectrum(7)
        assert 27 in report.achieved
        assert fertility(report.witnesses[27]) == 27

    def test_witnesses_are_lex_least(self, tables6):
        for n, table in tables6.items():
            least: dict[int, tuple] = {}
            for w in sorted(table):
                least.setdefault(fertility(w), w)
            least.pop(0, None)
            assert spectrum(n).witnesses == least

    def test_witnesses_in_tuple_order_past_letter_9(self, levels):
        least = {}
        for w in sorted(levels[10]):
            least.setdefault(levels[10][w], w)
        assert list(spectrum(10).witnesses.items()) == sorted(least.items())

    def test_witnesses_are_tuples(self):
        # bytes keys stay inside the search layer: not in results, CLI text or cache files
        assert all(type(w) is tuple for w in spectrum(8).witnesses.values())
        assert type(classify(123, 7).witness) is tuple

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceededError):
            spectrum(SWEEP_LIMIT + 1)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            spectrum(0)


class TestClassify:
    def test_fertile_via_construction(self):
        result = classify(2, 5)
        assert result.verdict == VERDICT_FERTILE
        assert result.witness == (1, 2)

    def test_zero_is_fertile(self):
        result = classify(0, 2)
        assert result.verdict == VERDICT_FERTILE
        assert result.witness == (2, 1)

    def test_3_proven_infertile_at_4(self):
        result = classify(3, 4)
        assert result.verdict == VERDICT_PROVEN_INFERTILE
        assert result.witness is None
        assert result.searched_n == 4 >= 3 + 1

    def test_unknown_below_the_certificate(self):
        result = classify(3, 2)
        assert result.verdict == VERDICT_UNKNOWN
        assert result.searched_n == 2

    def test_scan_stops_at_f_plus_1(self):
        # a generous n_max must not scan past the certificate length
        result = classify(3, 9)
        assert result.verdict == VERDICT_PROVEN_INFERTILE
        assert result.searched_n == 4

    def test_never_infertile_when_a_witness_exists(self):
        for f in range(0, 30):
            if witness(f).witness is not None:
                result = classify(f, 1)
                assert result.verdict == VERDICT_FERTILE

    def test_monotone_in_n_max(self):
        assert classify(3, 2).verdict == VERDICT_UNKNOWN
        assert classify(3, 3).verdict == VERDICT_UNKNOWN
        assert classify(3, 4).verdict == VERDICT_PROVEN_INFERTILE

    def test_cache_hit_preempts_construction(self):
        result = classify(1, 1, cache={"2 1 3": 1})
        assert result.verdict == VERDICT_FERTILE
        assert result.witness == (2, 1, 3)  # cache witness, not the built (1,)

    def test_lying_cache_is_re_verified(self):
        result = classify(3, 1, cache={"2 1": 3})  # fertility(21) is 0, not 3
        assert result.verdict == VERDICT_UNKNOWN

    def test_irrelevant_cache_is_ignored(self):
        result = classify(3, 4, cache={"2 1 3": 1, "3 1 4 2 5 6 7": 27})
        assert result.verdict == VERDICT_PROVEN_INFERTILE

    @pytest.mark.parametrize("f, level", [
        (123, 7), (39, 9), (143, 9), (191, 9), (331, 9), (387, 9), (903, 9), (1099, 9)])
    def test_scan_hit(self, f, level, reference):
        # every value of S_1 .. S_9 that no construction reaches, and the
        # first length attaining it
        assert witness(f).witness is None
        assert all(f not in reference[n].values() for n in range(1, level))
        least = min(w for w, value in reference[level].items() if value == f)
        result = classify(f, 9)
        assert result == (f, VERDICT_FERTILE, least, level) == classify(f, level)
        assert spectrum(level).witnesses[f] == least

    def test_bad_jobs(self):
        # classify takes no jobs, even where a construction applies; the CLI
        # validates --jobs itself
        for f, n_max, jobs in ((3, 4, 0), (2, 5, -1)):
            with pytest.raises(TypeError):
                classify(f, n_max, jobs=jobs)

    def test_size_limit_checked_before_the_scan(self, monkeypatch):
        assert classify(3, 20).verdict == VERDICT_PROVEN_INFERTILE  # bound f + 1 = 4
        assert classify(27, 50).verdict == VERDICT_FERTILE  # constructed, no scan

        def no_scan(*args):
            raise AssertionError("a scan started")

        # the build refuses on its first next(), before its first split plan
        monkeypatch.setattr(search, "_splits", no_scan)
        with pytest.raises(SizeLimitExceededError):
            classify(31, 20)

    def test_odd_targets_never_build_an_even_top_level(self, monkeypatch):
        asked = []
        build = search._levels

        def spy(n_max):
            asked.append(n_max)
            return build(n_max)

        monkeypatch.setattr(search, "_levels", spy)
        for f, n_max, top in ((7, 8, 7), (31, 8, 7), (31, 7, 7)):
            asked.clear()
            classify(f, n_max)
            assert asked == [top], (f, n_max)
        asked.clear()
        for f in range(1, 100, 2):
            for n_max in range(1, 9):
                classify(f, n_max)
        assert asked and all(n % 2 for n in asked), asked

    def test_pruned_scan_matches_the_full_scan(self, levels):
        least = {n: {} for n in levels}  # n -> value -> least word of S_n
        for n, table in levels.items():
            for w in sorted(table):
                least[n].setdefault(table[w], w)

        def full_scan(f, n_max):
            bound = min(n_max, f + 1)
            for n in range(1, bound + 1):
                if f in least[n]:
                    return VERDICT_FERTILE, least[n][f], n
            return VERDICT_PROVEN_INFERTILE if n_max > f else VERDICT_UNKNOWN, None, bound

        targets = [f for f in range(3, 400, 4) if witness(f).witness is None]
        cases = [(f, n_max) for f in targets for n_max in range(1, 9)]
        cases += [(f, n_max) for f in (31, 39, 43, 143, 387) for n_max in (9, 10)]
        for f, n_max in cases:
            assert classify(f, n_max)[1:] == full_scan(f, n_max), (f, n_max)

    def test_11_is_proven_infertile(self):
        # S_12 is past SWEEP_LIMIT, but 11 is odd: only S_1 .. S_11 are built
        assert classify(11, 12) == (11, VERDICT_PROVEN_INFERTILE, None, 12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            classify(1, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            classify(-2, 3)


class TestDensity:
    def test_exact_period_value(self):
        count, ratio = density_lower_bound(10260)
        assert ratio == Fraction(1954, 2565)
        assert count == 7816

    def test_small(self):
        assert density_lower_bound(4) == (3, Fraction(3, 4))
        assert density_lower_bound(108).count == 83

    def test_periodic_increments(self):
        for n in (1, 17, 400):
            a = density_lower_bound(n).count
            b = density_lower_bound(n + 10260).count
            assert b - a == 7816

    @staticmethod
    def direct(n):
        return sum(1 for f in range(n) if f % 4 != 3 or f % 27 == 0 or f % 95 == 0)

    def test_matches_the_direct_count(self):
        for n in (1, 2, 3, 27, 95, 10259, 10260, 10261, 20520, 25000, 30779, 30780, 30781):
            assert density_lower_bound(n).count == self.direct(n), n

    def test_huge_n_counts_whole_periods(self):
        # a loop over every f < n would not return for n = 10**12
        periods, rest = divmod(10**12, 10260)
        assert density_lower_bound(10**12).count == 7816 * periods + self.direct(rest)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            density_lower_bound(0)


class TestMatrixBound:
    def test_nd_fd_small(self):
        assert nd_fd([[1]]) == (1, 1)
        assert nd_fd([[1, 2], [2, 1]]) == (4, 4)

    def test_single_entry(self):
        assert matrix_bound_holds([[2]])  # N = 2 <= C_2 + 1 = 3

    def test_nd_is_n_and_fd_is_fertility(self):
        for n in range(1, 7):
            for w, (_, comps) in vhc_table(n).items():
                if not comps:
                    continue
                n_d, f_d = nd_fd(sorted(set(comps)))
                assert n_d == n
                assert f_d == fertility(w)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolatedError):
            matrix_bound_holds([[1]])
        with pytest.raises(HypothesisViolatedError):
            matrix_bound_holds([[1, 2], [1, 2]])

    def test_malformed(self):
        with pytest.raises(ValueError):
            nd_fd([])
        with pytest.raises(ValueError):
            nd_fd([[1, 2], [1]])
        with pytest.raises(ValueError):
            nd_fd([[0, 2]])

    @settings(max_examples=200)
    @given(bound_matrices())
    def test_bound_on_random_matrices(self, rows):
        assert matrix_bound_holds(rows)


class TestSmallOddStatus:
    def test_table(self):
        assert small_odd_status(7) is False
        assert small_odd_status(27) is True
        assert small_odd_status(31) is None
        assert small_odd_status(4) is None

    def test_consistent_with_classify_and_witness(self):
        assert classify(3, 4).verdict == VERDICT_PROVEN_INFERTILE
        assert small_odd_status(3) is False
        assert classify(7, 8).verdict == VERDICT_PROVEN_INFERTILE
        assert small_odd_status(7) is False
        assert witness(27).witness is not None
        assert small_odd_status(27) is True


def test_reports_are_immutable_records():
    assert repr(classify(3, 4)) == (
        "ClassifyResult(f=3, verdict='proven-infertile', witness=None, searched_n=4)")
    assert repr(witness(27)) == (
        "WitnessReport(target_fertility=27, witness=(3, 1, 4, 2, 5, 6, 7), method='interleaved')")
    assert repr(spectrum(3)) == (
        "SpectrumReport(n=3, achieved=frozenset({1, 5}), witnesses={1: (2, 1, 3), 5: (1, 2, 3)})")
    for make, field in ((lambda: classify(3, 4), "verdict"), (lambda: witness(27), "method"),
                        (lambda: spectrum(3), "n")):
        report = make()
        assert report == make()
        with pytest.raises(AttributeError):
            setattr(report, field, None)
