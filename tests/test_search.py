import math
import multiprocessing
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
    classify,
    density_lower_bound,
    fertility,
    fertility_histogram,
    matrix_bound_holds,
    nd_fd,
    small_odd_status,
    spectrum,
    valid_compositions,
    witness,
)
from stacksort import search
from conftest import image_counts, vhc_table


@pytest.fixture(scope="module")
def levels():
    """n -> level table of S_n, for n = 1 .. 10."""
    return dict(search._levels(10))


def raise_on_start(self):
    raise AssertionError("a worker process started")


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

    def test_count_check_raises(self, monkeypatch):
        monkeypatch.setattr(search, "factorial", lambda n: math.factorial(n) + (n == 4))
        assert spectrum(3).achieved == frozenset({1, 5})
        with pytest.raises(VerificationFailedError):
            spectrum(4)
        with pytest.raises(VerificationFailedError):
            classify(3, 4)


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

    def test_parallel_matches_sequential(self):
        for n in (1, 2, 5):
            assert spectrum(n, jobs=2) == spectrum(n, jobs=1)

    def test_jobs_start_no_process(self, monkeypatch):
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", raise_on_start)
        assert spectrum(5, jobs=10000) == spectrum(5)
        assert classify(123, 7, jobs=3).witness == (1, 3, 2, 4, 5, 6, 7)

    def test_bad_jobs(self):
        with pytest.raises(ValueError):
            spectrum(3, jobs=0)

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

    def test_parallel_matches_sequential(self):
        assert classify(3, 4, jobs=2) == classify(3, 4, jobs=1)

    def test_scan_hit(self):
        # 123 has no construction; S_7 is the first length attaining it
        assert witness(123).witness is None
        for jobs in (1, 2):
            result = classify(123, 7, jobs=jobs)
            assert result == classify(123, 9, jobs=jobs)
            assert result.verdict == VERDICT_FERTILE
            assert result.searched_n == 7
            assert result.witness == (1, 3, 2, 4, 5, 6, 7) == spectrum(7).witnesses[123]

    def test_bad_jobs(self):
        with pytest.raises(ValueError):
            classify(3, 4, jobs=0)
        with pytest.raises(ValueError):
            classify(2, 5, jobs=-1)  # rejected even when a construction applies

    def test_size_limit_checked_before_the_scan(self, monkeypatch):
        assert classify(3, 20).verdict == VERDICT_PROVEN_INFERTILE  # bound f + 1 = 4
        assert classify(27, 50).verdict == VERDICT_FERTILE  # constructed, no scan

        def no_scan(*args):
            raise AssertionError("a scan started")

        monkeypatch.setattr(search, "_levels", no_scan)
        with pytest.raises(SizeLimitExceededError):
            classify(31, 20, jobs=2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            classify(1, 0)
        with pytest.raises(ValueError):
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
    def test_composition_matrix_of_the_example(self):
        matrix = sorted(valid_compositions((3, 1, 4, 2, 5, 6, 7)))
        n_d, f_d = nd_fd(matrix)
        assert (n_d, f_d) == (7, 27)
        assert matrix_bound_holds(matrix)

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
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_bound_on_random_matrices(self, a, b, data):
        rows = [[data.draw(st.integers(1, 5)) for _ in range(b)] for _ in range(a)]
        for j in range(b):
            if all(row[j] == 1 for row in rows):
                rows[data.draw(st.integers(0, a - 1))][j] = data.draw(st.integers(2, 5))
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
