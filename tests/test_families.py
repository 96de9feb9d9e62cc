import tracemalloc

import pytest

from stacksort import (
    InvalidArgumentError,
    LastEntryNotMaxError,
    VerificationFailedError,
    bracket,
    even_witness,
    fertility,
    fertility_brute,
    interleaved_fertility,
    interleaved_witness,
    one_mod4_witness,
    product_witness,
    witness,
)
from stacksort import families
from conftest import all_perms, seed_witness_reference


class TestEvenWitness:
    def test_shape(self):
        assert even_witness(1) == (1, 2)
        assert even_witness(4) == (4, 3, 2, 1, 5, 6, 7, 8)

    def test_against_oracle(self):
        for m in range(1, 5):
            assert fertility_brute(even_witness(m)) == 2 * m

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            even_witness(0)
        with pytest.raises(InvalidArgumentError):
            interleaved_witness(0)


class TestOneMod4Witness:
    def test_shape(self):
        assert one_mod4_witness(1) == (1, 2, 3)
        assert one_mod4_witness(4) == (1, 5, 4, 3, 2, 6, 7, 8, 9)


class TestInterleavedWitness:
    def test_shape(self):
        assert interleaved_witness(2) == (3, 1, 4, 2, 5, 6, 7)

    def test_values_mod_4(self):
        assert interleaved_fertility(2) == 27
        assert interleaved_fertility(4) == 65  # 1 mod 4: not a new seed
        assert interleaved_fertility(6) == 119 and 119 % 4 == 3


class TestProductWitness:
    def test_example(self):
        p = product_witness((1, 2), (1,))
        assert p == (1, 3, 2, 4)
        assert fertility(p) == 2
        assert fertility_brute(p) == 2

    def test_left_identity_is_bracketing(self):
        for n in range(1, 7):
            for mu in all_perms(n):
                assert product_witness((1,), mu) == bracket(mu)

    def test_bracketing_preserves_fertility(self):
        for n in range(1, 7):
            for mu in all_perms(n):
                assert fertility(bracket(mu)) == fertility(mu)

    def test_requires_final_max(self):
        with pytest.raises(LastEntryNotMaxError):
            product_witness((2, 1), (1,))


class TestWitness:
    def test_base_cases(self):
        assert witness(0).witness == (2, 1)
        assert witness(1).witness == (1,)
        assert witness(0).method == witness(1).method == "base-case"

    def test_even(self):
        report = witness(12)
        assert report.method == "even"
        assert fertility(report.witness) == 12

    def test_one_mod_4(self):
        report = witness(17)
        assert report.method == "one-mod-4"
        assert fertility(report.witness) == 17

    def test_27(self):
        report = witness(27)
        assert report.witness == (3, 1, 4, 2, 5, 6, 7)
        assert report.method == "interleaved"

    def test_95(self):
        report = witness(95)
        assert report.witness == (1, 2, 4, 3, 5, 6, 7)
        assert report.method == "base-case"

    def test_119_from_the_interleaved_family(self):
        report = witness(119)
        assert report.method == "interleaved"
        assert fertility(report.witness) == 119

    def test_products(self):
        # 3 mod 4 composites split as seed (3 mod 4) times cofactor (1 mod 4)
        for f in (27 * 5, 27 * 9, 27 * 13, 95 * 5):
            report = witness(f)
            assert report.method == "product"
            assert fertility(report.witness) == f

    def test_a_product_is_verified_once(self, monkeypatch):
        # the cofactor 5 comes straight from the 4m+1 family, unverified
        calls = []
        monkeypatch.setattr(families, "fertility", lambda p: calls.append(p) or fertility(p))
        report = witness(27 * 5)
        assert report.method == "product" and calls == [report.witness]

    def test_product_of_two_seeds_is_1_mod_4(self):
        # e.g. 27 * 27: even the product route is unnecessary there
        report = witness(729)
        assert report.method == "one-mod-4"
        assert fertility(report.witness) == 729

    def test_absent_for_small_3_mod_4(self):
        for f in (3, 7, 11, 15, 19, 23):
            report = witness(f)
            assert report.witness is None and report.method == "none"

    def test_every_claimed_witness_verifies(self):
        for f in range(0, 40):
            report = witness(f)
            if report.witness is not None:
                assert fertility(report.witness) == f

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            witness(-1)

    def test_wrong_verification_raises(self, monkeypatch):
        # a raise, not an assert, so the check also runs under python -O
        monkeypatch.setattr("stacksort.families.fertility", lambda p: 13)
        with pytest.raises(VerificationFailedError):
            witness(12)


class TestSeedPath:
    """Targets congruent to 3 mod 4: the seed itself, else the product with
    the least seed that divides the target, with only that one word built."""

    def test_matches_the_reference(self):
        for f in range(3, 6000, 4):
            assert witness(f) == seed_witness_reference(f)

    def test_a_seed_divisible_by_a_smaller_seed_is_returned_as_itself(self):
        # 1539 = 27 * 57 and 3159 = 27 * 117 are the interleaved values at m = 26, 38
        for f, m in ((1539, 26), (3159, 38)):
            assert witness(f) == (f, interleaved_witness(m), "interleaved")

    def test_a_product_uses_the_least_seed_that_divides(self):
        # 7695 = 27 * 285 = 95 * 81
        cofactor = one_mod4_witness((285 - 1) // 4)
        assert witness(7695) == (7695, product_witness(interleaved_witness(2), cofactor), "product")

    def test_a_large_target_builds_no_word_per_seed(self):
        tracemalloc.start()
        try:
            report = witness(100_000_003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.method == "none"
        assert peak < 1 << 20

    def test_at_most_one_interleaved_word_per_call(self, monkeypatch):
        calls = []
        build = families.interleaved_witness
        monkeypatch.setattr(families, "interleaved_witness", lambda m: calls.append(m) or build(m))
        for f in range(3, 6000, 4):
            calls.clear()
            witness(f)
            assert len(calls) <= 1
