import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stacksort import (
    DuplicateEntryError,
    InvalidArgumentError,
    LastEntryNotMaxError,
    NonPositiveEntryError,
    NotNormalizedError,
    StacksortError,
    bracket,
    descents,
    direct_sum,
    drop_final_max,
    is_normalized,
    normalize,
    parse_permutation,
    perm_text,
    stack_sort,
)
from stacksort.perms import _validated
from conftest import all_perms, stack_sort_recursive

words = st.lists(st.integers(1, 60), unique=True, max_size=8).map(tuple)


class TestParse:
    def test_compact_digits(self):
        assert parse_permutation("4162") == (4, 1, 6, 2)
        assert parse_permutation("\u0664\u0661\u0666\u0662") == (4, 1, 6, 2)  # Arabic-Indic

    @pytest.mark.parametrize("text", ["\u00b2\u00b3", "\u2460\u2461", "1\u00b23"],
                             ids=["superscripts", "circled", "superscript-inside"])
    def test_non_decimal_digits_rejected(self, text):
        # superscripts and circled digits are digits to str.isdigit, but not to int
        with pytest.raises(InvalidArgumentError):
            parse_permutation(text)

    def test_spaced(self):
        assert parse_permutation("13 2 12 15") == (13, 2, 12, 15)

    def test_commas(self):
        assert parse_permutation("1, 2,3") == (1, 2, 3)

    def test_empty_text_is_empty_perm(self):
        assert parse_permutation("") == ()
        assert parse_permutation("   ") == ()

    def test_compact_token_splits_before_distinctness_check(self):
        with pytest.raises(DuplicateEntryError):
            parse_permutation("11")

    def test_token_with_zero_digit_reads_as_one_number(self):
        assert parse_permutation("10") == (10,)
        assert parse_permutation("100") == (100,)

    def test_single_digit(self):
        assert parse_permutation("7") == (7,)

    def test_zero_rejected(self):
        with pytest.raises(NonPositiveEntryError):
            parse_permutation("0")
        with pytest.raises(NonPositiveEntryError):
            parse_permutation("-3 1")

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateEntryError):
            parse_permutation("3 3")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_permutation("3 x 1")

    def test_round_trip_text(self):
        for text in ("4162", "13 2 12 15", ""):
            p = parse_permutation(text)
            assert parse_permutation(perm_text(p)) == p

    def test_tokens_match_the_regex_split(self):
        # the tokenizer before str.split: one run of commas and \s is one separator
        def reference(text):
            tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
            if not tokens:
                return ()
            if len(tokens) == 1 and tokens[0].isdigit() and len(tokens[0]) > 1 \
                    and "0" not in tokens[0]:
                return _validated([int(ch) for ch in tokens[0]])
            try:
                entries = [int(t) for t in tokens]
            except ValueError:
                raise InvalidArgumentError(f"not a permutation word: {text!r}") from None
            return _validated(entries)

        def result(parse, text):
            try:
                return parse(text)
            except StacksortError as error:
                return type(error), str(error)

        # separators, Unicode spaces, two non-space look-alikes, digits, signs, letters
        alphabet = ", \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000\u200b\ufeff0123456789-ab"
        rng = random.Random(13)
        for _ in range(5000):
            text = "".join(rng.choices(alphabet, k=rng.randrange(12)))
            assert result(parse_permutation, text) == result(reference, text), repr(text)


class TestNormalize:
    def test_ranks(self):
        assert normalize((1, 2, 5, 4, 7)) == (1, 2, 4, 3, 5)
        assert normalize((13, 2, 12, 15, 9, 10, 16)) == (5, 1, 4, 6, 2, 3, 7)

    def test_already_normalized(self):
        assert normalize((1, 2, 3)) == (1, 2, 3)

    @given(words)
    def test_idempotent_and_order_isomorphic(self, w):
        v = normalize(w)
        assert is_normalized(v)
        assert normalize(v) == v
        # same pairwise comparison matrix
        assert all((w[i] < w[j]) == (v[i] < v[j])
                   for i in range(len(w)) for j in range(len(w)))


class TestStackSort:
    def test_known_values(self):
        assert stack_sort((4, 1, 6, 2)) == (1, 4, 2, 6)
        assert stack_sort(()) == ()
        assert stack_sort((2, 3, 1)) == (2, 1, 3)
        assert stack_sort((3, 2, 1)) == (1, 2, 3)

    def test_recursive_matches_known_values(self):
        assert stack_sort_recursive((4, 1, 6, 2)) == (1, 4, 2, 6)
        assert stack_sort_recursive((1,)) == (1,)
        assert stack_sort_recursive((3, 2, 1)) == (1, 2, 3)

    def test_recursive_equals_iterative_exhaustive(self):
        for n in range(9):
            words = list(all_perms(n))
            assert list(map(stack_sort, words)) == list(map(stack_sort_recursive, words)), n

    @given(words)
    def test_preserves_entries(self, w):
        assert sorted(stack_sort(w)) == sorted(w)
        assert stack_sort_recursive(w) == stack_sort(w)

    def test_reaches_identity_within_n_minus_1_steps(self):
        for n in range(1, 8):
            ident = tuple(range(1, n + 1))
            for w in all_perms(n):
                for _ in range(n - 1):
                    if w == ident:
                        break
                    w = stack_sort(w)
                assert w == ident


class TestDescents:
    def test_examples(self):
        assert descents((3, 1, 4, 2, 5, 6, 7)) == (1, 3)
        assert descents((1, 2, 3)) == ()
        assert descents((4, 3, 2, 1, 5, 6, 7, 8)) == (1, 2, 3)


class TestStructuralOps:
    def test_direct_sum(self):
        assert direct_sum((1,), (1, 2)) == (1, 2, 3)
        assert direct_sum((1,), (4, 3, 2, 1, 5, 6, 7, 8)) == (1, 5, 4, 3, 2, 6, 7, 8, 9)
        assert direct_sum((1,), (2, 1, 3)) == (1, 3, 2, 4)
        assert direct_sum((), (2, 1)) == (2, 1)

    def test_direct_sum_requires_normalized(self):
        with pytest.raises(NotNormalizedError):
            direct_sum((2, 3), (1,))

    def test_direct_sum_shifts_descents(self):
        for lo in all_perms(3):
            for hi in all_perms(3):
                combined = direct_sum(lo, hi)
                expect = descents(lo) + tuple(d + 3 for d in descents(hi))
                assert descents(combined) == expect

    def test_bracket(self):
        assert bracket((1,)) == (2, 1, 3)
        assert bracket((1, 2)) == (3, 1, 2, 4)
        assert bracket(()) == (1, 2)
        with pytest.raises(NotNormalizedError):
            bracket((2, 3))

    def test_drop_final_max(self):
        assert drop_final_max((1, 2, 3)) == (1, 2)
        assert drop_final_max((1,)) == ()
        assert drop_final_max((2, 1, 3)) == (2, 1)
        with pytest.raises(LastEntryNotMaxError):
            drop_final_max((2, 1))
        with pytest.raises(LastEntryNotMaxError):
            drop_final_max(())


def test_perm_text_compact_switch():
    assert perm_text((1, 4, 2, 6)) == "1426"
    assert perm_text((1, 4, 2, 6), compact=False) == "1 4 2 6"
    assert perm_text((13, 2)) == "13 2"
    assert perm_text(()) == ""
