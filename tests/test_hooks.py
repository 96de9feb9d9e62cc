import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksort import (
    Hook,
    LengthMismatchError,
    NotStationaryError,
    PreconditionFailedError,
    ReductionNotFoundError,
    SumMismatchError,
    UnsortedPermutationError,
    VerificationFailedError,
    catalan,
    composition_weight,
    descents,
    enumerate_vhc,
    even_witness,
    factor_at_hook,
    fertility,
    induced_composition,
    interleaved_fertility,
    interleaved_witness,
    interval_dominates,
    is_sorted,
    iter_vhc,
    normalize,
    one_mod4_witness,
    point_colors,
    product_witness,
    reduce_stationary,
    stack_sort,
    stationary_hooks,
    valid_compositions,
    witness,
)
from stacksort import hooks
from stacksort.hooks import _project, _reduction_candidate
from stacksort.perms import direct_sum
from conftest import (
    all_perms,
    image_counts,
    interval_rows,
    naive_point_colors,
    naive_vhc,
    table_fertility,
    vhc_table,
)

P27 = (3, 1, 4, 2, 5, 6, 7)
P95 = (1, 2, 4, 3, 5, 6, 7)
BIG = (1, 8, 11, 4, 3, 5, 7, 6, 13, 14, 2, 12, 15, 9, 10, 16)
# increasing runs of 10 to 20 entries, broken at different places
RUN_PRODUCTS = (product_witness(even_witness(16), one_mod4_witness(11)),
                product_witness(one_mod4_witness(20), even_witness(10)),
                product_witness(interleaved_witness(6), even_witness(18)),
                product_witness(product_witness(even_witness(12), interleaved_witness(3)),
                                one_mod4_witness(14)))


def images(lo, hi):
    """Stack-sort images of uniformly drawn permutations of length lo..hi."""
    return st.integers(lo, hi).flatmap(
        lambda n: st.permutations(range(1, n + 1))).map(lambda w: stack_sort(tuple(w)))


def table_kernel(w):
    return interval_rows(w)[len(w)].get(0, 0)


def naive_next_greater(w):
    """For each 1-based column, the first column to its right with a larger
    entry, or len(w) + 1."""
    n = len(w)
    return [next((j for j in range(c + 1, n + 1) if w[j - 1] > w[c - 1]), n + 1)
            for c in range(1, n + 1)]


class TestEnumeration:
    def test_six_configurations_in_canonical_order(self):
        configs = enumerate_vhc(P27)
        assert configs == [
            (Hook(1, 3), Hook(3, 5)),
            (Hook(1, 3), Hook(3, 6)),
            (Hook(1, 3), Hook(3, 7)),
            (Hook(1, 6), Hook(3, 5)),
            (Hook(1, 7), Hook(3, 5)),
            (Hook(1, 7), Hook(3, 6)),
        ]

    def test_six_compositions_paired_with_configs(self):
        comps = [induced_composition(P27, c) for c in enumerate_vhc(P27)]
        assert comps == [(3, 1, 1), (2, 1, 2), (1, 1, 3), (2, 2, 1), (1, 3, 1), (1, 2, 2)]

    def test_increasing_has_one_empty_configuration(self):
        for n in range(1, 6):
            assert enumerate_vhc(tuple(range(1, n + 1))) == [()]

    def test_unsorted_has_none(self):
        assert enumerate_vhc((2, 1)) == []
        assert enumerate_vhc((1, 3, 2)) == []

    def test_empty_permutation(self):
        assert enumerate_vhc(()) == [()]
        assert induced_composition((), ()) == ()
        assert fertility(()) == 1

    def test_matches_naive_enumerator_through_s7(self):
        # the naive enumerator does not prune with the interval kernel
        for n in range(8):
            for w in all_perms(n):
                assert list(iter_vhc(w)) == naive_vhc(w), w

    def test_next_greater_chain_matches_naive(self):
        # iter_vhc walks this chain for hook ends: a wrong link skips hooks or never ends;
        # both kernel phases read their increasing-run test from the run starts
        rng = random.Random(10)
        words = [w for n in range(1, 8) for w in all_perms(n)]
        words += [stack_sort(tuple(rng.sample(range(1, n + 1), n))) for n in range(10, 61)]
        for w in words:
            _, starts, up = hooks._sortedness(w)
            assert up[1:] == naive_next_greater(w), w
            assert starts == [next(a for a in range(b + 1) if list(w[a:b]) == sorted(w[a:b]))
                              for b in range(len(w) + 1)], w

    @settings(max_examples=25, deadline=None)
    @given(images(10, 12))
    def test_matches_naive_enumerator_on_images(self, w):
        assert list(iter_vhc(w)) == naive_vhc(w)

    def test_every_placed_hook_extends_to_a_configuration(self, monkeypatch):
        # with no dead end, each hook placed starts a distinct prefix of a yield
        placed = []
        monkeypatch.setattr(hooks, "Hook", lambda sw, ne: placed.append(1) or Hook(sw, ne))
        rng = random.Random(6)
        words = [w for n in range(1, 8) for w in all_perms(n)]
        words += [stack_sort(tuple(rng.sample(range(1, n + 1), n))) for n in range(10, 31)]
        for w in words:
            placed.clear()
            prefixes = {c[:i] for c in iter_vhc(w) for i in range(1, len(c) + 1)}
            assert len(placed) == len(prefixes), w


class TestColoring:
    def test_sweep_matches_naive_rule_exhaustively(self, tables6):
        for n, table in tables6.items():
            for w, (configs, _) in table.items():
                for config in configs:
                    assert point_colors(w, config) == naive_point_colors(w, config)

    def test_colors_on_the_example(self):
        config = (Hook(1, 6), Hook(3, 5))
        # sky, hook1, hook1 (sw looks past its own hook), hook2, ne, ne, sky
        assert point_colors(P27, config) == (0, 1, 1, 2, -1, -1, 0)


class TestCompositions:
    def test_valid_compositions_95(self):
        assert valid_compositions(P95) == {(5, 1), (4, 2), (3, 3)}

    def test_unsorted_empty(self):
        assert valid_compositions((2, 1)) == set()

    def test_shape(self, tables6):
        # compositions of n - k into k + 1 positive parts
        for n, table in tables6.items():
            for w, (configs, comps) in table.items():
                k = len(configs[0]) if configs else None
                for q in comps:
                    assert len(q) == k + 1
                    assert sum(q) == n - k
                    assert all(part >= 1 for part in q)


class TestCatalan:
    def test_known_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(5) == 42

    def test_against_convolution_recurrence(self):
        table = [1]
        for n in range(1, 12):
            table.append(sum(table[i] * table[n - 1 - i] for i in range(n)))
        assert [catalan(j) for j in range(12)] == table

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)

    def test_weights(self):
        assert composition_weight((4, 2)) == 28
        assert composition_weight((1, 1, 1)) == 1
        assert composition_weight((3, 3)) == 25
        assert composition_weight(()) == 1


class TestFertility:
    def test_examples(self):
        assert fertility(P27) == 27
        assert fertility((1, 2)) == 2
        assert fertility((1, 2, 3)) == 5
        assert fertility((2, 1)) == 0

    @settings(max_examples=60)
    @given(st.lists(st.integers(1, 50), unique=True, max_size=6).map(tuple))
    def test_order_isomorphism_invariance(self, w):
        assert fertility(w) == fertility(normalize(w))

    def test_prepending_one_bumps_the_sky_count(self, tables7):
        for n, table in tables7.items():
            for w, (_, comps) in table.items():
                shifted = valid_compositions((1,) + tuple(x + 1 for x in w))
                assert shifted == {(q[0] + 1,) + q[1:] for q in comps}

    def test_uniquely_sorted_past_the_level_tables(self):
        # Defant, "Catalan intervals and uniquely sorted permutations" (JCTA 2020):
        # a sorted word of length n has fertility 1 exactly when it has (n - 1) / 2
        # descents, and no sorted word has more
        rng = random.Random(51)
        for n in range(51, 302, 13):
            w = stack_sort(tuple(rng.sample(range(1, n + 1), n)))
            k = len(descents(w))
            assert 2 * k <= n - 1, w
            assert (fertility(w) == 1) == (2 * k == n - 1), w
        for m in (1, 2, 3, 4, 10, 50, 100):
            w = tuple(x for i in range(1, m + 1) for x in (2 * i, 2 * i - 1)) + (2 * m + 1,)
            assert len(descents(w)) == m
            assert fertility(w) == 1, m

    def test_even_length_means_even_fertility_past_the_level_tables(self):
        # the parity lemma that lets classify skip an even top level for an odd
        # target; CI repeats it on 300 even-length images with n up to 1,000
        rng = random.Random(28)
        odd = 0
        for n in (rng.randint(12, 200) for _ in range(200)):
            value = fertility(stack_sort(tuple(rng.sample(range(1, n + 1), n))))
            assert n % 2 == 1 or value % 2 == 0, n
            odd += value % 2
        assert odd  # a kernel that returned only even values fails here
        for m in range(1, 101):
            assert fertility(even_witness(m)) % 2 == 0, m

    def test_is_sorted(self):
        assert not is_sorted((2, 1))
        assert is_sorted((1, 2, 3))
        assert not is_sorted((1, 3, 2))
        assert is_sorted(())

    def test_is_sorted_matches_images(self):
        for n in range(8):
            images = image_counts(n)
            for w in all_perms(n):
                assert is_sorted(w) == (w in images), w

    def test_is_sorted_on_long_words_counts_nothing(self, monkeypatch):
        # counting either word with the reference table takes seconds
        monkeypatch.setattr(hooks, "_demanded_fertility", lambda w: pytest.fail("phase 2 ran"))
        rng = random.Random(15)
        # a phase 1 that rescans the union at every run start takes about 0.3 s
        # on interleaved_witness(1500)
        for w, expected in ((even_witness(500), True), (interleaved_witness(1500), True),
                            (tuple(rng.sample(range(1, 1000), 999)) + (1000,), False)):
            start = time.perf_counter()
            assert is_sorted(w) is expected
            assert time.perf_counter() - start < 0.1

    def test_increasing_word_skips_phase_1(self, monkeypatch):
        # phase 1 and the spans of an increasing word would hold O(n^2) bits
        monkeypatch.setattr(hooks, "_sortedness", lambda w: pytest.fail("phase 1 ran"))
        for n in (0, 1, 2, 3, 50, 7200):
            assert fertility(tuple(range(1, n + 1))) == catalan(n)

    def test_word_not_ending_in_its_maximum_skips_phase_1(self, monkeypatch):
        # no hook can leave the maximum, so these words have no preimage; phase 1
        # of the 50,000-letter word would take about 0.6 s and 180 MB
        monkeypatch.setattr(hooks, "_sortedness", lambda w: pytest.fail("phase 1 ran"))
        for n in (2, 3, 50, 50_000):
            w = (n,) + tuple(range(1, n))
            assert fertility(w) == 0
            assert next(iter_vhc(w), None) is None
            assert is_sorted(w) is False


class TestHookWeightSum:
    """fertility() against the hook-weight sum and closed forms."""

    def test_matches_hook_weight_sum_through_s8(self):
        for n in range(9):
            for w, (_, comps) in vhc_table(n).items():
                assert fertility(w) == table_fertility(comps), w

    @settings(max_examples=25, deadline=None)
    @given(images(10, 30))
    def test_matches_hook_weight_sum_on_images(self, w):
        assert fertility(w) == table_fertility(valid_compositions(w))

    def test_closed_forms_beyond_n_100(self):
        assert fertility(even_witness(60)) == 120
        assert fertility(one_mod4_witness(55)) == 221
        assert fertility(interleaved_witness(49)) == interleaved_fertility(49)
        assert fertility(tuple(range(1, 201))) == catalan(200)
        assert fertility(product_witness(interleaved_witness(6), one_mod4_witness(50))) \
            == 119 * 201
        for f in (729, 2701):
            w = witness(f).witness
            assert len(w) > 100 and fertility(w) == f

    @settings(max_examples=25, deadline=None)
    @given(images(8, 14), images(4, 12))
    def test_product_witness_multiplies(self, a, b):
        assert fertility(product_witness(a, b)) == fertility(a) * fertility(b)


class TestDemandKernel:
    """The demand-driven kernel, called directly, against the reference table."""

    def test_matches_table_through_s7(self):
        for n in range(8):
            for w in all_perms(n):
                assert hooks._demanded_fertility(w) == table_kernel(w), w

    def test_matches_table_on_s8_words_ending_in_8(self):
        # the other words of S_8 are unsorted by the maximum rule alone
        for w in all_perms(7):
            w += (8,)
            assert hooks._demanded_fertility(w) == table_kernel(w), w

    def test_matches_table_on_seeded_images(self):
        rng = random.Random(15)
        words = [stack_sort(tuple(rng.sample(range(1, n + 1), n))) for n in range(20, 301, 7)]
        # a bit of a run's span in cols set too early or kept too late adds or
        # drops a split
        words += RUN_PRODUCTS
        for _ in range(6):
            w = ()
            for _ in range(rng.randint(2, 3)):
                m = rng.randint(3, 10)
                dense = stack_sort(tuple(rng.sample(range(1, m + 1), m)))
                w = direct_sum(direct_sum(w, tuple(range(1, rng.randint(10, 20) + 1))), dense)
            words.append(w)
        for w in words:
            assert hooks._demanded_fertility(w) == table_kernel(w), w

    def test_sortedness_bits_match_the_table(self):
        rng = random.Random(16)
        words = [w for n in range(7) for w in all_perms(n)]
        words += [stack_sort(tuple(rng.sample(range(1, n + 1), n))) for n in range(10, 41)]
        # descent-heavy words: most columns open a run, whose union is seeded unscanned
        words += [interleaved_witness(m) for m in range(1, 41)]
        words += [f(m) for f in (even_witness, one_mod4_witness) for m in range(1, 31)]
        words += RUN_PRODUCTS
        for w in words:
            sets = hooks._sortedness(w)[0]
            rows = interval_rows(w)
            for b, row in enumerate(rows):
                assert sets[b] == sum(1 << a for a in row), (w, b)


class TestMetamorphic:
    """Identities on stack-sort images past the reach of brute force."""

    @settings(max_examples=25, deadline=None)
    @given(images(10, 30))
    def test_stationary_hooks_factor_the_fertility(self, w):
        total = fertility(w)
        for hook in stationary_hooks(w):
            outer, inner = factor_at_hook(w, hook)
            assert fertility(outer) * fertility(inner) == total

    @settings(max_examples=25, deadline=None)
    @given(images(10, 30), st.randoms(use_true_random=False))
    def test_order_preserving_relabelling(self, w, rnd):
        # the i-th smallest of distinct positive integers is at least i
        values = sorted(rnd.sample(range(1, 10 * len(w)), len(w)))
        relabelled = tuple(values[x - 1] for x in w)
        assert fertility(relabelled) == fertility(w)
        assert valid_compositions(relabelled) == valid_compositions(w)


class TestStationaryHooks:
    def test_big_example(self):
        assert Hook(3, 10) in stationary_hooks(BIG)

    def test_near_max_before_final_max_is_stationary(self):
        # p_n = n and p_i = n - 1 with i <= n - 2 forces the hook (i, n)
        assert stationary_hooks((3, 1, 2, 4)) == {Hook(1, 4)}
        assert Hook(1, 5) in stationary_hooks((4, 1, 2, 3, 5))

    def test_no_descents_no_hooks(self):
        assert stationary_hooks((1, 2, 3)) == set()

    def test_unsorted_is_an_error(self):
        with pytest.raises(UnsortedPermutationError):
            stationary_hooks((2, 1))

    def test_factor_big_example(self):
        outer, inner = factor_at_hook(BIG, Hook(3, 10))
        assert outer == (1, 8, 11, 4, 14, 2, 12, 15, 9, 10, 16)
        assert inner == (4, 3, 5, 7, 6, 13)
        assert fertility(BIG) == fertility(outer) * fertility(inner)

    def test_factor_small_example(self):
        outer, inner = factor_at_hook((3, 1, 2, 4), Hook(1, 4))
        assert (normalize(outer), normalize(inner)) == ((2, 1, 3), (1, 2))
        assert fertility(outer) * fertility(inner) == 2 == fertility((3, 1, 2, 4))

    def test_non_stationary_hook_rejected(self):
        with pytest.raises(NotStationaryError):
            factor_at_hook(P27, Hook(1, 3))  # present in some configurations only

    def test_factorization_exhaustive(self, tables6):
        for table in tables6.values():
            for w, (configs, comps) in table.items():
                if not configs:
                    continue
                common = set(configs[0]).intersection(*map(set, configs[1:])) \
                    if len(configs) > 1 else set(configs[0])
                for hook in common:
                    outer, inner = factor_at_hook(w, hook)
                    assert fertility(outer) * fertility(inner) == table_fertility(comps)

    def test_forced_part_forces_stationary_hook(self, tables7):
        # q_i = 1 across all induced compositions pins the i-th hook
        for table in tables7.values():
            for w, (configs, comps) in table.items():
                if not configs:
                    continue
                k = len(configs[0])
                for i in range(1, k + 1):
                    if all(q[i] == 1 for q in comps):
                        assert len({c[i - 1] for c in configs}) == 1


class TestIntervalDomination:
    def test_examples(self):
        assert interval_dominates((2, 2, 1), (3, 1, 1), (1, 3, 1))
        assert interval_dominates((1, 3, 1), (1, 3, 1), (1, 3, 1))
        # every window of (1,3,1) reaches the smaller of the two window sums
        assert interval_dominates((1, 3, 1), (3, 1, 1), (1, 1, 3))
        assert not interval_dominates((1, 1, 3), (3, 1, 1), (1, 3, 1))

    def test_mismatches_rejected(self):
        with pytest.raises(LengthMismatchError):
            interval_dominates((2, 2), (3, 1, 1), (1, 3, 1))
        with pytest.raises(SumMismatchError):
            interval_dominates((2, 2, 2), (3, 1, 1), (1, 3, 1))


class TestReduceStationary:
    def test_smallest_case(self):
        assert reduce_stationary((2, 1, 3), 1) == (1,)

    def test_direct_build_agrees_without_fallback(self, tables7):
        # the region construction alone should already realise the target
        for n, table in tables7.items():
            for w, (configs, comps) in table.items():
                if n < 3 or not configs:
                    continue
                k = len(configs[0])
                for i in range(1, k + 1):
                    if all(q[i] == 1 for q in comps):
                        built = _reduction_candidate(w, configs[0][i - 1])
                        assert valid_compositions(built) == _project(set(comps), i)

    def test_missed_build_raises(self, monkeypatch):
        assert reduce_stationary((1, 3, 2, 4), 1) == (1, 2)
        monkeypatch.setattr(hooks, "_reduction_candidate", lambda p, hook: (2, 1))
        with pytest.raises(ReductionNotFoundError):
            reduce_stationary((1, 3, 2, 4), 1)

    def test_forced_part_on_a_moving_hook_raises(self, monkeypatch):
        # part 1 is 1 in both compositions, yet hook 1 ends in two columns
        monkeypatch.setattr(hooks, "enumerate_vhc", lambda p: [(Hook(1, 3),), (Hook(1, 4),)])
        monkeypatch.setattr(hooks, "induced_composition", lambda p, c: (2, 1))
        with pytest.raises(VerificationFailedError, match="hook 1 is not stationary"):
            reduce_stationary((2, 1, 3, 4), 1)

    def test_precondition_failures(self):
        with pytest.raises(PreconditionFailedError):
            reduce_stationary((2, 1), 1)  # unsorted
        with pytest.raises(PreconditionFailedError):
            reduce_stationary((1, 2), 1)  # no descents
        with pytest.raises(PreconditionFailedError):
            reduce_stationary((3, 1, 2, 4), 1)  # composition part is 2
        with pytest.raises(PreconditionFailedError):
            reduce_stationary((2, 1, 3), 2)  # ordinal out of range
