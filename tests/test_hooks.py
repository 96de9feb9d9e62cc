import math
import random

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
    catalan,
    composition_weight,
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
)
from stacksort import hooks
from stacksort.hooks import _project, _reduction_candidate
from conftest import (
    all_perms, compositions_of, image_counts, naive_point_colors, naive_vhc, vhc_table)

P27 = (3, 1, 4, 2, 5, 6, 7)
P95 = (1, 2, 4, 3, 5, 6, 7)
BIG = (1, 8, 11, 4, 3, 5, 7, 6, 13, 14, 2, 12, 15, 9, 10, 16)


def table_fertility(comps):
    return sum(composition_weight(q) for q in set(comps))


def images(lo, hi):
    """Stack-sort images of uniformly drawn permutations of length lo..hi."""
    return st.integers(lo, hi).flatmap(
        lambda n: st.permutations(range(1, n + 1))).map(lambda w: stack_sort(tuple(w)))


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
        # iter_vhc walks this chain for hook ends: a wrong link skips hooks or never ends
        rng = random.Random(10)
        words = [w for n in range(1, 8) for w in all_perms(n)]
        words += [stack_sort(tuple(rng.sample(range(1, n + 1), n))) for n in range(10, 61)]
        for w in words:
            assert hooks._interval_rows(w)[1][1:] == naive_next_greater(w), w

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

    def test_early_exit(self):
        assert fertility(P27, early_exit=26) is None
        assert fertility(P27, early_exit=27) == 27
        assert fertility((2, 1), early_exit=0) == 0

    def test_matches_brute_force_exhaustively(self, tables7):
        for n, table in tables7.items():
            images = image_counts(n)
            for w, (_, comps) in table.items():
                assert table_fertility(comps) == images.get(w, 0)

    def test_mass_conservation(self, tables7):
        for n, table in tables7.items():
            assert sum(table_fertility(comps) for _, comps in table.values()) \
                == math.factorial(n)

    def test_injectivity(self, tables7):
        for table in tables7.values():
            for w, (configs, comps) in table.items():
                assert len(set(comps)) == len(configs)

    @settings(max_examples=60)
    @given(st.lists(st.integers(1, 50), unique=True, max_size=6).map(tuple))
    def test_order_isomorphism_invariance(self, w):
        assert fertility(w) == fertility(normalize(w))

    def test_prepending_one_bumps_the_sky_count(self, tables7):
        for n, table in tables7.items():
            for w, (_, comps) in table.items():
                shifted = valid_compositions((1,) + tuple(x + 1 for x in w))
                assert shifted == {(q[0] + 1,) + q[1:] for q in comps}

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


class TestIntervalKernel:
    """The interval recursion against the hook-weight sum and closed forms."""

    def test_matches_hook_weight_sum_through_s8(self):
        for n in range(9):  # n = 0: fertility((), early_exit=0) is None
            for w, (_, comps) in vhc_table(n).items():
                want = table_fertility(comps)
                assert fertility(w) == want, w
                for cap in (-1, 0, 1, 5, 27):
                    # a zero count is returned whatever the cap
                    expect = None if want and want > cap else want
                    assert fertility(w, early_exit=cap) == expect, (w, cap)

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

    @settings(max_examples=25, deadline=None)
    @given(images(8, 14), images(4, 12))
    def test_product_witness_multiplies(self, a, b):
        assert fertility(product_witness(a, b)) == fertility(a) * fertility(b)


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

    def test_closure_exhaustive(self, tables6):
        for n, table in tables6.items():
            for w, (configs, comps) in table.items():
                vs = set(comps)
                if len(vs) < 2:
                    continue
                k = len(configs[0])
                candidates = compositions_of(n - k, k + 1)
                for q1 in vs:
                    for q2 in vs:
                        for q in candidates:
                            if interval_dominates(q, q1, q2):
                                assert q in vs, (w, q, q1, q2)


class TestReduceStationary:
    def test_smallest_case(self):
        assert reduce_stationary((2, 1, 3), 1) == (1,)

    def test_exhaustive_small(self):
        for n in range(3, 7):
            for w, (configs, comps) in vhc_table(n).items():
                if not configs:
                    continue
                k = len(configs[0])
                for i in range(1, k + 1):
                    if any(q[i] != 1 for q in comps):
                        continue
                    z = reduce_stationary(w, i)
                    assert len(z) == n - 2
                    want = _project(set(comps), i)
                    assert valid_compositions(z) == want
                    assert fertility(z) == table_fertility(comps)

    def test_direct_build_agrees_without_fallback(self, tables7):
        # the region construction alone should already realise the target
        for n, table in tables7.items():
            for w, (configs, comps) in table.items():
                if n < 3 or not configs:
                    continue
                k = len(configs[0])
                for i in range(1, k + 1):
                    if all(q[i] == 1 for q in comps):
                        built = normalize(_reduction_candidate(w, configs[0][i - 1]))
                        assert valid_compositions(built) == _project(set(comps), i)

    def test_missed_build_raises(self, monkeypatch):
        assert reduce_stationary((1, 3, 2, 4), 1) == (1, 2)
        monkeypatch.setattr(hooks, "_reduction_candidate", lambda p, hook: (2, 1))
        with pytest.raises(ReductionNotFoundError):
            reduce_stationary((1, 3, 2, 4), 1)

    def test_precondition_failures(self):
        with pytest.raises(PreconditionFailedError):
            reduce_stationary((2, 1), 1)  # unsorted
        with pytest.raises(PreconditionFailedError):
            reduce_stationary((1, 2), 1)  # no descents
        with pytest.raises(PreconditionFailedError):
            reduce_stationary((3, 1, 2, 4), 1)  # composition part is 2
        with pytest.raises(PreconditionFailedError):
            reduce_stationary((2, 1, 3), 2)  # ordinal out of range
