"""Deterministic generator: reference values, statistics, derivation."""

import collections
import tracemalloc

import numpy as np
import pytest

from pairshot.rng import _GAMMA, _MASK64, _MIX1, _MIX2, Rng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = Rng(42)
        b = Rng(42)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_different_seeds_diverge(self):
        a = Rng(1)
        b = Rng(2)
        assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]

    def test_stream_is_stable_across_runs(self):
        """First outputs for seed 0 are pinned so serialized artifacts
        built from seeded sampling stay reproducible across releases."""
        rng = Rng(0)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]


class TestUniformity:
    def test_random_unit_interval(self):
        rng = Rng(7)
        xs = np.array([rng.random() for _ in range(20000)])
        assert np.all(xs >= 0.0) and np.all(xs < 1.0)
        np.testing.assert_allclose(xs.mean(), 0.5, atol=0.01)
        np.testing.assert_allclose(xs.var(), 1 / 12, atol=0.005)

    def test_randbelow_is_unbiased_over_small_range(self):
        rng = Rng(11)
        counts = collections.Counter(rng.randbelow(5) for _ in range(50000))
        assert set(counts) == {0, 1, 2, 3, 4}
        for value in counts.values():
            assert abs(value - 10000) < 400

    def test_randbelow_bounds(self):
        rng = Rng(3)
        for bound in (1, 2, 3, 17, 1 << 40):
            for _ in range(50):
                assert 0 <= rng.randbelow(bound) < bound

    def test_randbelow_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(0).randbelow(0)


class TestShuffleAndSample:
    def test_shuffle_is_a_permutation(self):
        rng = Rng(5)
        items = list(range(100))
        shuffled = rng.shuffled(items)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_sample_without_replacement(self):
        rng = Rng(9)
        picked = rng.sample(list(range(50)), 10)
        assert len(picked) == 10
        assert len(set(picked)) == 10
        assert all(0 <= x < 50 for x in picked)

    def test_sample_full_population_is_permutation(self):
        rng = Rng(9)
        picked = rng.sample(list(range(12)), 12)
        assert sorted(picked) == list(range(12))

    def test_sample_too_large_raises(self):
        with pytest.raises(ValueError):
            Rng(0).sample([1, 2, 3], 4)

    def test_every_subset_reachable(self):
        """All 3-of-4 subsets occur over many seeds (no structural bias)."""
        seen = set()
        for seed in range(200):
            picked = Rng(seed).sample(list(range(4)), 3)
            seen.add(frozenset(picked))
        assert len(seen) == 4


def reference_sample(rng, items, k):
    """The list-based partial Fisher-Yates that Rng.sample must reproduce draw for draw."""
    n = len(items)
    indices = list(range(n))
    for i in range(k):
        j = i + rng.randbelow(n - i)
        indices[i], indices[j] = indices[j], indices[i]
    return [items[indices[i]] for i in range(k)]


class TestSampleMatchesReference:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 100, 1000])
    def test_lists_and_ranges(self, n):
        for seed in range(50):
            for k in sorted({0, 1, n // 2, n}):
                if k > n:
                    continue
                expected = reference_sample(Rng(seed), [f"item{i}" for i in range(n)], k)
                assert Rng(seed).sample([f"item{i}" for i in range(n)], k) == expected
                ranks = Rng(seed).sample(range(n), k)
                assert [f"item{i}" for i in ranks] == expected

    def test_stream_position_after_sample_matches(self):
        """sample consumes exactly the draws the reference does."""
        ours, ref = Rng(3), Rng(3)
        ours.sample(range(40), 15)
        reference_sample(ref, list(range(40)), 15)
        assert ours.next_u64() == ref.next_u64()

    def test_memory_grows_with_k_not_with_the_range(self):
        tracemalloc.start()
        try:
            picked = Rng(1).sample(range(1_000_000), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(picked)) == 5 and all(0 <= x < 1_000_000 for x in picked)
        assert peak < 100_000


def reference_shuffled(rng, items):
    """The scalar Fisher-Yates that Rng.shuffled must reproduce draw for draw."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _unshift(y, shift):
    """x such that x ^ (x >> shift) == y."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def seed_whose_first_draw_is(draw):
    """Invert SplitMix64's finalizer: the seed whose next_u64() is draw."""
    z = _unshift(draw, 31)
    z = _unshift(z * pow(_MIX2, -1, 1 << 64) & _MASK64, 27)
    z = _unshift(z * pow(_MIX1, -1, 1 << 64) & _MASK64, 30)
    return (z - _GAMMA) & _MASK64


class TestShuffledMatchesReference:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 25, 100, 400, 1050])
    def test_lists_and_ranges_and_the_draw_after(self, n):
        for seed in (0, 1, 7, 12345, 2**63 + 5, _MASK64):
            for items in (range(n), [f"item{i}" for i in range(n)]):
                ours, ref = Rng(seed), Rng(seed)
                assert ours.shuffled(items) == reference_shuffled(ref, items)
                assert ours.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("n", [3, 400, 1050])
    def test_a_rejected_first_draw_falls_back_to_the_scalar_loop(self, n):
        """randbelow(n) rejects draws at or above 2**64 - 2**64 % n; a seed
        whose first draw lands there makes the bulk pass give way."""
        zone = (1 << 64) - (1 << 64) % n
        seed = seed_whose_first_draw_is(zone)
        assert Rng(seed).next_u64() == zone
        without_rejection = Rng(seed)
        naive = list(range(n))
        for i in range(n - 1, 0, -1):
            j = without_rejection.next_u64() % (i + 1)
            naive[i], naive[j] = naive[j], naive[i]
        ours, ref = Rng(seed), Rng(seed)
        expected = reference_shuffled(ref, range(n))
        assert expected != naive
        assert ours.shuffled(range(n)) == expected
        assert ours.next_u64() == ref.next_u64()


class TestSamplePairs:
    @pytest.mark.parametrize("m", range(41))
    def test_equals_sample_over_the_explicit_list(self, m):
        every = [(i, j) for i in range(m) for j in range(i + 1, m)]
        picker = Rng(1000 + m)
        for trial in range(4):
            excluded = set(picker.sample(every, picker.randbelow(len(every) + 1)))
            if trial == 3:
                # Entries that are not pairs i < j < m exclude nothing.
                excluded |= {(m, m + 1), (2, 1), (0, 0), (-1, 0)}
            allowed = [pair for pair in every if pair not in excluded]
            for seed in range(3):
                for k in sorted({0, 1, len(allowed) // 2, len(allowed)}):
                    if k > len(allowed):
                        continue
                    expected = Rng(seed).sample(allowed, k)
                    assert Rng(seed).sample_pairs(m, k, excluded) == expected

    def test_too_many_pairs_raises(self):
        with pytest.raises(ValueError):
            Rng(0).sample_pairs(4, 6, excluded=[(0, 1)])

    def test_large_space_draws_distinct_valid_pairs(self):
        m = 1_000_000
        excluded = {(0, 1), (5, 9), (m - 2, m - 1)}
        picked = Rng(8).sample_pairs(m, 2000, excluded)
        assert len(set(picked)) == 2000
        assert all(0 <= i < j < m and (i, j) not in excluded for i, j in picked)
        assert picked == Rng(8).sample_pairs(m, 2000, excluded)


class TestDerive:
    def test_derive_is_deterministic(self):
        assert Rng(1).derive("a", 2).next_u64() == Rng(1).derive("a", 2).next_u64()

    def test_derive_depends_on_tags(self):
        base = Rng(1)
        streams = {
            base.derive("a").next_u64(),
            base.derive("b").next_u64(),
            base.derive("a", 0).next_u64(),
            base.derive(0, "a").next_u64(),
            base.derive("a", "0").next_u64(),
        }
        assert len(streams) == 5

    def test_derive_ignores_parent_consumption(self):
        """Derivation keys off the seed, not how much the parent drew."""
        a = Rng(42)
        before = a.derive("child").next_u64()
        a.next_u64()
        after = a.derive("child").next_u64()
        assert before == after

    def test_sibling_streams_do_not_collide(self):
        outputs = [Rng(0).derive("member", i).next_u64() for i in range(100)]
        assert len(set(outputs)) == 100
