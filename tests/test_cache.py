"""Unit tests for the set-associative caches and the hierarchy."""

import numpy as np
import pytest

from repro.sim.cache import _VICTIM_CHUNK, Cache, CacheHierarchy, L1, LLC, MEM
from repro.sim.config import CacheConfig


def small_cache(size=1024, line=64, assoc=2, seed=0):
    return Cache(CacheConfig(size, line_bytes=line, associativity=assoc),
                 np.random.default_rng(seed))


class TestCacheBasics:
    def test_first_access_misses(self):
        c = small_cache()
        assert c.access(0x1000) is False
        assert c.misses == 1

    def test_second_access_hits(self):
        c = small_cache()
        c.access(0x1000)
        assert c.access(0x1000) is True
        assert c.hits == 1

    def test_same_line_different_bytes_hit(self):
        c = small_cache()
        c.access(0x1000)
        assert c.access(0x1000 + 63) is True

    def test_adjacent_lines_are_distinct(self):
        c = small_cache()
        c.access(0x1000)
        assert c.access(0x1000 + 64) is False

    def test_accesses_counter(self):
        c = small_cache()
        c.access(0)
        c.access(0)
        c.access(64)
        assert c.accesses == 3

    def test_miss_rate(self):
        c = small_cache()
        c.access(0)
        c.access(0)
        assert c.miss_rate() == pytest.approx(0.5)

    def test_miss_rate_empty(self):
        assert small_cache().miss_rate() == 0.0

    def test_occupancy_grows(self):
        c = small_cache()
        for k in range(4):
            c.access(k * 64)  # consecutive lines land in distinct sets
        assert c.occupancy == 4

    def test_flush_empties(self):
        c = small_cache()
        c.access(0x2000)
        c.flush()
        assert c.occupancy == 0
        assert c.access(0x2000) is False


class TestReplacement:
    def test_set_capacity_respected(self):
        c = small_cache(size=1024, assoc=2)  # 8 sets
        n_sets = c.config.num_sets
        # Four lines mapping to set 0.
        for k in range(4):
            c.access(k * n_sets * 64)
        # Only two ways exist, so two of the four were evicted.
        resident = sum(c.probe(k * n_sets * 64) for k in range(4))
        assert resident == 2

    def test_eviction_is_random_but_deterministic_per_seed(self):
        outcome = []
        for seed in (1, 1):
            c = small_cache(seed=seed)
            n_sets = c.config.num_sets
            for k in range(6):
                c.access(k * n_sets * 64)
            outcome.append([c.probe(k * n_sets * 64) for k in range(6)])
        assert outcome[0] == outcome[1]

    def test_working_set_within_capacity_never_evicts(self):
        c = small_cache(size=4096, assoc=4)
        lines = [k * 64 for k in range(4096 // 64)]
        for addr in lines:
            c.access(addr)
        assert all(c.probe(addr) for addr in lines)

    @pytest.mark.parametrize("assoc", [1, 2, 3, 4, 6, 8, 12, 16])
    def test_victims_match_scalar_draws(self, assoc):
        # Victims are drawn a chunk at a time; across several chunk
        # refills and a mix of demand misses, prefetch fills and
        # invalidations they must be the ways one scalar draw per
        # eviction would pick.
        seed = 17 + assoc
        c = small_cache(size=2 * 64 * assoc, assoc=assoc, seed=seed)
        draws = np.random.default_rng(seed)
        model = [[], []]
        ops = np.random.default_rng(assoc)
        evictions = 0
        for _ in range(3 * _VICTIM_CHUNK + 600):
            line = int(ops.integers(0, 64 * assoc))
            ways = model[line % 2]
            kind = ops.random()
            if kind < 0.02:
                assert c.invalidate(line * 64) is (line in ways)
                if line in ways:
                    ways.remove(line)
            else:
                if kind < 0.6:
                    c.access(line * 64)
                else:
                    c.fill(line * 64)
                if line not in ways:
                    if len(ways) < assoc:
                        ways.append(line)
                    else:
                        ways[int(draws.integers(0, assoc))] = line
                        evictions += 1
            assert c.ways == model
        assert evictions > 2 * _VICTIM_CHUNK


class TestProbeFillInvalidate:
    def test_probe_does_not_allocate(self):
        c = small_cache()
        assert c.probe(0x3000) is False
        assert c.access(0x3000) is False  # still a miss

    def test_probe_does_not_count(self):
        c = small_cache()
        c.probe(0x3000)
        assert c.accesses == 0

    def test_fill_installs_without_counting(self):
        c = small_cache()
        c.fill(0x4000)
        assert c.accesses == 0
        assert c.access(0x4000) is True

    def test_fill_idempotent(self):
        c = small_cache()
        c.fill(0x4000)
        c.fill(0x4000)
        assert c.occupancy == 1

    def test_invalidate_present(self):
        c = small_cache()
        c.access(0x5000)
        assert c.invalidate(0x5000) is True
        assert c.probe(0x5000) is False

    def test_invalidate_absent(self):
        c = small_cache()
        assert c.invalidate(0x5000) is False


class TestHierarchy:
    def make(self):
        return CacheHierarchy(
            CacheConfig(1024, associativity=2),
            CacheConfig(1024, associativity=2),
            CacheConfig(8192, associativity=4),
            np.random.default_rng(0),
        )

    def test_cold_data_access_reaches_memory(self):
        h = self.make()
        assert h.lookup_data(0x9000) == MEM

    def test_l1_hit_after_fill(self):
        h = self.make()
        h.lookup_data(0x9000)
        assert h.lookup_data(0x9000) == L1

    def test_llc_hit_after_l1_eviction(self):
        h = self.make()
        n_sets = h.l1d.config.num_sets
        target = 0x0
        h.lookup_data(target)
        # Evict from tiny L1 by filling its set, without exhausting the LLC set.
        for k in range(1, 6):
            h.lookup_data(k * n_sets * 64)
        if not h.l1d.probe(target):
            assert h.lookup_data(target) == LLC

    def test_instruction_path_separate_from_data(self):
        h = self.make()
        h.lookup_instruction(0x9000)
        # Data L1 never saw it, but the unified LLC did.
        assert not h.l1d.probe(0x9000)
        assert h.llc_resident(0x9000)

    def test_unified_llc_shares_lines(self):
        h = self.make()
        h.lookup_data(0xA000)
        assert h.lookup_instruction(0xA000) in (L1, LLC)

    def test_flush_cold_starts_everything(self):
        h = self.make()
        h.lookup_data(0xB000)
        h.flush()
        assert h.lookup_data(0xB000) == MEM
