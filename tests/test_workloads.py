"""Unit tests for workload generators."""

import numpy as np
import pytest

from repro.devices import sesc
from repro.sim.isa import BLOCK_SIZE, BRANCH, Block, Instr, LOAD, NO_CONSUMER, STORE, unpack
from repro.workloads.base import (
    StreamWorkload,
    Workload,
    compute_block,
    repeat,
    tight_loop,
)
from repro.workloads.boot import BootWorkload
from repro.workloads.microbenchmark import (
    Microbenchmark,
    REGION_ACCESSES,
    REGION_BLANK_END,
    REGION_BLANK_START,
    REGION_PAGE_TOUCH,
)
from repro.workloads.spec import (
    SPEC_BENCHMARKS,
    SpecWorkload,
    Phase,
    spec_workload,
)

CFG = sesc()


def instrs(workload):
    """The workload's stream for ``CFG`` as Instr tuples."""
    return list(unpack(workload.instructions(CFG)))


def one_phase(phase: Phase) -> list:
    """Instr stream of a one-phase SPEC model."""
    return instrs(SpecWorkload("one", [phase], seed=5))


class TestBaseBuilders:
    def test_tight_loop_repeats_pcs(self):
        seq = list(unpack(tight_loop(0x100, iterations=3, body_alu=2)))
        assert len(seq) == 9
        assert seq[0].pc == seq[3].pc

    def test_tight_loop_ends_with_branch(self):
        seq = list(unpack(tight_loop(0x100, 1, body_alu=2)))
        assert seq[-1].op == BRANCH

    def test_tight_loop_rejects_negative(self):
        with pytest.raises(ValueError):
            list(tight_loop(0x100, -1))

    def test_compute_block_count(self):
        assert len(list(unpack(compute_block(0, 57)))) == 57

    def test_compute_block_pattern_modulates_weights(self):
        plain = [i.weight for i in unpack(compute_block(0, 64))]
        pat = [
            i.weight
            for i in unpack(compute_block(0, 64, pattern_period=16, pattern_depth=0.05))
        ]
        assert np.std(pat) > np.std(plain)

    def test_repeat_patches_addresses_and_stores(self):
        body = Block.from_instrs(
            [Instr(0, 0x10, 0, NO_CONSUMER, 0.12, 1), Instr(LOAD, 0x14, 0, 3, 0.16, 1)]
        )
        seq = list(unpack(repeat(body, 3, [64, 128, 192], [False, True, False])))
        assert [i.addr for i in seq] == [0, 64, 0, 128, 0, 192]
        assert [i.op for i in seq[1::2]] == [LOAD, STORE, LOAD]
        assert seq[3].dep == NO_CONSUMER and seq[5].dep == 3
        assert seq[3].weight == 0.15

    def test_repeat_blocks_are_bounded(self):
        body = Block.from_instrs(
            [Instr(0, 4 * k, 0, NO_CONSUMER, 0.12, 0) for k in range(100)]
        )
        sizes = [len(b) for b in repeat(body, 2000)]
        assert sum(sizes) == 200_000
        assert max(sizes) <= BLOCK_SIZE

    def test_stream_workload_protocol(self):
        wl = StreamWorkload("x", lambda cfg: iter([]), {1: "a"})
        assert isinstance(wl, Workload)
        assert wl.region_names == {1: "a"}


class TestMicrobenchmark:
    def test_structure_regions_in_order(self):
        wl = Microbenchmark(total_misses=8, consecutive_misses=2, blank_iterations=10)
        regions = [i.region for i in instrs(wl)]
        first_seen = list(dict.fromkeys(regions))
        assert first_seen == [
            REGION_PAGE_TOUCH,
            REGION_BLANK_START,
            REGION_ACCESSES,
            REGION_BLANK_END,
        ]

    def test_access_loads_are_distinct_lines(self):
        wl = Microbenchmark(total_misses=32, consecutive_misses=4, blank_iterations=5)
        loads = [
            i.addr
            for i in instrs(wl)
            if i.op == LOAD and i.region == REGION_ACCESSES
        ]
        assert len(loads) == 32
        lines = {a // 64 for a in loads}
        assert len(lines) == 32

    def test_access_loads_avoid_page_touch_lines(self):
        wl = Microbenchmark(total_misses=16, consecutive_misses=4, blank_iterations=5)
        touched = set()
        access = []
        for i in instrs(wl):
            if i.op == LOAD:
                if i.region == REGION_PAGE_TOUCH:
                    touched.add(i.addr // 64)
                elif i.region == REGION_ACCESSES:
                    access.append(i.addr // 64)
        assert not touched.intersection(access)

    def test_blocks_are_bounded_for_long_groups(self):
        wl = Microbenchmark(40, 40, gap_instructions=1000, blank_iterations=5)
        sizes = [len(b) for b in wl.instructions(CFG)]
        assert max(sizes) <= BLOCK_SIZE
        assert sum(1 for i in instrs(wl) if i.op == LOAD and i.region == REGION_ACCESSES) == 40

    def test_expected_counts(self):
        wl = Microbenchmark(total_misses=100, consecutive_misses=10)
        assert wl.expected_misses() == 100
        assert wl.expected_groups() == 10

    def test_expected_groups_rounds_up(self):
        assert Microbenchmark(10, 3).expected_groups() == 4

    def test_seed_changes_addresses(self):
        a = Microbenchmark(16, 4, blank_iterations=5, seed=1)
        b = Microbenchmark(16, 4, blank_iterations=5, seed=2)
        addrs_a = [i.addr for i in instrs(a) if i.op == LOAD]
        addrs_b = [i.addr for i in instrs(b) if i.op == LOAD]
        assert addrs_a != addrs_b

    def test_validation(self):
        with pytest.raises(ValueError):
            Microbenchmark(total_misses=0)
        with pytest.raises(ValueError):
            Microbenchmark(total_misses=4, consecutive_misses=8)
        with pytest.raises(ValueError):
            Microbenchmark(total_misses=4, consecutive_misses=2, gap_instructions=-1)


class TestSpecModels:
    def test_all_ten_benchmarks_present(self):
        assert len(SPEC_BENCHMARKS) == 10
        for name in ("mcf", "parser", "bzip2", "vpr"):
            assert name in SPEC_BENCHMARKS

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            spec_workload("nosuch")

    def test_region_names_assigned(self):
        wl = spec_workload("parser")
        names = set(wl.region_names.values())
        assert {"read_dictionary", "init_randtable", "batch_process"} <= names

    def test_region_id_lookup(self):
        wl = spec_workload("parser")
        rid = wl.region_id("batch_process")
        assert wl.region_names[rid] == "batch_process"

    def test_scale_shrinks_stream(self):
        full = sum(len(b) for b in spec_workload("vpr").instructions(CFG))
        small = sum(len(b) for b in spec_workload("vpr", scale=0.2).instructions(CFG))
        assert small < full * 0.5

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spec_workload("mcf", scale=0.0)

    def test_mcf_has_dependent_loads(self):
        wl = spec_workload("mcf", scale=0.2)
        deps = [i.dep for i in instrs(wl) if i.op == LOAD]
        assert 0 in deps  # the pointer chase

    def test_stream_phase_addresses_sequential(self):
        seq = one_phase(Phase("s", "stream", bytes_total=64 * 8, stride=64))
        addrs = [i.addr for i in seq if i.op == LOAD]
        assert addrs == sorted(addrs)
        assert len(addrs) == 8
        assert np.all(np.diff(addrs) == 64)

    def test_stream_phase_store_ratio(self):
        seq = one_phase(
            Phase("s", "stream", bytes_total=64 * 200, stride=64, store_ratio=1.0)
        )
        assert not any(i.op == LOAD for i in seq)
        assert sum(i.op == STORE for i in seq) == 200
        assert all(i.dep == NO_CONSUMER for i in seq if i.op == STORE)

    def test_random_phase_within_working_set(self):
        ws = 64 * 128
        seq = one_phase(Phase("r", "random", working_set=ws, accesses=50))
        addrs = [i.addr for i in seq if i.op in (LOAD, STORE)]
        assert len(addrs) == 50
        assert max(addrs) - min(addrs) < ws
        assert all(a % 64 == 0 for a in addrs)

    def test_chase_phase_deps_are_zero(self):
        seq = one_phase(
            Phase("c", "chase", working_set=64 * 64, accesses=20, work_per_access=4)
        )
        loads = [i for i in seq if i.op == LOAD]
        assert len(loads) == 20
        assert all(i.dep == 0 for i in loads)

    def test_codesweep_phase_covers_footprint(self):
        seq = one_phase(Phase("x", "codesweep", footprint=1024, passes=2))
        assert len(seq) == 2 * 256
        assert max(i.pc for i in seq) - min(i.pc for i in seq) == 1020

    def test_codesweep_phase_pcs_advance(self):
        seq = one_phase(Phase("x", "codesweep", footprint=20))
        assert np.all(np.diff([i.pc for i in seq]) == 4)
        assert len(seq) == 5

    def test_blocks_are_bounded(self):
        sizes = [len(b) for b in BootWorkload(seed=0, scale=0.2).instructions(CFG)]
        assert max(sizes) <= BLOCK_SIZE
        small = BootWorkload(seed=0, scale=0.05).instructions(CFG)
        assert all(isinstance(b, Block) for b in small)

    def test_phases_use_disjoint_address_spaces(self):
        wl = spec_workload("twolf", scale=0.3)
        by_region = {}
        for i in instrs(wl):
            if i.op in (LOAD, STORE):
                by_region.setdefault(i.region, []).append(i.addr)
        spans = {
            r: (min(a), max(a)) for r, a in by_region.items() if a
        }
        regions = list(spans)
        for i in range(len(regions)):
            for j in range(i + 1, len(regions)):
                lo1, hi1 = spans[regions[i]]
                lo2, hi2 = spans[regions[j]]
                assert hi1 < lo2 or hi2 < lo1

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase("x", "unknown_kind")
        with pytest.raises(ValueError):
            Phase("x", "random", cold_fraction=2.0)
        with pytest.raises(ValueError):
            SpecWorkload("empty", [])


class TestBootWorkload:
    def test_regions_cover_boot_stages(self):
        boot = BootWorkload(seed=0, scale=0.2)
        names = set(boot.region_names.values())
        assert "bootloader" in names
        assert "kernel_decompress" in names
        assert "userspace_init" in names

    def test_seeds_differ(self):
        a = sum(len(b) for b in BootWorkload(seed=0, scale=0.1).instructions(CFG))
        b = sum(len(b) for b in BootWorkload(seed=1, scale=0.1).instructions(CFG))
        assert a != b

    def test_same_seed_reproducible(self):
        a = sum(len(b) for b in BootWorkload(seed=3, scale=0.1).instructions(CFG))
        b = sum(len(b) for b in BootWorkload(seed=3, scale=0.1).instructions(CFG))
        assert a == b

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            BootWorkload(scale=0.0)
