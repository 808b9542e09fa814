"""End-to-end fuzz: EMPROF's accuracy envelope on arbitrary programs.

Each case draws a random multi-phase program, runs the complete chain
(simulate -> EM apparatus -> receiver -> EMPROF), and validates the
profile against ground truth.  Asserted envelope:

* stall-cycle accuracy stays at paper level (> 95%) on the clean
  simulator trace and > 90% through the noisy EM path;
* detection matches the *observable* stall groups closely;
* no pathological overcounting (precision stays high).

These bounds intentionally sit below the tuned-benchmark numbers: the
fuzzer generates programs nobody calibrated for.
"""

import pytest

from repro.core.profiler import Emprof
from repro.core.validate import validate_profile
from repro.devices import olimex, sesc
from repro.experiments.runner import run_device, run_simulator
from repro.sim.isa import unpack
from repro.workloads.synthetic import RandomWorkload

SEEDS = list(range(8))


class TestFuzzSimulatorPath:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_program_accuracy(self, seed):
        workload = RandomWorkload(seed=seed)
        run = run_simulator(workload, config=sesc())
        truth = run.result.ground_truth
        v = validate_profile(run.report, truth)
        if truth.memory_stall_count() < 10:
            pytest.skip("program drew almost no misses")
        assert v.stall_accuracy > 0.95, (seed, v)
        # The detected count must land between the pessimistic bound
        # (ground-truth stalls merged at one-sample resolution) and the
        # raw stall count - the detector sometimes resolves sub-sample
        # gaps the merge model collapses, which is better, not worse.
        assert 0.88 * v.true_groups <= v.detected_misses, (seed, v)
        assert v.detected_misses <= 1.05 * truth.memory_stall_count(), (seed, v)
        assert v.match.precision > 0.9, (seed, v)


class TestFuzzDevicePath:
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_random_program_through_em_chain(self, seed):
        workload = RandomWorkload(seed=seed)
        run = run_device(workload, olimex(), bandwidth_hz=40e6)
        truth = run.result.ground_truth
        if truth.memory_stall_count() < 10:
            pytest.skip("program drew almost no misses")
        v = validate_profile(run.report, truth)
        assert v.stall_accuracy > 0.90, (seed, v)
        assert v.match.precision > 0.85, (seed, v)


class TestRandomWorkload:
    def test_replayable(self):
        a = RandomWorkload(seed=3)
        b = RandomWorkload(seed=3)
        assert [p.kind for p in a.phases] == [p.kind for p in b.phases]
        cfg = sesc()
        assert list(unpack(a.instructions(cfg)))[:100] == list(unpack(b.instructions(cfg)))[:100]

    def test_seeds_differ(self):
        kinds = {tuple(p.kind for p in RandomWorkload(seed=s).phases) for s in range(10)}
        assert len(kinds) > 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWorkload(max_phases=1)
        with pytest.raises(ValueError):
            RandomWorkload(size=0)
