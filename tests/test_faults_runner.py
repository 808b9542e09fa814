"""Resilient experiment execution: retry policies and campaign resume."""

import json

import numpy as np
import pytest

from repro import io as repro_io
from repro.core.detect import DetectorConfig
from repro.core.normalize import NormalizerConfig
from repro.core.profiler import EmprofConfig
from repro.emsignal.receiver import Capture
from repro.errors import (
    AcquisitionError,
    CampaignError,
    CorruptCaptureError,
    HardwareMissingError,
    TransientAcquisitionError,
)
from repro.experiments import Campaign, RetryPolicy, RunSpec, acquire_with_retry
from tests.doubles import FlakySource

SMALL = EmprofConfig(
    normalizer=NormalizerConfig(window_samples=301),
    detector=DetectorConfig(),
)


class StaticSource:
    """A SignalSource returning a synthetic dip capture; counts calls."""

    def __init__(self, seed=0, n=3000):
        self.seed = seed
        self.n = n
        self.captures = 0

    def capture(self):
        self.captures += 1
        rng = np.random.default_rng(self.seed)
        x = np.full(self.n, 0.9) + rng.normal(0, 0.02, self.n)
        for s in range(200, self.n - 200, 170):
            x[s : s + 13] = 0.1
        return Capture(
            magnitude=np.clip(x, 0.0, None),
            sample_rate_hz=50e6,
            clock_hz=1e9,
            bandwidth_hz=50e6,
            region_names={},
        )


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_base_s=0.1, backoff_factor=2.0)
        assert [policy.delay(a) for a in (1, 2, 3)] == [0.1, 0.2, 0.4]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestAcquireWithRetry:
    def test_transient_failures_are_retried(self):
        sleeps = []
        source = FlakySource(StaticSource(), failures=2)
        capture = acquire_with_retry(
            source, RetryPolicy(max_attempts=3), sleep=sleeps.append
        )
        assert len(capture.magnitude) == 3000
        assert source.attempts == 3
        assert sleeps == [0.05, 0.1]

    def test_gives_up_after_max_attempts(self):
        source = FlakySource(StaticSource(), failures=5)
        with pytest.raises(TransientAcquisitionError):
            acquire_with_retry(
                source, RetryPolicy(max_attempts=3), sleep=lambda _: None
            )
        assert source.attempts == 3

    def test_permanent_failures_fail_fast(self):
        class Dead:
            def __init__(self):
                self.attempts = 0

            def capture(self):
                self.attempts += 1
                raise HardwareMissingError("no SDR")

        dead = Dead()
        with pytest.raises(HardwareMissingError):
            acquire_with_retry(dead, RetryPolicy(max_attempts=5),
                               sleep=lambda _: None)
        assert dead.attempts == 1

    def test_corrupt_capture_fails_fast(self):
        class Corrupt:
            def capture(self):
                raise CorruptCaptureError("checksum mismatch", path="x.npz")

        with pytest.raises(CorruptCaptureError):
            acquire_with_retry(Corrupt(), sleep=lambda _: None)

    def test_foreign_exceptions_propagate(self):
        class Broken:
            def capture(self):
                raise KeyError("not an acquisition problem")

        with pytest.raises(KeyError):
            acquire_with_retry(Broken(), sleep=lambda _: None)


class TestCampaign:
    def specs(self, sources):
        return [
            RunSpec(name, (lambda s=src: s), config=SMALL)
            for name, src in sources
        ]

    def test_executes_and_persists_reports(self, tmp_path):
        campaign = Campaign(tmp_path / "camp", sleep=lambda _: None)
        result = campaign.execute(
            self.specs([("a", StaticSource(0)), ("b", StaticSource(1))])
        )
        assert result.completed
        assert result.counts() == {"done": 2, "failed": 0, "skipped": 0}
        for name in ("a", "b"):
            report = campaign.load_report(name)
            assert report.miss_count > 5
        manifest = json.loads((tmp_path / "camp" / "manifest.json").read_text())
        assert manifest["runs"]["a"]["status"] == "done"

    def test_transient_failures_retried_inside_run(self, tmp_path):
        campaign = Campaign(
            tmp_path / "camp",
            retry=RetryPolicy(max_attempts=3),
            sleep=lambda _: None,
        )
        flaky = FlakySource(StaticSource(), failures=2)
        result = campaign.execute([RunSpec("flaky", lambda: flaky, config=SMALL)])
        assert result.counts()["done"] == 1

    def test_failed_run_does_not_stop_campaign(self, tmp_path):
        class Dead:
            def capture(self):
                raise TransientAcquisitionError("always down")

        campaign = Campaign(
            tmp_path / "camp",
            retry=RetryPolicy(max_attempts=2),
            sleep=lambda _: None,
        )
        result = campaign.execute(
            self.specs([("ok", StaticSource())])
            + [RunSpec("dead", Dead, config=SMALL)]
            + self.specs([("ok2", StaticSource(2))])
        )
        assert result.counts() == {"done": 2, "failed": 1, "skipped": 0}
        assert not result.completed
        manifest = json.loads((tmp_path / "camp" / "manifest.json").read_text())
        assert manifest["runs"]["dead"]["status"] == "failed"
        assert "always down" in manifest["runs"]["dead"]["error"]

    def test_failed_runs_are_reattempted_on_resume(self, tmp_path):
        class DeadOnce:
            def __init__(self):
                self.calls = 0

            def capture(self):
                self.calls += 1
                if self.calls == 1:
                    raise TransientAcquisitionError("down")
                return StaticSource().capture()

        campaign = Campaign(
            tmp_path / "camp",
            retry=RetryPolicy(max_attempts=1),
            sleep=lambda _: None,
        )
        dead = DeadOnce()
        spec = [RunSpec("r", lambda: dead, config=SMALL)]
        assert campaign.execute(spec).counts()["failed"] == 1
        assert campaign.execute(spec).counts()["done"] == 1

    def test_rejects_duplicate_names(self, tmp_path):
        campaign = Campaign(tmp_path / "camp")
        with pytest.raises(CampaignError):
            campaign.execute(
                self.specs([("a", StaticSource()), ("a", StaticSource())])
            )

    def test_rejects_foreign_manifest(self, tmp_path):
        directory = tmp_path / "camp"
        directory.mkdir()
        (directory / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(CampaignError):
            Campaign(directory).execute([])


class TestKillAndResume:
    """The integration scenario: a campaign dies mid-run and resumes."""

    def test_resume_skips_completed_runs(self, tmp_path):
        directory = tmp_path / "camp"
        sources = {name: StaticSource(i) for i, name in enumerate("abcd")}

        class Killed(RuntimeError):
            """Stands in for SIGKILL: propagates out of execute()."""

        def factory(name, die=False):
            def make():
                if die:
                    raise Killed(name)
                return sources[name]
            return make

        def specs(die_on=None):
            return [
                RunSpec(n, factory(n, die=(n == die_on)), config=SMALL)
                for n in "abcd"
            ]

        # first pass dies while starting run "c": a and b are durable,
        # and c's pre-marked lease survives as "running" + attempts so
        # the next pass can tell it apart from a fresh run
        first = Campaign(directory, sleep=lambda _: None)
        with pytest.raises(Killed):
            first.execute(specs(die_on="c"))
        manifest = json.loads((directory / "manifest.json").read_text())
        assert set(manifest["runs"]) == {"a", "b", "c"}
        assert manifest["runs"]["a"]["status"] == "done"
        assert manifest["runs"]["b"]["status"] == "done"
        assert manifest["runs"]["c"]["status"] == "running"
        assert manifest["runs"]["c"]["attempts"] == 1

        # a fresh process resumes: a and b are skipped (their sources
        # are not even constructed), c and d run to completion - and c
        # is surfaced as a resumed interruption with its attempt count
        resumed = Campaign(directory, sleep=lambda _: None)
        result = resumed.execute(specs())
        statuses = {o.name: o.status for o in result.outcomes}
        assert statuses == {
            "a": "skipped", "b": "skipped", "c": "done", "d": "done"
        }
        assert result.completed
        assert result.interrupted() == {"c": 2}
        assert sources["a"].captures == 1  # not re-acquired
        assert sources["c"].captures == 1
        for name in "abcd":
            assert resumed.load_report(name).miss_count > 5

    def test_done_without_report_file_is_rerun(self, tmp_path):
        directory = tmp_path / "camp"
        campaign = Campaign(directory, sleep=lambda _: None)
        source = StaticSource()
        spec = [RunSpec("a", lambda: source, config=SMALL)]
        campaign.execute(spec)
        campaign.report_path("a").unlink()
        result = Campaign(directory, sleep=lambda _: None).execute(spec)
        assert result.counts()["done"] == 1
        assert source.captures == 2

    def test_reports_roundtrip_through_campaign(self, tmp_path):
        campaign = Campaign(tmp_path / "camp", sleep=lambda _: None)
        campaign.execute([RunSpec("a", StaticSource, config=SMALL)])
        direct = repro_io.load_report(campaign.report_path("a"))
        assert direct == campaign.load_report("a")


def test_sdr_source_raises_typed_hardware_error():
    from repro.acquire import SdrSource

    with pytest.raises(HardwareMissingError) as excinfo:
        SdrSource()
    # back-compat: still a NotImplementedError, still an AcquisitionError
    assert isinstance(excinfo.value, NotImplementedError)
    assert isinstance(excinfo.value, AcquisitionError)
    assert not excinfo.value.transient
    assert "SoapySDR" in str(excinfo.value)
