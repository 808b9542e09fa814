"""Engine layer bench: samples/second for batch, chunked and streaming.

Profiles one ~1M-sample capture through every production path of the
chunked engine (``repro.core.engine``) and records each path's
throughput.  The three paths must agree on the stall count.  Results
land in the run ledger, so ``repro obs regress`` tracks the rates
across runs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# The signal generator lives under tests/; make the repo root
# importable no matter how pytest was invoked.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.profiler import Emprof
from repro.core.streaming import StreamingEmprof

from tests.conftest import make_dip_signal

RATE_HZ = 40e6
CLOCK_HZ = 1e9

N_SAMPLES = 1_000_000
CHUNK = 4096


def _throughput(n_samples, seconds):
    return n_samples / max(seconds, 1e-12)


def test_engine_throughput(once):
    def experiment():
        x = make_dip_signal(n=N_SAMPLES, seed=31)

        t0 = time.perf_counter()
        batch = Emprof(x, RATE_HZ, CLOCK_HZ).profile()
        batch_s = time.perf_counter() - t0

        streamer = StreamingEmprof(RATE_HZ, CLOCK_HZ)
        t0 = time.perf_counter()
        for start in range(0, len(x), CHUNK):
            streamer.process(x[start : start + CHUNK])
        stream = streamer.finish()
        stream_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        chunked = Emprof(x, RATE_HZ, CLOCK_HZ).profile_chunked(65536)
        chunked_s = time.perf_counter() - t0

        return {
            "samples": len(x),
            "batch_sps": _throughput(len(x), batch_s),
            "stream_sps": _throughput(len(x), stream_s),
            "chunked_sps": _throughput(len(x), chunked_s),
            "batch_count": batch.miss_count,
            "stream_count": stream.miss_count,
            "chunked_count": chunked.miss_count,
        }

    r = once(experiment)
    print("\nEngine throughput on a 1M-sample capture")
    print(f"  batch    : {r['batch_sps'] / 1e6:8.2f} MS/s")
    print(f"  chunked  : {r['chunked_sps'] / 1e6:8.2f} MS/s")
    print(f"  streaming: {r['stream_sps'] / 1e6:8.2f} MS/s")

    # All three production paths agree on the stall count.
    assert r["batch_count"] == r["stream_count"] == r["chunked_count"]
    assert r["batch_count"] > 1000  # ~5.9k dips in the generated signal
