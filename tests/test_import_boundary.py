"""Start-up import boundary: ``scipy.signal`` loads on the first DSP call.

A fresh process pays 0.7-1.3 s and about 47 MB for ``scipy.signal``
(and the ``scipy.stats`` it drags in).  Only the EM path (receiver,
low-pass, STFT in ``repro.emsignal.dsp``) needs it, so the simulator
path, profiling a saved capture and CLI start-up must not load it.
Each probe runs in a fresh interpreter, since the pytest process has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro import io
from repro.emsignal.receiver import Capture

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Simulator and capture-profiling paths, then the device path; prints
#: one JSON line.  ``argv[1]`` is a saved capture, ``argv[2]`` is
#: ``preload`` to import ``scipy.signal`` first and run only the device
#: path.
BOUNDARY_PROBE = """
import hashlib, json, sys
if sys.argv[2] == "preload":
    import scipy.signal
import repro.cli, repro.experiments
from repro import io
from repro.core.profiler import Emprof
from repro.core.validate import validate_profile
from repro.devices import olimex
from repro.experiments import run_device, run_simulator
from repro.workloads import Microbenchmark

def heavy():
    return sorted({"scipy.signal", "scipy.stats"} & set(sys.modules))

micro = Microbenchmark(total_misses=16, consecutive_misses=4, seed=3)
out = {}
if sys.argv[2] != "preload":
    run = run_simulator(micro)
    validate_profile(run.report, run.result.ground_truth)
    Emprof.from_capture(io.load_capture(sys.argv[1])).profile()
    out["after_sim_and_capture"] = heavy()
run = run_device(micro, olimex(), seed=1)
out["after_device"] = heavy()
out["capture_sha256"] = hashlib.sha256(run.capture.magnitude.tobytes()).hexdigest()
print(json.dumps(out))
"""

#: A forked (isolated) campaign pass of one ``SimulatedCaptureSource``
#: run; records whether the supervisor held ``scipy.signal`` at each
#: worker fork.
FORKED_PASS_PROBE = """
import functools, json, sys
from repro.experiments import Campaign, RunSpec, SimulatedCaptureSource
from repro.experiments.campaign import CampaignExecution

before = "scipy.signal" in sys.modules
at_fork = []
spawn = CampaignExecution._spawn_worker

def recording_spawn(self):
    at_fork.append("scipy.signal" in sys.modules)
    return spawn(self)

CampaignExecution._spawn_worker = recording_spawn
source = functools.partial(SimulatedCaptureSource, tm=16, cm=4)
result = Campaign(sys.argv[1], isolate=True).execute([RunSpec("r0", source)])
print(json.dumps({"before": before, "at_fork": at_fork,
                  "counts": result.counts()}))
"""


def _probe(script: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _saved_capture(tmp_path: Path) -> str:
    x = np.full(3000, 0.9) + np.random.default_rng(0).normal(0, 0.02, 3000)
    for s in range(200, 2800, 170):
        x[s : s + 13] = 0.1
    path = tmp_path / "capture.npz"
    io.save_capture(
        path,
        Capture(
            magnitude=np.clip(x, 0.0, None),
            sample_rate_hz=50e6,
            clock_hz=1e9,
            bandwidth_hz=50e6,
        ),
    )
    return str(path)


def test_dsp_backend_loads_only_on_the_device_path(tmp_path):
    capture = _saved_capture(tmp_path)
    lazy = _probe(BOUNDARY_PROBE, capture, "lazy")
    assert lazy["after_sim_and_capture"] == []
    assert "scipy.signal" in lazy["after_device"]
    # Deferring the import changes when it runs, not what it computes.
    eager = _probe(BOUNDARY_PROBE, capture, "preload")
    assert eager["capture_sha256"] == lazy["capture_sha256"]


def test_forked_pass_loads_dsp_backend_before_its_first_fork(tmp_path):
    out = _probe(FORKED_PASS_PROBE, str(tmp_path / "camp"))
    assert out["before"] is False
    assert out["at_fork"] == [True]
    assert out["counts"]["done"] == 1
