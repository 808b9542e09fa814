"""The ×1 paper report, pinned byte for byte.

``tests/golden/results_x1.md`` is the ``results.md`` that ``repro
reproduce --scale 1`` writes, minus its timing lines, and
``tests/golden/series_x1.txt`` digests every ``.npz`` series it saves
(array names, dtypes, shapes and bytes - not the zip bytes, which
carry timestamps).  A change that moves any number of Tables II-V or
Figs. 5, 11-13 fails here with a unified diff.  The same render pins
how many simulations the report makes: each distinct run once.

To re-bless after an intended change, regenerate and copy, then show
the diff in the change's description::

    PYTHONPATH=src python -m repro reproduce --scale 1 -o OUT
    PYTHONPATH=src python -c "from tests.test_golden_report import bless; bless('OUT')"
"""

import difflib
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.reportgen import generate_report

GOLDEN = Path(__file__).parent / "golden"
REPORT = GOLDEN / "results_x1.md"
SERIES = GOLDEN / "series_x1.txt"

#: Lines of ``results.md`` that record wall time, not results.
TIMING_PREFIXES = ("_generated in ", "total generation time: ")


def report_text(results_md: str) -> str:
    """``results.md`` without its timing lines, newline-terminated."""
    lines = [
        line
        for line in results_md.splitlines()
        if not line.startswith(TIMING_PREFIXES)
    ]
    return "\n".join(lines) + "\n"


def series_digest(directory) -> str:
    """One line per array of every ``.npz`` in ``directory``.

    Each line names the file, the array, its dtype and shape, and the
    SHA-256 of its bytes.
    """
    lines = []
    for path in sorted(Path(directory).glob("*.npz")):
        with np.load(path) as data:
            for name in sorted(data.files):
                array = np.ascontiguousarray(data[name])
                digest = hashlib.sha256(array.tobytes()).hexdigest()
                shape = "x".join(map(str, array.shape))
                lines.append(f"{path.name} {name} {array.dtype.str} {shape} {digest}")
    return "\n".join(lines) + "\n"


def bless(directory) -> None:
    """Copy a ``repro reproduce --scale 1`` output over the golden files."""
    directory = Path(directory)
    REPORT.write_text(report_text((directory / "results.md").read_text()))
    SERIES.write_text(series_digest(directory))


def golden_section(key: str) -> str:
    """The body of one ``ARTIFACTS`` section of the golden report."""
    from repro.experiments.reportgen import ARTIFACTS

    title = ARTIFACTS[key].title
    section = REPORT.read_text().split(f"## {title}\n\n```\n", 1)[1]
    return section.split("\n```\n", 1)[0]


def assert_same(expected: str, actual: str, name: str) -> None:
    if expected != actual:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{name}",
            tofile=f"generated/{name}",
        )
        pytest.fail("".join(diff), pytrace=False)


def count_machine_runs(monkeypatch) -> list:
    """Record each ``Machine.run`` call's workload and device names."""
    from repro.sim.machine import Machine

    calls = []
    run = Machine.run

    def counting_run(self, workload):
        calls.append((workload.name, self.config.name))
        return run(self, workload)

    monkeypatch.setattr(Machine, "run", counting_run)
    return calls


def test_x1_report_matches_golden(tmp_path, monkeypatch):
    calls = count_machine_runs(monkeypatch)
    path = generate_report(tmp_path, scale=1.0)
    assert_same(REPORT.read_text(), report_text(path.read_text()), REPORT.name)
    assert_same(SERIES.read_text(), series_digest(tmp_path), SERIES.name)
    # 64 distinct runs: Table II and Fig. 11 read Table IV's device
    # runs.  Table V's parser/Olimex test run repeats Table IV's row,
    # because attribution needs the run's signal, not its row.
    assert len(calls) == 65
    assert calls.count(("parser", "olimex")) == 2
