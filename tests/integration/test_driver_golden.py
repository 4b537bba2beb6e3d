"""One driver run per case, pinned end to end by SHA-256 digests.

``tools/driver_golden.py`` defines the cases (tiny ``repro run``
invocations across workloads, policies, eviction granularities, the
sequential prefetcher and injected migration faults) and recomputes
each case's :class:`~repro.sim.results.RunResult` and full ``--events``
stream digests; ``tests/data/driver_golden/digests.json`` holds the
committed ones.  Regenerate them with ``--write`` only for a deliberate
change to simulated outcomes or to the event stream.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
spec = importlib.util.spec_from_file_location(
    "driver_golden", REPO_ROOT / "tools" / "driver_golden.py")
driver_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(driver_golden)

GOLDEN = driver_golden.load()


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(
        driver_golden.case_name(argv) for argv in driver_golden.CASES)


@pytest.mark.parametrize("argv", driver_golden.CASES,
                         ids=driver_golden.case_name)
def test_run_matches_golden(argv):
    assert driver_golden.digest_run(argv) == \
        GOLDEN[driver_golden.case_name(argv)]
