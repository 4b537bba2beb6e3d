"""The repository benchmark's provenance contract with the simulator.

``perfbench/provenance.py`` stamps every benchmark result with what it
reads from ``repro`` (``repro.accel.HAS_NUMBA``, ``resolve_backend``
and ``SimulationConfig.backend``).  ``perfbench/tests`` is not part of
this suite, so this test is what fails when ``src/`` stops offering
what the benchmark reads, instead of ``perfbench/run.py`` failing.
"""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_collect_stamps_the_python_kernels():
    spec = importlib.util.spec_from_file_location(
        "perfbench_provenance", ROOT / "perfbench" / "provenance.py")
    provenance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(provenance)
    stamp = provenance.collect(ROOT)
    assert stamp["backend"] == "python"
    assert stamp["numba"] is False
    assert re.fullmatch(r"[0-9a-f]{64}", stamp["source_sha256"])
