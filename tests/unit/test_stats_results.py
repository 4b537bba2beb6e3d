"""Unit tests for recorded-stream summaries, run results and tables."""

import numpy as np
import pytest

from repro.analysis import allocation_totals, sample_waves
from repro.analysis.experiments import WAVE_SAMPLE
from repro.analysis.tables import ascii_bar_chart, comparison_table, format_table
from repro.config import SimulationConfig
from repro.gpu.timing import WaveTiming
from repro.memory.layout import CHUNK_SIZE, PAGE_SIZE
from repro.sim.results import RunResult
from repro.trace import record_trace
from repro.uvm.driver import WaveOutcome
from repro.workloads.base import Category, KernelLaunch, Wave, Workload


class _Waves(Workload):
    """A hot and a cold (read-only) 2MB allocation; each wave given is
    one launch, whose iteration is its position."""

    name = "waves"
    category = Category.REGULAR

    def __init__(self, *waves: Wave) -> None:
        super().__init__()
        self._waves = waves

    def _allocate(self, vas, rng) -> None:
        self.hot = self._register(vas.malloc_managed("hot", CHUNK_SIZE))
        self.cold = self._register(
            vas.malloc_managed("cold", CHUNK_SIZE, read_only=True))

    def kernels(self):
        for i, wave in enumerate(self._waves):
            yield KernelLaunch("k", i, lambda wave=wave: iter([wave]))


def _totals(*waves: Wave) -> dict[str, dict]:
    return {row["name"]: row
            for row in allocation_totals(record_trace(_Waves(*waves)))}


class TestCollector:
    """What Figures 2 and 3 collect from a recorded stream."""

    def test_histogram_accumulates(self):
        rows = _totals(Wave(np.array([0, 0, 1]),
                            np.array([False, True, False])),
                       Wave.reads(np.array([1])))
        assert rows["hot"]["reads"] == 3
        assert rows["hot"]["writes"] == 1
        assert rows["cold"]["reads"] == rows["cold"]["writes"] == 0

    def test_histogram_respects_counts(self):
        rows = _totals(Wave.reads(np.array([2]), 32),
                       Wave.writes(np.array([2, 3]), np.array([5, 7])))
        assert rows["hot"]["reads"] == 32
        assert rows["hot"]["writes"] == 12

    def test_allocation_histogram(self):
        first_cold = CHUNK_SIZE // PAGE_SIZE
        rows = _totals(Wave.writes(np.array([0])),
                       Wave.reads(np.array([first_cold, first_cold + 1])))
        assert rows["hot"]["pages"] == rows["cold"]["pages"] == first_cold
        assert (rows["hot"]["reads"], rows["hot"]["writes"]) == (0, 1)
        assert (rows["cold"]["reads"], rows["cold"]["writes"]) == (2, 0)
        assert rows["cold"]["accesses_per_page"] == 2 / first_cold

    def test_allocation_summary_classifies_ro(self):
        rows = _totals(Wave.reads(np.array([CHUNK_SIZE // PAGE_SIZE])),
                       Wave.writes(np.array([0])))
        # Read-only means nothing wrote it, whatever the allocation flag.
        assert rows["cold"]["read_only"] and rows["cold"]["reads"] == 1
        assert not rows["hot"]["read_only"]

    def test_trace_sampling_caps_size(self):
        pages = np.arange(2 * WAVE_SAMPLE, dtype=np.int64)
        trace = record_trace(_Waves(
            Wave.reads(pages[:8]), Wave.reads(pages[:0]),
            Wave(pages, pages % 3 == 0), Wave.writes(pages[:4])))
        samples = sample_waves(trace, iterations=(0, 1, 2))
        # The empty wave (iteration 1) is skipped; iteration 3 is not
        # wanted.
        assert [(s.wave, s.iteration) for s in samples] == [(0, 0), (2, 2)]
        assert samples[0].kernel == "k"
        np.testing.assert_array_equal(samples[0].pages, pages[:8])
        big = samples[1]
        pick = np.linspace(0, pages.size - 1, WAVE_SAMPLE, dtype=np.int64)
        np.testing.assert_array_equal(big.pages, pages[pick])
        np.testing.assert_array_equal(big.is_write, pages[pick] % 3 == 0)
        assert len(sample_waves(trace, range(4))) == 3


class TestRunResult:
    def _result(self, cycles=1000.0, **events):
        return RunResult(
            workload="w", config=SimulationConfig(),
            total_cycles=cycles, timing=WaveTiming(total=cycles),
            events=WaveOutcome(**events), footprint_bytes=10 * CHUNK_SIZE,
            device_capacity_bytes=8 * CHUNK_SIZE)

    def test_runtime_seconds(self):
        r = self._result(cycles=1481e6)
        assert r.runtime_seconds == pytest.approx(1.0)

    def test_oversubscription(self):
        assert self._result().oversubscription == pytest.approx(1.25)

    def test_normalization(self):
        a, b = self._result(2000.0), self._result(1000.0)
        assert a.normalized_runtime(b) == pytest.approx(2.0)
        assert b.speedup_over(a) == pytest.approx(2.0)

    def test_hit_ratio(self):
        r = self._result(n_accesses=10, n_local=7)
        assert r.hit_ratio == pytest.approx(0.7)

    def test_summary_keys(self):
        s = self._result().summary()
        for key in ("workload", "policy", "cycles", "faults",
                    "thrash_migrations", "oversubscription"):
            assert key in s


class TestTables:
    def test_format_table_aligns(self):
        txt = format_table(["a", "bb"], [["x", 1.5], ["yy", 2.0]], title="T")
        lines = txt.splitlines()
        assert lines[0] == "T"
        assert "1.500" in txt

    def test_comparison_table_with_paper(self):
        txt = comparison_table("t", ["w1"], {"w1": 1.23}, {"w1": 1.11})
        assert "1.230" in txt and "1.110" in txt

    def test_comparison_table_without_paper(self):
        txt = comparison_table("t", ["w1"], {"w1": 1.23}, None)
        assert "paper" not in txt

    def test_ascii_bar_chart(self):
        txt = ascii_bar_chart("chart", {"a": 1.0, "b": 2.0})
        assert "#" in txt and "2.00x" in txt
