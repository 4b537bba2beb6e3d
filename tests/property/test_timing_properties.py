"""The timing model's scalar wave total against its breakdown.

``TimingModel.wave_total_cycles`` (serve's per-wave charge) is
``wave_cycles(...).total`` (the engine's): one formula, so the totals
are equal to the last bit.
"""

from hypothesis import given, settings, strategies as st

from repro.config import GpuConfig, InterconnectConfig, SimulationConfig
from repro.gpu.timing import TimingModel
from repro.interconnect.pcie import PcieModel
from repro.uvm.driver import WaveOutcome

counts = st.integers(0, 1 << 20)


@st.composite
def outcomes(draw):
    n_local, n_remote = draw(counts), draw(counts)
    retried = draw(st.one_of(st.just(0), st.integers(1, 64)))
    return WaveOutcome(
        n_accesses=n_local + n_remote + draw(counts),
        n_local=n_local, n_remote=n_remote,
        fault_migrations=draw(counts), mapping_faults=draw(counts),
        migrated_blocks=draw(counts), prefetched_blocks=draw(counts),
        writeback_blocks=draw(counts), retried_transfers=retried,
        retry_backoff_us=(draw(st.floats(0.0, 1e4)) if retried else 0.0))


@given(outcomes(), st.one_of(st.none(), st.floats(0.0, 1e9)))
@settings(max_examples=500, deadline=None)
def test_wave_total_agrees_with_breakdown(outcome, compute_cycles):
    timing = TimingModel(SimulationConfig(),
                         PcieModel(InterconnectConfig(), GpuConfig()))
    assert (timing.wave_total_cycles(outcome, compute_cycles)
            == timing.wave_cycles(outcome, compute_cycles).total)
