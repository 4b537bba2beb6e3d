"""Table I: simulated system configuration.

Validates that the simulator's defaults reproduce the paper's Table I
and renders the table.
"""

from repro.analysis import table1
from repro.config import SimulationConfig
from repro.memory.layout import PAGE_SIZE

from conftest import run_once


def test_table1(benchmark, save_report):
    text = run_once(benchmark, table1)
    save_report("table1", text)

    cfg = SimulationConfig()
    assert cfg.gpu.num_sms == 28
    assert cfg.gpu.clock_mhz == 1481.0
    assert PAGE_SIZE == 4096
    assert cfg.interconnect.fault_handling_us == 45.0
    assert cfg.interconnect.remote_access_latency_cycles == 200
    assert cfg.gpu.dram_latency_cycles == 100
    assert cfg.policy.static_threshold == 8
    for needle in ("Tree-based", "LRU", "PCIe 3.0 16x"):
        assert needle in text
