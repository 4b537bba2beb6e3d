"""Unit tests for the access counter file (Section IV semantics)."""

import numpy as np
import pytest

from repro.config import MigrationPolicy
from repro.memory.layout import PAGES_PER_BLOCK
from repro.uvm.counters import AccessCounterFile

from tests.conftest import make_driver, make_vas


class TestHistoricCounters:
    def test_accumulates(self):
        c = AccessCounterFile(4)
        c.add_accesses(np.array([0, 1]), np.array([3, 5]))
        c.add_accesses(np.array([1]), np.array([2]))
        assert c.counts[0] == 3
        assert c.counts[1] == 7

    def test_duplicate_blocks_in_one_call(self):
        c = AccessCounterFile(4)
        c.add_accesses(np.array([2, 2, 2]), np.array([1, 1, 1]))
        assert c.counts[2] == 3

    def test_halving_preserves_order(self):
        c = AccessCounterFile(3, counter_bits=27, roundtrip_bits=5)
        c.add_accesses(np.array([0, 1]), np.array([100, 200]))
        # Saturate block 2 to trigger a global halving.
        c.add_accesses(np.array([2]), np.array([c.counter_max], dtype=np.uint64))
        assert c.count_halvings >= 1
        assert c.counts[1] > c.counts[0] > 0
        assert c.counts[2] < c.counter_max

    def test_roundtrip_halving(self):
        c = AccessCounterFile(2)
        for _ in range(32):
            c.add_roundtrip(np.array([0]))
        assert c.roundtrip_halvings >= 1
        assert c.roundtrips[0] <= c.roundtrip_max

    def test_roundtrips_accumulate(self):
        c = AccessCounterFile(4)
        c.add_roundtrip(np.array([1, 2]))
        c.add_roundtrip(np.array([2]))
        assert c.roundtrips[1] == 1
        assert c.roundtrips[2] == 2


class TestVoltaCounters:
    """Remote-only counters that reset on migration (static schemes)."""

    def test_remote_accumulates(self):
        c = AccessCounterFile(4)
        c.add_remote_accesses_unique(np.array([1]), np.array([5]))
        c.add_remote_accesses_unique(np.array([1]), np.array([2]))
        assert c.volta_counts[1] == 7
        assert c.counts[1] == 0  # independent of historic counters

    def test_reset_on_migration(self):
        """The driver's install zeroes a migrating block's counter."""
        drv = make_driver(make_vas(8), MigrationPolicy.ALWAYS, ts=8)
        pages = np.array([0, PAGES_PER_BLOCK], dtype=np.int64)
        drv.process_wave(pages, np.array([False, False]),
                         counts=np.array([3, 3]))
        assert drv.counters.volta_counts[[0, 1]].tolist() == [3, 3]
        drv.process_wave(pages[:1], np.array([False]),
                         counts=np.array([9]))
        assert drv.residency.resident[0]
        assert drv.counters.volta_counts[[0, 1]].tolist() == [0, 3]


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AccessCounterFile(0)

    def test_rejects_bad_bit_split(self):
        with pytest.raises(ValueError):
            AccessCounterFile(4, counter_bits=30, roundtrip_bits=5)
