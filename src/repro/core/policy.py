"""Migrate-vs-remote decision policies (Section IV and the evaluated baselines).

Each policy answers, for every non-resident basic block touched by a
wave: *against which counter value and threshold should the block's far
accesses be judged?*  The driver turns the ``(threshold, counter)`` pair
into a split between remotely served accesses, a migration trigger, and
locally served accesses: accesses numbered below the threshold are
served remotely, the access that reaches it migrates the block.

Counter semantics differ per scheme and are the crux of the paper:

* The **static** schemes (*Always*, *Oversub*) model Volta hardware
  access counters: they count only *remote* accesses and are reset when
  the block migrates, so the full delay applies afresh after every
  eviction round trip.  *Oversub* additionally arms the delay per block:
  only blocks whose first migration would happen after the device is
  already oversubscribed are soft-pinned; blocks that migrated earlier
  keep device preference and re-migrate at first touch (which is why the
  scheme barely helps workloads whose whole footprint floods in before
  memory pressure builds, e.g. RandomAccess).
* The **Adaptive** framework keeps *historic* counters -- local and
  remote accesses, never reset, globally halved on saturation -- and
  compares them against the dynamic threshold of Equation 1.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from ..config import MigrationPolicy, PolicyConfig
from ..uvm import thresholds as th

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..uvm.driver import UvmDriver


class DecisionPolicy(ABC):
    """Interface the UVM driver consults on every far access."""

    #: Scheme identifier, for statistics and display.
    kind: MigrationPolicy

    def __init__(self, config: PolicyConfig) -> None:
        self.config = config

    @abstractmethod
    def decision_state(self, blocks: np.ndarray,
                       driver: "UvmDriver") -> tuple[np.ndarray, np.ndarray]:
        """Return ``(thresholds, counter_baselines)`` for ``blocks``.

        A block migrates once its counter baseline plus the accesses of
        the current wave reaches its threshold; earlier accesses are
        served remotely.  A threshold of 1 with baseline 0 is exactly
        first-touch migration.

        Returned arrays are owned by the caller but must be treated as
        read-only by the policy afterwards: fancy-indexed gathers from
        the counter file already produce fresh copies, so policies do
        not defensively ``.copy()`` on the hot path.
        """


class FirstTouchPolicy(DecisionPolicy):
    """State-of-the-art baseline (*Disabled*): migrate at first touch."""

    kind = MigrationPolicy.DISABLED

    def decision_state(self, blocks, driver):
        n = len(blocks)
        return (th.first_touch_thresholds(n), np.zeros(n, dtype=np.int64))


class StaticAlwaysPolicy(DecisionPolicy):
    """Volta-style delayed migration with a static threshold, always active.

    Every block is soft-pinned to host memory from the start; each round
    trip requires ``ts`` fresh remote accesses before re-migration.
    """

    kind = MigrationPolicy.ALWAYS

    def decision_state(self, blocks, driver):
        ts = self.config.static_threshold
        return (th.static_thresholds(len(blocks), ts),
                driver.counters.volta_counts[blocks])


class StaticOversubPolicy(DecisionPolicy):
    """Static-threshold delayed migration armed only after oversubscription.

    Before memory pressure: pure first touch.  After: only blocks that
    have never been device-resident get the soft-pin treatment; blocks
    that migrated earlier keep device preference and re-migrate at first
    touch after eviction.
    """

    kind = MigrationPolicy.OVERSUB

    def decision_state(self, blocks, driver):
        n = len(blocks)
        if not driver.device.oversubscribed:
            return (th.first_touch_thresholds(n), np.zeros(n, dtype=np.int64))
        ts = self.config.static_threshold
        td = np.where(driver.ever_migrated[blocks], 1, ts).astype(np.int64)
        return (td, driver.counters.volta_counts[blocks])


class AdaptivePolicy(DecisionPolicy):
    """The paper's dynamic access-counter threshold (Equation 1).

    Before the device ever has to evict, the threshold scales with the
    occupancy fraction, converging on first-touch behaviour when memory
    is plentiful.  Once oversubscribed, the threshold grows with the
    block's round-trip count and the multiplicative migration penalty,
    hard-pinning thrashing blocks to host memory.  Judged against the
    historic (local + remote, never reset) counters.
    """

    kind = MigrationPolicy.ADAPTIVE

    def __init__(self, config: PolicyConfig) -> None:
        super().__init__(config)
        # Validate Equation 1's parameters once here so the per-wave
        # threshold kernel can skip argument checks on the hot path.
        if config.static_threshold < 1:
            raise ValueError("static threshold must be >= 1")
        if config.migration_penalty < 1:
            raise ValueError("migration penalty must be >= 1")

    def decision_state(self, blocks, driver):
        counters = driver.counters
        over = driver.device.oversubscribed
        td = th.eq1_thresholds(
            self.config.static_threshold, self.config.migration_penalty,
            over, driver.device.occupancy, len(blocks),
            counters.roundtrips[blocks] if over else None)
        if self.config.historic_counters:
            baseline = counters.counts[blocks]
        else:
            # Ablation: plain Volta counters under the dynamic threshold.
            baseline = counters.volta_counts[blocks]
        return (td, baseline)


_POLICY_CLASSES: dict[MigrationPolicy, type[DecisionPolicy]] = {
    MigrationPolicy.DISABLED: FirstTouchPolicy,
    MigrationPolicy.ALWAYS: StaticAlwaysPolicy,
    MigrationPolicy.OVERSUB: StaticOversubPolicy,
    MigrationPolicy.ADAPTIVE: AdaptivePolicy,
}


def make_policy(config: PolicyConfig) -> DecisionPolicy:
    """Instantiate the decision policy selected by ``config.policy``.

    For the ADAPTIVE scheme, ``config.threshold_variant`` may swap
    Equation 1's multiplicative backoff for one of the design-space
    variants in :mod:`repro.core.variants`.
    """
    if (config.policy is MigrationPolicy.ADAPTIVE
            and config.threshold_variant != "multiplicative"):
        from .variants import make_variant
        return make_variant(config.threshold_variant, config)
    return _POLICY_CLASSES[config.policy](config)
