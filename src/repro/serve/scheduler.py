"""Wave schedulers for the serving layer (``serve.scheduler``).

A scheduler decides, per round, which live tenants run how many waves
and in what interleaving.  :meth:`WaveScheduler.plan_round` returns the
round's *groups*: an ordered list where each group is an ordered list
of ``(tenant, waves)`` entries over distinct tenants.  Groups execute
in order; a multi-tenant group executes wave-slot-major (slot ``k``
runs one wave for every tenant whose allowance exceeds ``k``, in entry
order).  The session hands each slot's waves, one per distinct
tenant, to :meth:`repro.uvm.driver.UvmDriver.process_wave_batch` as
one dispatch, which resolves them one after another through the
driver's per-wave pipeline.

Two schedulers ship:

* ``round_robin`` -- the legacy reference: each runnable tenant runs a
  full ``quantum`` in admission order, and a throttled tenant sits the
  round out entirely.  Byte-identical to the pre-scheduler serve path.
* ``drr`` -- deficit round robin (deficit-weighted fair queuing): each
  round a tenant accrues ``weight * quantum`` deficit and is allotted
  ``floor(deficit)`` waves, carrying the fraction forward, so over time
  every tenant's wave share converges to its weight share regardless
  of integer quantum granularity.  Throttling multiplies the weight by
  :data:`THROTTLE_DECAY` instead of suspending the stream -- the
  paper's Section VIII throttle as a graceful slowdown.

Weights come from the configured share vector ``serve.weights`` (tenant
``i`` gets ``weights[i % len(weights)]``; empty means 1.0 for all) --
the hook where an SLO-class-to-share mapping would plug in.

Determinism: scheduling is a pure function of the tenant states it is
handed; neither scheduler draws randomness or reads the wall clock.
"""

from __future__ import annotations

from ..config import ServeConfig
from .admission import tenant_weight

#: Weight multiplier of a throttled tenant under ``drr``.
THROTTLE_DECAY = 0.25


class WaveScheduler:
    """Strategy interface: plan each round's tenant/wave interleaving."""

    #: Config name (``serve.scheduler`` value) this scheduler answers to.
    name = "?"

    def plan_round(self, live) -> list[list[tuple]]:
        """Groups of ``(tenant, waves)`` entries for one round.

        Called once per scheduler round with the live-tenant list (in
        admission order).  Entry tenants are distinct within a group.
        """
        raise NotImplementedError

    def runnable(self, tenant) -> bool:
        """Whether a planned tenant may still run at execution time.

        Re-checked when the tenant's turn arrives, because a completion
        earlier in the round can engage the throttle mid-round.
        """
        raise NotImplementedError

    def weight_of(self, tenant_id: int) -> float:
        """The tenant's configured fair share (1.0 = equal share)."""
        return 1.0

    def deficit_of(self, tenant_id: int) -> float:
        """The tenant's carried fractional deficit (0.0 outside drr)."""
        return 0.0


class RoundRobinScheduler(WaveScheduler):
    """Legacy round robin: a full quantum per runnable tenant.

    Kept as the reference path: its plans replay the pre-scheduler
    serve loop exactly (throttled tenants are filtered at plan time
    *and* re-checked at execution, matching the old per-turn check),
    so ``scheduler=round_robin`` output is byte-identical per seed.
    """

    name = "round_robin"

    def __init__(self, config: ServeConfig) -> None:
        self._quantum = config.quantum

    def plan_round(self, live):
        quantum = self._quantum
        return [[(t, quantum)] for t in live if t.throttle_left == 0]

    def runnable(self, tenant) -> bool:
        return tenant.throttle_left == 0


class DeficitRoundRobinScheduler(WaveScheduler):
    """Deficit-weighted fair queuing over wave quanta (DRR).

    Each round every live tenant accrues ``weight * quantum`` deficit
    (times :data:`THROTTLE_DECAY` while throttled) and is planned for
    ``floor(deficit)`` waves; the fractional remainder carries to the
    next round.  Invariant (property-tested): the carried deficit is
    always in ``[0, 1)`` -- no tenant can bank more than one wave of
    credit, which bounds short-term unfairness by one wave per round.

    The whole round is one group, so execution interleaves tenants one
    wave at a time (slot-major).
    """

    name = "drr"

    def __init__(self, config: ServeConfig) -> None:
        self._quantum = config.quantum
        self._weights = config.weights
        self._deficit: dict[int, float] = {}

    def weight_of(self, tenant_id: int) -> float:
        return tenant_weight(self._weights, tenant_id)

    def deficit_of(self, tenant_id: int) -> float:
        return self._deficit.get(tenant_id, 0.0)

    def runnable(self, tenant) -> bool:  # noqa: ARG002 - uniform API
        # Throttling under drr decays the accrual rate instead of
        # suspending the stream, so a planned tenant always runs.
        return True

    def plan_round(self, live):
        group = []
        quantum = self._quantum
        for tenant in live:
            weight = self.weight_of(tenant.id)
            if tenant.throttle_left > 0:
                weight *= THROTTLE_DECAY
            deficit = self._deficit.get(tenant.id, 0.0) + weight * quantum
            allot = int(deficit)
            self._deficit[tenant.id] = deficit - allot
            if allot > 0:
                group.append((tenant, allot))
        return [group] if group else []


def make_scheduler(config: ServeConfig) -> WaveScheduler:
    """Instantiate the scheduler ``config.scheduler`` names."""
    if config.scheduler == "drr":
        return DeficitRoundRobinScheduler(config)
    return RoundRobinScheduler(config)
