"""Declarative per-tenant SLOs with multi-window burn-rate evaluation.

An :class:`SloConfig` states objectives the serving layer should meet
-- a per-wave latency target with an attainment fraction, a ceiling on
the service-level shed rate, a per-tenant throughput floor -- and the
:class:`SloEngine` evaluates them continuously against the closed
tumbling windows the telemetry hub maintains.

Evaluation follows the multi-window, multi-burn-rate pattern from SRE
practice: an objective is *violating* only when both a fast window
(recent ``fast_windows`` closed windows) and a slow window
(``slow_windows``) burn the error budget faster than
``burn_threshold``.  The fast window makes alerts responsive, the slow
window keeps one bad wave from paging; requiring both keeps transcripts
deterministic and small.  :class:`~repro.obs.events.SloViolation` is
emitted on the transition into violation, and a final
:class:`~repro.obs.events.SloAttainment` verdict per (tenant,
objective) when the tenant completes.

All math here is pure float arithmetic over simulated-clock windows:
identical inputs yield identical transcripts on every backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..events import SloAttainment, SloViolation
from .windows import WindowAggregate

#: Objective names used in events, metrics, and the inspect table.
LATENCY = "p99_latency"
SHED_RATE = "shed_rate"
THROUGHPUT = "throughput"

#: Sentinel tenant id for service-level objectives.
SERVICE = -1


def burn_rate(bad: int, total: int, budget: float) -> float:
    """Error-budget burn rate of one window.

    ``budget`` is the allowed bad fraction (``1 - attainment``); a burn
    rate of 1.0 spends the budget exactly, >1 overspends.  An empty
    window burns nothing; a zero budget burns infinitely fast the
    moment anything goes bad.
    """
    if total <= 0 or bad <= 0:
        return 0.0
    if budget <= 0.0:
        return math.inf
    return (bad / total) / budget


@dataclass(frozen=True)
class SloConfig:
    """Declarative serving objectives (all optional, validated).

    ``None`` disables an objective.  ``latency_attainment`` is the
    required good fraction for the latency objective (e.g. 0.99 means
    "99% of waves complete under ``p99_latency_us``").  ``max_shed_rate``
    bounds the service-level fraction of arrivals shed;
    ``min_throughput`` is a per-tenant accesses-per-second floor
    evaluated over the merged fast/slow windows.
    """

    p99_latency_us: float | None = None
    latency_attainment: float = 0.99
    max_shed_rate: float | None = None
    min_throughput: float | None = None
    fast_windows: int = 3
    slow_windows: int = 12
    burn_threshold: float = 2.0

    @property
    def enabled(self) -> bool:
        return (self.p99_latency_us is not None
                or self.max_shed_rate is not None
                or self.min_throughput is not None)

    def validate(self) -> None:
        errors = []
        if self.p99_latency_us is not None and self.p99_latency_us <= 0:
            errors.append(f"p99_latency_us must be positive: "
                          f"{self.p99_latency_us}")
        if not 0.0 < self.latency_attainment < 1.0:
            errors.append(f"latency_attainment must be in (0, 1): "
                          f"{self.latency_attainment}")
        if self.max_shed_rate is not None \
                and not 0.0 <= self.max_shed_rate < 1.0:
            errors.append(f"max_shed_rate must be in [0, 1): "
                          f"{self.max_shed_rate}")
        if self.min_throughput is not None and self.min_throughput <= 0:
            errors.append(f"min_throughput must be positive: "
                          f"{self.min_throughput}")
        if self.fast_windows < 1:
            errors.append(f"fast_windows must be >= 1: {self.fast_windows}")
        if self.slow_windows < self.fast_windows:
            errors.append(f"slow_windows ({self.slow_windows}) must be >= "
                          f"fast_windows ({self.fast_windows})")
        if self.burn_threshold <= 0:
            errors.append(f"burn_threshold must be positive: "
                          f"{self.burn_threshold}")
        if errors:
            raise ValueError("invalid SLO config:\n  " +
                             "\n  ".join(errors))


@dataclass
class _ObjectiveState:
    """Per-(tenant, objective) running state."""

    violating: bool = False
    violations: int = 0
    good: int = 0
    total: int = 0

    @property
    def attainment(self) -> float:
        return self.good / self.total if self.total else 1.0


@dataclass
class SloEngine:
    """Evaluates one :class:`SloConfig` against closed windows.

    The engine owns no windows -- the telemetry hub feeds it merged
    fast/slow aggregates at each evaluation tick -- only the
    per-(tenant, objective) state machines and cumulative attainment
    counters.  ``emit`` is the event-bus hook (may be ``None``:
    attainment is still tracked for the result/inspect path).
    """

    config: SloConfig
    emit: object = None
    _states: dict = field(default_factory=dict)

    def _state(self, tenant: int, objective: str) -> _ObjectiveState:
        key = (tenant, objective)
        state = self._states.get(key)
        if state is None:
            state = _ObjectiveState()
            self._states[key] = state
        return state

    def _emit(self, event) -> None:
        if self.emit is not None:
            self.emit(event)

    def _transition(self, state: _ObjectiveState, tenant: int, at_us: float,
                    objective: str, violating: bool, fast: float,
                    slow: float, value: float, target: float) -> None:
        if violating and not state.violating:
            state.violations += 1
            self._emit(SloViolation(
                tenant=tenant, at_us=float(at_us), objective=objective,
                burn_fast=float(fast), burn_slow=float(slow),
                value=float(value), target=float(target)))
        state.violating = violating

    # -- per-objective evaluation hooks (called by the telemetry hub) --

    def evaluate_latency(self, tenant: int, at_us: float,
                         fast: WindowAggregate,
                         slow: WindowAggregate) -> None:
        cfg = self.config
        if cfg.p99_latency_us is None:
            return
        budget = 1.0 - cfg.latency_attainment
        state = self._state(tenant, LATENCY)
        bf = burn_rate(fast.bad, fast.count, budget)
        bs = burn_rate(slow.bad, slow.count, budget)
        violating = (bf >= cfg.burn_threshold and bs >= cfg.burn_threshold)
        self._transition(state, tenant, at_us, LATENCY, violating,
                         bf, bs, fast.maximum, cfg.p99_latency_us)

    def evaluate_shed(self, at_us: float, fast: WindowAggregate,
                      slow: WindowAggregate) -> None:
        cfg = self.config
        if cfg.max_shed_rate is None:
            return
        # Budget is the allowed shed fraction itself; a max_shed_rate
        # of 0 means any shed at all starts burning infinitely fast.
        budget = cfg.max_shed_rate
        state = self._state(SERVICE, SHED_RATE)
        bf = burn_rate(fast.bad, fast.count, budget) \
            if budget > 0 else (math.inf if fast.bad else 0.0)
        bs = burn_rate(slow.bad, slow.count, budget) \
            if budget > 0 else (math.inf if slow.bad else 0.0)
        violating = (bf >= cfg.burn_threshold and bs >= cfg.burn_threshold)
        self._transition(state, SERVICE, at_us, SHED_RATE, violating,
                         bf, bs, fast.bad_fraction, cfg.max_shed_rate)

    def evaluate_throughput(self, tenant: int, at_us: float,
                            fast: WindowAggregate, slow: WindowAggregate,
                            fast_span_us: float,
                            slow_span_us: float) -> None:
        """Throughput floor over merged windows (``total`` = accesses).

        A window below the floor counts as fully bad (burn rate =
        floor / actual), so the same two-window AND rule applies.
        """
        cfg = self.config
        if cfg.min_throughput is None:
            return
        floor = cfg.min_throughput

        def rate(agg: WindowAggregate, span_us: float) -> float:
            return agg.total / (span_us / 1e6) if span_us > 0 else 0.0

        def burn(actual: float) -> float:
            if actual >= floor:
                return 0.0
            return floor / actual if actual > 0 else math.inf

        fast_rate = rate(fast, fast_span_us)
        slow_rate = rate(slow, slow_span_us)
        bf, bs = burn(fast_rate), burn(slow_rate)
        state = self._state(tenant, THROUGHPUT)
        state.total += 1
        if fast_rate >= floor:
            state.good += 1
        violating = (bf >= cfg.burn_threshold and bs >= cfg.burn_threshold)
        self._transition(state, tenant, at_us, THROUGHPUT, violating,
                         bf, bs, fast_rate, floor)

    # -- cumulative attainment bookkeeping --

    def record_latency_window(self, tenant: int,
                              agg: WindowAggregate) -> None:
        if self.config.p99_latency_us is None or agg.count == 0:
            return
        state = self._state(tenant, LATENCY)
        state.total += agg.count
        state.good += agg.count - agg.bad

    def record_shed_window(self, agg: WindowAggregate) -> None:
        if self.config.max_shed_rate is None or agg.count == 0:
            return
        state = self._state(SERVICE, SHED_RATE)
        state.total += agg.count
        state.good += agg.count - agg.bad

    # -- results --

    def total_violations(self) -> int:
        return sum(state.violations for state in self._states.values())

    def violations_of(self, tenant: int) -> int:
        return sum(state.violations for (tid, _), state
                   in self._states.items() if tid == tenant)

    def attainment_of(self, tenant: int) -> float | None:
        """Worst attainment across the tenant's objectives, or None."""
        values = [state.attainment for (tid, _), state
                  in self._states.items() if tid == tenant and state.total]
        return min(values) if values else None

    def _target_of(self, objective: str) -> float:
        cfg = self.config
        if objective == LATENCY:
            return cfg.latency_attainment
        if objective == SHED_RATE:
            return 1.0 - (cfg.max_shed_rate or 0.0)
        return cfg.latency_attainment  # throughput reuses the fraction

    def finish_tenant(self, tenant: int, at_us: float) -> None:
        """Emit final :class:`SloAttainment` verdicts for ``tenant``."""
        for (tid, objective), state in self._states.items():
            if tid != tenant or not state.total:
                continue
            target = self._target_of(objective)
            self._emit(SloAttainment(
                tenant=tenant, at_us=float(at_us), objective=objective,
                attainment=state.attainment, target=target,
                met=state.attainment >= target and not state.violating))

    def finish(self, at_us: float) -> None:
        """End of run: emit the service-level verdicts."""
        self.finish_tenant(SERVICE, at_us)
