"""Deterministic alert rules over live telemetry samples.

An :class:`AlertRule` is a threshold comparison against one named
metric in the sample dict the telemetry hub assembles each scheduler
round (e.g. ``serve.live_oversubscription`` or ``tenant.ewma_latency_us``).
Rules evaluate in declaration order; each keeps a per-scope
consecutive-breach counter so a rule can require ``for_ticks``
breaching evaluations before firing (hysteresis against one-round
spikes).  State transitions emit typed
:class:`~repro.obs.events.AlertFired` events -- ``firing`` on the way
up, ``resolved`` on the first clean evaluation.  Alerts only report:
nothing in the simulation reads them (``--live-admission`` reads the
hub's EWMA thrash rates, not its alerts).

Evaluation is pure: comparisons over floats the simulator computed, no
host time, no RNG.  The transcript (ordered list of fired events) is
therefore seed-stable, which CI asserts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from ..events import AlertFired

_OPS = {">": operator.gt, ">=": operator.ge,
        "<": operator.lt, "<=": operator.le}


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold rule.

    ``metric`` names a key in the evaluation sample; samples missing
    the key skip the rule (no state change).  ``scope`` is ``"serve"``
    for service-wide samples or ``"tenant"`` for per-tenant samples --
    a tenant-scoped rule keeps independent state per tenant.
    """

    name: str
    metric: str
    op: str
    threshold: float
    for_ticks: int = 1
    scope: str = "serve"

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown alert op {self.op!r}; "
                             f"known: {', '.join(sorted(_OPS))}")
        if self.for_ticks < 1:
            raise ValueError(f"for_ticks must be >= 1: {self.for_ticks}")
        if self.scope not in ("serve", "tenant"):
            raise ValueError(f"unknown alert scope {self.scope!r}")


@dataclass
class _RuleState:
    streak: int = 0
    firing: bool = False


@dataclass
class AlertEngine:
    """Evaluates an ordered rule list and records the transcript."""

    rules: tuple
    emit: object = None
    _states: dict = field(default_factory=dict)
    #: Ordered, seed-stable list of every AlertFired emitted.
    transcript: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rules = tuple(self.rules)
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate alert rule names: {names}")

    def evaluate(self, at_us: float, sample: dict,
                 tenant: int = -1) -> list:
        """Evaluate every rule matching the sample's scope, in order.

        ``tenant`` is -1 for serve-scoped samples.  Returns the events
        fired by this evaluation (also appended to :attr:`transcript`
        and pushed through ``emit``).
        """
        scope = "serve" if tenant < 0 else "tenant"
        fired = []
        for rule in self.rules:
            if rule.scope != scope:
                continue
            value = sample.get(rule.metric)
            if value is None:
                continue
            key = (rule.name, tenant)
            state = self._states.get(key)
            if state is None:
                state = _RuleState()
                self._states[key] = state
            breach = _OPS[rule.op](value, rule.threshold)
            event = None
            if breach:
                state.streak += 1
                if not state.firing and state.streak >= rule.for_ticks:
                    state.firing = True
                    event = AlertFired(
                        name=rule.name, at_us=float(at_us), tenant=tenant,
                        metric=rule.metric, value=float(value),
                        threshold=rule.threshold, state="firing")
            else:
                state.streak = 0
                if state.firing:
                    state.firing = False
                    event = AlertFired(
                        name=rule.name, at_us=float(at_us), tenant=tenant,
                        metric=rule.metric, value=float(value),
                        threshold=rule.threshold, state="resolved")
            if event is not None:
                fired.append(event)
                self.transcript.append(event)
                if self.emit is not None:
                    self.emit(event)
        return fired

    def firing(self) -> list:
        """Names of rules currently firing (sorted for determinism)."""
        return sorted({name for (name, _), state in self._states.items()
                       if state.firing})
