"""Multi-tenant UVM serving layer (``repro serve``).

The paper evaluates adaptive migration with one workload owning the
whole device; this package stresses the same mechanisms in a serving
regime: a seeded open-loop traffic generator (:mod:`repro.serve.traffic`)
spawns workload instances from the registry as *tenants*, a
capacity-aware admission controller (:mod:`repro.serve.admission`)
admits, queues or sheds them against the shared device capacity, and a
wave-stream interleaver (:mod:`repro.serve.session`) schedules admitted
tenants' waves onto one shared :class:`~repro.uvm.driver.UvmDriver`
under a pluggable scheduler (:mod:`repro.serve.scheduler`: legacy round
robin or deficit-weighted fair queuing).  Graceful degradation engages in
watermark escalation order -- throttle the heaviest-thrashing tenant
(the paper's Section VIII proposal), then queue, then shed -- and every
decision is a pure function of ``(seed, arrival trace, capacity)``, so
serve runs replay bit-identically.  See ``docs/serving.md``.
"""

from __future__ import annotations

from .admission import AdmissionController, Decision, tenant_weight
from .scheduler import (DeficitRoundRobinScheduler, RoundRobinScheduler,
                        WaveScheduler, make_scheduler)
from .session import ServeResult, ServeSession, TenantRecord
from .traffic import Arrival, generate_arrivals

__all__ = [
    "AdmissionController",
    "Arrival",
    "Decision",
    "DeficitRoundRobinScheduler",
    "RoundRobinScheduler",
    "ServeResult",
    "ServeSession",
    "TenantRecord",
    "WaveScheduler",
    "generate_arrivals",
    "make_scheduler",
    "tenant_weight",
]
