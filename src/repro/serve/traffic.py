"""Seeded open-loop tenant traffic: Poisson and bursty MMPP arrivals.

The generator produces the whole arrival trace up front -- tenant ids,
arrival times on the simulated clock, and per-tenant workload choices --
from its own seeded RNG stream.  *Open loop* means arrival times never
depend on service: the trace is fixed before the first wave runs, which
is both the realistic serving model (clients do not pace themselves to
the device) and what makes admission decisions a pure function of
``(seed, arrival trace, capacity)``.

Two processes are supported:

* ``poisson`` -- memoryless: exponential inter-arrival times at
  ``arrival_rate`` per second.
* ``bursty`` -- a two-state Markov-modulated Poisson process: the
  modulating chain alternates exponential *calm* and *burst* sojourns
  (means ``calm_len_ms``/``burst_len_ms``), and the burst state
  multiplies the arrival rate by ``burst_factor``.  Simulated by
  competing exponentials: at every step the next arrival races the next
  state flip, and memorylessness makes redrawing after a flip exact.

Determinism contract: the generator owns its own
:class:`numpy.random.Generator` seeded from ``(seed, stream constant)``,
so it never perturbs tenant-build or driver RNG streams, and the trace
is a pure function of the :class:`~repro.config.ServeConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ServeConfig

#: SeedSequence stream key separating arrival-trace draws from every
#: other consumer of the serve seed (tenant builds, driver faults).
_ARRIVAL_STREAM = 0xA221FE


@dataclass(frozen=True)
class Arrival:
    """One tenant arrival: who, when, and which workload it runs."""

    #: Dense tenant id (0-based, in arrival order).
    tenant: int
    #: Arrival time on the simulated clock, microseconds.
    at_us: float
    #: Registry name of the workload this tenant runs.
    workload: str


def generate_arrivals(config: ServeConfig) -> tuple[Arrival, ...]:
    """Generate the full arrival trace for one serve run.

    The trace holds ``config.tenants`` arrivals.  Workloads are drawn
    per arrival, uniformly from ``workload_mix``, from the same stream
    (so the trace including workload choices replays bit-identically
    for a fixed seed).
    """
    config.validate()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(config.seed, _ARRIVAL_STREAM)))
    rate_per_us = config.arrival_rate / 1e6
    burst_mean_us = config.burst_len_ms * 1e3
    calm_mean_us = config.calm_len_ms * 1e3
    bursty = config.process == "bursty"
    mix = config.workload_mix

    arrivals: list[Arrival] = []
    t = 0.0
    in_burst = False
    while len(arrivals) < config.tenants:
        if bursty:
            rate = rate_per_us * (config.burst_factor if in_burst else 1.0)
            sojourn = burst_mean_us if in_burst else calm_mean_us
            t_arrival = rng.exponential(1.0 / rate)
            t_flip = rng.exponential(sojourn)
            if t_flip < t_arrival:
                # The modulating chain flips before the next arrival;
                # memorylessness lets the arrival draw restart cleanly.
                t += t_flip
                in_burst = not in_burst
                continue
            t += t_arrival
        else:
            t += rng.exponential(1.0 / rate_per_us)
        workload = mix[int(rng.integers(len(mix)))]
        arrivals.append(Arrival(tenant=len(arrivals), at_us=t,
                                workload=workload))
    return tuple(arrivals)
