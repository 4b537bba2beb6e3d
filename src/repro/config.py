"""Simulation configuration (Table I of the paper).

Every row of Table I ("Configuration parameters of the simulated system")
maps to a field below; bold (default) values in the table are the dataclass
defaults.  A handful of additional calibration constants parameterize the
trace-driven timing model (documented in DESIGN.md) -- these have no
counterpart in the paper because the paper inherits them from GPGPU-Sim.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field

from .memory.layout import BASIC_BLOCK_SIZE, CHUNK_SIZE, GB, MB

#: Threshold growth functions accepted by PolicyConfig.threshold_variant
#: (Equation 1 plus the design-space variants of repro.core.variants).
KNOWN_THRESHOLD_VARIANTS: tuple[str, ...] = (
    "multiplicative", "linear", "exponential", "occupancy-only")


class MigrationPolicy(enum.Enum):
    """Far-access handling schemes compared in the evaluation (Section VI).

    * ``DISABLED`` -- the state-of-the-art baseline: remote access is not
      enabled and data migrates at first touch (with the tree prefetcher
      and 2MB LRU replacement).
    * ``ALWAYS`` -- static access-counter threshold delayed migration from
      the start of execution (Volta-style access counters).
    * ``OVERSUB`` -- static-threshold delayed migration enabled only after
      the device memory becomes oversubscribed.
    * ``ADAPTIVE`` -- the paper's contribution: dynamic access-counter
      threshold (Equation 1) with LFU replacement.
    """

    DISABLED = "disabled"
    ALWAYS = "always"
    OVERSUB = "oversub"
    ADAPTIVE = "adaptive"


class ReplacementPolicy(enum.Enum):
    """Page replacement policy (Table I: LRU default, LFU for the framework)."""

    LRU = "lru"
    LFU = "lfu"


class EvictionGranularity(enum.Enum):
    """Eviction unit (Table I: 2MB default, 64KB optional)."""

    CHUNK_2MB = CHUNK_SIZE
    BLOCK_64KB = BASIC_BLOCK_SIZE


class PrefetcherKind(enum.Enum):
    """Hardware prefetcher selection (Table I: tree-based default)."""

    TREE = "tree"
    NONE = "none"
    SEQUENTIAL = "sequential"
    RANDOM = "random"


@dataclass(frozen=True)
class GpuConfig:
    """GPU core organization (Table I, GeForce GTX 1080 Ti, Pascal-like)."""

    num_sms: int = 28
    cores_per_sm: int = 128
    clock_mhz: float = 1481.0
    max_ctas_per_sm: int = 32
    max_warps_per_sm: int = 64
    warp_size: int = 32
    #: Device-local DRAM bandwidth in bytes/s (GTX 1080 Ti: 484 GB/s).
    dram_bandwidth: float = 484.0e9
    #: Device DRAM access latency in core cycles (Table I).
    dram_latency_cycles: int = 100
    #: Page table walk latency in core cycles (Table I).
    page_walk_latency_cycles: int = 100

    @property
    def clock_hz(self) -> float:
        """Core clock in Hz."""
        return self.clock_mhz * 1.0e6

    def us_to_cycles(self, micros: float) -> int:
        """Convert microseconds to (rounded) core cycles."""
        return int(round(micros * self.clock_mhz))

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.cores_per_sm <= 0:
            raise ValueError("GPU must have positive SM/core counts")
        if self.clock_mhz <= 0:
            raise ValueError("clock must be positive")


@dataclass(frozen=True)
class InterconnectConfig:
    """CPU-GPU interconnect (Table I: PCIe 3.0 16x, 8 GT/s per lane/direction)."""

    #: Effective per-direction bandwidth in bytes/s.  PCIe 3.0 x16 has a
    #: 15.75 GB/s payload ceiling; 16 GB/s is the figure the paper's
    #: simulator uses (8 GT/s * 16 lanes * 128b/130b).
    bandwidth: float = 16.0e9
    #: One-way interconnect latency in GPU core cycles (Table I).
    latency_cycles: int = 100
    #: Latency of a remote zero-copy access in GPU core cycles (Table I).
    remote_access_latency_cycles: int = 200
    #: Far-fault handling latency in microseconds (Table I: 45us on Pascal).
    fault_handling_us: float = 45.0
    #: Number of far-faults the driver resolves per handling batch.  The
    #: real UVM fault buffer is drained in batches (default 256 entries);
    #: all faults in one batch share one handling round trip.
    fault_batch_size: int = 256
    #: Payload bytes moved by one remote zero-copy transaction (a warp's
    #: coalesced 128B sector).
    remote_transaction_bytes: int = 128
    #: Multiplicative protocol/fragmentation overhead for small remote
    #: transactions relative to streaming DMA efficiency (a sparse 4-8B
    #: access still burns a full transaction plus protocol overhead).
    remote_overhead: float = 4.0
    #: Number of remote transactions that can overlap in flight (limits
    #: how much TLP hides the 200-cycle remote latency; sparse dependent
    #: accesses cannot keep many requests outstanding).
    remote_concurrency: int = 4

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.fault_batch_size <= 0:
            raise ValueError("fault_batch_size must be positive")
        if self.remote_concurrency <= 0:
            raise ValueError("remote_concurrency must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """Device memory capacity and management granularities."""

    #: Device memory capacity in bytes available to managed allocations.
    #: Experiments set this from the workload footprint and the desired
    #: oversubscription percentage (the paper controls free space with
    #: pinned dummy allocations rather than scaling working sets).
    device_capacity: int = 2 * GB
    eviction_granularity: EvictionGranularity = EvictionGranularity.CHUNK_2MB
    replacement: ReplacementPolicy = ReplacementPolicy.LRU
    #: Hardware prefetcher (Table I: tree-based; ``none`` switches
    #: prefetching off).
    prefetcher: PrefetcherKind = PrefetcherKind.TREE

    def __post_init__(self) -> None:
        if self.device_capacity < CHUNK_SIZE:
            raise ValueError(
                f"device capacity {self.device_capacity} smaller than one 2MB chunk"
            )


@dataclass(frozen=True)
class PolicyConfig:
    """Migration policy knobs (Section IV / Table I)."""

    policy: MigrationPolicy = MigrationPolicy.ADAPTIVE
    #: Static access counter threshold ts (Table I: 8, 16, 32; default 8).
    static_threshold: int = 8
    #: Multiplicative migration penalty p (Table I: 2, 4, 8, 1048576).
    migration_penalty: int = 8
    #: Bits of the 32-bit counter register used for the access count.
    counter_bits: int = 27
    #: Bits used for the round-trip (eviction) count.
    roundtrip_bits: int = 5
    #: Judge the adaptive threshold against the paper's historic
    #: counters (local + remote, never reset).  Setting this to False is
    #: the ablation of Section IV's "Access Counter Maintenance": the
    #: dynamic threshold is then compared against plain Volta hardware
    #: counters (remote-only, reset on migration).
    historic_counters: bool = True
    #: Threshold growth function for the ADAPTIVE scheme:
    #: ``multiplicative`` is the paper's Equation 1; ``linear``,
    #: ``exponential`` and ``occupancy-only`` are the design-space
    #: variants of :mod:`repro.core.variants`.
    threshold_variant: str = "multiplicative"

    def __post_init__(self) -> None:
        if self.static_threshold < 1:
            raise ValueError("static threshold must be >= 1")
        if self.migration_penalty < 1:
            raise ValueError("migration penalty must be >= 1")
        if self.counter_bits + self.roundtrip_bits != 32:
            raise ValueError("counter register must total 32 bits")
        if self.threshold_variant not in KNOWN_THRESHOLD_VARIANTS:
            raise ValueError(
                f"unknown threshold variant {self.threshold_variant!r}; "
                f"choose from {KNOWN_THRESHOLD_VARIANTS}")

    @property
    def counter_max(self) -> int:
        """Saturation value of the access-count field."""
        return (1 << self.counter_bits) - 1

    @property
    def roundtrip_max(self) -> int:
        """Saturation value of the round-trip field."""
        return (1 << self.roundtrip_bits) - 1


@dataclass(frozen=True)
class TimingConfig:
    """Calibration constants of the wave-based cost model (DESIGN.md)."""

    #: Fallback compute cycles charged per memory access when a wave does
    #: not carry its own estimate (workloads set per-kernel arithmetic
    #: intensity themselves; see ``compute_per_access`` in their params).
    compute_cycles_per_access: float = 1.0
    #: Bytes touched by one coalesced access (one 128B sector).
    bytes_per_access: int = 128
    #: Fixed per-wave scheduling overhead in cycles.
    wave_overhead_cycles: int = 200

    def __post_init__(self) -> None:
        if self.bytes_per_access <= 0:
            raise ValueError("bytes_per_access must be positive")


@dataclass(frozen=True)
class FaultConfig:
    """Transient-fault model of the simulated UVM transfer path.

    Real UVM stacks treat transfer failure and retry as first-class
    (GPUVM, arXiv:2411.05309): a DMA can be dropped or a device frame
    allocation can transiently fail under pressure.  The driver retries a
    failed migration with exponential backoff and, once the retry budget
    is exhausted, degrades the access to the remote zero-copy path
    instead of crashing the run.

    Both rates default to 0.0, which disables injection entirely: no
    randomness is consumed and results are bit-identical to a simulator
    without the fault model.
    """

    #: Probability that one block migration's PCIe transfer fails.
    transfer_fault_rate: float = 0.0
    #: Probability that one migration's device frame allocation fails.
    migration_fault_rate: float = 0.0
    #: Re-attempts after a failed migration before degrading to remote.
    max_retries: int = 3
    #: Backoff wait before the first retry, in microseconds.
    retry_backoff_us: float = 5.0
    #: Growth factor of the backoff wait per successive retry.
    backoff_multiplier: float = 2.0
    #: Correlated fault storms: a two-state Markov chain (calm/storm)
    #: stepped once per migration site.  ``burst_on_prob`` is the
    #: calm->storm transition probability per step (0.0 disables the
    #: chain entirely: no extra randomness is consumed and behavior is
    #: bit-identical to the uncorrelated model).
    burst_on_prob: float = 0.0
    #: Storm->calm transition probability per step.
    burst_off_prob: float = 0.25
    #: Multiplier applied to both fault rates while the storm is on.
    burst_multiplier: float = 8.0

    def __post_init__(self) -> None:
        for name in ("transfer_fault_rate", "migration_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(
                    f"{name} must lie in [0.0, 1.0), got {rate!r} "
                    "(1.0 would make every migration fail forever)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_us < 0.0:
            raise ValueError("retry_backoff_us must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1.0")
        for name in ("burst_on_prob", "burst_off_prob"):
            prob = getattr(self, name)
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must lie in [0.0, 1.0], "
                                 f"got {prob!r}")
        if self.burst_multiplier < 1.0:
            raise ValueError("burst_multiplier must be >= 1.0 "
                             "(storms intensify faults, never mask them)")
        if self.burst_enabled:
            for name in ("transfer_fault_rate", "migration_fault_rate"):
                boosted = getattr(self, name) * self.burst_multiplier
                if boosted >= 1.0:
                    raise ValueError(
                        f"{name} * burst_multiplier = {boosted:g} reaches "
                        "1.0; a storm must not make every attempt fail")

    @property
    def enabled(self) -> bool:
        """Whether any fault class can actually fire."""
        return (self.transfer_fault_rate > 0.0
                or self.migration_fault_rate > 0.0)

    @property
    def burst_enabled(self) -> bool:
        """Whether the Markov storm chain modulates the fault rates."""
        return self.burst_on_prob > 0.0

    def total_backoff_us(self, n_failures: int) -> float:
        """Cumulative backoff wait after ``n_failures`` failed attempts."""
        if n_failures <= 0:
            return 0.0
        m = self.backoff_multiplier
        if m == 1.0:
            return self.retry_backoff_us * n_failures
        return self.retry_backoff_us * (m ** n_failures - 1.0) / (m - 1.0)


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration bundle handed to :class:`repro.sim.Simulator`."""

    gpu: GpuConfig = field(default_factory=GpuConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Re-verify driver accounting invariants after every wave (slow;
    #: catches residency/device-ledger drift at the wave that caused it).
    debug_invariants: bool = False
    seed: int = 0
    # Not a field (no annotation): no config carries or sets it.  Kept
    # for perfbench/provenance.py, like repro.accel.resolve_backend.
    backend = "python"

    def replace(self, **kwargs) -> "SimulationConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def validate(self) -> "SimulationConfig":
        """Check every sub-config plus cross-field invariants.

        Dataclass construction already rejects locally-invalid fields;
        this re-checks them (guarding against ``object.__setattr__``
        mutation) and adds the cross-config invariants no single
        ``__post_init__`` can see.  All problems are reported at once in
        a single ``ValueError`` with actionable, field-qualified
        messages.  Returns ``self`` so calls chain.
        """
        errors: list[str] = []
        for name in ("gpu", "interconnect", "memory", "policy", "timing",
                     "faults"):
            try:
                getattr(self, name).__post_init__()
            except ValueError as exc:
                errors.append(f"{name}: {exc}")
        if self.policy.static_threshold > self.policy.counter_max:
            errors.append(
                f"policy: static_threshold {self.policy.static_threshold} "
                f"exceeds what a {self.policy.counter_bits}-bit access "
                f"counter can count ({self.policy.counter_max}); lower the "
                "threshold or widen counter_bits")
        min_capacity = self.memory.eviction_granularity.value
        if self.memory.device_capacity < min_capacity:
            errors.append(
                f"memory: device_capacity {self.memory.device_capacity} is "
                f"below one eviction unit ({min_capacity}); nothing could "
                "ever be resident")
        if errors:
            raise ValueError(
                "invalid SimulationConfig:\n  - " + "\n  - ".join(errors))
        return self

    def with_policy(self, policy: MigrationPolicy, **policy_kwargs) -> "SimulationConfig":
        """Return a copy running under ``policy``.

        The baseline keeps LRU replacement; every counter-based scheme uses
        the framework's simplified LFU (Section VI), matching the paper's
        experimental setup.
        """
        pol = dataclasses.replace(self.policy, policy=policy, **policy_kwargs)
        repl = (
            ReplacementPolicy.LRU
            if policy is MigrationPolicy.DISABLED
            else ReplacementPolicy.LFU
        )
        mem = dataclasses.replace(self.memory, replacement=repl)
        return dataclasses.replace(self, policy=pol, memory=mem)

    def with_device_capacity(self, capacity_bytes: int) -> "SimulationConfig":
        """Return a copy with the device memory capacity changed."""
        mem = dataclasses.replace(self.memory, device_capacity=int(capacity_bytes))
        return dataclasses.replace(self, memory=mem)

    def with_eviction_granularity(
            self, granularity: EvictionGranularity) -> "SimulationConfig":
        """Return a copy evicting at the given granularity (Table I)."""
        mem = dataclasses.replace(self.memory,
                                  eviction_granularity=granularity)
        return dataclasses.replace(self, memory=mem)

    def with_prefetcher(self, kind: PrefetcherKind) -> "SimulationConfig":
        """Return a copy running the given prefetcher strategy."""
        mem = dataclasses.replace(self.memory, prefetcher=kind)
        return dataclasses.replace(self, memory=mem)

    def with_faults(self, **fault_kwargs) -> "SimulationConfig":
        """Return a copy with fault-injection fields replaced."""
        return dataclasses.replace(
            self, faults=dataclasses.replace(self.faults, **fault_kwargs))


#: Arrival processes the serving layer's traffic generator supports.
KNOWN_ARRIVAL_PROCESSES: tuple[str, ...] = ("poisson", "bursty")

#: Wave schedulers the serving layer supports (``serve.scheduler``).
KNOWN_SCHEDULERS: tuple[str, ...] = ("round_robin", "drr")


@dataclass(frozen=True)
class ServeConfig:
    """Multi-tenant serving-layer knobs (``repro serve``).

    The serving layer (:mod:`repro.serve`) spawns workload instances as
    *tenants* from a seeded open-loop arrival process, admits them
    against the shared device capacity, and interleaves their wave
    streams onto one driver.  Three watermarks express graceful
    degradation, engaged in escalation order as aggregate
    oversubscription rises:

    1. ``throttle_watermark`` -- suspend the heaviest-thrashing
       tenant's stream (the paper's Section VIII throttling proposal);
    2. ``admit_watermark`` -- stop admitting, queue new arrivals
       (bounded queue);
    3. ``shed_watermark`` -- shed arrivals outright (deterministically,
       never by timeout), also engaged whenever the queue is full.

    Every decision is a pure function of ``(seed, arrival trace,
    capacity)``: a serve run replays bit-identically for a fixed seed.
    """

    #: Tenant arrivals per second of *simulated* time (open loop: the
    #: generator never waits for completions).
    arrival_rate: float = 400.0
    #: Number of tenant arrivals to generate.
    tenants: int = 12
    #: Arrival process: ``poisson`` (memoryless) or ``bursty`` (two-state
    #: Markov-modulated Poisson: calm/burst sojourns with the burst
    #: state multiplying the arrival rate).
    process: str = "poisson"
    #: Arrival-rate multiplier inside a burst (bursty process only).
    burst_factor: float = 8.0
    #: Mean burst-state sojourn in simulated milliseconds.
    burst_len_ms: float = 2.0
    #: Mean calm-state sojourn in simulated milliseconds.
    calm_len_ms: float = 10.0
    #: Workloads tenants are drawn from (seeded uniform choice).
    workload_mix: tuple[str, ...] = ("ra", "sssp", "bfs", "fdtd")
    #: Preset scale every tenant runs at.
    scale: str = "tiny"
    #: Shared device memory capacity in MB (tenants oversubscribe it).
    capacity_mb: int = 32
    #: Live-footprint oversubscription (live blocks / capacity blocks)
    #: up to which new arrivals are admitted immediately.
    admit_watermark: float = 1.5
    #: Projected oversubscription past which an arrival is shed outright.
    shed_watermark: float = 2.5
    #: Live oversubscription at which the throttle engages (suspends the
    #: heaviest-thrashing tenant's wave stream).
    throttle_watermark: float = 1.2
    #: Bounded admission queue depth; a full queue sheds.
    queue_depth: int = 8
    #: Waves each runnable tenant contributes per scheduler round.
    quantum: int = 4
    #: Drive the throttle from *live* windowed interference telemetry
    #: (EWMA thrash migrations per wave) instead of the static
    #: oversubscription watermark alone.  Off by default: the watermark
    #: path stays bit-identical to runs without telemetry attached.
    live_admission: bool = False
    #: EWMA thrash-migrations-per-wave level at which live admission
    #: engages the throttle (only read when ``live_admission`` is on).
    live_thrash_threshold: float = 0.25
    #: Tumbling-window width for live telemetry, simulated milliseconds.
    window_ms: float = 5.0
    #: Wave scheduler: ``round_robin`` (legacy quantum interleaving,
    #: the reference path) or ``drr`` (deficit-weighted fair queuing:
    #: each round a tenant accrues ``weight * quantum`` deficit and
    #: runs ``floor(deficit)`` waves; throttling decays the weight
    #: instead of suspending the stream).
    scheduler: str = "round_robin"
    #: Configured per-tenant shares for the ``drr`` scheduler; tenant
    #: ``i`` gets ``weights[i % len(weights)]``.  Empty: every tenant
    #: weighs 1.0.  Ignored by ``round_robin``.
    weights: tuple[float, ...] = ()
    seed: int = 0

    def replace(self, **kwargs) -> "ServeConfig":
        """Return a copy with fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def validate(self) -> "ServeConfig":
        """Check field and cross-field invariants; returns ``self``."""
        errors: list[str] = []
        if self.arrival_rate <= 0.0:
            errors.append(f"arrival_rate must be positive, got "
                          f"{self.arrival_rate!r}")
        if self.tenants < 1:
            errors.append(f"tenants must be >= 1, got {self.tenants}")
        if self.process not in KNOWN_ARRIVAL_PROCESSES:
            errors.append(f"unknown arrival process {self.process!r}; "
                          f"choose from {KNOWN_ARRIVAL_PROCESSES}")
        if self.burst_factor < 1.0:
            errors.append(f"burst_factor must be >= 1.0, got "
                          f"{self.burst_factor!r}")
        if self.burst_len_ms <= 0.0 or self.calm_len_ms <= 0.0:
            errors.append("burst_len_ms and calm_len_ms must be positive")
        if not self.workload_mix:
            errors.append("workload_mix must name at least one workload")
        if self.capacity_mb * MB < CHUNK_SIZE:
            errors.append(f"capacity_mb {self.capacity_mb} is below one "
                          "2MB chunk")
        if self.throttle_watermark <= 0.0:
            errors.append("throttle_watermark must be positive")
        if not (self.throttle_watermark <= self.admit_watermark
                <= self.shed_watermark):
            errors.append(
                f"watermarks must escalate: throttle "
                f"({self.throttle_watermark}) <= admit "
                f"({self.admit_watermark}) <= shed ({self.shed_watermark}) "
                "-- degradation engages throttle, then queue, then shed")
        if self.queue_depth < 1:
            errors.append(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.quantum < 1:
            errors.append(f"quantum must be >= 1, got {self.quantum}")
        if self.live_thrash_threshold < 0.0:
            errors.append(f"live_thrash_threshold must be >= 0, got "
                          f"{self.live_thrash_threshold!r}")
        if self.window_ms <= 0.0:
            errors.append(f"window_ms must be positive, got "
                          f"{self.window_ms!r}")
        if self.scheduler not in KNOWN_SCHEDULERS:
            errors.append(f"unknown scheduler {self.scheduler!r}; "
                          f"choose from {KNOWN_SCHEDULERS}")
        if any(w <= 0.0 for w in self.weights):
            errors.append(f"weights must all be positive, got "
                          f"{self.weights!r}")
        if errors:
            raise ValueError(
                "invalid ServeConfig:\n  - " + "\n  - ".join(errors))
        return self

    @property
    def capacity_bytes(self) -> int:
        """Shared device capacity in bytes."""
        return self.capacity_mb * MB

    def as_dict(self) -> dict:
        """Flat JSON-safe encoding (archived in serve-run manifests)."""
        d = dataclasses.asdict(self)
        d["workload_mix"] = list(self.workload_mix)
        d["weights"] = list(self.weights)
        return d


def capacity_for_oversubscription(footprint_bytes: int, oversubscription: float = 1.0) -> int:
    """Device capacity that makes ``footprint_bytes`` oversubscribe it.

    The paper emulates N% oversubscription by shrinking the free device
    space so that the working set is N% of it: at 125% oversubscription the
    capacity is ``footprint / 1.25``.  Factors below 1.0 model working
    sets that fit with slack (e.g. 0.8 leaves 20% headroom -- the
    "no oversubscription" regime of Figures 4 and 5).  The result is
    rounded *up* to a whole 2MB chunk so a factor of exactly 1.0 never
    spuriously evicts.
    """
    if oversubscription <= 0.0:
        raise ValueError(
            f"oversubscription factor must be positive, got "
            f"{oversubscription!r} (1.25 means the working set is 125% of "
            "device capacity)")
    if oversubscription > 64.0:
        raise ValueError(
            f"oversubscription factor {oversubscription!r} is implausibly "
            "high (> 64x); levels are fractions, not percentages -- pass "
            "1.25, not 125")
    cap = int(footprint_bytes / oversubscription)
    # Round up to a whole 2MB chunk so oversubscription == 1.0 never
    # spuriously evicts (capacity must cover the full working set).
    cap += (-cap) % CHUNK_SIZE
    return max(cap, CHUNK_SIZE)
