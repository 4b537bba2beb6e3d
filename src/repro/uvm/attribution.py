"""Per-tenant eviction-interference and thrashing attribution.

Under multi-tenant serving (:mod:`repro.serve`) every tenant's waves
flow through one shared :class:`~repro.uvm.driver.UvmDriver`, so the
driver's aggregate counters cannot answer the isolation questions a
serving layer is judged on: *whose* data was evicted, and was it pushed
out by its owner's own working set or by a neighbor's pressure?

:class:`TenantAttribution` is an optional driver plug-in
(``driver.attribution``) that answers both.  The serving loop sets
:attr:`current` to the tenant whose wave is being processed; the driver
calls :meth:`on_evict` with every evicted block batch and
:meth:`on_thrash` with every re-migrated (thrashing) block batch.  The
plug-in maps blocks to owners through a static per-block owner table
and accumulates three per-tenant counters:

* ``evicted_blocks`` -- blocks a tenant lost to eviction (victim side);
* ``cross_evictions`` -- the subset evicted while *another* tenant's
  wave was driving the pressure (the interference metric);
* ``thrash_migrations`` -- a tenant's blocks re-migrated after eviction
  (the paper's round-trip pathology, attributed to the data's owner).

Attribution is strictly observational: it mutates only its own arrays,
so instrumented runs are bit-identical to bare ones, and a driver
without a plug-in (the default) pays a single ``is None`` check per
eviction/thrash site.
"""

from __future__ import annotations

import numpy as np


class TenantAttribution:
    """Maps driver-level evictions and thrash to owning tenants.

    ``block_owner`` assigns every basic block an owning tenant id
    (``-1`` for alignment gaps and unowned ranges); ``n_tenants`` sizes
    the counter arrays.
    """

    def __init__(self, block_owner: np.ndarray, n_tenants: int) -> None:
        if n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        self.block_owner = np.asarray(block_owner, dtype=np.int32)
        self.n_tenants = n_tenants
        if (self.block_owner.size
                and int(self.block_owner.max()) >= n_tenants):
            raise ValueError("block_owner references a tenant id past "
                             f"n_tenants ({n_tenants})")
        #: Tenant whose wave the driver is currently processing (-1:
        #: no tenant context, e.g. warm-up traffic).
        self.current = -1
        #: Per-tenant blocks lost to eviction (victim side).
        self.evicted_blocks = np.zeros(n_tenants, dtype=np.int64)
        #: Per-tenant blocks evicted while another tenant's wave drove
        #: the pressure (eviction interference).
        self.cross_evictions = np.zeros(n_tenants, dtype=np.int64)
        #: Per-tenant thrash migrations (owner's data re-migrated).
        self.thrash_migrations = np.zeros(n_tenants, dtype=np.int64)

    def on_evict(self, victims: np.ndarray) -> None:
        """Charge one batch of evicted blocks to their owners."""
        owners = self.block_owner[victims]
        owned = owners[owners >= 0]
        if not owned.size:
            return
        counts = np.bincount(owned, minlength=self.n_tenants)
        self.evicted_blocks += counts
        if self.current >= 0:
            cross = counts.copy()
            cross[self.current] = 0
            self.cross_evictions += cross
        else:
            self.cross_evictions += counts

    def on_thrash(self, blocks: np.ndarray) -> None:
        """Charge one batch of re-migrated (thrashing) blocks."""
        owners = self.block_owner[blocks]
        owned = owners[owners >= 0]
        if owned.size:
            self.thrash_migrations += np.bincount(
                owned, minlength=self.n_tenants)

    def thrash_of(self, tenant_id: int) -> int:
        """Cumulative thrash migrations charged to ``tenant_id``."""
        return int(self.thrash_migrations[tenant_id])
