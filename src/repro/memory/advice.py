"""Programmer memory-usage hints (Section III-C).

The paper motivates its programmer-agnostic runtime by contrast with
the hint APIs CUDA/OpenCL offer today, all of which require intrusive
profiling to use well.  This module models those hints so they can be
compared against the adaptive scheme:

* :attr:`Advice.NONE` -- default managed behaviour (fault-driven
  migration under whatever policy the driver runs).
* :attr:`Advice.PREFERRED_HOST` -- the
  ``cudaMemAdviseSetPreferredLocation(host)`` soft pin: first touch
  does not migrate; pages migrate only after the static access-counter
  threshold, exactly like the Volta delayed-migration path.
* :attr:`Advice.PINNED_HOST` -- the ``cudaHostRegister`` /
  ``CL_MEM_ALLOC_HOST_PTR`` hard pin: the allocation is permanently
  host-resident and every device access is a remote zero-copy
  transaction.

Read-mostly advice (``cudaMemAdviseSetReadMostly``) is carried by the
allocation's ``read_only`` flag, which the LFU replacement already
consults.
"""

from __future__ import annotations

import enum


class Advice(enum.Enum):
    """Placement advice attached to a managed allocation."""

    NONE = "none"
    PREFERRED_HOST = "preferred_host"
    PINNED_HOST = "pinned_host"
