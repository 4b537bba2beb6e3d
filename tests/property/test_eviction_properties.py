"""Victim selection: production's composite key against the tier cascade.

Production's ``select_victims`` sorts one composite int64 key per chunk
(fallback tier above the LRU/LFU key, int64 max for chunks that cannot
be taken); the oracle, :func:`tests.oracle.reference_select_victims`,
walks the tiers one mask at a time.  Over random chunk directories --
full, partial and empty chunks, random pinned and ``never`` chunks,
tied keys, both replacement policies and every deficit from 0 to one
past everything resident -- both must pick the same victims in the same
order, or fail with the same error.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import ReplacementPolicy
from repro.memory.allocation import ChunkSpan
from repro.uvm.eviction import ChunkDirectory, select_victims

from tests.oracle import reference_select_victims


@st.composite
def directories(draw):
    """A populated chunk directory plus a selection request."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 4, 8, 16, 32]),
                          min_size=1, max_size=24))
    spans, cursor = [], 0
    for cid, n in enumerate(sizes):
        spans.append(ChunkSpan(chunk_id=cid, first_block=cursor,
                               num_blocks=n))
        cursor += n
    d = ChunkDirectory(tuple(spans), cursor)
    k = len(sizes)
    # Each chunk empty, partial or full; a narrow clock and few heat
    # buckets make ties common.
    d.occupancy[:] = [draw(st.one_of(st.just(0), st.just(n),
                                     st.integers(0, n))) for n in sizes]
    d.last_touch[:] = draw(st.lists(st.integers(0, 3), min_size=k,
                                    max_size=k))
    pinned = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    never = draw(st.one_of(st.none(), st.integers(0, k - 1)))
    policy = draw(st.sampled_from(list(ReplacementPolicy)))
    heat = np.array(draw(st.lists(st.integers(0, 2), min_size=k,
                                  max_size=k)), dtype=np.int64)
    dirty = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    needed = draw(st.integers(0, int(d.occupancy.sum()) + 1))
    cached_order = draw(st.booleans())
    return d, needed, policy, pinned, heat, dirty, never, cached_order


def _outcome(select, *args, **kwargs):
    try:
        return select(*args, **kwargs)
    except RuntimeError as exc:
        return ("error", str(exc))


@given(directories())
@settings(max_examples=500, deadline=None)
def test_composite_key_matches_tier_cascade(case):
    d, needed, policy, pinned, heat, dirty, never, cached_order = case
    lfu = policy is ReplacementPolicy.LFU
    kw = dict(heat=heat, dirty_any=dirty) if lfu else {}
    got = _outcome(select_victims, d, needed, policy, pinned, never=never,
                   **kw)
    never_mask = np.zeros(d.num_chunks, dtype=bool)
    if never is not None:
        never_mask[never] = True
    # A driver hands the oracle its per-wave LRU order.
    order = (np.argsort(d.last_touch, kind="stable")
             if cached_order and not lfu else None)
    want = _outcome(reference_select_victims, d, needed, policy, pinned,
                    never=never_mask, order=order, **kw)
    assert got == want
    if isinstance(got, list):
        assert all(type(c) is int for c in got)
