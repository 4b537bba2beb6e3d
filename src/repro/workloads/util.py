"""Shared helpers for workload access-pattern generation."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..memory.allocation import ManagedAllocation
from ..memory.layout import PAGE_SIZE
from .base import Wave

#: Coalesced 128B sectors per 4KB page -- a dense sweep touches each
#: sector of a page once, i.e. 32 accesses per page.
SECTORS_PER_PAGE: int = PAGE_SIZE // 128


def ragged_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i]+lengths[i])`` efficiently.

    The CSR neighbor-gather primitive: given per-node adjacency offsets
    and degrees, returns the edge indices of all nodes without a Python
    loop.  Zero-length entries are allowed.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ValueError("starts and lengths must have identical shape")
    shortest = int(lengths.min()) if lengths.size else 0
    if shortest < 0:
        raise ValueError("lengths cannot be negative")
    if shortest == 0:
        nz = lengths > 0
        starts, lengths = starts[nz], lengths[nz]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    ends = np.cumsum(lengths)
    boundaries = ends[:-1]
    out[boundaries] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out, out=out)


def dedupe_with_counts(pages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate page entries into ``(unique_pages, counts)``.

    Sort-and-run-compress: identical output to ``np.unique`` with
    ``return_counts`` but without its hashing/indexing overhead, and the
    sort is skipped entirely for the already-sorted streams most
    generators produce.
    """
    pages = np.asarray(pages, dtype=np.int64)
    if pages.size == 0:
        return pages, np.empty(0, dtype=np.int64)
    data = pages if _is_sorted(pages) else np.sort(pages)
    boundaries = np.flatnonzero(
        np.concatenate(([True], data[1:] != data[:-1])))
    counts = np.diff(np.concatenate((boundaries, [data.size])))
    return data[boundaries], counts


def _is_sorted(values: np.ndarray) -> bool:
    return bool(np.all(values[1:] >= values[:-1])) if values.size > 1 else True


SECTOR_SHIFT: int = 7  # 128-byte coalescing sectors
#: log2(sectors per page): a sector's page offset is ``sector >> 5``.
_PAGE_SECTOR_SHIFT: int = SECTORS_PER_PAGE.bit_length() - 1


def coalesced_page_offsets(byte_offsets: np.ndarray,
                           accesses_per_sector: int = 1
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Allocation-relative page offsets and counts after 128B coalescing.

    The GMMU observes one TLB lookup per coalesced 128-byte transaction,
    not one per scalar load: a warp gathering eight consecutive 8-byte
    edge records issues a single access.  This maps element byte offsets
    to unique sectors, then counts sectors per page -- the access stream
    the hardware access counters actually see -- as page indices
    relative to the allocation start.  Callers that scatter the *same*
    element offsets into several parallel allocations of the same
    element size (e.g. a cost and a flags array indexed by node id)
    compute this once and add each allocation's ``first_page``.

    One fused sort/run-compress pass: byte offsets collapse to sorted
    unique sectors, and because a sorted sector stream maps monotonically
    to pages, the per-page sector counts fall out of a second run
    compression with no re-sort or sortedness re-check.
    """
    offs = np.asarray(byte_offsets, dtype=np.int64)
    if offs.size == 0:
        return offs, offs
    sectors = offs >> SECTOR_SHIFT
    if not _is_sorted(sectors):
        lo = int(sectors.min())
        width = int(sectors.max()) - ((lo >> _PAGE_SECTOR_SHIFT)
                                      << _PAGE_SECTOR_SHIFT) + 1
        if width <= 2 * sectors.size:
            # Dense offset range (e.g. node-indexed arrays): a boolean
            # scatter over the page-aligned sector window beats sorting.
            # Distinct sectors per page are the per-page row sums of the
            # occupancy mask; result is identical to the sorted path.
            base = (lo >> _PAGE_SECTOR_SHIFT) << _PAGE_SECTOR_SHIFT
            npages = ((width - 1) >> _PAGE_SECTOR_SHIFT) + 1
            mask = np.zeros(npages << _PAGE_SECTOR_SHIFT, dtype=bool)
            mask[sectors - base] = True
            per_page = mask.reshape(npages, SECTORS_PER_PAGE).sum(axis=1)
            nz = np.flatnonzero(per_page)
            counts = per_page[nz]
            if accesses_per_sector != 1:
                counts *= accesses_per_sector
            return (base >> _PAGE_SECTOR_SHIFT) + nz, counts
        sectors = np.sort(sectors)
    keep = np.empty(sectors.size, dtype=bool)
    keep[0] = True
    np.not_equal(sectors[1:], sectors[:-1], out=keep[1:])
    rel_pages = sectors[keep] >> _PAGE_SECTOR_SHIFT
    pkeep = np.empty(rel_pages.size, dtype=bool)
    pkeep[0] = True
    np.not_equal(rel_pages[1:], rel_pages[:-1], out=pkeep[1:])
    boundaries = np.flatnonzero(pkeep)
    counts = np.empty(boundaries.size, dtype=np.int64)
    np.subtract(boundaries[1:], boundaries[:-1], out=counts[:-1])
    counts[-1] = rel_pages.size - boundaries[-1]
    if accesses_per_sector != 1:
        counts *= accesses_per_sector
    return rel_pages[boundaries], counts


def coalesced_page_offsets_batch(index: np.ndarray, bounds: np.ndarray,
                                 itemsize: int = 1,
                                 accesses_per_sector: int = 1
                                 ) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
    """Per-row :func:`coalesced_page_offsets` over many rows in one pass.

    ``index`` holds element indices into an array of ``itemsize``-byte
    elements (a power of two up to the 128-byte sector; with the
    default ``1`` they are byte offsets).  Element ``i`` belongs to row
    ``r`` when ``bounds[r] <= i < bounds[r + 1]``: a row is one wave's
    elements.  Returns flat ``(rel_pages, counts, page_bounds)``; row
    ``r``'s result is ``rel_pages[page_bounds[r]:page_bounds[r + 1]]``
    and the same slice of ``counts``, element-identical to
    :func:`coalesced_page_offsets` of that row's indices times
    ``itemsize``.

    The sectors come from the indices by one shift, and each row's
    offset is added to them in place, so the rows stay apart through
    one shared pass that takes the same two branches as the single
    call.  When the rows' page-aligned sector windows hold at most
    twice as many sectors as there are elements, one boolean mask of
    ``rows x window`` replaces the sort.  Otherwise a ``row | sector``
    composite key is sorted once -- not at all when it is already
    sorted, as for node ids sorted within each row -- and
    run-compressed twice.  int32 indices keep an int32 mask index or
    key until the rows' combined span reaches 2**31.
    """
    if not 1 <= itemsize <= 1 << SECTOR_SHIFT or itemsize & (itemsize - 1):
        raise ValueError("itemsize must be a power of two up to 128")
    idx = np.asarray(index)
    if idx.dtype != np.int32:
        idx = idx.astype(np.int64, copy=False)
    bounds = np.asarray(bounds, dtype=np.int64)
    nrows = bounds.size - 1
    if nrows < 0 or bounds[0] != 0 or bounds[-1] != idx.size:
        raise ValueError("bounds must run from 0 to the number of indices")
    if idx.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.zeros(nrows + 1, dtype=np.int64)
    sectors = idx >> (SECTOR_SHIFT + 1 - itemsize.bit_length())
    lo, hi = int(sectors.min()), int(sectors.max())
    base = (lo >> _PAGE_SECTOR_SHIFT) << _PAGE_SECTOR_SHIFT
    npages = ((hi - base) >> _PAGE_SECTOR_SHIFT) + 1
    window = npages << _PAGE_SECTOR_SHIFT
    if nrows * window <= 2 * sectors.size:
        if nrows * window >= 2**31:
            sectors = sectors.astype(np.int64, copy=False)
        sectors -= base
        _add_row_offsets(sectors, bounds, window)
        mask = np.zeros(nrows * window, dtype=bool)
        mask[sectors] = True
        per_page = mask.reshape(-1, SECTORS_PER_PAGE).sum(axis=1)
        nz = np.flatnonzero(per_page)
        counts = per_page[nz]
        row_of, rel_pages = np.divmod(nz, npages)
        rel_pages += base >> _PAGE_SECTOR_SHIFT
    else:
        shift = max(hi.bit_length(), _PAGE_SECTOR_SHIFT)
        if nrows > 1 and shift + nrows.bit_length() >= 63:
            # Composite key would overflow int64 (astronomical
            # allocation sizes only); fall back to the per-row path.
            return _concat_rows([
                coalesced_page_offsets(
                    sectors[bounds[r]:bounds[r + 1]] << SECTOR_SHIFT,
                    accesses_per_sector)
                for r in range(nrows)])
        if nrows << shift >= 2**31:
            sectors = sectors.astype(np.int64, copy=False)
        key = sectors
        _add_row_offsets(key, bounds, 1 << shift)
        if not _is_sorted(key):
            key.sort()
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        # Unique (row, sector) keys; shifting out the sector's in-page
        # bits yields (row, page) keys whose runs are the per-page
        # sector counts.
        pkey = key[keep]
        del key, sectors
        pkey >>= _PAGE_SECTOR_SHIFT
        pkeep = np.empty(pkey.size, dtype=bool)
        pkeep[0] = True
        np.not_equal(pkey[1:], pkey[:-1], out=pkeep[1:])
        starts = np.flatnonzero(pkeep)
        counts = np.empty(starts.size, dtype=np.int64)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = pkey.size - starts[-1]
        upages = pkey[starts].astype(np.int64, copy=False)
        page_shift = shift - _PAGE_SECTOR_SHIFT
        rel_pages = upages & ((np.int64(1) << page_shift) - 1)
        row_of = upages >> page_shift
    if accesses_per_sector != 1:
        counts *= accesses_per_sector
    return rel_pages, counts, np.searchsorted(row_of, np.arange(nrows + 1))


def _add_row_offsets(values: np.ndarray, bounds: np.ndarray,
                     stride: int) -> None:
    """Add ``r * stride`` in place to row ``r``'s slice of ``values``.

    One slice add per row needs no temporary, where a per-element row
    array would be one more array as long as ``values``.
    """
    edges = bounds.tolist()
    for r in range(1, len(edges) - 1):
        if edges[r] < edges[r + 1]:
            values[edges[r]:edges[r + 1]] += r * stride


def _concat_rows(rows: list[tuple[np.ndarray, np.ndarray]]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``(pages, counts, page_bounds)`` of per-row results."""
    page_bounds = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([p.size for p, _ in rows], out=page_bounds[1:])
    return (np.concatenate([p for p, _ in rows]),
            np.concatenate([c for _, c in rows]), page_bounds)


def sort_rows(values: np.ndarray, size: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """``values`` sorted within consecutive rows of ``size``, and bounds.

    One sort per launch keyed by ``(row, value)``: the full rows sort
    in place as one row-major 2-D array, the short last row on its own.
    Returns the sorted copy and the row bounds ``[0, size, ..., n]``
    that :func:`coalesced_page_offsets_batch` takes.
    """
    out = np.array(values, dtype=np.int64)
    full = out.size - out.size % size
    out[:full].reshape(-1, size).sort(axis=1)
    out[full:].sort()
    return out, np.append(np.arange(0, out.size, size), out.size)


#: log2(8-byte CSR edge records per 128B sector).
_EDGE_SECTOR_SHIFT: int = SECTOR_SHIFT - 3


def edge_sectors(starts: np.ndarray, lengths: np.ndarray,
                 bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sectors of each row's 8-byte CSR edge records, without a sort.

    Node ``i``'s records ``starts[i] .. starts[i] + lengths[i] - 1``
    fill sectors ``starts[i] >> 4 .. (starts[i] + lengths[i] - 1) >> 4``.
    For nodes sorted within a row these ranges are non-decreasing, so
    the returned ``(byte_offsets, bounds)`` -- one entry per sector, about
    1.5 per node instead of 8 per edge -- reach
    :func:`coalesced_page_offsets_batch` already sorted.  Zero-degree
    nodes contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.int64)
    first = starts >> _EDGE_SECTOR_SHIFT
    nsec = (((starts + lengths + (1 << _EDGE_SECTOR_SHIFT) - 1)
             >> _EDGE_SECTOR_SHIFT) - first)
    nsec[lengths == 0] = 0
    cum = np.zeros(nsec.size + 1, dtype=np.int64)
    np.cumsum(nsec, out=cum[1:])
    # Node i's j-th sector is first[i] + j, at position cum[i] + j.
    first -= cum[:-1]
    offs = np.repeat(first, nsec)
    offs += np.arange(cum[-1])
    offs <<= SECTOR_SHIFT
    return offs, cum[bounds]


def launch_waves(parts: list[tuple[ManagedAllocation, np.ndarray,
                                   np.ndarray, np.ndarray, bool]],
                 compute_per_access: float) -> Iterator[Wave]:
    """One launch's waves from per-row access groups, as flat-array slices.

    ``parts`` lists ``(alloc, rel_pages, counts, bounds, write)`` per
    access group in wave order: an allocation and the group's
    :func:`coalesced_page_offsets_batch` result for it.  Wave ``r``
    concatenates row ``r`` of every part, which is what a
    :class:`WaveBuilder` fed those rows in turn would build, compute
    cycles included.  The launch's page, write and count arrays are
    assembled once, read-only, and each wave is a slice of them.
    """
    lengths = [np.diff(b) for _, _, _, b, _ in parts]
    starts = np.zeros(lengths[0].size + 1, dtype=np.int64)
    np.cumsum(np.sum(lengths, axis=0), out=starts[1:])
    total = int(starts[-1])
    pages = np.empty(total, dtype=np.int64)
    counts = np.empty(total, dtype=np.int64)
    is_write = np.zeros(total, dtype=bool)
    # cursor[r]: where row r of the next part goes, after row r of the
    # parts before it.
    cursor = starts[:-1].copy()
    for (alloc, rel, cnt, b, write), n in zip(parts, lengths):
        if rel.size:
            dest = np.repeat(cursor - b[:-1], n)
            dest += np.arange(rel.size)
            pages[dest] = alloc.first_page + rel
            counts[dest] = cnt
            if write:
                is_write[dest] = True
        cursor += n
    for arr in (pages, counts, is_write):
        arr.flags.writeable = False
    # Accesses per wave: one segment sum per non-empty wave.
    nonempty = starts[1:] > starts[:-1]
    accesses = np.zeros(nonempty.size, dtype=np.int64)
    if total:
        accesses[nonempty] = np.add.reduceat(counts, starts[:-1][nonempty])
    edges = starts.tolist()
    for r, n in enumerate(accesses.tolist()):
        lo, hi = edges[r], edges[r + 1]
        yield Wave(pages[lo:hi], is_write[lo:hi], counts[lo:hi],
                   compute_per_access * n)
