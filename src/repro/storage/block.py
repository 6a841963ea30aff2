"""Simulated block device.

Everything above this module (inodes, journal, filesystems, DBFS)
reads and writes fixed-size blocks here, exactly as uFS sits on a real
device.  The simulation keeps two things real devices have and pure
dicts do not:

* **Deleted data persists.**  Freeing a block does *not* zero it; the
  bytes stay until the block is scrubbed or handed out again.  Section
  1 of the paper argues a DB-engine "delete" can leave PD behind in
  lower layers — this device (plus the journal) is what lets the
  FIG2/ILL-F experiments observe that concretely, via
  :meth:`BlockDevice.scan`.  (Reallocation *does* scrub: handing a
  freed block's stale bytes to a new owner would leak the previous
  owner's PD through an ordinary ``read``.)
* **Access costs.**  Reads and writes advance a latency counter so the
  benchmark harness can report simulated IO time per operation.
* **Page cache.**  An LRU cache of recently touched blocks
  (write-through) absorbs repeat reads without the simulated latency
  charge.  Its RTBF-critical invariant: a scrubbed or freed block is
  *invalidated*, never served stale — secure erasure must reach the
  cache, not only the medium.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from .. import errors
from ..obs import NULL_TELEMETRY, Telemetry


@dataclass
class DeviceStats:
    """IO accounting maintained by the device."""

    reads: int = 0
    writes: int = 0
    blocks_allocated: int = 0
    blocks_freed: int = 0
    simulated_io_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0

    def snapshot(self) -> "DeviceStats":
        return DeviceStats(
            reads=self.reads,
            writes=self.writes,
            blocks_allocated=self.blocks_allocated,
            blocks_freed=self.blocks_freed,
            simulated_io_seconds=self.simulated_io_seconds,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            cache_evictions=self.cache_evictions,
            cache_invalidations=self.cache_invalidations,
        )


class BlockDevice:
    """A fixed-geometry array of blocks with an allocation bitmap.

    Parameters
    ----------
    block_count:
        Number of blocks on the device.
    block_size:
        Bytes per block.
    read_latency / write_latency:
        Simulated seconds charged per block access (defaults roughly
        model a fast NVMe device; absolute values only matter
        relatively).
    page_cache_blocks:
        Capacity of the LRU page cache (blocks).  ``0`` disables the
        cache (every read pays the device latency) — the FASTPATH
        benchmark's baseline configuration.
    io_delay_scale:
        When ``> 0``, each cache-missing read and each write *realizes*
        its simulated latency as an actual ``time.sleep(latency *
        io_delay_scale)``.  The sleep releases the GIL, so concurrent
        request-engine workers genuinely overlap their device waits —
        which is what lets the concurrency benchmark measure real
        speedup rather than GIL-serialized bookkeeping.  ``0`` (the
        default) keeps the historical accounting-only behaviour; the
        accounting in ``stats.simulated_io_seconds`` is identical
        either way, so enabling this changes wall time only.
    telemetry:
        Shared :class:`~repro.obs.Telemetry`.  When enabled, every
        ``read``/``write``/``scrub`` records its wall time into the
        ``block.read`` / ``block.write`` / ``block.scrub`` histograms.
        The histograms are bound once at construction so the disabled
        path costs a single ``is not None`` test per operation.
    """

    def __init__(
        self,
        block_count: int = 65536,
        block_size: int = 4096,
        read_latency: float = 10e-6,
        write_latency: float = 20e-6,
        page_cache_blocks: int = 1024,
        io_delay_scale: float = 0.0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if block_count <= 0 or block_size <= 0:
            raise errors.BlockDeviceError(
                f"invalid geometry: {block_count} blocks x {block_size} bytes"
            )
        if page_cache_blocks < 0:
            raise errors.BlockDeviceError(
                f"invalid page cache capacity {page_cache_blocks}"
            )
        if io_delay_scale < 0:
            raise errors.BlockDeviceError(
                f"invalid io_delay_scale {io_delay_scale}"
            )
        self.block_count = block_count
        self.block_size = block_size
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.page_cache_blocks = page_cache_blocks
        self.io_delay_scale = io_delay_scale
        self._page_cache: "OrderedDict[int, bytes]" = OrderedDict()
        # Guards the page cache, the stats record, and the allocation
        # state.  Reentrant: write() holds it across the cache insert,
        # and allocate() may scrub (which re-acquires).  Sleeps for
        # io_delay_scale happen *outside* the lock so concurrent
        # workers overlap their device waits instead of queueing.
        self._lock = threading.RLock()
        self._blocks: List[bytes] = [b""] * block_count
        # Allocation state: blocks below the watermark have been handed
        # out at least once; freed ones sit in a min-heap so the lowest
        # freed block is reused first (matching real allocators' bias
        # toward low block numbers, and making reuse deterministic).
        self._watermark = 0
        self._freed_heap: List[int] = []
        self._freed_set: Set[int] = set()
        self.stats = DeviceStats()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.telemetry.enabled:
            registry = self.telemetry.registry
            self._hist_read = registry.histogram("block.read")
            self._hist_write = registry.histogram("block.write")
            self._hist_scrub = registry.histogram("block.scrub")
        else:
            self._hist_read = self._hist_write = self._hist_scrub = None

    # -- allocation ---------------------------------------------------------

    def allocate(self) -> int:
        """Claim a free block and return its number.

        A reused block is scrubbed before it is handed out: without
        this, a freed-then-reallocated block exposes the previous
        owner's PD to the new owner's very first ``read`` (the § 1
        lower-layer leak, one level below the journal).  Freed blocks
        that have *not* been reallocated keep their bytes — that
        residue is what the FIG2/ILL-F forensic scans observe.
        """
        with self._lock:
            if self._freed_heap:
                block_no = heapq.heappop(self._freed_heap)
                self._freed_set.discard(block_no)
                if self._blocks[block_no]:
                    # Secure-erase stale contents before the new owner can
                    # observe them (charged like any scrub write).
                    self.scrub(block_no)
            elif self._watermark < self.block_count:
                block_no = self._watermark
                self._watermark += 1
            else:
                raise errors.OutOfSpaceError(
                    f"device full: all {self.block_count} blocks in use"
                )
            self.stats.blocks_allocated += 1
            return block_no

    def allocate_many(self, count: int) -> List[int]:
        """Claim ``count`` blocks atomically (all or nothing)."""
        if count < 0:
            raise errors.BlockDeviceError(f"cannot allocate {count} blocks")
        if count > self.free_blocks:
            raise errors.OutOfSpaceError(
                f"device has {self.free_blocks} free blocks, need {count}"
            )
        return [self.allocate() for _ in range(count)]

    def free(self, block_no: int) -> None:
        """Return a block to the free pool.

        The medium keeps the bytes (see the module docstring), but the
        page cache must not: a freed block is no longer anyone's data,
        and serving it from cache would hand stale PD to the next
        owner even after the on-medium copy is scrubbed.
        """
        self._check_range(block_no)
        with self._lock:
            if block_no in self._freed_set or block_no >= self._watermark:
                raise errors.BlockDeviceError(f"double free of block {block_no}")
            heapq.heappush(self._freed_heap, block_no)
            self._freed_set.add(block_no)
            self._cache_invalidate(block_no)
            self.stats.blocks_freed += 1

    def is_allocated(self, block_no: int) -> bool:
        self._check_range(block_no)
        return block_no < self._watermark and block_no not in self._freed_set

    @property
    def free_blocks(self) -> int:
        return (self.block_count - self._watermark) + len(self._freed_set)

    @property
    def used_blocks(self) -> int:
        return self.block_count - self.free_blocks

    # -- IO -----------------------------------------------------------------

    def read(self, block_no: int) -> bytes:
        """Read one block. Reading a never-written block returns b''.

        A page-cache hit skips the simulated device latency; every
        logical read still counts in ``stats.reads``.
        """
        hist = self._hist_read
        start = time.perf_counter_ns() if hist is not None else 0
        self._check_range(block_no)
        with self._lock:
            self.stats.reads += 1
            cached = self._page_cache.get(block_no)
            if cached is not None:
                self.stats.cache_hits += 1
                self._page_cache.move_to_end(block_no)
            else:
                self.stats.cache_misses += 1
                self.stats.simulated_io_seconds += self.read_latency
        if cached is not None:
            if hist is not None:
                hist.observe(time.perf_counter_ns() - start)
            return cached
        if self.io_delay_scale > 0.0:
            # Realize the device wait outside the lock: the sleep
            # releases the GIL, so parallel readers overlap here.
            time.sleep(self.read_latency * self.io_delay_scale)
        # Fetch and cache in ONE critical section: a write()/scrub()/
        # free() landing during the unlocked wait above must not have
        # its cache update or invalidation overwritten by this reader
        # re-inserting pre-mutation bytes.  Fetching under the lock
        # means the inserted copy always matches the medium at insert
        # time, and freed blocks are never (re-)cached at all — the
        # erasure invariant ("invalidated, never served stale") holds.
        with self._lock:
            data = self._blocks[block_no]
            if block_no < self._watermark and block_no not in self._freed_set:
                self._cache_insert(block_no, data)
        if hist is not None:
            hist.observe(time.perf_counter_ns() - start)
        return data

    def read_view(self, block_no: int) -> memoryview:
        """Read one block as a :class:`memoryview` (zero-copy slice base).

        Blocks are stored as immutable ``bytes`` objects replaced
        wholesale on :meth:`write`/:meth:`scrub`, so a view handed out
        here is a stable snapshot of the block at read time — a later
        write swaps in a *new* bytes object and cannot mutate bytes a
        view already references.  Callers (inode extents, the codec's
        partial decode) slice this view instead of copying.
        """
        return memoryview(self.read(block_no))

    def write(self, block_no: int, data: bytes) -> None:
        """Write one block; ``data`` must fit in the block size.

        Write-through: the medium and the page cache are updated
        together, so a later read can never observe pre-write bytes.
        """
        hist = self._hist_write
        start = time.perf_counter_ns() if hist is not None else 0
        self._check_range(block_no)
        if len(data) > self.block_size:
            raise errors.BlockDeviceError(
                f"payload of {len(data)} bytes exceeds block size {self.block_size}"
            )
        if self.io_delay_scale > 0.0:
            time.sleep(self.write_latency * self.io_delay_scale)
        with self._lock:
            self.stats.writes += 1
            self.stats.simulated_io_seconds += self.write_latency
            self._blocks[block_no] = bytes(data)
            self._cache_insert(block_no, self._blocks[block_no])
        if hist is not None:
            hist.observe(time.perf_counter_ns() - start)

    def scrub(self, block_no: int) -> None:
        """Explicitly zero a block (secure-erase primitive).

        rgpdOS's DBFS calls this on erasure; the ext4-like baseline
        never does, which is exactly the gap the paper points at.
        The block is also dropped from the page cache — erasure that
        leaves the bytes readable from cache would be no erasure.
        """
        hist = self._hist_scrub
        start = time.perf_counter_ns() if hist is not None else 0
        self._check_range(block_no)
        if self.io_delay_scale > 0.0:
            time.sleep(self.write_latency * self.io_delay_scale)
        with self._lock:
            self.stats.writes += 1
            self.stats.simulated_io_seconds += self.write_latency
            self._blocks[block_no] = b""
            self._cache_invalidate(block_no)
        if hist is not None:
            hist.observe(time.perf_counter_ns() - start)

    # -- forensics ----------------------------------------------------------

    def scan(self, needle: bytes) -> List[int]:
        """Return every block (allocated or free) containing ``needle``.

        This is the forensic primitive the RTBF experiment uses to show
        that "deleted" PD survives in the baseline filesystem.
        """
        if not needle:
            raise errors.BlockDeviceError("cannot scan for an empty needle")
        return [
            block_no
            for block_no, data in enumerate(self._blocks)
            if needle in data
        ]

    def nonempty_blocks(self, start: int, stop: int) -> List[int]:
        """Blocks in ``[start, stop)`` whose medium bytes are non-empty.

        A forensic view of the medium, like :meth:`scan`: no IO is
        charged and the page cache is not touched.  It reads the
        medium itself, so it also sees bytes written behind the
        allocator's back (a torn write, a planted block).  The window
        is clamped to the device.
        """
        start, stop = max(0, start), min(self.block_count, stop)
        with self._lock:
            return [b for b in range(start, stop) if self._blocks[b]]

    def iter_allocated(self) -> Iterator[int]:
        for block_no in range(self._watermark):
            if block_no not in self._freed_set:
                yield block_no

    def scan_cache(self, needle: bytes) -> List[int]:
        """Return every page-cache-resident block containing ``needle``.

        The RTBF invariant must hold in the cache too: after a crash,
        a lost write can leave the cache ahead of the medium, and after
        an erasure nothing may serve the old bytes.  The crash harness
        checks this alongside the on-medium :meth:`scan`.
        """
        if not needle:
            raise errors.BlockDeviceError("cannot scan for an empty needle")
        with self._lock:
            entries = list(self._page_cache.items())
        return [block_no for block_no, data in entries if needle in data]

    # -- page cache ---------------------------------------------------------

    def _cache_insert(self, block_no: int, data: bytes) -> None:
        if self.page_cache_blocks <= 0:
            return
        with self._lock:
            if block_no in self._page_cache:
                self._page_cache.move_to_end(block_no)
            self._page_cache[block_no] = data
            while len(self._page_cache) > self.page_cache_blocks:
                self._page_cache.popitem(last=False)
                self.stats.cache_evictions += 1

    def _cache_invalidate(self, block_no: int) -> None:
        with self._lock:
            if self._page_cache.pop(block_no, None) is not None:
                self.stats.cache_invalidations += 1

    def cached_blocks(self) -> List[int]:
        """Block numbers currently resident in the page cache (tests)."""
        with self._lock:
            return list(self._page_cache)

    def drop_page_cache(self) -> int:
        """Discard every cached block; returns how many were dropped.

        Remount-after-crash must call this: the cache belongs to the
        *session*, not the medium, and after a power cut it can hold
        write-through copies of writes the medium never received.
        """
        with self._lock:
            dropped = len(self._page_cache)
            self._page_cache.clear()
            self.stats.cache_invalidations += dropped
            return dropped

    def cache_stats(self) -> Dict[str, object]:
        """Observable page-cache state (size, capacity, hit rate)."""
        with self._lock:
            lookups = self.stats.cache_hits + self.stats.cache_misses
            size = len(self._page_cache)
        return {
            "name": "page-cache",
            "capacity": self.page_cache_blocks,
            "size": size,
            "hits": self.stats.cache_hits,
            "misses": self.stats.cache_misses,
            "evictions": self.stats.cache_evictions,
            "invalidations": self.stats.cache_invalidations,
            "hit_rate": round(self.stats.cache_hits / lookups, 4) if lookups else 0.0,
        }

    # -- helpers ------------------------------------------------------------

    def _check_range(self, block_no: int) -> None:
        if not 0 <= block_no < self.block_count:
            raise errors.BlockDeviceError(
                f"block {block_no} out of range [0, {self.block_count})"
            )

    def __repr__(self) -> str:
        return (
            f"BlockDevice({self.used_blocks}/{self.block_count} blocks used, "
            f"{self.block_size}B blocks)"
        )


def store_bytes(device: BlockDevice, payload: bytes) -> List[int]:
    """Split ``payload`` across freshly allocated blocks and write it.

    Returns the ordered block list.  The inverse is :func:`load_bytes`.
    """
    size = device.block_size
    chunks = [payload[i : i + size] for i in range(0, len(payload), size)] or [b""]
    blocks = device.allocate_many(len(chunks))
    for block_no, chunk in zip(blocks, chunks):
        device.write(block_no, chunk)
    return blocks


def load_bytes(device: BlockDevice, blocks: List[int], length: Optional[int] = None) -> bytes:
    """Reassemble a payload previously written with :func:`store_bytes`."""
    payload = b"".join(device.read(block_no) for block_no in blocks)
    if length is not None:
        payload = payload[:length]
    return payload
