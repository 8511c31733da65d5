"""The splitkernel's compute-side and memory-side components.

The :class:`MemoryKernel` owns the process's full page table and the memory
pool's DRAM (an LRU over the pool capacity, spilling to the storage pool).
The :class:`ComputeKernel` owns the compute pool's local page cache and
serves application accesses, forwarding misses over the fabric — exactly
the recursive-fault flow described in Section 2.1 of the paper.

When a TELEPORT pushdown is active with coherence enabled, both kernels
route the relevant transitions through the attached
:class:`~repro.teleport.coherence.CoherenceProtocol` so that the
Single-Writer-Multiple-Reader invariant holds across the pools.
"""

from collections import Counter, deque
from functools import reduce
from itertools import compress, count, islice, repeat
from operator import add, attrgetter

from repro.mem.cache import CacheEntry, PageCache
from repro.mem.storage import SwapDevice
from repro.sim.clock import add_repeated


class MemoryKernel:
    """Memory-pool component: full page table + pool DRAM + storage spill."""

    def __init__(self, platform, process):
        self.platform = platform
        self.config = platform.config
        self.stats = platform.stats
        self.process = process
        self.full_table = process.address_space.full_table
        self.pool = SwapDevice(self.config, self.stats, self.config.memory_pool_pages)

    def on_alloc(self, region):
        """New allocations become memory-pool resident.

        No time is charged: in a disaggregated OS fresh anonymous pages are
        created in the memory pool without device reads. If the pool is
        over capacity the displaced pages pay their fault cost when (and
        if) they are touched again.
        """
        self.pool.admit_new_range(region.start_vpn, region.npages)

    def on_free(self, region):
        """Freed pages vacate pool DRAM immediately (no write-back)."""
        self.pool.drop_range(region.start_vpn, region.npages)

    def is_resident(self, vpn):
        """True if the page is in memory-pool DRAM (not spilled)."""
        return vpn in self.pool

    def ensure_resident(self, vpn, write=False):
        """Bring a page into pool DRAM; returns the storage-fault cost."""
        return self.pool.touch(vpn, dirty=write)

    def ensure_resident_range(self, start_vpn, npages, write=False):
        """Bring a run of pages into pool DRAM (readahead applies)."""
        return self.pool.touch_range(start_vpn, npages, dirty=write)


class ComputeKernel:
    """Compute-pool component: local page cache + fault forwarding."""

    def __init__(self, platform, process):
        self.platform = platform
        self.config = platform.config
        self.stats = platform.stats
        self.network = platform.network
        self.process = process
        self.cache = PageCache(self.config.compute_cache_pages)
        #: Active coherence protocol, set by the TELEPORT runtime for the
        #: duration of a pushdown (None when no pushdown is running).
        self.protocol = None

    def on_free(self, region):
        """Drop cached pages of a freed region without write-back."""
        for vpn in self._cached_vpns(region):
            self.cache.invalidate(vpn)

    def _cached_vpns(self, region):
        """The cached vpns that fall in ``region``, collected first: the
        cache is much smaller than most regions."""
        start, end = region.start_vpn, region.end_vpn
        return [vpn for vpn in self.cache.entries if start <= vpn < end]

    # ------------------------------------------------------------------
    # Access paths (cost only; data lives in the region's numpy buffer)
    # ------------------------------------------------------------------
    def touch_random(self, memkernel, vpn, write, now=0.0):
        """One random-access page touch from the compute pool.

        Returns the fault-path cost in ns (zero on a plain hit); the DRAM
        access itself is charged by the execution context, which knows the
        access locality. A miss pays the remote fault (plus a storage
        fault if the memory pool spilled the page, plus dirty-eviction
        writeback). The per-page reference of :meth:`touch_random_batch`.
        """
        entry = self.cache.get(vpn)
        if entry is not None:
            if write and not entry.writable:
                cost = self._upgrade(vpn, entry, now)
            else:
                cost = 0.0
            if write:
                entry.dirty = True
            self.stats.cache_hits += 1
            return cost
        self.stats.cache_misses += 1
        if self.platform.tracer.enabled:
            self.platform.tracer.emit(now, "fault", vpn=vpn, write=write)
        return self._fetch(memkernel, vpn, npages=1, write=write)

    def touch_random_batch(self, memkernel, vpns, write, now, counts=None):
        """A batch of random-order page touches; returns its cost.

        ``vpns`` are runs: each differs from the one before and is accessed
        ``counts[i]`` times back to back (once when ``counts`` is None).
        Exactly a plain loop of ``cost += touch_random(memkernel, vpn,
        write, now + cost)`` over every access, followed by the access's
        DRAM cost by locality: ``dram_random_ns`` for a run's first access,
        ``dram_line_ns`` for its repeats. Hits and faults run inline, with
        their counters kept locally and added to ``Stats`` once; the memory
        pool is asked for a page only when it spilled it, and write
        upgrades and the coherence hooks call the methods ``touch_random``
        uses. A repeat finds its page cached at the MRU end, writable and
        dirty after a write, so it is one more hit and ``dram_line_ns``
        (summed by :func:`~repro.sim.clock.add_repeated`).
        """
        config = self.config
        line_ns = config.dram_line_ns
        random_ns = config.dram_random_ns
        fault_ns = config.remote_fault_ns(1)
        writeback_ns = config.page_writeback_ns(1)
        entries = self.cache.entries
        get = entries.get
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        capacity = self.cache.capacity_pages
        in_pool = memkernel.pool.resident
        pool_move_to_end = in_pool.move_to_end
        protocol = self.protocol
        sanitizers = self.platform.sanitizers if protocol is not None else None
        tracer = self.platform.tracer
        tracing = tracer.enabled
        hits = misses = evictions = writebacks = 0
        cost = 0.0
        bound = 0.0
        try:
            for vpn, count in zip(vpns, repeat(1) if counts is None else counts):
                entry = get(vpn)
                if entry is not None:
                    move_to_end(vpn)
                    if write:
                        if not entry.writable:
                            cost += self._upgrade(vpn, entry, now + cost)
                        entry.dirty = True
                    hits += 1
                else:
                    misses += 1
                    if tracing:
                        tracer.emit(now + cost, "fault", vpn=vpn, write=write)
                    if vpn in in_pool:
                        pool_move_to_end(vpn)
                        fault = fault_ns
                    else:
                        fault = memkernel.ensure_resident_range(vpn, 1) + fault_ns
                    if protocol is not None:
                        protocol.on_compute_fetch(vpn, write)
                    entries[vpn] = CacheEntry(write, write)
                    # The cache never holds more than its capacity, so
                    # one admission evicts at most one page.
                    if len(entries) > capacity:
                        victim_vpn, victim = popitem(False)
                        evictions += 1
                        if victim.dirty:
                            writebacks += 1
                            fault += writeback_ns
                        if protocol is not None:
                            protocol.on_compute_evict(victim_vpn)
                    if sanitizers is not None:
                        sanitizers.swmr_transition(protocol, "compute_fetch", vpn)
                    cost += fault
                cost += random_ns
                if count > 1:
                    hits += count - 1
                    span = (count - 1) * line_ns
                    if cost + span < bound:
                        cost += span
                    else:
                        cost, bound = add_repeated(cost, count - 1, line_ns)
        finally:
            self._count(hits, misses, misses, evictions, writebacks)
        return cost

    def touch_sequential(self, memkernel, start_vpn, npages, write, now=0.0):
        """Stream ``npages`` consecutive pages through the cache.

        Misses are served in prefetch-degree batches, modelling the
        disaggregated OS's sequential prefetcher; every page additionally
        pays the DRAM streaming cost since the CPU consumes it. ``now`` is
        the caller's clock: a write upgrade is judged at ``now`` plus the
        cost accumulated before it. Exactly ``cache.get`` / ``_upgrade`` per
        hit and ``_fetch`` per batch, run inline like
        :meth:`touch_random_batch`.

        A pass with no protocol attached that finds none of its pages
        cached and all of them resident in the memory pool takes
        :meth:`_stream_uncached`, the loop's closed form. The checks are
        C-level scans of the pass's range that stop at the first cached or
        spilled page, so a pass that falls back pays little for them.
        """
        entries = self.cache.entries
        in_pool = memkernel.pool.resident
        protocol = self.protocol
        vpns = range(start_vpn, start_vpn + npages)
        if (
            protocol is None
            and entries.keys().isdisjoint(vpns)
            and all(map(in_pool.__contains__, vpns))
        ):
            return self._stream_uncached(in_pool, vpns, write)
        config = self.config
        degree = config.prefetch_degree
        degree_fault_ns = config.remote_fault_ns(degree)
        writeback_ns = config.page_writeback_ns(1)
        get = entries.get
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        capacity = self.cache.capacity_pages
        pool_move_to_end = in_pool.move_to_end
        sanitizers = self.platform.sanitizers if protocol is not None else None
        hits = misses = fetched = evictions = writebacks = 0
        cost = 0.0
        vpn = start_vpn
        end = start_vpn + npages
        try:
            while vpn < end:
                entry = get(vpn)
                if entry is not None:
                    move_to_end(vpn)
                    if write:
                        if not entry.writable:
                            cost += self._upgrade(vpn, entry, now + cost)
                        entry.dirty = True
                    hits += 1
                    vpn += 1
                    continue
                batch = min(degree, end - vpn)
                stop = vpn + batch
                misses += 1
                fetched += batch
                fault = 0.0
                for page in range(vpn, stop):
                    if page not in in_pool:
                        # The pool faults the rest of the batch in from
                        # storage, exactly as one touch_range would.
                        fault = memkernel.ensure_resident_range(page, stop - page)
                        break
                    pool_move_to_end(page)
                fault += degree_fault_ns if batch == degree else config.remote_fault_ns(batch)
                if protocol is not None:
                    for page in range(vpn, stop):
                        protocol.on_compute_fetch(page, write)
                for page in range(vpn, stop):
                    entry = get(page)
                    if entry is not None:
                        # Prefetched over a page that is still cached.
                        entry.writable = entry.writable or write
                        entry.dirty = entry.dirty or write
                        move_to_end(page)
                    else:
                        entries[page] = CacheEntry(write, write)
                        if len(entries) > capacity:
                            victim_vpn, victim = popitem(False)
                            evictions += 1
                            if victim.dirty:
                                writebacks += 1
                                fault += writeback_ns
                            if protocol is not None:
                                protocol.on_compute_evict(victim_vpn)
                    if sanitizers is not None:
                        sanitizers.swmr_transition(protocol, "compute_fetch", page)
                cost += fault
                vpn = stop
        finally:
            self._count(hits, misses, fetched, evictions, writebacks)
        return cost + npages * config.dram_page_ns

    def _stream_uncached(self, in_pool, vpns, write):
        """:meth:`touch_sequential`'s loop, in closed form, for a pass that
        caches none of its pages, finds them all in pool DRAM and runs with
        no protocol attached.

        Every batch is a miss that promotes its pages in the pool's LRU
        and inserts them, so insertion ``k`` (from 0) of the pass evicts
        once the cache is full: the old entries leave oldest first from
        insertion ``capacity - len(cache)``, then the pass's own pages, page
        ``i`` at insertion ``capacity + i``, dirty iff ``write``. Only the
        surviving pages are inserted. Each batch's fault is its remote
        fault plus one write-back per dirty victim, added in that order,
        and the faults are added to the cost one after another, so every
        float equals the loop's. The pool promotions stay: the pool's LRU
        order decides which pages a later allocation spills.
        """
        config = self.config
        degree = config.prefetch_degree
        entries = self.cache.entries
        capacity = self.cache.capacity_pages
        npages = len(vpns)
        resident = len(entries)
        deque(map(in_pool.move_to_end, vpns), 0)
        evictions = max(0, resident + npages - capacity)
        old_victims = min(evictions, resident)
        # The insertion index of each dirty old victim.
        dirty_old = list(
            compress(
                count(capacity - resident),
                map(attrgetter("dirty"), islice(entries.values(), old_victims)),
            )
        )
        if old_victims == resident:
            entries.clear()
        else:
            deque(map(entries.popitem, repeat(False, old_victims)), 0)
        survivors = vpns[-capacity:]
        entries.update(
            zip(survivors, map(CacheEntry, repeat(write), repeat(write, len(survivors))))
        )
        # One remote fault per prefetch batch, then its write-backs.
        nbatches = -(-npages // degree)
        last = npages - (nbatches - 1) * degree
        writeback_ns = config.page_writeback_ns(1)

        def batch_fault(batch, writebacks):
            fault = config.remote_fault_ns(batch)
            for _ in range(writebacks):
                fault += writeback_ns
            return fault

        faults = [config.remote_fault_ns(degree)] * nbatches
        if last != degree:
            faults[-1] = config.remote_fault_ns(last)
        writebacks = Counter(k // degree for k in dirty_old)
        new_writebacks = max(0, npages - capacity) if write else 0
        if new_writebacks:
            # Insertions from ``capacity`` on each evict a dirty new page:
            # part of the batch holding insertion ``capacity``, then every
            # later batch whole.
            first = capacity // degree
            writebacks[first] += min((first + 1) * degree, npages) - capacity
            if first + 1 < nbatches:
                faults[first + 1:] = [batch_fault(degree, degree)] * (nbatches - first - 1)
                if last != degree:
                    faults[-1] = batch_fault(last, last)
        for batch_index, batch_writebacks in writebacks.items():
            batch = last if batch_index == nbatches - 1 else degree
            faults[batch_index] = batch_fault(batch, batch_writebacks)
        # Not sum(): from Python 3.12 it rounds a float sum differently
        # from a chain of additions.
        cost = reduce(add, faults, 0.0)
        self._count(0, nbatches, npages, evictions, len(dirty_old) + new_writebacks)
        return cost + npages * config.dram_page_ns

    def _count(self, hits, misses, fetched, evictions, writebacks):
        """Add a batch loop's events to ``Stats``: cache hits, misses (one
        fault round trip each, moving ``fetched`` pages in in total), and
        the evictions and dirty write-backs they caused, counted as
        ``Network.pages_in_ns`` / ``pages_out_ns`` count them."""
        stats = self.stats
        stats.cache_hits += hits
        stats.cache_misses += misses
        stats.cache_evictions += evictions
        stats.dirty_writebacks += writebacks
        stats.remote_pages_in += fetched
        stats.remote_pages_out += writebacks
        stats.rpc_messages += 2 * misses + writebacks
        stats.network_bytes += (fetched + writebacks) * self.config.page_size

    # ------------------------------------------------------------------
    # Fault machinery
    # ------------------------------------------------------------------
    def _fetch(self, memkernel, vpn, npages, write):
        """Fault ``npages`` starting at ``vpn`` in from the memory pool."""
        # The memory pool may itself need to fault the pages from storage
        # (the recursive fault of Section 2.1).
        cost = memkernel.ensure_resident_range(vpn, npages, write=False)
        cost += self.network.pages_in_ns(npages, batched=True)
        if self.protocol is not None:
            # Figure 9 lines 3-10: the memory-side handler invalidates or
            # downgrades the temporary context's mapping before replying.
            for fetched in range(vpn, vpn + npages):
                self.protocol.on_compute_fetch(fetched, write)
        for fetched in range(vpn, vpn + npages):
            cost += self._insert(fetched, write)
        return cost

    def _insert(self, vpn, write):
        """Admit a fetched page, writing back any dirty victim."""
        cost = 0.0
        for victim_vpn, victim_dirty in self.cache.insert(vpn, writable=write, dirty=write):
            self.stats.cache_evictions += 1
            if victim_dirty:
                self.stats.dirty_writebacks += 1
                cost += self.network.pages_out_ns(1)
            if self.protocol is not None:
                self.protocol.on_compute_evict(victim_vpn)
        if self.protocol is not None and self.platform.sanitizers is not None:
            # The fetch transition is complete only once the page is in the
            # cache (on_compute_fetch adjusted t_mm before the reply).
            self.platform.sanitizers.swmr_transition(
                self.protocol, "compute_fetch", vpn
            )
        return cost

    def _upgrade(self, vpn, entry, now):
        """Upgrade a cached read-only page to writable.

        Without an active pushdown the compute pool is the only possible
        sharer, so the upgrade is silent. During pushdown it is a coherence
        transition that may lose a tie-break to the memory pool
        (Section 4.1).
        """
        cost = 0.0
        if self.protocol is not None:
            cost = self.protocol.compute_upgrade(vpn, now)
        entry.writable = True
        if self.protocol is not None and self.platform.sanitizers is not None:
            # Re-check after the entry actually became writable: t_mm must
            # no longer map the page (MESI).
            self.platform.sanitizers.swmr_transition(
                self.protocol, "compute_upgrade_applied", vpn
            )
        return cost

    # ------------------------------------------------------------------
    # Synchronisation helpers used by TELEPORT (Section 4.2)
    # ------------------------------------------------------------------
    def flush_dirty(self, vpns=None, batched=True):
        """Write dirty pages back to the memory pool; returns (cost, count).

        ``vpns=None`` flushes everything. ``syncmem`` uses the batched
        (optimised) transfer; the eager-sync strawman pays page by page,
        matching the paper's "synchronous transfer of all dirty pages"
        accounting (Section 4 / Figure 20).
        """
        if vpns is None:
            targets = self.cache.dirty_vpns()
        else:
            targets = [vpn for vpn in vpns if vpn in self.cache]
        flushed = 0
        for vpn in targets:
            entry = self.cache.peek(vpn)
            if entry is not None and entry.dirty:
                entry.dirty = False
                flushed += 1
        if not flushed:
            return 0.0, 0
        self.stats.dirty_writebacks += flushed
        return self.network.pages_out_ns(flushed, batched=batched), flushed

    def evict_all(self):
        """Drop the whole cache (full-process migration); returns cost.

        Dirty victims are flushed page by page — the strawman path.
        """
        cost = 0.0
        dropped = self.cache.clear()
        dirty = sum(1 for _vpn, was_dirty in dropped if was_dirty)
        if dirty:
            self.stats.dirty_writebacks += dirty
            cost += self.network.pages_out_ns(dirty, batched=False)
        self.stats.cache_evictions += len(dropped)
        return cost

    def evict_regions(self, regions):
        """Flush + drop only the pages of the given regions (per-thread
        pushdown ablation of Figure 6); returns cost (page-by-page)."""
        cost = 0.0
        dirty = 0
        dropped = 0
        for region in regions:
            for vpn in self._cached_vpns(region):
                entry = self.cache.invalidate(vpn)
                dropped += 1
                if entry.dirty:
                    dirty += 1
        if dirty:
            self.stats.dirty_writebacks += dirty
            cost += self.network.pages_out_ns(dirty, batched=False)
        self.stats.cache_evictions += dropped
        return cost

    def resident_snapshot(self):
        """(vpn, writable) list sent with a pushdown request (Section 4.1)."""
        return [(vpn, entry.writable) for vpn, entry in self.cache.resident_items()]
