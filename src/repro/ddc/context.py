"""Application-facing execution contexts.

An :class:`ExecutionContext` binds a thread to the machinery of the pool it
is executing in and exposes the memory/CPU accounting API that all the data
systems in this repository are written against:

* ``compute(ops)`` — charge CPU work (scaled by the executing pool's clock).
* ``touch_seq`` / ``touch_random`` — charge page accesses without data.
* ``load_slice`` / ``store_slice`` / ``gather`` / ``scatter`` — combined
  data access + cost charging on a region's numpy buffer.

The same application code therefore runs unmodified on the monolithic
baseline, the base DDC, and TELEPORT — mirroring the paper's premise that
disaggregated OSes preserve the application API while changing the cost of
every memory access.
"""

import numpy as np

from repro.ddc.pool import Pool
from repro.errors import ReproError


class ExecutionContext:
    """Cost-charging handle for application code on one thread."""

    def __init__(self, platform, thread, memkernel=None, compkernel=None, protocol=None):
        self.platform = platform
        self.thread = thread
        self.config = platform.config
        self.stats = platform.stats
        self.memkernel = memkernel
        self.compkernel = compkernel
        self.protocol = protocol

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def pool(self):
        return self.thread.pool

    @property
    def clock(self):
        return self.thread.clock

    @property
    def now(self):
        return self.thread.clock.now

    def charge_ns(self, ns):
        """Charge raw virtual time to this thread."""
        self.thread.clock.advance(ns)

    def compute(self, ops):
        """Charge ``ops`` simple CPU operations at the executing pool's clock."""
        if ops <= 0:
            return
        if self.pool is Pool.MEMORY:
            ghz = self.config.memory_clock_ghz
        else:
            ghz = self.config.compute_clock_ghz
        self.thread.clock.advance(self.config.cpu_ns(ops, ghz) * self.thread.cpu_scale)

    # ------------------------------------------------------------------
    # Cost-only page touches
    # ------------------------------------------------------------------
    def touch_seq(self, region, lo, hi, write=False):
        """Charge a sequential pass over elements [lo, hi) of ``region``."""
        if hi <= lo:
            return
        start_vpn, end_vpn = region.vpn_range_of_slice(lo, hi)
        npages = end_vpn - start_vpn
        if npages <= 0:
            return
        self.thread.clock.advance(self._seq_cost(start_vpn, npages, write))

    def touch_random(self, region, indices, write=False):
        """Charge random-order element accesses at the given indices."""
        vpns = region.vpns_of_indices(indices)
        if len(vpns) == 0:
            return
        self.thread.clock.advance(self._random_cost(vpns, write))

    def touch_page(self, vpn, write=False):
        """Charge a single random page touch by raw vpn (microbenchmarks)."""
        self.thread.clock.advance(self._random_cost([vpn], write))

    def touch_clustered(self, region, indices, write=False):
        """Charge accesses that are clustered in short runs (adjacency
        lists, per-bucket appends): consecutive same-page accesses collapse
        into one page touch, as the hardware would stream them."""
        vpns = np.asarray(region.vpns_of_indices(indices))
        if len(vpns) == 0:
            return
        keep = np.empty(len(vpns), dtype=bool)
        keep[0] = True
        np.not_equal(vpns[1:], vpns[:-1], out=keep[1:])
        self.thread.clock.advance(self._random_cost(vpns[keep], write))

    # ------------------------------------------------------------------
    # Data access helpers (cost + real data)
    # ------------------------------------------------------------------
    def load_slice(self, region, lo=0, hi=None):
        """Read elements [lo, hi); returns the numpy view."""
        if hi is None:
            hi = len(region)
        self.touch_seq(region, lo, hi, write=False)
        return region.array[lo:hi]

    def store_slice(self, region, lo, values):
        """Write ``values`` at element offset ``lo``."""
        values = np.asarray(values)
        hi = lo + len(values)
        self.touch_seq(region, lo, hi, write=True)
        region.array[lo:hi] = values

    def load_at(self, region, index):
        """Random read of one element."""
        self.touch_random(region, [index], write=False)
        return region.array[index]

    def store_at(self, region, index, value):
        """Random write of one element."""
        self.touch_random(region, [index], write=True)
        region.array[index] = value

    def gather(self, region, indices):
        """Random reads at ``indices``; returns the gathered values."""
        indices = np.asarray(indices, dtype=np.int64)
        self.touch_random(region, indices, write=False)
        return region.array[indices]

    def scatter(self, region, indices, values):
        """Random writes of ``values`` at ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        self.touch_random(region, indices, write=True)
        region.array[indices] = values

    # ------------------------------------------------------------------
    # Placement-specific cost paths
    # ------------------------------------------------------------------
    def _seq_cost(self, start_vpn, npages, write):
        pool = self.pool
        if pool is Pool.LOCAL:
            cost = self.platform.swap.touch_range(start_vpn, npages, dirty=write)
            return cost + npages * self.config.dram_page_ns
        if pool is Pool.COMPUTE:
            return self.compkernel.touch_sequential(
                self.memkernel, start_vpn, npages, write, self.now
            )
        if pool is Pool.MEMORY:
            cost = self.protocol.memory_touch_batch(
                range(start_vpn, start_vpn + npages), write, self.now, sequential=True
            )
            self.stats.memory_side_page_touches += npages
            return cost + npages * self.config.dram_page_ns
        raise ReproError(f"unknown pool {pool!r}")

    def _random_cost(self, vpns, write):
        """Cost of a batch of random page touches.

        Batches up to ``access_sample_threshold`` are simulated exactly.
        Larger ones are simulated by deterministic stride sampling: every
        k-th access runs through the exact batch loop and cost plus
        counters are scaled back up. This is the engine's one remaining
        approximation; it keeps multi-million access workloads tractable
        while preserving hit rates and shapes.
        """
        n = len(vpns)
        if n > self.config.access_sample_threshold:
            stride = max(1, int(np.ceil(n / self.config.access_sample_target)))
            sample = np.asarray(vpns)[::stride]
            factor = n / len(sample)
            before = self.stats.snapshot()
            cost = self._random_cost_exact(sample, write)
            self.stats.scale_since(before, factor)
            return cost * factor
        return self._random_cost_exact(vpns, write)

    def _random_cost_exact(self, vpns, write):
        """Exact simulation of every access, by the executing pool's loop.

        Per-access DRAM cost depends on locality: an access to the same
        page as the previous one is a row-buffer hit (``dram_line_ns``); a
        page change pays full DRAM latency (``dram_random_ns``). Misses
        additionally pay the pool-specific fault path. The vpns become
        Python ints once here; each pool's batch loop (``SwapDevice``,
        ``ComputeKernel``, ``CoherenceProtocol``) is exact against a plain
        loop over that pool's per-page method.
        """
        if isinstance(vpns, np.ndarray):
            vpns = vpns.tolist()
        pool = self.pool
        if pool is Pool.LOCAL:
            return self.platform.swap.touch_batch(vpns, dirty=write)
        if pool is Pool.COMPUTE:
            return self.compkernel.touch_random_batch(self.memkernel, vpns, write, self.now)
        if pool is Pool.MEMORY:
            cost = self.protocol.memory_touch_batch(vpns, write, self.now)
            self.stats.memory_side_page_touches += len(vpns)
            return cost
        raise ReproError(f"unknown pool {pool!r}")

    # ------------------------------------------------------------------
    # TELEPORT surface (overridden behaviour on TeleportPlatform)
    # ------------------------------------------------------------------
    def pushdown(self, fn, *args, **kwargs):
        """Push ``fn`` down to the memory pool (TELEPORT platforms only).

        On other platforms this executes the function in place, so the same
        application code runs everywhere; the base DDC simply gains nothing.
        """
        runtime = getattr(self.platform, "teleport", None)
        if runtime is None:
            return fn(self, *args)
        return runtime.pushdown(self, fn, *args, **kwargs)

    def syncmem(self, regions=None):
        """Manually flush dirty compute-pool pages (Section 4.2).

        No-op outside the compute pool or on the monolithic baseline.
        """
        if self.pool is not Pool.COMPUTE or self.compkernel is None:
            return
        self.stats.syncmem_calls += 1
        if self.platform.tracer.enabled:
            scope = "all" if regions is None else ",".join(r.name for r in regions)
            self.platform.tracer.emit(self.now, "syncmem", scope=scope)
        if regions is None:
            cost, _count = self.compkernel.flush_dirty()
        else:
            vpns = [vpn for region in regions for vpn in region.all_vpns()]
            cost, _count = self.compkernel.flush_dirty(vpns)
        self.thread.clock.advance(cost)

    def __repr__(self):
        return f"ExecutionContext({self.thread.name!r}, pool={self.pool.value})"
