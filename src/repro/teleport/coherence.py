"""The on-demand memory synchronisation protocol (paper Section 4).

State per page is a pair of permissions — (compute pool, memory pool) —
drawn from {absent, R, W}. The compute side's state is the local page cache
(:class:`~repro.mem.cache.PageCache`); the memory side's is the temporary
user context's page table ``t_mm``, a clone of the process's full table
prepared by :func:`CoherenceProtocol.setup` exactly as in Figure 8.

Transitions follow Figure 9:

* compute-pool fault → the fault RPC doubles as the coherence request; the
  memory-side handler removes (write) or downgrades (read) the page from
  ``t_mm`` before replying (:meth:`on_compute_fetch`);
* memory-pool fault → either a *true* fault (page spilled to storage) or a
  pushdown fault that invalidates/downgrades the compute pool's cached
  copy (:meth:`memory_touch`);
* concurrent (R,R)→W upgrades are tie-broken in favour of the memory pool;
  the compute pool satisfies the memory pool's request, waits ``t`` and
  reissues (:meth:`compute_upgrade`).

The protocol preserves the Single-Writer-Multiple-Reader invariant, which
:meth:`check_swmr` asserts (used heavily by the property-based tests).
"""

from repro.errors import CoherenceViolation
from repro.teleport.flags import ConsistencyMode


class CoherenceProtocol:
    """Two-sided, directory-less page coherence between the pools."""

    def __init__(self, platform, process, mode=ConsistencyMode.MESI):
        self.platform = platform
        self.config = platform.config
        self.stats = platform.stats
        self.network = platform.network
        #: Per-transition SWMR sanitizer (repro.analysis.sanitizers); None
        #: unless the platform was built with sanitizers armed.
        self.sanitizer = platform.sanitizers
        self.mode = mode
        compkernel, memkernel = platform.kernels_for(process)
        self.compkernel = compkernel
        self.memkernel = memkernel
        self.cache = compkernel.cache
        self.full_table = process.address_space.full_table
        self.t_mm = None
        #: Coherence time accumulated during execution (Figure 20's
        #: "online sync" component).
        self.online_sync_ns = 0.0
        #: In-flight memory-side write upgrades, for tie-break emulation:
        #: vpn -> completion time of the upgrade round trip.
        self._mem_upgrade_until = {}
        #: Reference count: concurrent pushdowns of one process share the
        #: temporary context (Section 3.2).
        self.refcount = 0

    # ------------------------------------------------------------------
    # Figure 8: temporary-context page table construction
    # ------------------------------------------------------------------
    def setup(self, resident):
        """Build ``t_mm`` from the caller's table and the resident list.

        ``resident`` is the compute pool's transmitted page list:
        (vpn, writable) pairs. Returns the setup cost in ns.
        """
        self.t_mm = self.full_table.clone()
        for vpn, writable in resident:
            pte = self.t_mm.get(vpn)
            if pte is None or not pte.present:
                continue
            self._invalidate(pte, write=writable)
        if self.sanitizer is not None:
            # The freshly built temporary context must satisfy SWMR.
            self.sanitizer.swmr_transition(self, "setup")
        return self.config.context_base_ns + self.config.pte_clone_ns * len(resident)

    @staticmethod
    def _invalidate(pte, write):
        """Figure 8/9's ``Invalidate``: drop or downgrade a mapping."""
        if write:
            pte.present = False
            pte.writable = False
        else:
            pte.writable = False

    # ------------------------------------------------------------------
    # Figure 9 lines 3-10: memory-side handling of a compute-pool fault
    # ------------------------------------------------------------------
    def on_compute_fetch(self, vpn, write):
        """Bookkeeping when the compute pool faults a page in.

        The fault RPC itself is charged by the compute kernel; here the
        memory-side handler adjusts ``t_mm`` so the invariant holds after
        the reply. Under WEAK/OFF no adjustment is made.
        """
        if self.mode in (ConsistencyMode.WEAK, ConsistencyMode.OFF) or self.t_mm is None:
            return
        pte = self.t_mm.get(vpn)
        if pte is None or not pte.present:
            return
        if write:
            if self.mode is ConsistencyMode.PSO:
                # PSO relaxation: set read-only instead of removing.
                pte.writable = False
                self.stats.coherence_downgrades += 1
            else:
                self._invalidate(pte, write=True)
                self.stats.coherence_invalidations += 1
        elif pte.writable:
            pte.writable = False
            self.stats.coherence_downgrades += 1

    # ------------------------------------------------------------------
    # Figure 9 lines 11-25: memory-side page access during pushdown
    # ------------------------------------------------------------------
    def memory_touch(self, vpn, write, now):
        """One page access from the temporary context; returns its cost.

        The per-page reference of :meth:`memory_touch_batch`.
        """
        cost = self._memory_touch(vpn, write, now)
        if self.sanitizer is not None:
            self.sanitizer.swmr_transition(self, "memory_touch", vpn)
        return cost

    def memory_touch_batch(self, vpns, write, now, sequential=False):
        """A batch of page accesses from the temporary context; returns
        its cost.

        Exactly a plain loop over :meth:`memory_touch`. For random order
        (the default) each access is stamped at ``now`` plus the cost so
        far and then pays its DRAM cost by locality (``dram_line_ns`` when
        the page repeats the previous access, ``dram_random_ns``
        otherwise). A ``sequential`` pass stamps every access at ``now``
        and leaves the DRAM streaming cost to the caller. A memory-pool
        resident page that ``t_mm`` already permits, or any resident page
        under WEAK/OFF, is handled inline; true faults and pushdown faults
        call the per-page methods.
        """
        if sequential:
            line_ns = random_ns = 0.0
        else:
            line_ns = self.config.dram_line_ns
            random_ns = self.config.dram_random_ns
        get = self.t_mm.ptes.get if self.t_mm is not None else {}.get
        in_pool = self.memkernel.pool.resident
        relaxed = self.mode in (ConsistencyMode.WEAK, ConsistencyMode.OFF)
        sanitizer = self.sanitizer
        cost = 0.0
        prev = None
        for vpn in vpns:
            pte = get(vpn)
            if pte is None or vpn not in in_pool:
                cost += self._memory_touch(vpn, write, now if sequential else now + cost)
            elif relaxed:
                pte.present = True
                pte.writable = True
                if write:
                    pte.dirty = True
            elif pte.present and (pte.writable or not write):
                if write:
                    pte.dirty = True
            else:
                cost += self._request_from_compute(
                    pte, vpn, write, now if sequential else now + cost
                )
            if sanitizer is not None:
                sanitizer.swmr_transition(self, "memory_touch", vpn)
            cost += line_ns if vpn == prev else random_ns
            prev = vpn
        return cost

    def _memory_touch(self, vpn, write, now):
        cost = 0.0
        pte = self.t_mm.ensure(vpn) if self.t_mm is not None else None
        # 'True' page fault: the page is not in memory-pool DRAM at all —
        # fault to storage and map it in both mm and t_mm (lines 14-15).
        if not self.memkernel.is_resident(vpn):
            cost += self.memkernel.ensure_resident(vpn, write=write)
            if pte is not None:
                pte.present = True
                pte.writable = True
                pte.dirty = pte.dirty or write
            return cost
        if pte is None:
            # No temporary context (coherence fully off): plain local access.
            return cost
        if self.mode in (ConsistencyMode.WEAK, ConsistencyMode.OFF):
            pte.present = True
            pte.writable = True
            pte.dirty = pte.dirty or write
            return cost
        if pte.present and (not write or pte.writable):
            if write:
                pte.dirty = True
            return cost
        # Pushdown fault: the compute pool holds a conflicting copy
        # (lines 16-17 send the request; lines 18-25 handle it there).
        cost += self._request_from_compute(pte, vpn, write, now)
        return cost

    def _request_from_compute(self, pte, vpn, write, now):
        """MemoryOnPageFault's remote leg: invalidate/downgrade the cache."""
        entry = self.cache.peek(vpn)
        if entry is None:
            # The compute pool evicted the page after the resident list was
            # taken; its write-back already returned ownership silently.
            pte.present = True
            pte.writable = True
            pte.dirty = pte.dirty or write
            return 0.0
        if self.platform.tracer.enabled:
            self.platform.tracer.emit(
                now, "coherence", vpn=vpn, side="memory",
                action="invalidate" if write else "downgrade",
            )
        cost = self.network.coherence_message_ns()  # request
        if write:
            if self.mode is ConsistencyMode.PSO:
                # PSO relaxation: demote the compute copy to read-only
                # instead of removing it (Section 4.2).
                dirty = self.cache.downgrade(vpn)
                self.stats.coherence_downgrades += 1
            else:
                evicted = self.cache.invalidate(vpn)
                self.stats.coherence_invalidations += 1
                dirty = evicted is not None and evicted.dirty
            if dirty:
                self.stats.dirty_writebacks += 1
            cost += self.network.coherence_message_ns(with_page=dirty)  # reply
            pte.present = True
            pte.writable = True
            pte.dirty = True
            # Record the in-flight upgrade window for tie-break emulation.
            self._mem_upgrade_until[vpn] = now + cost
        else:
            was_dirty = self.cache.downgrade(vpn)
            self.stats.coherence_downgrades += 1
            if was_dirty:
                self.stats.dirty_writebacks += 1
            cost += self.network.coherence_message_ns(with_page=was_dirty)  # reply
            pte.present = True
            pte.writable = False
        self.online_sync_ns += cost
        return cost

    # ------------------------------------------------------------------
    # Compute-side write upgrade during pushdown (the (R,R) -> W race)
    # ------------------------------------------------------------------
    def compute_upgrade(self, vpn, now):
        """Compute pool upgrades a cached read-only page to writable."""
        if self.mode in (ConsistencyMode.WEAK, ConsistencyMode.OFF) or self.t_mm is None:
            return 0.0
        cost = 0.0
        # Tie-break (Section 4.1): if the memory pool has an in-flight
        # write upgrade on this page, the compute pool loses — it satisfies
        # the memory pool, waits t, then reissues its own request.
        if self._mem_upgrade_until.get(vpn, float("-inf")) > now:
            self.stats.coherence_tiebreaks += 1
            cost += self.config.contention_backoff_ns
            cost += self.network.coherence_message_ns()  # the wasted round
            del self._mem_upgrade_until[vpn]
            if self.platform.tracer.enabled:
                self.platform.tracer.emit(
                    now, "coherence", vpn=vpn, side="compute", action="tiebreak-loss",
                )
        pte = self.t_mm.get(vpn)
        if pte is not None and pte.present:
            self._invalidate(pte, write=self.mode is not ConsistencyMode.PSO)
            if self.mode is ConsistencyMode.PSO:
                self.stats.coherence_downgrades += 1
            else:
                self.stats.coherence_invalidations += 1
            cost += self.network.coherence_message_ns()  # request
            cost += self.network.coherence_message_ns()  # ack
        self.online_sync_ns += cost
        if self.sanitizer is not None:
            self.sanitizer.swmr_transition(self, "compute_upgrade", vpn)
        return cost

    def on_compute_evict(self, vpn):
        """The compute cache evicted a page: ownership returns to memory.

        The write-back (if dirty) is charged by the compute kernel; the
        memory pool silently regains full permission.
        """
        if self.t_mm is None:
            return
        pte = self.t_mm.get(vpn)
        if pte is not None:
            pte.present = True
            pte.writable = True
        if self.sanitizer is not None:
            self.sanitizer.swmr_transition(self, "compute_evict", vpn)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def boundary_sync(self):
        """Explicit synchronisation point for the relaxed modes.

        Weak ordering (and PSO) defer write propagation to explicit sync
        points; the end of a pushdown is one. Compute-pool copies of every
        page the temporary context dirtied are invalidated in one batched
        exchange, so the next compute access refetches fresh data. A no-op
        under MESI (propagation already happened per access) and under
        OFF (synchronisation is entirely the user's responsibility via
        ``syncmem``).
        """
        if self.t_mm is None or self.mode not in (
            ConsistencyMode.WEAK, ConsistencyMode.PSO,
        ):
            return 0.0
        stale = [
            vpn
            for vpn, pte in self.t_mm.entries()
            if pte.dirty and vpn in self.cache
        ]
        if not stale:
            return 0.0
        for vpn in stale:
            self.cache.invalidate(vpn)
        self.stats.coherence_invalidations += len(stale)
        # One batched invalidation list each way (RLE-compressed, like the
        # resident-page list of Section 6).
        list_bytes = self.config.page_list_message_bytes(len(stale))
        cost = self.network.coherence_message_ns()
        cost += list_bytes / self.config.net_bandwidth_bytes_per_ns
        cost += self.network.coherence_message_ns()  # ack
        self.online_sync_ns += cost
        return cost

    def finish(self):
        """Merge the temporary context's dirty bits back into the full
        table — "no external communication is necessary" (Section 4.1)."""
        if self.t_mm is None:
            return
        if self.sanitizer is not None:
            # Full sweep at session end, complementing the O(1)
            # single-page checks done per transition.
            self.sanitizer.swmr_transition(self, "finish")
        for vpn, pte in self.t_mm.entries():
            if pte.dirty:
                full = self.full_table.get(vpn)
                if full is not None:
                    full.dirty = True
        self.t_mm = None
        self._mem_upgrade_until.clear()

    # ------------------------------------------------------------------
    # Invariant checking (property tests, Section 4.1 "Correctness")
    # ------------------------------------------------------------------
    def check_swmr(self, vpn=None):
        """Assert Single-Writer-Multiple-Reader across the two pools.

        With ``vpn`` the check is O(1) over that single page — what the
        per-transition sanitizer uses; without it the whole cache is swept
        (property tests and session-end checks). Only meaningful in MESI
        mode; relaxed modes intentionally weaken the invariant.
        """
        if self.t_mm is None or self.mode is not ConsistencyMode.MESI:
            return
        if vpn is not None:
            entry = self.cache.peek(vpn)
            if entry is not None:
                self._check_swmr_pair(vpn, entry)
            return
        for resident_vpn, entry in self.cache.resident_items():
            self._check_swmr_pair(resident_vpn, entry)

    def _check_swmr_pair(self, vpn, entry):
        pte = self.t_mm.get(vpn)
        if pte is None or not pte.present:
            return
        if entry.writable:
            raise CoherenceViolation(
                f"page {vpn}: writable in compute pool but mapped in t_mm"
            )
        if pte.writable:
            raise CoherenceViolation(
                f"page {vpn}: writable in t_mm but cached in compute pool"
            )

    def state_of(self, vpn):
        """(compute, memory) permission pair for one page, e.g. ('R', 'W')."""
        entry = self.cache.peek(vpn)
        compute = entry.permission if entry is not None else "0"
        if self.t_mm is None:
            return compute, "0"
        pte = self.t_mm.get(vpn)
        memory = pte.permission if pte is not None else "0"
        return compute, memory
