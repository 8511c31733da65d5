"""The storage pool (NVMe SSD) as a swap device.

Used in two places: the memory pool spills pages here when its capacity is
exceeded (Figure 15), and the monolithic-Linux baseline swaps here when its
DRAM is exhausted (Figure 1a / Figure 14). The device model distinguishes
sequential faults (readahead amortises latency) from random ones (pay the
full device + software path each time).
"""

from collections import OrderedDict
from itertools import repeat

from repro.sim.clock import add_repeated


class SwapDevice:
    """Cost and residency model of the NVMe storage pool.

    Maintains an exact-LRU set of DRAM-resident pages of capacity
    ``capacity_pages``; everything else is "on storage". Costs are returned
    to the caller, which charges its own clock.
    """

    def __init__(self, config, stats, capacity_pages):
        self.config = config
        self.stats = stats
        self.capacity_pages = max(1, capacity_pages)
        #: vpn -> dirty flag of every DRAM-resident page, in LRU-to-MRU
        #: order. The compute kernel's and coherence protocol's batch loops
        #: use it directly, mirroring :meth:`touch_range` and ``in``.
        self.resident = OrderedDict()
        self._last_fault_vpn = None

    def __contains__(self, vpn):
        return vpn in self.resident

    @property
    def resident_pages(self):
        return len(self.resident)

    def admit_new(self, vpn):
        """Admit a freshly allocated (anonymous) page without a device read.

        Used at allocation time: new pages are DRAM-resident and dirty with
        respect to storage. Eviction side effects still apply, but no fault
        is counted and no cost is returned — allocation is setup, and the
        cost of any displaced pages is paid when they fault back in. The
        per-page reference of :meth:`admit_new_range`.
        """
        self._admit(vpn, dirty=True)

    def admit_new_range(self, start_vpn, npages):
        """Admit ``npages`` fresh pages from ``start_vpn``.

        Exactly :meth:`admit_new` per page: victims leave oldest first,
        the earliest new pages too once the old ones are gone, and every
        dirty victim (each displaced fresh page is one) counts one
        ``storage_pages_out``. The old victims are popped first and only
        the surviving new pages are inserted, so ``resident`` never grows
        past capacity. A range that overlaps resident pages takes the
        per-page path; that happens on the monolithic host, whose one
        device serves every process and every address space starts at
        vpn 0.
        """
        vpns = range(start_vpn, start_vpn + npages)
        resident = self.resident
        if not resident.keys().isdisjoint(vpns):
            for vpn in vpns:
                self._admit(vpn, dirty=True)
            return
        excess = len(resident) + npages - self.capacity_pages
        if excess > 0:
            old_victims = min(excess, len(resident))
            displaced_new = excess - old_victims
            pages_out = displaced_new
            popitem = resident.popitem
            for _ in range(old_victims):
                _victim, victim_dirty = popitem(last=False)
                if victim_dirty:
                    pages_out += 1
            self.stats.storage_pages_out += pages_out
            vpns = vpns[displaced_new:]
        resident.update(dict.fromkeys(vpns, True))

    def touch(self, vpn, dirty=False):
        """Access one page; return the fault cost (0.0 on a DRAM hit).

        The per-page reference of :meth:`touch_batch`.
        """
        entry_dirty = self.resident.get(vpn)
        if entry_dirty is not None:
            self.resident.move_to_end(vpn)
            if dirty and not entry_dirty:
                self.resident[vpn] = True
            return 0.0
        return self._fault_in(vpn, dirty)

    def touch_batch(self, vpns, dirty=False, counts=None):
        """Random-order accesses from the monolithic baseline's CPU.

        ``vpns`` are runs: each differs from the one before and is accessed
        ``counts[i]`` times back to back (once when ``counts`` is None).
        Returns the fault cost plus each access's DRAM cost by locality: a
        run's first access pays ``dram_random_ns``, its repeats are
        row-buffer hits (``dram_line_ns``). Exactly a plain loop of ``cost
        += touch(vpn); cost += dram`` over every access; DRAM hits are
        inlined, faults call :meth:`_fault_in`, and a repeat finds its page
        resident at the MRU end with the dirty bit set, so it only adds
        ``dram_line_ns`` (summed by :func:`~repro.sim.clock.add_repeated`).
        """
        line_ns = self.config.dram_line_ns
        random_ns = self.config.dram_random_ns
        resident = self.resident
        get = resident.get
        move_to_end = resident.move_to_end
        cost = 0.0
        bound = 0.0
        for vpn, count in zip(vpns, repeat(1) if counts is None else counts):
            entry_dirty = get(vpn)
            if entry_dirty is not None:
                move_to_end(vpn)
                if dirty and not entry_dirty:
                    resident[vpn] = True
            else:
                cost += self._fault_in(vpn, dirty)
            cost += random_ns
            if count > 1:
                span = (count - 1) * line_ns
                if cost + span < bound:
                    cost += span
                else:
                    cost, bound = add_repeated(cost, count - 1, line_ns)
        return cost

    def touch_range(self, start_vpn, npages, dirty=False):
        """Access consecutive pages; returns total fault cost.

        Misses within the range are served with readahead-sized batches.
        """
        resident = self.resident
        move_to_end = resident.move_to_end
        total = 0.0
        vpn = start_vpn
        end = start_vpn + npages
        while vpn < end:
            if vpn in resident:
                move_to_end(vpn)
                if dirty:
                    resident[vpn] = True
                vpn += 1
                continue
            batch = min(self.config.ssd_readahead_pages, end - vpn)
            sequential = self._last_fault_vpn is not None and vpn == self._last_fault_vpn + 1
            total += self.config.ssd_fault_ns(batch, sequential=sequential)
            self.stats.storage_faults += 1
            self.stats.storage_pages_in += batch
            for fetched in range(vpn, vpn + batch):
                total += self._admit(fetched, dirty)
            self._last_fault_vpn = vpn + batch - 1
            vpn += batch
        return total

    def _fault_in(self, vpn, dirty):
        sequential = self._last_fault_vpn is not None and vpn == self._last_fault_vpn + 1
        cost = self.config.ssd_fault_ns(1, sequential=sequential)
        self.stats.storage_faults += 1
        self.stats.storage_pages_in += 1
        self._last_fault_vpn = vpn
        cost += self._admit(vpn, dirty)
        return cost

    def _admit(self, vpn, dirty):
        """Insert a page, evicting LRU victims; returns dirty-writeback cost."""
        self.resident[vpn] = dirty
        cost = 0.0
        while len(self.resident) > self.capacity_pages:
            _victim, victim_dirty = self.resident.popitem(last=False)
            if victim_dirty:
                # A dirty victim must be flushed to the device before its
                # frame can be reused; sequential rate (swap-out batches).
                self.stats.storage_pages_out += 1
                cost += self.config.page_size / self.config.ssd_bandwidth_bytes_per_ns
        return cost

    def drop(self, vpn):
        """Forget a page entirely (its region was freed); no write-back."""
        self.resident.pop(vpn, None)

    def writeback_cost_ns(self, npages=1):
        """Cost of flushing ``npages`` dirty pages out to the device."""
        return self.config.ssd_fault_ns(npages, sequential=npages > 1)
