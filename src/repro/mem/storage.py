"""The storage pool (NVMe SSD) as a swap device.

Used in two places: the memory pool spills pages here when its capacity is
exceeded (Figure 15), and the monolithic-Linux baseline swaps here when its
DRAM is exhausted (Figure 1a / Figure 14). The device model distinguishes
sequential faults (readahead amortises latency) from random ones (pay the
full device + software path each time).
"""

from collections import OrderedDict


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
        cost of any displaced pages is paid when they fault back in.
        """
        self._admit(vpn, dirty=True)

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

    def touch_batch(self, vpns, dirty=False):
        """Random-order accesses from the monolithic baseline's CPU.

        Returns the fault cost plus each access's DRAM cost by locality: an
        access to the same page as the one before is a row-buffer hit
        (``dram_line_ns``), any other pays ``dram_random_ns``. Exactly a
        plain loop of ``cost += touch(vpn); cost += dram``; DRAM hits are
        inlined and faults call :meth:`_fault_in`.
        """
        line_ns = self.config.dram_line_ns
        random_ns = self.config.dram_random_ns
        resident = self.resident
        get = resident.get
        move_to_end = resident.move_to_end
        cost = 0.0
        prev = None
        for vpn in vpns:
            entry_dirty = get(vpn)
            if entry_dirty is not None:
                move_to_end(vpn)
                if dirty and not entry_dirty:
                    resident[vpn] = True
            else:
                cost += self._fault_in(vpn, dirty)
            cost += line_ns if vpn == prev else random_ns
            prev = vpn
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
