"""The compute pool's local page cache.

In a disaggregated OS the compute pool's DRAM "is nothing more than a
cache" of the memory pool (Section 1). :class:`PageCache` models it as an
exact-LRU, write-back, write-allocate cache of 4 KiB pages. Its entries
double as the compute side's page table: a page present here is present in
the compute pool with the recorded permission, which is precisely the state
TELEPORT's coherence protocol manipulates.
"""

from collections import OrderedDict

from repro.errors import ConfigError


class CacheEntry:
    """Residency record for one cached page."""

    __slots__ = ("writable", "dirty")

    def __init__(self, writable, dirty=False):
        self.writable = writable
        self.dirty = dirty

    @property
    def permission(self):
        return "W" if self.writable else "R"

    def __repr__(self):
        return f"CacheEntry(writable={self.writable}, dirty={self.dirty})"


class PageCache:
    """Exact-LRU write-back cache of pages, keyed by vpn."""

    def __init__(self, capacity_pages):
        if capacity_pages < 1:
            raise ConfigError(f"cache capacity must be >= 1 page, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        #: vpn -> :class:`CacheEntry` in LRU-to-MRU order. The kernels'
        #: batch access loops bind its methods directly; every mutation
        #: they make mirrors :meth:`get` / :meth:`insert` exactly.
        self.entries = OrderedDict()

    def __len__(self):
        return len(self.entries)

    def __contains__(self, vpn):
        return vpn in self.entries

    def get(self, vpn):
        """Look up a page and promote it to most-recently-used."""
        entry = self.entries.get(vpn)
        if entry is not None:
            self.entries.move_to_end(vpn)
        return entry

    def peek(self, vpn):
        """Look up a page without touching recency."""
        return self.entries.get(vpn)

    def insert(self, vpn, writable, dirty=False):
        """Insert (or refresh) a page; return list of evicted (vpn, dirty).

        Evictions are exact LRU; dirty victims must be written back by the
        caller (the kernel charges the transfer).
        """
        entry = self.entries.get(vpn)
        if entry is not None:
            entry.writable = entry.writable or writable
            entry.dirty = entry.dirty or dirty
            self.entries.move_to_end(vpn)
            return []
        self.entries[vpn] = CacheEntry(writable, dirty)
        evicted = []
        while len(self.entries) > self.capacity_pages:
            victim_vpn, victim = self.entries.popitem(last=False)
            evicted.append((victim_vpn, victim.dirty))
        return evicted

    def invalidate(self, vpn):
        """Drop a page (coherence invalidation); return its entry or None."""
        return self.entries.pop(vpn, None)

    def downgrade(self, vpn):
        """Set a page read-only; return True if it held dirty data.

        MESI M->S: the caller must flush the dirty page to the memory pool
        when this returns True. The dirty bit is cleared here because after
        the flush both copies agree.
        """
        entry = self.entries.get(vpn)
        if entry is None:
            return False
        was_dirty = entry.dirty
        entry.writable = False
        entry.dirty = False
        return was_dirty

    def mark_dirty(self, vpn):
        entry = self.entries.get(vpn)
        if entry is not None:
            entry.dirty = True

    def dirty_vpns(self):
        return [vpn for vpn, entry in self.entries.items() if entry.dirty]

    def resident_items(self):
        """Snapshot of (vpn, entry) in LRU-to-MRU order."""
        return list(self.entries.items())

    def clear(self):
        """Drop everything; return list of (vpn, dirty) for all pages."""
        dropped = [(vpn, entry.dirty) for vpn, entry in self.entries.items()]
        self.entries.clear()
        return dropped

    def __repr__(self):
        return f"PageCache({len(self.entries)}/{self.capacity_pages} pages)"
