"""Sparse page tables.

The memory pool holds each process's *full* page table; during pushdown a
temporary context gets a clone of it (Figure 8). Both are represented by
:class:`PageTable`, a sparse map from virtual page number (vpn) to
:class:`~repro.mem.page.PageTableEntry`.
"""

from repro.mem.page import PageTableEntry


class PageTable:
    """Sparse vpn -> PTE mapping."""

    __slots__ = ("ptes",)

    def __init__(self):
        #: vpn -> PTE. The memory-side batch access loop binds its ``get``
        #: directly; the loop falls back to :meth:`ensure` for a missing vpn.
        self.ptes = {}

    def __len__(self):
        return len(self.ptes)

    def __contains__(self, vpn):
        return vpn in self.ptes

    def get(self, vpn):
        """Return the PTE for ``vpn`` or None if never mapped."""
        return self.ptes.get(vpn)

    def ensure(self, vpn):
        """Return the PTE for ``vpn``, creating an absent one if needed."""
        entry = self.ptes.get(vpn)
        if entry is None:
            entry = PageTableEntry()
            self.ptes[vpn] = entry
        return entry

    def map_range(self, start_vpn, npages, present=True, writable=True, dirty=False):
        """Map ``npages`` consecutive pages with uniform permissions."""
        for vpn in range(start_vpn, start_vpn + npages):
            self.ptes[vpn] = PageTableEntry(present, writable, dirty)

    def unmap_range(self, start_vpn, npages):
        """Remove mappings for a freed region."""
        for vpn in range(start_vpn, start_vpn + npages):
            self.ptes.pop(vpn, None)

    def entries(self):
        """Iterate over (vpn, PTE) pairs."""
        return self.ptes.items()

    def vpns(self):
        return self.ptes.keys()

    def present_vpns(self):
        """All vpns whose pages are currently present."""
        return [vpn for vpn, pte in self.ptes.items() if pte.present]

    def dirty_vpns(self):
        """All vpns whose pages are present and dirty."""
        return [vpn for vpn, pte in self.ptes.items() if pte.present and pte.dirty]

    def clone(self):
        """Deep copy (used to build the temporary context's table)."""
        table = PageTable()
        table.ptes = {vpn: pte.copy() for vpn, pte in self.ptes.items()}
        return table

    def __repr__(self):
        return f"PageTable({len(self.ptes)} entries)"
