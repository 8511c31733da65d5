"""Sparse page tables.

The memory pool holds each process's *full* page table; during pushdown a
temporary context gets a clone of it (Figure 8). Both are represented by
:class:`PageTable`, a sparse map from virtual page number (vpn) to the
entry's bits (:mod:`repro.mem.page`).
"""

from repro.mem.page import DIRTY, PRESENT, WRITABLE


class PageTable:
    """Sparse vpn -> PTE bits mapping."""

    __slots__ = ("ptes",)

    def __init__(self):
        #: vpn -> PTE bits. The memory-side batch access loop binds its
        #: ``get`` directly; the loop falls back to :meth:`ensure` for a
        #: missing vpn.
        self.ptes = {}

    def __len__(self):
        return len(self.ptes)

    def __contains__(self, vpn):
        return vpn in self.ptes

    def get(self, vpn):
        """Return the PTE bits for ``vpn`` or None if never mapped."""
        return self.ptes.get(vpn)

    def ensure(self, vpn):
        """Return the PTE bits for ``vpn``, mapping it absent (0) if needed."""
        return self.ptes.setdefault(vpn, 0)

    def map_range(self, start_vpn, npages, bits=PRESENT | WRITABLE):
        """Map ``npages`` consecutive pages with uniform bits."""
        self.ptes.update(dict.fromkeys(range(start_vpn, start_vpn + npages), bits))

    def unmap_range(self, start_vpn, npages):
        """Remove mappings for a freed region."""
        for vpn in range(start_vpn, start_vpn + npages):
            self.ptes.pop(vpn, None)

    def entries(self):
        """Iterate over (vpn, bits) pairs."""
        return self.ptes.items()

    def vpns(self):
        return self.ptes.keys()

    def present_vpns(self):
        """All vpns whose pages are currently present."""
        return [vpn for vpn, bits in self.ptes.items() if bits & PRESENT]

    def dirty_vpns(self):
        """All vpns whose pages are present and dirty."""
        both = PRESENT | DIRTY
        return [vpn for vpn, bits in self.ptes.items() if bits & both == both]

    def clone(self):
        """Copy (used to build the temporary context's table); the bits
        are ints, so a shallow dict copy is a full copy."""
        table = PageTable()
        table.ptes = self.ptes.copy()
        return table

    def __repr__(self):
        return f"PageTable({len(self.ptes)} entries)"
