"""Memory subsystem: pages, page tables, regions, caches, swap.

This package provides the page-granularity metadata that both the
disaggregated OS (:mod:`repro.ddc`) and TELEPORT's coherence protocol
(:mod:`repro.teleport`) manipulate. Application data lives in real numpy
buffers owned by :class:`~repro.mem.region.Region` objects; the simulation
only tracks *placement* (which pool holds which page, with what
permissions), exactly the state the paper's Figures 8 and 9 operate on.
"""

from repro.mem.cache import CacheEntry, PageCache
from repro.mem.page import DIRTY, PRESENT, WRITABLE, permission
from repro.mem.page_table import PageTable
from repro.mem.region import AddressSpace, Region
from repro.mem.storage import SwapDevice

__all__ = [
    "AddressSpace",
    "CacheEntry",
    "DIRTY",
    "PageCache",
    "PRESENT",
    "PageTable",
    "Region",
    "SwapDevice",
    "WRITABLE",
    "permission",
]
