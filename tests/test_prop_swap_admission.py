"""Differential tests: batched pool admission against per-page admission.

``SwapDevice.admit_new_range`` admits a freshly allocated region in one
step. It must leave the device exactly as ``admit_new`` called once per
page would: the same resident pages in the same LRU order with the same
dirty flags, the same ``_last_fault_vpn`` and the same ``Stats``. Two
devices replay one stream of admissions, single-page touches and
sequential ranges; admissions overlap resident pages too, which the
batched method hands to the per-page path.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.storage import SwapDevice
from repro.sim.config import DdcConfig
from repro.sim.stats import Stats

VPNS = st.integers(min_value=0, max_value=40)

OPS = st.lists(
    st.one_of(
        # A fresh region at the allocation cursor, or a range anywhere.
        st.tuples(st.just("admit"), st.booleans(), VPNS, st.integers(1, 12)),
        st.tuples(st.just("touch"), VPNS, st.booleans()),
        st.tuples(st.just("touch_range"), VPNS, st.integers(1, 8), st.booleans()),
    ),
    min_size=1,
    max_size=30,
)


class PeakDict(OrderedDict):
    """An LRU map that records the most pages it ever held."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


class Twin:
    """One device driven through the batched method or the per-page one."""

    def __init__(self, capacity, batched):
        self.stats = Stats()
        self.device = SwapDevice(DdcConfig(ssd_readahead_pages=4), self.stats, capacity)
        self.device.resident = PeakDict()
        self.batched = batched
        self.cursor = 0

    def apply(self, op):
        device = self.device
        kind = op[0]
        if kind == "admit":
            _, fresh, start, npages = op
            if fresh:
                # Like AddressSpace: one guard page after each region.
                start = self.cursor
                self.cursor += npages + 1
            if self.batched:
                return device.admit_new_range(start, npages)
            for vpn in range(start, start + npages):
                device.admit_new(vpn)
            return None
        if kind == "touch":
            return device.touch(op[1], dirty=op[2])
        return device.touch_range(op[1], op[2], dirty=op[3])

    def state(self):
        device = self.device
        return (
            list(device.resident.items()),
            device._last_fault_vpn,
            self.stats.as_dict(),
        )


def replay(ops, batched, per_page):
    for op in ops:
        assert batched.apply(op) == per_page.apply(op), op
        assert batched.state() == per_page.state(), op


@given(capacity=st.integers(min_value=1, max_value=16), ops=OPS)
@settings(max_examples=300, deadline=None)
def test_admit_new_range_matches_admit_new(capacity, ops):
    replay(ops, Twin(capacity, True), Twin(capacity, False))


#: Five old pages, 1 and 3 dirty, in LRU order 0, 2, 4, 1, 3.
OLD_PAGES = [
    ("touch_range", 0, 5, False),
    ("touch", 1, True),
    ("touch", 3, True),
]


@pytest.mark.parametrize(
    "capacity, survivors",
    [
        # Below the range: every old page and the first two new ones go.
        (6, list(range(12, 18))),
        # At the range: only the old pages go.
        (8, list(range(10, 18))),
        # Above it: the three oldest old pages go.
        (10, [1, 3] + list(range(10, 18))),
        # Room for everything.
        (16, [0, 2, 4, 1, 3] + list(range(10, 18))),
    ],
)
def test_capacity_below_at_and_above_the_range(capacity, survivors):
    """A fresh eight-page region at vpn 10 against the old pages."""
    batched, per_page = Twin(capacity, True), Twin(capacity, False)
    replay(OLD_PAGES, batched, per_page)
    device = batched.device
    device.resident.peak = 0
    replay([("admit", False, 10, 8)], batched, per_page)
    assert device.resident.peak <= capacity
    assert list(device.resident) == survivors
    pages_out = device.stats.storage_pages_out
    displaced_dirty = sum(1 for vpn in (1, 3) if vpn not in device.resident)
    displaced_new = sum(1 for vpn in range(10, 18) if vpn not in device.resident)
    assert pages_out == displaced_dirty + displaced_new
