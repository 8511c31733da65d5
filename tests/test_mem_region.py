"""Tests for regions and the address space."""

import numpy as np
import pytest

from repro.errors import AccessError, AllocationError
from repro.mem.page import PRESENT, WRITABLE
from repro.mem.region import AddressSpace

PAGE = 4096


@pytest.fixture
def space():
    return AddressSpace(PAGE)


def test_alloc_array_registers_pages(space):
    region = space.alloc_array("a", np.zeros(1024, dtype=np.float64))  # 8 KiB
    assert region.npages == 2
    assert region.nbytes == 8192
    assert space.full_table.get(region.start_vpn) & PRESENT
    assert space.full_table.get(region.start_vpn + 1) & WRITABLE


def test_regions_do_not_overlap(space):
    a = space.alloc_array("a", np.zeros(600, dtype=np.float64))
    b = space.alloc_array("b", np.zeros(600, dtype=np.float64))
    assert b.start_vpn >= a.end_vpn


def test_duplicate_name_rejected(space):
    space.alloc("x", 100)
    with pytest.raises(AllocationError):
        space.alloc("x", 100)


def test_vpn_of_index(space):
    region = space.alloc_array("a", np.zeros(1024, dtype=np.float64))
    assert region.vpn_of_index(0) == region.start_vpn
    assert region.vpn_of_index(511) == region.start_vpn  # last of page 0
    assert region.vpn_of_index(512) == region.start_vpn + 1


def test_vpn_of_index_out_of_range(space):
    region = space.alloc_array("a", np.zeros(10, dtype=np.int64))
    with pytest.raises(AccessError):
        region.vpn_of_index(10)
    with pytest.raises(AccessError):
        region.vpn_of_index(-1)


def test_vpns_of_indices_vectorised(space):
    region = space.alloc_array("a", np.zeros(2048, dtype=np.float64))
    vpns = region.vpns_of_indices([0, 512, 1024, 1535])
    expected = region.start_vpn + np.array([0, 1, 2, 2])
    assert (vpns == expected).all()


def test_vpns_of_indices_bounds_checked(space):
    region = space.alloc_array("a", np.zeros(8, dtype=np.float64))
    with pytest.raises(AccessError):
        region.vpns_of_indices([0, 99])


def test_vpn_range_of_slice(space):
    region = space.alloc_array("a", np.zeros(2048, dtype=np.float64))
    lo, hi = region.vpn_range_of_slice(0, 512)
    assert (lo, hi) == (region.start_vpn, region.start_vpn + 1)
    lo, hi = region.vpn_range_of_slice(500, 600)
    assert (lo, hi) == (region.start_vpn, region.start_vpn + 2)


def test_empty_slice_covers_no_pages(space):
    region = space.alloc_array("a", np.zeros(100, dtype=np.float64))
    lo, hi = region.vpn_range_of_slice(50, 50)
    assert lo == hi


def test_bad_slice_rejected(space):
    region = space.alloc_array("a", np.zeros(100, dtype=np.float64))
    with pytest.raises(AccessError):
        region.vpn_range_of_slice(10, 5)
    with pytest.raises(AccessError):
        region.vpn_range_of_slice(0, 101)


def test_free_unmaps(space):
    region = space.alloc("a", 8192)
    space.free(region)
    assert space.full_table.get(region.start_vpn) is None
    assert "a" not in space.regions
    assert space.allocated_bytes == 0


def test_free_unknown_region_rejected(space):
    region = space.alloc("a", 100)
    space.free(region)
    with pytest.raises(AllocationError):
        space.free(region)


def test_allocated_bytes_tracks_live_regions(space):
    space.alloc_array("a", np.zeros(1024, dtype=np.float64))
    b = space.alloc_array("b", np.zeros(512, dtype=np.float64))
    assert space.allocated_bytes == 8192 + 4096
    space.free(b)
    assert space.allocated_bytes == 8192


def test_unique_name(space):
    space.alloc("tmp", 10)
    name = space.unique_name("tmp")
    assert name != "tmp"
    space.alloc(name, 10)
    assert space.unique_name("fresh") == "fresh"


def test_alloc_zero_fills(space):
    region = space.alloc_like("z", 100, np.int64)
    assert (region.array == 0).all()
    assert region.array.dtype == np.int64
