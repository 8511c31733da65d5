"""Tests for the NVMe swap device model."""

import pytest

from repro.mem.storage import SwapDevice
from repro.sim.config import DdcConfig
from repro.sim.stats import Stats


def make_device(capacity_pages, **overrides):
    config = DdcConfig(**overrides) if overrides else DdcConfig()
    stats = Stats()
    return SwapDevice(config, stats, capacity_pages), stats


def test_admit_new_makes_page_resident_for_free():
    device, stats = make_device(10)
    device.admit_new(1)
    assert 1 in device
    assert stats.storage_faults == 0
    assert device.touch(1) == 0.0


def test_touch_miss_pays_fault():
    device, stats = make_device(10)
    cost = device.touch(5)
    assert cost > 0
    assert stats.storage_faults == 1
    assert 5 in device


def test_touch_hit_is_free():
    device, stats = make_device(10)
    device.touch(5)
    assert device.touch(5) == 0.0
    assert stats.storage_faults == 1


def test_sequential_faults_cheaper_than_random():
    seq_device, _ = make_device(100)
    seq_cost = sum(seq_device.touch(v) for v in range(10))
    rand_device, _ = make_device(100)
    rand_cost = sum(rand_device.touch(v) for v in [0, 50, 3, 77, 20, 91, 5, 63, 40, 11])
    assert seq_cost < rand_cost


def test_lru_eviction_when_over_capacity():
    device, _ = make_device(2)
    device.touch(1)
    device.touch(2)
    device.touch(3)
    assert 1 not in device
    assert 2 in device and 3 in device


def test_dirty_eviction_charged_and_counted():
    device, stats = make_device(1)
    device.touch(1, dirty=True)
    cost = device.touch(2)
    # Fault cost plus the write-back of dirty victim 1.
    plain_device, _ = make_device(10)
    plain_device.touch(0)  # align sequential detection
    baseline = plain_device.touch(2)
    assert cost > 0
    assert stats.storage_pages_out == 1


def test_touch_range_uses_readahead():
    device, stats = make_device(1000)
    cost_range = device.touch_range(0, 64)
    other, other_stats = make_device(1000)
    cost_single = sum(other.touch(v) for v in range(64))
    assert cost_range <= cost_single
    assert stats.storage_pages_in == 64
    # Readahead means far fewer fault events than pages.
    assert stats.storage_faults < 64


def test_touch_range_hits_are_free():
    device, stats = make_device(1000)
    device.touch_range(0, 16)
    faults_before = stats.storage_faults
    assert device.touch_range(0, 16) == 0.0
    assert stats.storage_faults == faults_before


def test_resident_pages_bounded_by_capacity():
    device, _ = make_device(8)
    device.touch_range(0, 100)
    assert device.resident_pages <= 8


def test_writeback_cost_positive():
    device, _ = make_device(4)
    assert device.writeback_cost_ns(4) > 0


def test_capacity_minimum_is_one():
    device, _ = make_device(0)
    assert device.capacity_pages == 1


def test_drop_range_keeps_survivors_in_lru_order():
    device, stats = make_device(10)
    device.admit_new_range(0, 6)
    device.touch(7)
    device.touch(4)
    device.touch(0)
    # LRU to MRU: 1, 2, 3, 5, 7, 4, 0; fresh pages are dirty, 7 is clean.
    device.drop_range(1, 3)
    assert list(device.resident.items()) == [(5, True), (7, False), (4, True), (0, True)]
    # Pages in the range that are not resident (6) are skipped.
    device.drop_range(5, 3)
    assert list(device.resident) == [4, 0]
    assert stats.storage_pages_out == 0
