"""Tests for PTE bits and sparse page tables."""

from repro.mem.page import DIRTY, PRESENT, WRITABLE, permission
from repro.mem.page_table import PageTable


def test_pte_defaults_absent():
    table = PageTable()
    assert not table.ensure(0) & PRESENT
    assert permission(table.get(0)) == "0"
    assert permission(None) == "0"


def test_pte_permission_symbols():
    assert permission(PRESENT | WRITABLE) == "W"
    assert permission(PRESENT) == "R"
    assert permission(WRITABLE | DIRTY) == "0"


def test_empty_table():
    table = PageTable()
    assert len(table) == 0
    assert table.get(0) is None
    assert 0 not in table


def test_ensure_creates_absent_entry():
    table = PageTable()
    bits = table.ensure(5)
    assert not bits & PRESENT
    assert table.get(5) == bits == 0
    assert len(table) == 1


def test_map_range():
    table = PageTable()
    table.map_range(10, 4)
    assert len(table) == 4
    assert table.get(10) & PRESENT
    assert table.get(13) & WRITABLE
    assert not table.get(13) & DIRTY
    assert table.get(14) is None


def test_unmap_range():
    table = PageTable()
    table.map_range(0, 10)
    table.unmap_range(0, 5)
    assert len(table) == 5
    assert table.get(2) is None
    assert table.get(7) is not None


def test_present_and_dirty_vpn_queries():
    table = PageTable()
    table.map_range(0, 3)
    table.ensure(100)  # absent
    table.ptes[1] |= DIRTY
    assert sorted(table.present_vpns()) == [0, 1, 2]
    assert table.dirty_vpns() == [1]


def test_clone_is_deep():
    table = PageTable()
    table.map_range(0, 2)
    clone = table.clone()
    clone.ptes[0] &= ~PRESENT
    assert table.get(0) & PRESENT
    assert not clone.get(0) & PRESENT
    assert len(clone) == 2
