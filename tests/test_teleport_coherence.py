"""Tests for the coherence protocol (paper Figures 8 and 9)."""

import numpy as np
import pytest

from repro.ddc import make_platform
from repro.sim.config import DdcConfig
from repro.sim.units import MIB
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.flags import ConsistencyMode


@pytest.fixture
def env():
    platform = make_platform("teleport", DdcConfig(compute_cache_bytes=1 * MIB))
    process = platform.new_process()
    region = process.alloc_array("data", np.zeros(100_000, dtype=np.float64))
    return platform, process, region


def make_protocol(platform, process, mode=ConsistencyMode.MESI):
    return CoherenceProtocol(platform, process, mode)


class TestSetup:
    """Figure 8: temporary-context page table construction."""

    def test_clone_covers_full_table(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        assert len(protocol.t_mm) == len(process.address_space.full_table)

    def test_writable_compute_pages_removed_from_t_mm(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        vpn = region.start_vpn
        protocol.setup([(vpn, True)])
        pte = protocol.t_mm.get(vpn)
        assert not pte.present

    def test_read_only_compute_pages_downgraded_in_t_mm(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        vpn = region.start_vpn
        protocol.setup([(vpn, False)])
        pte = protocol.t_mm.get(vpn)
        assert pte.present
        assert not pte.writable

    def test_absent_pages_stay_fully_mapped(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([(region.start_vpn, True)])
        other = protocol.t_mm.get(region.start_vpn + 1)
        assert other.present and other.writable

    def test_setup_cost_scales_with_resident_list(self, env):
        platform, process, region = env
        small = make_protocol(platform, process).setup([(region.start_vpn, True)])
        resident = [(vpn, False) for vpn in list(region.all_vpns())[:50]]
        large = make_protocol(platform, process).setup(resident)
        assert large > small

    def test_setup_invariant_holds(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        # Populate the cache with a mix of permissions.
        compute.cache.insert(region.start_vpn, writable=True, dirty=True)
        compute.cache.insert(region.start_vpn + 1, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        protocol.check_swmr()


class TestMemoryTouch:
    """Figure 9 lines 11-25: memory-side faults during pushdown."""

    def test_read_of_unshared_page_is_free(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        cost = protocol.memory_touch(region.start_vpn, write=False, now=0.0)
        assert cost == 0.0
        assert platform.stats.coherence_messages == 0

    def test_write_to_compute_writable_page_invalidates(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=True, dirty=True)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        cost = protocol.memory_touch(vpn, write=True, now=0.0)
        assert cost > 0
        assert vpn not in compute.cache
        assert platform.stats.coherence_invalidations == 1
        assert protocol.t_mm.get(vpn).writable
        protocol.check_swmr()

    def test_read_of_compute_writable_page_downgrades(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=True, dirty=True)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        cost = protocol.memory_touch(vpn, write=False, now=0.0)
        assert cost > 0
        entry = compute.cache.peek(vpn)
        assert entry is not None and not entry.writable
        assert platform.stats.coherence_downgrades >= 1
        pte = protocol.t_mm.get(vpn)
        assert pte.present and not pte.writable
        protocol.check_swmr()

    def test_upgrade_of_shared_read_page(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        # (R, R) -> memory wants W: compute copy must be invalidated.
        protocol.memory_touch(vpn, write=True, now=0.0)
        assert vpn not in compute.cache
        assert protocol.t_mm.get(vpn).writable
        protocol.check_swmr()

    def test_compute_evicted_page_regained_silently(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=True)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        compute.cache.invalidate(vpn)
        protocol.on_compute_evict(vpn)
        messages_before = platform.stats.coherence_messages
        cost = protocol.memory_touch(vpn, write=True, now=0.0)
        assert cost == 0.0
        assert platform.stats.coherence_messages == messages_before

    def test_spilled_page_is_true_fault_to_storage(self, env):
        platform, process, _region = env
        # A fresh region beyond the memory pool capacity.
        tiny = make_platform(
            "teleport",
            DdcConfig(compute_cache_bytes=1 * MIB, memory_pool_bytes=1 * MIB),
        )
        process = tiny.new_process()
        big = process.alloc_array("big", np.zeros(1_000_000, dtype=np.float64))
        protocol = make_protocol(tiny, process)
        protocol.setup([])
        # The first pages of the region were evicted to storage by later
        # allocation; touching them is a true fault (no coherence traffic).
        cost = protocol.memory_touch(big.start_vpn, write=False, now=0.0)
        assert cost > 0
        assert tiny.stats.storage_faults >= 1
        assert tiny.stats.coherence_messages == 0

    def test_dirty_transfer_costs_more_than_clean_invalidate(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        clean_vpn = region.start_vpn
        dirty_vpn = region.start_vpn + 1
        compute.cache.insert(clean_vpn, writable=True, dirty=False)
        compute.cache.insert(dirty_vpn, writable=True, dirty=True)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        clean_cost = protocol.memory_touch(clean_vpn, write=True, now=0.0)
        dirty_cost = protocol.memory_touch(dirty_vpn, write=True, now=0.0)
        assert dirty_cost > clean_cost


class TestComputeSide:
    """Figure 9 lines 1-10 plus the compute-side upgrade race."""

    def test_compute_fetch_for_write_invalidates_t_mm(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        vpn = region.start_vpn
        assert protocol.t_mm.get(vpn).present
        protocol.on_compute_fetch(vpn, write=True)
        assert not protocol.t_mm.get(vpn).present
        assert platform.stats.coherence_invalidations == 1

    def test_compute_fetch_for_read_downgrades_t_mm(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        vpn = region.start_vpn
        protocol.on_compute_fetch(vpn, write=False)
        pte = protocol.t_mm.get(vpn)
        assert pte.present and not pte.writable
        assert platform.stats.coherence_downgrades == 1

    def test_compute_upgrade_invalidates_memory_copy(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        cost = protocol.compute_upgrade(vpn, now=0.0)
        assert cost > 0
        assert not protocol.t_mm.get(vpn).present

    def test_tiebreak_favours_memory_pool(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        # Memory pool upgrades first; its round trip is in flight at t=0.
        protocol.memory_touch(vpn, write=True, now=0.0)
        # Compute pool upgrades concurrently: it must lose, back off t,
        # and reissue — costing strictly more than an uncontended upgrade.
        compute.cache.insert(vpn, writable=False)
        contended = protocol.compute_upgrade(vpn, now=1.0)
        uncontended_protocol = make_protocol(platform, process)
        compute.cache.insert(vpn, writable=False)
        uncontended_protocol.setup(compute.resident_snapshot())
        uncontended = uncontended_protocol.compute_upgrade(vpn, now=0.0)
        assert contended > uncontended
        assert contended >= platform.config.contention_backoff_ns
        assert platform.stats.coherence_tiebreaks == 1

    @staticmethod
    def _shared_after_memory_write(platform, process, region):
        """(R, R) page whose memory-side write upgrade ended at t ~ 2 us."""
        compute, memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        compute.protocol = protocol
        protocol.memory_touch(vpn, write=True, now=0.0)
        compute.touch_random(memory, vpn, write=False, now=0.0)
        assert protocol.state_of(vpn) == ("R", "R")
        return protocol, protocol._mem_upgrade_until[vpn]

    @pytest.mark.parametrize("clock_ns, tiebreaks", [(1_000_000.0, 0), (0.0, 1)])
    def test_sequential_upgrade_judged_at_caller_clock(self, env, clock_ns, tiebreaks):
        """A sequential compute write races the memory pool's upgrade only
        while that upgrade is in flight at the caller's clock."""
        platform, process, region = env
        protocol, window_end = self._shared_after_memory_write(platform, process, region)
        ctx = platform.main_context(process)
        ctx.charge_ns(clock_ns)
        assert (window_end > ctx.now) == bool(tiebreaks)
        before = ctx.now
        ctx.touch_seq(region, 0, 1, write=True)
        config = platform.config
        expected = 2 * config.coherence_msg_ns + config.dram_page_ns
        if tiebreaks:
            expected += config.contention_backoff_ns + config.coherence_msg_ns
        assert platform.stats.coherence_tiebreaks == tiebreaks
        assert ctx.now - before == expected
        assert protocol.state_of(region.start_vpn) == ("W", "0")


class TestRelaxations:
    """Section 4.2: PSO, weak ordering, coherence off."""

    def test_pso_downgrades_instead_of_removing(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=True)
        protocol = make_protocol(platform, process, ConsistencyMode.PSO)
        protocol.setup(compute.resident_snapshot())
        protocol.memory_touch(vpn, write=True, now=0.0)
        # PSO keeps the compute copy as read-only rather than evicting it.
        entry = compute.cache.peek(vpn)
        assert entry is not None
        assert not entry.writable

    def test_weak_mode_sends_no_coherence_messages(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=True, dirty=True)
        protocol = make_protocol(platform, process, ConsistencyMode.WEAK)
        protocol.setup(compute.resident_snapshot())
        cost = protocol.memory_touch(vpn, write=True, now=0.0)
        assert cost == 0.0
        assert platform.stats.coherence_messages == 0

    def test_weak_upgrade_is_silent(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process, ConsistencyMode.WEAK)
        protocol.setup(compute.resident_snapshot())
        assert protocol.compute_upgrade(vpn, now=0.0) == 0.0


class TestBoundarySync:
    """Explicit synchronisation points of the relaxed modes."""

    def _dirty_shared_page(self, platform, process, region, mode):
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process, mode)
        protocol.setup(compute.resident_snapshot())
        protocol.memory_touch(vpn, write=True, now=0.0)
        return protocol, compute, vpn

    def test_weak_boundary_invalidates_stale_copies(self, env):
        platform, process, region = env
        protocol, compute, vpn = self._dirty_shared_page(
            platform, process, region, ConsistencyMode.WEAK
        )
        assert vpn in compute.cache  # weak mode left the stale copy
        cost = protocol.boundary_sync()
        assert cost > 0
        assert vpn not in compute.cache
        assert platform.stats.coherence_invalidations >= 1

    def test_pso_boundary_also_syncs(self, env):
        platform, process, region = env
        protocol, compute, vpn = self._dirty_shared_page(
            platform, process, region, ConsistencyMode.PSO
        )
        assert protocol.boundary_sync() > 0
        assert vpn not in compute.cache

    def test_mesi_boundary_is_noop(self, env):
        platform, process, region = env
        protocol, _compute, _vpn = self._dirty_shared_page(
            platform, process, region, ConsistencyMode.MESI
        )
        assert protocol.boundary_sync() == 0.0

    def test_off_mode_boundary_is_noop(self, env):
        platform, process, region = env
        protocol, compute, vpn = self._dirty_shared_page(
            platform, process, region, ConsistencyMode.OFF
        )
        assert protocol.boundary_sync() == 0.0
        assert vpn in compute.cache  # user must syncmem manually

    def test_boundary_with_nothing_stale_is_free(self, env):
        platform, process, _region = env
        protocol = make_protocol(platform, process, ConsistencyMode.WEAK)
        protocol.setup([])
        assert protocol.boundary_sync() == 0.0


class TestFinish:
    def test_finish_merges_dirty_bits(self, env):
        platform, process, region = env
        protocol = make_protocol(platform, process)
        protocol.setup([])
        vpn = region.start_vpn
        protocol.memory_touch(vpn, write=True, now=0.0)
        assert protocol.t_mm.get(vpn).dirty
        protocol.finish()
        assert process.address_space.full_table.get(vpn).dirty
        assert protocol.t_mm is None

    def test_state_of_reports_pair(self, env):
        platform, process, region = env
        compute, _memory = platform.kernels_for(process)
        vpn = region.start_vpn
        compute.cache.insert(vpn, writable=False)
        protocol = make_protocol(platform, process)
        protocol.setup(compute.resident_snapshot())
        assert protocol.state_of(vpn) == ("R", "R")
