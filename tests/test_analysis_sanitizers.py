"""Tests for the runtime invariant sanitizers (repro.analysis.sanitizers)
and the PushdownUserError rethrow contract.

Isolation note: these tests must behave identically with and without the
suite-wide ``pytest --sanitize`` flag, so they never assert on the
process-global suite directly — each test monkeypatches a fresh
:class:`SanitizerSuite` (or None) into place and reads its counters.
"""

import math

import numpy as np
import pytest

from repro.analysis import sanitizers
from repro.analysis.sanitizers import SanitizerSuite, suite_for
from repro.ddc import make_platform
from repro.errors import (
    CoherenceViolation,
    ConfigError,
    PushdownUserError,
    RemotePushdownFault,
    ReproError,
    SanitizerViolation,
)
from repro.mem.page import PRESENT, WRITABLE
from repro.sim.clock import VirtualClock
from repro.sim.config import DdcConfig
from repro.sim.units import KIB
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.flags import ConsistencyMode


@pytest.fixture
def fresh_suite(monkeypatch):
    """A private suite installed as the active one, restored after."""
    suite = SanitizerSuite()
    monkeypatch.setattr(sanitizers, "_GLOBAL_SUITE", suite)
    monkeypatch.setattr(VirtualClock, "sanitizer", suite)
    return suite


@pytest.fixture
def no_sanitizers(monkeypatch):
    """Force sanitizers fully off, regardless of pytest --sanitize."""
    monkeypatch.setattr(sanitizers, "_GLOBAL_SUITE", None)
    monkeypatch.setattr(VirtualClock, "sanitizer", None)


def build_env(config=None):
    platform = make_platform(
        "teleport", config or DdcConfig(compute_cache_bytes=64 * KIB)
    )
    process = platform.new_process()
    ctx = platform.main_context(process)
    return platform, process, ctx


def alloc_and_warm(process, ctx, count=4096):
    rng = np.random.default_rng(5)
    region = process.alloc_array("data", rng.random(count))
    ctx.touch_seq(region, 0, count, write=True)
    return region


# ----------------------------------------------------------------------
# Clock sanitizer
# ----------------------------------------------------------------------
class TestClockSanitizer:
    def test_nan_advance_is_silent_without_sanitizer(self, no_sanitizers):
        """The hazard the sanitizer exists for: NaN passes ``ns < 0``."""
        clock = VirtualClock()
        clock.advance(float("nan"))
        assert math.isnan(clock.now)  # silently poisoned

    def test_nan_advance_caught(self, fresh_suite):
        clock = VirtualClock()
        with pytest.raises(SanitizerViolation):
            clock.advance(float("nan"))
        assert clock.now == 0.0  # rejected before the add
        assert fresh_suite.violations == 1

    def test_inf_advance_caught(self, fresh_suite):
        clock = VirtualClock()
        with pytest.raises(SanitizerViolation):
            clock.advance(float("inf"))

    def test_nonfinite_advance_to_caught(self, fresh_suite):
        clock = VirtualClock()
        with pytest.raises(SanitizerViolation):
            clock.advance_to(float("nan"))
        with pytest.raises(SanitizerViolation):
            clock.advance_to(float("inf"))

    def test_negative_advance_still_native_error(self, fresh_suite):
        with pytest.raises(ConfigError):
            VirtualClock().advance(-1.0)
        assert fresh_suite.violations == 0  # the clock's own check fired

    def test_finite_advances_counted_clean(self, fresh_suite):
        clock = VirtualClock()
        clock.advance(10.0)
        clock.advance_to(25.0)
        assert clock.now == 25.0
        assert fresh_suite.clock_checks == 2
        assert fresh_suite.violations == 0


# ----------------------------------------------------------------------
# SWMR sanitizer
# ----------------------------------------------------------------------
class TestSwmrSanitizer:
    def _corrupted_protocol(self, suite_or_none):
        """A MESI protocol whose t_mm was corrupted behind its back."""
        platform, process, ctx = build_env()
        assert platform.sanitizers is suite_or_none or suite_or_none is None
        alloc_and_warm(process, ctx)
        compkernel, _memkernel = platform.kernels_for(process)
        runtime = platform.teleport
        protocol = runtime.acquire_protocol(process, ConsistencyMode.MESI)
        protocol.setup(compkernel.resident_snapshot())
        vpn = next(
            v for v, entry in compkernel.cache.resident_items() if entry.writable
        )
        # The corruption: t_mm claims the page while the compute pool
        # holds it writable — two writers, the invariant SWMR forbids.
        protocol.t_mm.ptes[vpn] = protocol.t_mm.ensure(vpn) | PRESENT | WRITABLE
        return protocol, vpn

    def test_intentional_break_caught_per_transition(self, fresh_suite):
        protocol, vpn = self._corrupted_protocol(fresh_suite)
        with pytest.raises(SanitizerViolation, match="memory_touch"):
            protocol.memory_touch(vpn, write=False, now=0.0)
        assert fresh_suite.violations == 1

    def test_same_break_is_silent_without_sanitizer(self, no_sanitizers):
        protocol, vpn = self._corrupted_protocol(None)
        # The access goes through unnoticed...
        protocol.memory_touch(vpn, write=False, now=0.0)
        # ...even though the spot check would have seen it.
        with pytest.raises(CoherenceViolation):
            protocol.check_swmr(vpn)

    def test_single_page_check_scopes_to_that_page(self, no_sanitizers):
        protocol, vpn = self._corrupted_protocol(None)
        other = vpn + 1
        protocol.check_swmr(other)  # clean page: no error
        with pytest.raises(CoherenceViolation):
            protocol.check_swmr()  # full sweep finds the corruption

    def test_clean_pushdown_runs_swmr_checks(self, fresh_suite):
        platform, process, ctx = build_env()
        region = alloc_and_warm(process, ctx)

        def touch_some(mctx):
            values = mctx.load_slice(region, 0, 1024)
            mctx.compute(len(values))
            return float(values.sum())

        result = ctx.pushdown(touch_some, verify=True)
        assert result != 0.0
        assert fresh_suite.swmr_checks > 0
        assert fresh_suite.leak_checks > 0
        assert fresh_suite.clock_checks > 0
        assert fresh_suite.violations == 0


# ----------------------------------------------------------------------
# Leak sanitizer
# ----------------------------------------------------------------------
class TestLeakSanitizer:
    def test_unreleased_t_mm_caught(self, fresh_suite, monkeypatch):
        platform, process, ctx = build_env()
        alloc_and_warm(process, ctx, count=512)
        # Simulate a teardown bug: finish() forgets to drop the temporary
        # context and the in-flight upgrade map.
        monkeypatch.setattr(CoherenceProtocol, "finish", lambda self: None)
        with pytest.raises(SanitizerViolation, match="t_mm survived"):
            ctx.pushdown(lambda mctx: None)
        assert fresh_suite.violations >= 1

    def test_clean_session_passes_leak_checks(self, fresh_suite):
        platform, process, ctx = build_env()
        alloc_and_warm(process, ctx, count=512)
        ctx.pushdown(lambda mctx: None)
        runtime = platform.teleport
        protocol = runtime._protocols[process.pid]
        assert protocol.refcount == 0
        assert protocol.t_mm is None
        assert fresh_suite.leak_checks >= 2  # teardown + session end
        assert fresh_suite.violations == 0


# ----------------------------------------------------------------------
# Enablement plumbing
# ----------------------------------------------------------------------
class TestEnablement:
    def test_suite_for_prefers_global(self, fresh_suite):
        assert suite_for(DdcConfig()) is fresh_suite
        assert suite_for(DdcConfig(sanitizers=True)) is fresh_suite

    def test_suite_for_config_opt_in(self, no_sanitizers):
        assert suite_for(DdcConfig()) is None
        platform, _process, _ctx = build_env(
            DdcConfig(compute_cache_bytes=64 * KIB, sanitizers=True)
        )
        assert isinstance(platform.sanitizers, SanitizerSuite)
        # The config-scoped suite also arms the clock hook.
        assert VirtualClock.sanitizer is platform.sanitizers
        assert sanitizers.active() is None  # no process-global suite

    def test_sanitized_context_manager_restores(self, no_sanitizers):
        assert sanitizers.active() is None
        with sanitizers.sanitized() as suite:
            assert sanitizers.active() is suite
            assert VirtualClock.sanitizer is suite
        assert sanitizers.active() is None
        assert VirtualClock.sanitizer is None

    def test_enable_disable_roundtrip(self, no_sanitizers):
        suite = sanitizers.enable()
        assert sanitizers.active() is suite
        assert sanitizers.enable() is suite  # idempotent
        sanitizers.disable()
        assert sanitizers.active() is None


# ----------------------------------------------------------------------
# PushdownUserError: user bugs are not infrastructure failures
# ----------------------------------------------------------------------
class TestPushdownUserError:
    def test_user_exception_wrapped_with_cause(self, teleport_env):
        _platform, _process, ctx = teleport_env

        def buggy(mctx):
            raise ValueError("boom")

        with pytest.raises(PushdownUserError) as excinfo:
            ctx.pushdown(buggy)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "boom" in str(excinfo.value.__cause__)

    def test_subclasses_remote_pushdown_fault(self, teleport_env):
        _platform, _process, ctx = teleport_env
        with pytest.raises(RemotePushdownFault):
            ctx.pushdown(lambda mctx: 1 / 0)

    def test_user_errors_never_trip_the_breaker(self, teleport_env):
        platform, process, ctx = teleport_env
        runtime = platform.teleport
        breaker = runtime.breaker_for(process)

        def buggy(mctx):
            raise ValueError("boom")

        for _ in range(platform.config.breaker_failure_threshold + 2):
            with pytest.raises(PushdownUserError):
                ctx.pushdown(buggy)
        assert breaker.state == "closed"
        assert breaker.failures == 0
        assert platform.stats.breaker_trips == 0
        assert platform.stats.breaker_short_circuits == 0
        # The pushdown path is still live (no silent local fallback).
        assert ctx.pushdown(lambda mctx: "ok") == "ok"
        assert platform.stats.pushdown_fallbacks == 0

    def test_simulation_errors_pass_through_unwrapped(self, teleport_env):
        _platform, _process, ctx = teleport_env

        def sim_bug(mctx):
            raise ReproError("simulation-level failure")

        with pytest.raises(ReproError) as excinfo:
            ctx.pushdown(sim_bug)
        assert not isinstance(excinfo.value, PushdownUserError)
