"""Differential tests: each pool's batch access loop against its per-page
reference.

The execution context charges page accesses through one batch loop per
pool (``SwapDevice.touch_batch``, ``ComputeKernel.touch_random_batch`` /
``touch_sequential`` and ``CoherenceProtocol.memory_touch_batch``). Each is
meant to be *exactly* a plain loop over that pool's per-page method
(``SwapDevice.touch``, ``ComputeKernel.touch_random`` plus its fault
helpers, ``CoherenceProtocol.memory_touch``) with the same DRAM-locality
accounting. Two identical platforms replay one random access stream, one
through the context and its loops, the other through the reference loops
below, and every observable must agree: clocks as floats, ``Stats``, cache
and memory-pool LRU order with dirty bits, the PTE bits of ``t_mm`` and of
the full table (into which ``finish`` merges dirty bits at the end), the
in-flight upgrade windows, tracer events and sanitizer checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc import make_platform
from repro.ddc.context import ExecutionContext
from repro.ddc.pool import Pool
from repro.ddc.thread import SimThread
from repro.errors import SanitizerViolation
from repro.sim.config import DdcConfig
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.flags import ConsistencyMode

PAGE = 4096
FLOATS_PER_PAGE = PAGE // 8
MAIN_PAGES = 16
LATE_PAGES = 4

#: A batch of (region, page numbers) with runs (a page repeated back to
#: back: DRAM row-buffer hits) of up to several hundred accesses, and
#: repeats. The loops charge a run's repeats in one step.
PAGES = st.tuples(
    st.sampled_from(["main", "late"]),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=MAIN_PAGES - 1),
            st.one_of(
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=4, max_value=400),
            ),
        ),
        min_size=1,
        max_size=12,
    ),
)

SEQ = st.tuples(
    st.integers(min_value=0, max_value=MAIN_PAGES - 1),
    st.integers(min_value=1, max_value=MAIN_PAGES),
)


def op_strategy(sides):
    random_op = st.tuples(st.just("random"), st.sampled_from(sides), st.booleans(), PAGES)
    seq_op = st.tuples(st.just("seq"), st.sampled_from(sides), st.booleans(), SEQ)
    return st.lists(st.one_of(random_op, seq_op), min_size=1, max_size=25)


# ----------------------------------------------------------------------
# The per-page reference
# ----------------------------------------------------------------------
def reference_random_cost(ctx, vpns, write):
    """``cost += <pool's per-page touch>; cost += DRAM by locality``."""
    config = ctx.config
    now = ctx.now
    cost = 0.0
    prev = None
    for vpn in vpns:  # numpy int64 scalars, not Python ints
        if ctx.pool is Pool.LOCAL:
            cost += ctx.platform.swap.touch(vpn, dirty=write)
        elif ctx.pool is Pool.COMPUTE:
            cost += ctx.compkernel.touch_random(ctx.memkernel, vpn, write, now + cost)
        else:
            cost += ctx.protocol.memory_touch(vpn, write, now + cost)
        cost += config.dram_line_ns if vpn == prev else config.dram_random_ns
        prev = vpn
    if ctx.pool is Pool.MEMORY:
        ctx.stats.memory_side_page_touches += len(vpns)
    return cost


def reference_seq_cost(ctx, start_vpn, npages, write):
    """Hits and upgrades page by page, misses one prefetch batch per
    ``_fetch``, upgrades judged at the caller's clock plus cost so far."""
    config = ctx.config
    now = ctx.now
    cost = 0.0
    if ctx.pool is Pool.LOCAL:
        cost = ctx.platform.swap.touch_range(start_vpn, npages, dirty=write)
    elif ctx.pool is Pool.COMPUTE:
        kernel = ctx.compkernel
        vpn = start_vpn
        end = start_vpn + npages
        while vpn < end:
            entry = kernel.cache.get(vpn)
            if entry is not None:
                if write and not entry.writable:
                    cost += kernel._upgrade(vpn, entry, now + cost)
                if write:
                    entry.dirty = True
                ctx.stats.cache_hits += 1
                vpn += 1
                continue
            batch = min(config.prefetch_degree, end - vpn)
            ctx.stats.cache_misses += 1
            cost += kernel._fetch(ctx.memkernel, vpn, batch, write)
            vpn += batch
    else:
        for vpn in range(start_vpn, start_vpn + npages):
            cost += ctx.protocol.memory_touch(vpn, write, now)
        ctx.stats.memory_side_page_touches += npages
    return cost + npages * config.dram_page_ns


# ----------------------------------------------------------------------
# Twin environments
# ----------------------------------------------------------------------
class Env:
    """One platform, its regions and one context per pool side."""

    def __init__(self, kind, config, mode, trace):
        self.platform = make_platform(kind, config)
        if trace:
            self.platform.tracer.enable()
        self.process = self.platform.new_process()
        self.main = self.process.alloc_array(
            "main", np.zeros(MAIN_PAGES * FLOATS_PER_PAGE)
        )
        ctx = self.platform.main_context(self.process)
        self.contexts = {"cpu": ctx}
        self.protocol = None
        if mode is not None:
            compute, memory = self.platform.kernels_for(self.process)
            # The pushdown finds pages 2-3 cached read-only and 4-5
            # writable and dirty.
            ctx.touch_seq(self.main, 0, 4 * FLOATS_PER_PAGE, write=False)
            ctx.touch_seq(self.main, 4 * FLOATS_PER_PAGE, 6 * FLOATS_PER_PAGE, write=True)
            self.protocol = CoherenceProtocol(self.platform, self.process, mode)
            self.protocol.setup(compute.resident_snapshot())
            compute.protocol = self.protocol
            # Both sides start at the caller's clock, so the compute side
            # can race the memory side's upgrades.
            thread = SimThread(
                self.process, name="t_mm", pool=Pool.MEMORY, start_ns=ctx.now
            )
            self.contexts["memory"] = ExecutionContext(
                self.platform, thread, memkernel=memory, compkernel=compute,
                protocol=self.protocol,
            )
        # Allocated after set-up: absent from t_mm, and on small pools it
        # displaces resident pages.
        self.late = self.process.alloc_array(
            "late", np.zeros(LATE_PAGES * FLOATS_PER_PAGE)
        )

    def indices(self, batch):
        """(region, element indices) of a drawn random batch."""
        name, runs = batch
        region = self.main if name == "main" else self.late
        pages_in_region = region.npages
        pages = [page % pages_in_region for page, length in runs for _ in range(length)]
        return region, np.asarray(pages, dtype=np.int64) * FLOATS_PER_PAGE

    def page_range(self, seq):
        """(start vpn, page count) of a drawn sequential pass over main."""
        start, npages = seq
        return self.main.start_vpn + start, min(npages, MAIN_PAGES - start)

    def swmr_checks(self):
        suite = self.platform.sanitizers
        return suite.swmr_checks if suite is not None else 0

    def state(self):
        platform = self.platform
        state = {
            "stats": platform.stats.as_dict(),
            "clocks": {side: ctx.now for side, ctx in self.contexts.items()},
            "events": list(platform.tracer.events),
        }
        if platform.kind == "local":
            swap = platform.swap
        else:
            compute, memory = platform.kernels_for(self.process)
            state["cache"] = [
                (vpn, entry.writable, entry.dirty)
                for vpn, entry in compute.cache.resident_items()
            ]
            swap = memory.pool
        state["swap"] = (list(swap.resident.items()), swap._last_fault_vpn)
        state["full_table"] = list(self.process.address_space.full_table.entries())
        if self.protocol is not None:
            protocol = self.protocol
            t_mm = protocol.t_mm
            state["t_mm"] = list(t_mm.entries()) if t_mm is not None else None
            state["upgrades"] = list(protocol._mem_upgrade_until.items())
            state["online_sync_ns"] = protocol.online_sync_ns
        return state


def run_engine(env, op, side, write, arg):
    """One drawn access batch through the execution context."""
    ctx = env.contexts[side]
    if op == "random":
        ctx.touch_random(*env.indices(arg), write)
    else:
        start_vpn, npages = env.page_range(arg)
        lo = (start_vpn - env.main.start_vpn) * FLOATS_PER_PAGE
        ctx.touch_seq(env.main, lo, lo + npages * FLOATS_PER_PAGE, write)


def run_reference(env, op, side, write, arg):
    """The same batch through the per-page reference loops."""
    ctx = env.contexts[side]
    if op == "random":
        region, indices = env.indices(arg)
        cost = reference_random_cost(ctx, region.vpns_of_indices(indices), write)
    else:
        cost = reference_seq_cost(ctx, *env.page_range(arg), write)
    ctx.charge_ns(cost)


def finish_pushdown(env):
    """End the pushdown: ``finish`` merges t_mm's dirty bits into the full
    table."""
    env.protocol.finish()


def checked(env, run, op):
    """Run one batch; (SWMR checks it made, sanitizer violation or None)."""
    before = env.swmr_checks()
    try:
        run(env, *op)
        violation = None
    except SanitizerViolation as exc:
        violation = str(exc)
    return env.swmr_checks() - before, violation


def replay(kind, config, ops, mode=None, trace=False):
    engine = Env(kind, config, mode, trace)
    reference = Env(kind, config, mode, trace)
    assert engine.state() == reference.state()
    for op in ops:
        outcome = checked(engine, run_engine, op)
        assert outcome == checked(reference, run_reference, op), op
        assert engine.state() == reference.state(), op
        if outcome[1] is not None:
            # Both sides raised the same violation at the same access.
            return
    if mode is not None:
        outcome = checked(engine, finish_pushdown, ())
        assert outcome == checked(reference, finish_pushdown, ())
        assert engine.state() == reference.state()


def config(spill=False, sanitize=False, line_ns=4.0, random_ns=100.0):
    """4-page compute cache and 6-page local DRAM for 20 pages of data; a
    10-page memory pool when ``spill`` is set."""
    return DdcConfig(
        page_size=PAGE,
        compute_cache_bytes=4 * PAGE,
        local_ram_bytes=6 * PAGE,
        memory_pool_bytes=(10 if spill else 64) * PAGE,
        dram_line_ns=line_ns,
        dram_random_ns=random_ns,
        sanitizers=sanitize,
    )


MODES = st.sampled_from(list(ConsistencyMode))

#: A row-buffer hit that is not a whole number of ns makes the loops add a
#: run's repeats one at a time.
LINE_NS = st.sampled_from([4.0, 3.7])


@given(
    ops=op_strategy(["cpu"]), trace=st.booleans(), sanitize=st.booleans(),
    line_ns=LINE_NS,
)
@settings(max_examples=100, deadline=None)
def test_local_loop_matches_swap_touch(ops, trace, sanitize, line_ns):
    replay("local", config(sanitize=sanitize, line_ns=line_ns), ops, trace=trace)


@given(
    ops=op_strategy(["cpu"]), spill=st.booleans(),
    trace=st.booleans(), sanitize=st.booleans(), line_ns=LINE_NS,
)
@settings(max_examples=150, deadline=None)
def test_compute_loops_match_touch_random(ops, spill, trace, sanitize, line_ns):
    replay("ddc", config(spill, sanitize, line_ns), ops, trace=trace)


@given(
    ops=op_strategy(["cpu", "memory"]), mode=MODES, spill=st.booleans(),
    trace=st.booleans(), sanitize=st.booleans(), line_ns=LINE_NS,
)
@settings(max_examples=300, deadline=None)
def test_pushdown_loops_match_per_page_methods(ops, mode, spill, trace, sanitize, line_ns):
    replay("teleport", config(spill, sanitize, line_ns), ops, mode=mode, trace=trace)


#: A DRAM latency of 100/3 ns starts a run at a fractional cost, which its
#: repeats carry across 64, 128 and 256. There one addition of the whole
#: span rounds differently from one addition per access.
FRACTIONAL_RANDOM_NS = 100 / 3
CROSSING_RUN = 64


@pytest.mark.parametrize(
    "kind, side", [("local", "cpu"), ("ddc", "cpu"), ("teleport", "memory")]
)
def test_run_carries_fractional_cost_across_power_of_two(kind, side):
    cfg = config(random_ns=FRACTIONAL_RANDOM_NS)
    stepwise = FRACTIONAL_RANDOM_NS
    for _ in range(CROSSING_RUN - 1):
        stepwise += cfg.dram_line_ns
    assert stepwise != FRACTIONAL_RANDOM_NS + (CROSSING_RUN - 1) * cfg.dram_line_ns
    mode = ConsistencyMode.MESI if kind == "teleport" else None
    engine = Env(kind, cfg, mode, trace=False)
    reference = Env(kind, cfg, mode, trace=False)
    # The first batch makes page 10 resident or cached, so the run's head
    # is a plain hit worth the fractional DRAM latency. The costs are
    # compared directly: added to a clock far from 0, a one-ulp difference
    # would be rounded away.
    warm_up = ("random", side, False, ("main", [(10, 1)]))
    run_engine(engine, *warm_up)
    run_reference(reference, *warm_up)
    region, indices = engine.indices(("main", [(10, CROSSING_RUN)]))
    vpns = region.vpns_of_indices(indices)
    cost = engine.contexts[side]._random_cost(vpns, False)
    assert cost == reference_random_cost(reference.contexts[side], vpns, False)
    assert engine.state() == reference.state()


#: Fixed streams that reach every rare transition under MESI. With the
#: memory pool large enough: memory-side downgrades and write upgrades of
#: cached pages, dirty victims, pages absent from t_mm, and compute write
#: upgrades racing the memory side's (whose clock runs ahead). The random
#: write upgrade of page 3 comes after a miss that carries it past page 3's
#: upgrade window, so it wins only if judged at ``now`` plus the cost so
#: far; the sequential one of page 2 loses the tie-break.
COHERENCE_PATHS = [
    ("seq", "memory", False, (0, 16)),
    ("random", "memory", True, ("main", [(3, 1), (4, 2), (5, 1), (2, 1)])),
    ("random", "cpu", False, ("main", [(2, 1), (3, 1)])),
    ("random", "cpu", True, ("main", [(7, 1), (3, 1)])),
    ("seq", "cpu", True, (2, 1)),
    ("random", "cpu", True, ("main", [(9, 1), (10, 1), (11, 2), (12, 1), (13, 1)])),
    ("random", "memory", False, ("late", [(0, 1), (3, 1)])),
    ("random", "cpu", False, ("main", [(0, 3), (1, 1), (15, 1)])),
]

#: With a spilling pool: storage faults on both sides, one page at a time
#: and in prefetch batches, on pages the compute pool does not cache.
SPILL_PATHS = [
    ("seq", "memory", True, (6, 10)),
    ("random", "cpu", True, ("main", [(0, 1), (9, 2), (14, 1)])),
    ("seq", "cpu", False, (10, 4)),
    ("random", "memory", False, ("late", [(1, 2)])),
]

STREAMS = {"coherence": (False, COHERENCE_PATHS), "spill": (True, SPILL_PATHS)}


def test_fixed_streams_reach_every_transition():
    stats = {}
    for name, (spill, ops) in STREAMS.items():
        env = Env("teleport", config(spill), ConsistencyMode.MESI, trace=False)
        for op in ops:
            run_engine(env, *op)
        stats[name] = env.platform.stats
    assert stats["coherence"].coherence_tiebreaks == 1
    assert stats["coherence"].coherence_invalidations > 0
    assert stats["coherence"].coherence_downgrades > 0
    assert stats["coherence"].dirty_writebacks > 0
    assert stats["spill"].storage_faults > 0
    assert stats["spill"].storage_pages_out > 0


@pytest.mark.parametrize("mode", list(ConsistencyMode))
@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("sanitize", [False, True])
def test_fixed_streams_match_reference(mode, stream, trace, sanitize):
    spill, ops = STREAMS[stream]
    replay("teleport", config(spill, sanitize), ops, mode=mode, trace=trace)
