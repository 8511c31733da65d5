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

``touch_sequential`` has a closed form for a pass that caches none of its
pages, finds all of them in pool DRAM and runs with no protocol attached;
the draws vary the cache capacity, the prefetch degree and the cache's
starting contents around it, and fixed cases at the end pin its edges and
the passes that must fall back to the loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc import make_platform
from repro.ddc.context import ExecutionContext
from repro.ddc.kernels import ComputeKernel
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


#: Cache contents before the stream: one-page touches of main, a write
#: leaving its page dirty. Empty draws start cold.
PREFILL = st.lists(
    st.tuples(st.integers(min_value=0, max_value=MAIN_PAGES - 1), st.booleans()),
    max_size=10,
)

#: Compute caches below, at and above the default prefetch degree, and
#: degrees that do and do not divide them.
CAPACITY = st.sampled_from([1, 4, 9])
DEGREE = st.sampled_from([1, 3, 8])


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

    def __init__(self, kind, config, mode, trace, prefill=(), main_pages=MAIN_PAGES):
        self.platform = make_platform(kind, config)
        if trace:
            self.platform.tracer.enable()
        self.process = self.platform.new_process()
        self.main = self.process.alloc_array(
            "main", np.zeros(main_pages * FLOATS_PER_PAGE)
        )
        ctx = self.platform.main_context(self.process)
        self.contexts = {"cpu": ctx}
        for page, write in prefill:
            ctx.touch_random(self.main, np.array([page * FLOATS_PER_PAGE]), write)
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
        return self.main.start_vpn + start, min(npages, self.main.npages - start)

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


def replay(kind, config, ops, mode=None, trace=False, prefill=()):
    engine = Env(kind, config, mode, trace, prefill)
    reference = Env(kind, config, mode, trace, prefill)
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


def config(
    spill=False, sanitize=False, line_ns=4.0, random_ns=100.0, capacity=4, degree=8,
    **overrides,
):
    """``capacity``-page compute cache (4 by default) and 6-page local DRAM
    for 20 pages of data; a 10-page memory pool when ``spill`` is set."""
    fields = dict(
        page_size=PAGE,
        compute_cache_bytes=capacity * PAGE,
        local_ram_bytes=6 * PAGE,
        memory_pool_bytes=(10 if spill else 64) * PAGE,
        dram_line_ns=line_ns,
        dram_random_ns=random_ns,
        prefetch_degree=degree,
        sanitizers=sanitize,
    )
    return DdcConfig(**{**fields, **overrides})


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
    ops=op_strategy(["cpu"]), spill=st.booleans(), trace=st.booleans(),
    sanitize=st.booleans(), line_ns=LINE_NS, capacity=CAPACITY, degree=DEGREE,
    prefill=PREFILL,
)
@settings(max_examples=150, deadline=None)
def test_compute_loops_match_touch_random(
    ops, spill, trace, sanitize, line_ns, capacity, degree, prefill
):
    cfg = config(spill, sanitize, line_ns, capacity=capacity, degree=degree)
    replay("ddc", cfg, ops, trace=trace, prefill=prefill)


@given(
    ops=op_strategy(["cpu", "memory"]), mode=MODES, spill=st.booleans(),
    trace=st.booleans(), sanitize=st.booleans(), line_ns=LINE_NS,
    capacity=CAPACITY, degree=DEGREE, prefill=PREFILL,
)
@settings(max_examples=300, deadline=None)
def test_pushdown_loops_match_per_page_methods(
    ops, mode, spill, trace, sanitize, line_ns, capacity, degree, prefill
):
    cfg = config(spill, sanitize, line_ns, capacity=capacity, degree=degree)
    replay("teleport", cfg, ops, mode=mode, trace=trace, prefill=prefill)


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


# ----------------------------------------------------------------------
# touch_sequential's closed form: its edges and its fall-backs
# ----------------------------------------------------------------------
@pytest.fixture
def closed_forms(monkeypatch):
    """Records every pass that takes ``ComputeKernel._stream_uncached``."""
    calls = []
    stream_uncached = ComputeKernel._stream_uncached

    def recording(kernel, in_pool, vpns, write):
        calls.append(vpns)
        return stream_uncached(kernel, in_pool, vpns, write)

    monkeypatch.setattr(ComputeKernel, "_stream_uncached", recording)
    return calls


def twins(cfg, prefill=(), mode=None, main_pages=MAIN_PAGES):
    """Engine and reference environments, alike at the start."""
    kind = "ddc" if mode is None else "teleport"
    return tuple(Env(kind, cfg, mode, False, prefill, main_pages) for _ in range(2))


def check_pass(engine, reference, start, npages, write):
    """One compute-side pass through the engine and through the reference.
    The costs are compared directly, since a clock far from 0 could round
    a one-ulp difference away, then every observable is."""
    vpn = engine.main.start_vpn + start
    ctx, ref_ctx = engine.contexts["cpu"], reference.contexts["cpu"]
    cost = ctx._seq_cost(vpn, npages, write)
    expected = reference_seq_cost(ref_ctx, vpn, npages, write)
    assert cost == expected
    ctx.charge_ns(cost)
    ref_ctx.charge_ns(expected)
    assert engine.state() == reference.state()


#: Pages 12-15 cached, oldest first, dirty and clean in turn.
MIXED = ((12, True), (13, False), (14, True), (15, False))


@pytest.mark.parametrize("capacity, degree", [(4, 3), (9, 8), (4, 1)])
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("prefill", [(), MIXED], ids=["cold", "mixed"])
@pytest.mark.parametrize("write", [False, True])
def test_closed_form_pass_around_capacity(
    closed_forms, capacity, degree, offset, prefill, write
):
    """Passes of capacity - 1, capacity and capacity + 1 pages. From the
    mixed cache some old entries survive, all leave, or all leave and the
    pass's own first page with them."""
    engine, reference = twins(config(capacity=capacity, degree=degree), prefill)
    check_pass(engine, reference, 0, capacity + offset, write)
    assert len(closed_forms) == 1


@pytest.mark.parametrize("write", [False, True])
def test_closed_form_over_dirty_residents(closed_forms, write):
    """A 14-page pass (not a multiple of the degree 3) after dirty
    residents: old dirty victims, then on a write pass its own pages."""
    dirty = [(page, True) for page in range(14, 16)] + [(15, False)]
    engine, reference = twins(config(capacity=4, degree=3), dirty)
    check_pass(engine, reference, 0, 14, write)
    check_pass(engine, reference, 0, 14, not write)
    assert len(closed_forms) == 1


@pytest.mark.parametrize(
    "capacity, degree, prefill",
    [(4, 3, MIXED[2:]), (9, 8, ()), (9, 3, MIXED[:1])],
    ids=["old-victim", "cold", "after-one"],
)
def test_closed_form_first_eviction_mid_batch(closed_forms, capacity, degree, prefill):
    """The first eviction falls inside a prefetch batch, so one batch's
    fault carries write-backs for only some of its pages."""
    assert (capacity - len(prefill)) % degree != 0
    engine, reference = twins(config(capacity=capacity, degree=degree), prefill)
    check_pass(engine, reference, 0, 12, True)
    assert len(closed_forms) == 1


#: 400 pages in 134 batches, with a fault software cost that is not a whole
#: number of ns: every addition of a batch fault rounds.
LONG_PAGES = 400


def test_closed_form_far_clock_fractional_costs(closed_forms):
    """Many fractional batch faults, a clock far from 0, and write-backs
    in every batch: only the loop's own order of additions gives its float.
    The sequence is long enough that a correctly rounded sum differs."""
    cfg = config(
        capacity=9, degree=3, fault_software_ns=2500 / 3,
        memory_pool_bytes=2 * LONG_PAGES * PAGE,
    )
    prefill = [(page, page % 2 == 0) for page in range(LONG_PAGES - 9, LONG_PAGES)]
    engine, reference = twins(cfg, prefill, main_pages=LONG_PAGES)
    for env in (engine, reference):
        env.contexts["cpu"].charge_ns(2.0**40 / 3)
    check_pass(engine, reference, 0, LONG_PAGES - 9, True)
    # Disjoint from the 9 pages the first pass left cached.
    check_pass(engine, reference, 0, LONG_PAGES - 18, False)
    assert len(closed_forms) == 2
    faults = [cfg.remote_fault_ns(3) + cfg.page_writeback_ns(1)] * (LONG_PAGES // 3)
    loop_sum = 0.0
    for fault in faults:
        loop_sum += fault
    assert loop_sum != math.fsum(faults)


def test_fall_back_on_cached_page(closed_forms):
    """The pass's last page is cached: the loop serves it as a hit."""
    engine, reference = twins(config(capacity=4, degree=3), [(10, True)])
    check_pass(engine, reference, 0, 11, False)
    assert closed_forms == []


def test_fall_back_on_spilled_page(closed_forms):
    """Main pages 2-11 spilled from the 10-page pool: a pass over 0-2
    finds 0 and 1 resident and uncached and its last page spilled. A pass
    over resident pages of the same pool takes the closed form."""
    ops = [
        ("random", "cpu", False, ("main", [(0, 1)])),
        ("random", "cpu", False, ("main", [(1, 1)])),
        ("random", "cpu", False, ("late", [(0, 1)])),
    ]
    engine, reference = twins(config(spill=True, capacity=1, degree=3))
    for op in ops:
        run_engine(engine, *op)
        run_reference(reference, *op)
    # Main pages 12-15 were allocated last and are still resident.
    check_pass(engine, reference, 12, 4, True)
    assert len(closed_forms) == 1
    _compute, memory = engine.platform.kernels_for(engine.process)
    start = engine.main.start_vpn
    assert [start + page in memory.pool for page in range(3)] == [True, True, False]
    check_pass(engine, reference, 0, 3, True)
    assert len(closed_forms) == 1


def test_fall_back_with_protocol_attached(closed_forms):
    """During a pushdown the compute side's pass over uncached, resident
    pages runs the coherence hooks page by page."""
    engine, reference = twins(config(capacity=4, degree=3), mode=ConsistencyMode.MESI)
    compute, _memory = engine.platform.kernels_for(engine.process)
    start = engine.main.start_vpn
    assert all(start + page not in compute.cache for page in range(8, 16))
    # The set-up's passes ran before the protocol was attached.
    set_up = len(closed_forms)
    check_pass(engine, reference, 8, 8, True)
    assert len(closed_forms) == set_up
    engine.protocol.finish()
    reference.protocol.finish()
    assert engine.state() == reference.state()
