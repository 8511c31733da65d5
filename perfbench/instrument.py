"""Which functions of the simulator the traced run wraps, and as what.

Every span sits on a public function of one layer. Per-page calls are
aggregated; everything else becomes a coarse span with its own trace
event. Functions a later version of the program no longer has are skipped,
so the benchmark keeps running while its rollup shows the layer as idle.
"""

import numpy as np

from repro.db.executor import QueryExecutor
from repro.db.operators import Operator
from repro.db.table import Table
from repro.db.tpch import TpchDataset
from repro.ddc.context import ExecutionContext
from repro.ddc.kernels import ComputeKernel
from repro.ddc.platform import DdcPlatform, LocalPlatform, Platform, TeleportPlatform
from repro.ddc.process import Process
from repro.graph import GraphEngine
from repro.mapreduce import MapReduceEngine
from repro.mem.cache import PageCache
from repro.mem.page_table import PageTable
from repro.mem.region import Region
from repro.mem.storage import SwapDevice
from repro.serve.offload import OffloadController
from repro.serve.pool import PoolScheduler
from repro.serve.tenant import Server
from repro.sim.clock import VirtualClock
from repro.sim.config import DdcConfig
from repro.sim.network import Network
from repro.teleport.coherence import CoherenceProtocol
from repro.teleport.runtime import PushdownSession, TeleportRuntime

#: Per-page calls: rolled up per function, never one event each.
AGGREGATED = (
    ("mem", PageCache, ("get", "peek", "insert", "invalidate", "downgrade",
                        "mark_dirty", "dirty_vpns", "resident_items", "clear",
                        "__contains__")),
    ("mem", SwapDevice, ("admit_new", "touch", "touch_range", "drop",
                         "writeback_cost_ns", "__contains__")),
    ("mem", PageTable, ("get", "ensure", "map_range", "unmap_range", "clone",
                        "present_vpns", "dirty_vpns")),
    ("mem", Region, ("vpns_of_indices", "vpn_range_of_slice", "all_vpns")),
    ("sim", Network, ("message_ns", "roundtrip_ns", "pages_in_ns",
                      "pages_out_ns", "coherence_message_ns")),
    ("sim", DdcConfig, ("net_message_ns", "net_roundtrip_ns", "remote_fault_ns",
                        "page_writeback_ns", "ssd_fault_ns", "cpu_ns",
                        "page_list_message_bytes", "pages_of")),
    ("sim", VirtualClock, ("advance", "advance_to")),
    ("teleport", CoherenceProtocol, ("setup", "on_compute_fetch", "memory_touch",
                                     "compute_upgrade", "on_compute_evict",
                                     "boundary_sync", "finish")),
)

#: Calls made once per batch, operator, phase, request or allocation.
COARSE = (
    ("mem", Process, ("alloc_array", "alloc", "alloc_like", "free")),
    ("ddc", ExecutionContext, ("syncmem",)),
    ("ddc", Platform, ("__init__",)),
    ("ddc", LocalPlatform, ("__init__",)),
    ("ddc", DdcPlatform, ("__init__",)),
    ("ddc", TeleportPlatform, ("__init__",)),
    ("ddc", ComputeKernel, ("flush_dirty", "evict_all", "evict_regions")),
    ("teleport", TeleportRuntime, ("begin_session",)),
    ("teleport", PushdownSession, ("finish", "abandon")),
    ("db", QueryExecutor, ("execute",)),
    ("db", Table, ("create",)),
    ("db", TpchDataset, ("load_into",)),
    ("graph", GraphEngine, ("__init__", "finalize", "run_phase", "expand",
                            "alloc_state", "read_state", "write_state")),
    ("mapreduce", MapReduceEngine, ("__init__", "run")),
    ("serve", Server, ("__init__", "admit", "run")),
    ("serve", PoolScheduler, ("submit", "fire", "run_inline")),
    ("serve", OffloadController, ("decide",)),
)

#: The page-access methods: coarse spans that also count accesses.
ACCESS_METHODS = ("touch_seq", "touch_random", "touch_page", "touch_clustered")

#: Module prefix -> layer, for functions handed to ``pushdown``.
LAYER_OF_MODULE = (
    ("repro.db", "db"), ("repro.graph", "graph"),
    ("repro.mapreduce", "mapreduce"), ("repro.micro", "micro"),
    ("repro.serve", "serve"), ("repro.teleport", "teleport"),
    ("repro.ddc", "ddc"), ("repro.mem", "mem"), ("repro.sim", "sim"),
)


def layer_of(fn):
    module = getattr(fn, "__module__", None) or ""
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "bench"


def _operator_classes():
    pending = [Operator]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        yield cls


def install(tracer, patcher, entry_points):
    """Wrap every instrumented function; ``patcher.restore()`` undoes it.

    ``entry_points`` is a list of ``(layer, module, name)`` for the
    module-level functions the benchmark itself calls (generators,
    algorithms, ``run_micro``).
    """
    for layer, cls, names in AGGREGATED:
        for name in names:
            qualname = f"{cls.__name__}.{name}"
            patcher.replace(cls, name, lambda fn, layer=layer, q=qualname:
                            tracer.aggregated(layer, q, fn))
    for layer, cls, names in COARSE:
        for name in names:
            qualname = f"{cls.__name__}.{name}"
            patcher.replace(cls, name, lambda fn, layer=layer, q=qualname:
                            tracer.coarse(layer, q, fn))
    for cls in _operator_classes():
        patcher.replace(cls, "run", lambda fn, q=f"{cls.__name__}.run":
                        tracer.coarse("db", q, fn))
    for name in ACCESS_METHODS:
        patcher.replace(ExecutionContext, name, lambda fn, name=name:
                        tracer.coarse("ddc", f"ExecutionContext.{name}", fn,
                                      before=_access_counter(tracer, name)))
    patcher.replace(TeleportRuntime, "pushdown",
                    lambda fn: _traced_pushdown(tracer, fn))
    for layer, module, name in entry_points:
        patcher.replace(module, name, lambda fn, layer=layer, q=name:
                        tracer.coarse(layer, q, fn))


def _traced_pushdown(tracer, pushdown):
    """The pushdown span, with the user function as a child span of the
    layer that defined it, so ``teleport`` self time excludes it."""
    span = tracer.coarse("teleport", "TeleportRuntime.pushdown", pushdown)

    def wrapper(runtime, ctx, fn, *args, **kwargs):
        if not kwargs.get("verify") and not getattr(fn, "_perfbench_user", False):
            fn = tracer.coarse(layer_of(fn), getattr(fn, "__qualname__", "pushed"), fn)
            fn._perfbench_user = True
        return span(runtime, ctx, fn, *args, **kwargs)

    return wrapper


def _write_flag(args, kwargs, position):
    if len(args) > position:
        return bool(args[position])
    return bool(kwargs.get("write", False))


def _access_counter(tracer, method):
    """Counts the accesses one call of an access method passes to ``ddc``.

    Arguments follow ``ExecutionContext``: ``touch_seq(region, lo, hi,
    write)``, ``touch_random / touch_clustered(region, indices, write)``,
    ``touch_page(vpn, write)``.
    """
    counts = tracer.accesses

    def threshold(ctx):
        return getattr(ctx.config, "access_sample_threshold", None)

    if method == "touch_seq":
        def before(args, kwargs):
            _ctx, region, lo, hi = args[:4]
            if hi > lo:
                first = (lo * region.itemsize) // region.page_size
                last = ((hi - 1) * region.itemsize) // region.page_size
                counts.seq_pages += last - first + 1
        return before

    if method == "touch_page":
        def before(args, kwargs):
            limit = threshold(args[0])
            tracer.count_random(1, _write_flag(args, kwargs, 2),
                                limit is not None and 1 > limit)
        return before

    def before(args, kwargs):
        ctx, region, indices = args[:3]
        if method == "touch_clustered":
            pages = (np.asarray(indices, dtype=np.int64) * region.itemsize) // region.page_size
            n = int(np.count_nonzero(pages[1:] != pages[:-1])) + 1 if len(pages) else 0
        else:
            n = len(indices)
        limit = threshold(ctx)
        tracer.count_random(n, _write_flag(args, kwargs, 3),
                            limit is not None and n > limit)
    return before
