"""Platforms: monolithic Linux, base DDC, and TELEPORT.

A platform wires together the hardware cost model (config + network +
stats) and the OS components, creates processes/threads, and hands
application code :class:`~repro.ddc.context.ExecutionContext` objects.
"""

from repro.analysis.sanitizers import suite_for
from repro.ddc.context import ExecutionContext
from repro.ddc.kernels import ComputeKernel, MemoryKernel
from repro.ddc.pool import Pool
from repro.ddc.process import Process
from repro.ddc.thread import SimThread
from repro.errors import ConfigError
from repro.mem.storage import SwapDevice
from repro.sim.config import DdcConfig
from repro.sim.network import Network
from repro.sim.stats import Stats
from repro.sim.trace import Tracer


class Platform:
    """Base class for the three execution platforms."""

    kind = "abstract"

    def __init__(self, config=None):
        self.config = config or DdcConfig()
        self.stats = Stats()
        self.network = Network(self.config, self.stats)
        #: Opt-in structured event recording (see repro.sim.trace).
        self.tracer = Tracer()
        #: Runtime invariant sanitizers (repro.analysis.sanitizers):
        #: the process-wide suite under ``pytest --sanitize``, a private
        #: suite when ``config.sanitizers`` is set, else None.
        self.sanitizers = suite_for(self.config)

    def new_process(self):
        return Process(self)

    def spawn_thread(self, process, name=None, start_ns=0.0):
        thread = SimThread(process, name=name, pool=self._thread_pool(), start_ns=start_ns)
        process.threads.append(thread)
        return thread

    def context_for(self, thread):
        raise NotImplementedError

    def on_alloc(self, process, region):
        """Hook called when a process allocates a region."""

    def on_free(self, process, region):
        """Hook called when a process frees a region."""

    def _thread_pool(self):
        raise NotImplementedError

    def main_context(self, process=None, name="main"):
        """Convenience: spawn a fresh main thread and return its context."""
        if process is None:
            process = self.new_process()
        thread = self.spawn_thread(process, name=name)
        return self.context_for(thread)


class LocalPlatform(Platform):
    """Monolithic Linux baseline: all memory local, SSD swap beyond DRAM."""

    kind = "local"

    def __init__(self, config=None):
        super().__init__(config)
        self.swap = SwapDevice(self.config, self.stats, self.config.local_ram_pages)

    def _thread_pool(self):
        return Pool.LOCAL

    def on_alloc(self, process, region):
        self.swap.admit_new_range(region.start_vpn, region.npages)

    def on_free(self, process, region):
        self.swap.drop_range(region.start_vpn, region.npages)

    def context_for(self, thread):
        return ExecutionContext(self, thread)


class DdcPlatform(Platform):
    """Base disaggregated OS (LegoOS-like): paging over the fabric, no pushdown."""

    kind = "ddc"

    def __init__(self, config=None):
        super().__init__(config)
        self._kernels = {}

    def _thread_pool(self):
        return Pool.COMPUTE

    def kernels_for(self, process):
        """The (compute, memory) kernel pair managing one process."""
        pair = self._kernels.get(process.pid)
        if pair is None:
            pair = (ComputeKernel(self, process), MemoryKernel(self, process))
            self._kernels[process.pid] = pair
        return pair

    def on_alloc(self, process, region):
        _compute, memory = self.kernels_for(process)
        memory.on_alloc(region)

    def on_free(self, process, region):
        compute, memory = self.kernels_for(process)
        compute.on_free(region)
        memory.on_free(region)

    def context_for(self, thread):
        compute, memory = self.kernels_for(thread.process)
        return ExecutionContext(self, thread, memkernel=memory, compkernel=compute)


class TeleportPlatform(DdcPlatform):
    """Base DDC plus the TELEPORT runtime (``ctx.pushdown`` works)."""

    kind = "teleport"

    def __init__(self, config=None):
        super().__init__(config)
        # Imported here to avoid a circular import at module load time:
        # repro.teleport builds on repro.ddc.
        from repro.teleport.runtime import TeleportRuntime

        self.teleport = TeleportRuntime(self)

    def inject_faults(self, plan):
        """Arm a :class:`~repro.faults.plan.FaultPlan` on this platform.

        Returns the :class:`~repro.faults.injector.FaultInjector` so tests
        and experiments can inspect per-kind injection counts.
        """
        return self.teleport.install_faults(plan)


_PLATFORMS = {
    "local": LocalPlatform,
    "ddc": DdcPlatform,
    "teleport": TeleportPlatform,
}


def make_platform(kind, config=None):
    """Factory: ``kind`` is one of 'local', 'ddc', 'teleport'."""
    try:
        cls = _PLATFORMS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown platform kind {kind!r}; expected one of {sorted(_PLATFORMS)}"
        ) from None
    return cls(config)
