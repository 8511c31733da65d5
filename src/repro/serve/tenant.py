"""The session/tenant manager: many clients, one disaggregated platform.

A :class:`Server` admits concurrent tenants — each a workload generator
with its own process, thread, and virtual clock — onto one shared
platform, and drives them with the deterministic serving scheduler. Every
request a tenant yields passes through the adaptive offload controller
(push down vs run compute-local) and, when pushed, through the memory
pool's admission queue; completion latencies are recorded per request on
the virtual clock.

Usage::

    server = Server(config, offload=OffloadPolicy.ADAPTIVE,
                    queue_policy=QueuePolicy.FAIR)
    server.admit("sql-hot", sql_workload(...), arrival_ns=0, weight=2.0)
    server.admit("graph-cold", graph_workload(...), arrival_ns=1e6)
    report = server.run()
    print(report.latency_table())
"""

from repro.ddc.platform import make_platform
from repro.errors import ConfigError, ReproError
from repro.serve.offload import OffloadController, OffloadPolicy, OffloadRequest
from repro.serve.pool import PoolScheduler, QueuedRequest, QueuePolicy
from repro.serve.scheduler import Scheduler, Task
from repro.sim.stats import p50 as _p50, p99 as _p99


class RequestRecord:
    """Latency record of one completed serving request."""

    __slots__ = ("name", "tenant", "arrival_ns", "completed_ns", "pushed")

    def __init__(self, name, tenant, arrival_ns, completed_ns, pushed):
        self.name = name
        self.tenant = tenant
        self.arrival_ns = arrival_ns
        self.completed_ns = completed_ns
        self.pushed = pushed

    @property
    def latency_ns(self):
        return self.completed_ns - self.arrival_ns

    def __repr__(self):
        return (
            f"RequestRecord({self.tenant}/{self.name}, "
            f"{self.latency_ns / 1e6:.3f}ms, {'pushed' if self.pushed else 'local'})"
        )


class Tenant:
    """One admitted client: its process, context, share, and records."""

    __slots__ = (
        "name", "ctx", "task", "share", "records",
        "arrival_ns", "finished_ns",
    )

    def __init__(self, name, ctx, arrival_ns):
        self.name = name
        self.ctx = ctx
        self.task = None
        self.share = None
        self.records = []
        self.arrival_ns = arrival_ns
        self.finished_ns = None

    @property
    def completion_ns(self):
        """Time from this tenant's arrival to its last request finishing."""
        if self.finished_ns is None:
            raise ReproError(f"tenant {self.name!r} has not finished")
        return self.finished_ns - self.arrival_ns


class Server:
    """Admits tenants onto one shared platform and runs them to completion."""

    def __init__(self, config=None, kind="teleport",
                 offload=OffloadPolicy.ADAPTIVE,
                 queue_policy=QueuePolicy.FIFO):
        if kind not in ("ddc", "teleport"):
            raise ConfigError(
                f"serving needs a disaggregated platform, not {kind!r}"
            )
        self.platform = make_platform(kind, config)
        self.config = config = self.platform.config
        self.pool = None
        if kind == "teleport":
            # Serving concurrency is config.teleport_instances: the
            # admission queue dispatches onto the RPC server's instances.
            self.pool = PoolScheduler(self.platform, policy=queue_policy)
        self.controller = OffloadController(config, policy=offload)
        self.scheduler = Scheduler(
            effect_handler=self._handle_effect, event_source=self.pool
        )
        self.tenants = []
        self._ran = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, name, workload, arrival_ns=0.0, weight=1.0, priority=0):
        """Admit a tenant.

        ``workload(ctx)`` is called now (setup runs on the tenant's own
        clock) and must return a generator that yields
        :class:`~repro.serve.offload.OffloadRequest` effects, one per
        serving request. Returns the :class:`Tenant`.
        """
        if self._ran:
            raise ReproError("server already ran; admit tenants before run()")
        if any(t.name == name for t in self.tenants):
            raise ConfigError(f"tenant {name!r} already admitted")
        ctx = self.platform.main_context(name=name)
        ctx.serve_tenant = name  # PoolScheduler.share_for keys on this
        tenant = Tenant(name, ctx, float(arrival_ns))
        if self.pool is not None:
            tenant.share = self.pool.register(name, weight=weight,
                                              priority=priority)
        gen = workload(ctx)
        tenant.task = self.scheduler.add(Task(
            name, ctx.thread.clock, gen, arrival_ns=arrival_ns,
            on_complete=self._tenant_done, payload=tenant,
        ))
        self.tenants.append(tenant)
        return tenant

    def _tenant_done(self, task, at_ns):
        task.payload.finished_ns = at_ns

    # ------------------------------------------------------------------
    # The offload decision, applied per yielded request
    # ------------------------------------------------------------------
    def _handle_effect(self, scheduler, task, effect):
        """Route one yielded effect: a request, or a batch of them.

        A single :class:`OffloadRequest` resumes the task with its bare
        result. A list/tuple is a fork-join batch — every member is
        decided and (when pushed) queued concurrently, and the task
        resumes with the list of results once the whole batch completes.
        Batches are what give a tenant more than one outstanding request,
        so they are where queueing policies genuinely reorder work.
        """
        is_batch = isinstance(effect, (list, tuple))
        batch = list(effect) if is_batch else [effect]
        if not batch:
            raise ReproError(f"tenant {task.name!r} yielded an empty batch")
        tenant = task.payload
        ctx = tenant.ctx
        results = [None] * len(batch)
        state = {"pending": 0, "failed": False}

        def deliver():
            scheduler.resume(task, results if is_batch else results[0])

        def make_done(index, request):
            def done(queued, result, error):
                if error is not None:
                    if not state["failed"]:
                        # First failure wakes the task; siblings still in
                        # flight complete silently afterwards.
                        state["failed"] = True
                        scheduler.throw(task, error)
                    return
                results[index] = result
                self._record(tenant, request, queued.completed_ns)
                state["pending"] -= 1
                if state["pending"] == 0 and not state["failed"]:
                    deliver()
            return done

        for index, request in enumerate(batch):
            if not isinstance(request, OffloadRequest):
                raise ReproError(
                    f"tenant {task.name!r} yielded {request!r}; serving "
                    "tasks must yield OffloadRequest effects (or batches)"
                )
            request.arrival_ns = ctx.now
            push = self.controller.decide(ctx, request, self.pool)
            request.pushed = push
            if not push:
                results[index] = request.fn(ctx, *request.args)
                self._record(tenant, request, ctx.now)
                continue
            state["pending"] += 1
            queued = QueuedRequest(
                task, ctx, request.fn, request.args, request.options,
                tenant.share, request.name,
            )
            queued.resume_task = False
            queued.on_complete = make_done(index, request)
            self.pool.submit(scheduler, queued)
        if state["pending"] == 0:
            deliver()

    def _record(self, tenant, effect, completed_ns):
        effect.completed_ns = completed_ns
        tenant.records.append(RequestRecord(
            effect.name, tenant.name, effect.arrival_ns, completed_ns,
            effect.pushed,
        ))

    # ------------------------------------------------------------------
    # Running and reporting
    # ------------------------------------------------------------------
    def run(self):
        """Drive every tenant to completion; returns a :class:`ServeReport`."""
        if self._ran:
            raise ReproError("server already ran")
        self._ran = True
        if not self.tenants:
            raise ConfigError("no tenants admitted")
        self.scheduler.run()
        return ServeReport(self)


class ServeReport:
    """Throughput, latency percentiles, and accounting of one serving run."""

    def __init__(self, server):
        self.server = server
        self.tenants = list(server.tenants)
        self.records = [
            record for tenant in self.tenants for record in tenant.records
        ]
        self.makespan_ns = max(
            (t.finished_ns for t in self.tenants if t.finished_ns is not None),
            default=0.0,
        )
        #: Sum over tenants of (finish - arrival): the benchmark's headline.
        self.total_completion_ns = sum(t.completion_ns for t in self.tenants)
        self.pushed = sum(1 for r in self.records if r.pushed)
        self.kept_local = len(self.records) - self.pushed

    @property
    def throughput_rps(self):
        """Completed requests per simulated second."""
        if self.makespan_ns <= 0:
            return 0.0
        return len(self.records) / (self.makespan_ns / 1e9)

    def latencies_ns(self, tenant=None):
        return [
            r.latency_ns for r in self.records
            if tenant is None or r.tenant == tenant
        ]

    def latency_table(self):
        """Deterministic per-tenant latency table (byte-stable across runs)."""
        lines = [
            f"{'tenant':<14} {'n':>4} {'pushed':>6} {'p50_ms':>12} "
            f"{'p99_ms':>12} {'mean_ms':>12} {'total_ms':>12}"
        ]
        for tenant in self.tenants:
            latencies = self.latencies_ns(tenant.name)
            if not latencies:
                continue
            pushed = sum(1 for r in tenant.records if r.pushed)
            lines.append(
                f"{tenant.name:<14} {len(latencies):>4} {pushed:>6} "
                f"{_p50(latencies) / 1e6:>12.6f} {_p99(latencies) / 1e6:>12.6f} "
                f"{sum(latencies) / len(latencies) / 1e6:>12.6f} "
                f"{tenant.completion_ns / 1e6:>12.6f}"
            )
        lines.append(
            f"{'ALL':<14} {len(self.records):>4} {self.pushed:>6} "
            f"{_p50(self.latencies_ns()) / 1e6:>12.6f} "
            f"{_p99(self.latencies_ns()) / 1e6:>12.6f} "
            f"{sum(self.latencies_ns()) / len(self.records) / 1e6:>12.6f} "
            f"{self.total_completion_ns / 1e6:>12.6f}"
        )
        return "\n".join(lines) + "\n"

    def queue_delays_ns(self):
        """Per-tenant queueing delay charged by the pool scheduler."""
        pool = self.server.pool
        if pool is None:
            return {}
        return {
            name: share.queue_delay_ns for name, share in pool.shares.items()
        }
