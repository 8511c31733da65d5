"""The memory-pool admission queue: policies and per-tenant accounting.

The paper's runtime serialises concurrent pushdowns in the memory pool's
RPC workqueue (Section 3.2, Figure 17); under serving load that contention
is the first-order effect (Figures 21-22 and DRackSim both turn on it).
This module puts an admission queue in front of that workqueue:

* **execution slots are TELEPORT instances** — the scheduler owns no
  instance state. It dispatches when the runtime's
  :class:`~repro.teleport.rpc.RpcServer` has a free instance, so serving
  concurrency is ``config.teleport_instances`` (1 by default, the
  paper's); a pushdown holds its instance from dispatch until its
  memory-side execution ends;
* **an admission queue** — a ``pushdown()`` that finds no free instance
  queues in virtual time instead of executing instantly; queueing delay
  is charged to the caller's virtual clock and accounted per tenant;
* **pluggable policies** — FIFO, weighted fair share (least attained
  normalised service first), and strict priority decide which queued
  request a freed instance serves next;
* **trace visibility** — enqueue/dispatch/cancel/complete events of kind
  ``"sched"`` when tracing is enabled.

Two paths feed the queue. Tenant workloads driven by the serving
:class:`~repro.serve.scheduler.Scheduler` submit requests and park until
a dispatch event resumes them — there the policies genuinely reorder,
because every request arriving before a dispatch instant is already
queued when the dispatch fires. Direct ``ctx.pushdown`` calls from engine
internals take the synchronous path: they wait for the earliest free
instance (FIFO in virtual time), since a synchronous caller cannot be
overtaken retroactively. Both paths share the dispatch and cancellation
code; only the delivery of the outcome differs (resume/throw a parked
task versus return/raise).

Requests that fail *while queued* take the runtime's recovery paths: an
expired ``timeout_ns`` follows the caller's :class:`TimeoutAction` (raise
with ``cancelled=True``, or automatic local fallback) and counts toward
the per-process circuit breaker; a memory-pool panic surfaces as
:class:`~repro.errors.KernelPanic` at the would-be dispatch, after the
runtime has released every coherence protocol.
"""

import dataclasses
import enum

from repro.errors import ConfigError, PushdownTimeout, ReproError
from repro.teleport.flags import TimeoutAction


def _remaining_timeout(options, waited_ns):
    """The caller's timeout budget net of the queueing delay already paid.

    A request that waited in the admission queue must not get a fresh
    full timeout at dispatch — the deadline is measured from submission.
    """
    if options is None or options.timeout_ns is None or waited_ns <= 0:
        return options
    return dataclasses.replace(
        options, timeout_ns=max(0.0, options.timeout_ns - waited_ns)
    )


class QueuePolicy(enum.Enum):
    """How the admission queue orders dispatches."""

    #: First come, first served (by arrival time, then submission order).
    FIFO = "fifo"
    #: Weighted fair share: dispatch the eligible request of the tenant
    #: with the least attained service normalised by weight.
    FAIR = "fair"
    #: Strict priority: higher ``priority`` always dispatches first; FIFO
    #: within a priority level.
    PRIORITY = "priority"


class TenantShare:
    """Per-tenant scheduling state and accounting."""

    __slots__ = (
        "name", "weight", "priority",
        "submitted", "dispatched", "completed", "cancelled",
        "queue_delay_ns", "service_ns",
    )

    def __init__(self, name, weight=1.0, priority=0):
        if weight <= 0:
            raise ConfigError(f"tenant {name!r}: weight must be positive")
        self.name = name
        self.weight = float(weight)
        self.priority = int(priority)
        self.submitted = 0
        self.dispatched = 0
        self.completed = 0
        self.cancelled = 0
        #: Total virtual time this tenant's requests spent queued.
        self.queue_delay_ns = 0.0
        #: Total TELEPORT instance time this tenant consumed.
        self.service_ns = 0.0

    def __repr__(self):
        return (
            f"TenantShare({self.name!r}, weight={self.weight}, "
            f"service={self.service_ns:.0f}ns)"
        )


class QueuedRequest:
    """One pushdown waiting in (or flowing through) the admission queue.

    ``task`` is None for a synchronous ``pushdown()`` call, which returns
    or raises its outcome instead of parking a task.
    """

    __slots__ = (
        "task", "ctx", "fn", "args", "options", "share", "name",
        "arrival_ns", "dispatched_ns", "completed_ns", "seq",
        "on_complete", "resume_task",
    )

    def __init__(self, task, ctx, fn, args, options, share, name):
        self.task = task
        self.ctx = ctx
        self.fn = fn
        self.args = tuple(args)
        self.options = options
        self.share = share
        self.name = name
        self.arrival_ns = ctx.now
        self.dispatched_ns = None
        self.completed_ns = None
        self.seq = -1  # assigned by the pool; deterministic tie-break
        #: Optional hook ``on_complete(request, result, error)`` fired at
        #: completion, fallback, or failure.
        self.on_complete = None
        #: When False the pool leaves task resumption entirely to
        #: ``on_complete`` — a task with several in-flight requests
        #: (batch submission) resumes only when the whole batch is done.
        self.resume_task = True

    def expiry_ns(self):
        """When this request's queued wait times out (None: never)."""
        options = self.options
        if options is None or options.timeout_ns is None:
            return None
        if options.on_timeout is TimeoutAction.WAIT:
            return None
        return self.arrival_ns + options.timeout_ns


class PoolScheduler:
    """Admission queue in front of one memory pool's TELEPORT instances.

    Installs itself on the platform's TELEPORT runtime; from then on every
    ``pushdown()`` waits for a free instance. Acts as the serving
    scheduler's event source: ``next_event_ns``/``fire`` interleave queue
    dispatches with tenant task steps in virtual-time order.
    """

    def __init__(self, platform, policy=QueuePolicy.FIFO):
        runtime = getattr(platform, "teleport", None)
        if runtime is None:
            raise ConfigError(
                f"platform kind {platform.kind!r} has no TELEPORT runtime to schedule"
            )
        self.platform = platform
        self.config = platform.config
        self.stats = platform.stats
        self.runtime = runtime
        self.rpc = runtime.rpc
        self.policy = policy
        self.queue = []
        self.shares = {}
        self.dispatching = False
        self._seq = 0
        runtime.pool_scheduler = self

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def register(self, name, weight=1.0, priority=0):
        """Register a tenant; returns its :class:`TenantShare`."""
        if name in self.shares:
            raise ConfigError(f"tenant {name!r} already registered")
        share = TenantShare(name, weight=weight, priority=priority)
        self.shares[name] = share
        return share

    def share_for(self, ctx):
        """The share a context charges to (auto-registered per process)."""
        name = getattr(ctx, "serve_tenant", None)
        if name is None:
            name = f"pid-{ctx.thread.process.pid}"
        share = self.shares.get(name)
        if share is None:
            share = self.shares.setdefault(name, TenantShare(name))
        return share

    # ------------------------------------------------------------------
    # Live state the offload controller reads
    # ------------------------------------------------------------------
    def queue_depth(self, now):
        """Requests waiting plus instances busy at ``now``."""
        return len(self.queue) + self.rpc.busy_at(now)

    def estimated_wait_ns(self, now):
        """Deterministic estimate of the queueing delay a new arrival pays."""
        backlog = max(0.0, self.rpc.earliest_free_ns() - now)
        if self.queue:
            backlog += len(self.queue) * self._mean_service_ns()
        return backlog

    def _mean_service_ns(self):
        completed = sum(share.completed for share in self.shares.values())
        if completed == 0:
            return self.config.context_base_ns
        total = sum(share.service_ns for share in self.shares.values())
        return total / completed

    # ------------------------------------------------------------------
    # The queued (serving) path
    # ------------------------------------------------------------------
    def submit(self, scheduler, request):
        """Queue a request and park its task until dispatch resumes it."""
        request.seq = self._seq
        self._seq += 1
        request.share.submitted += 1
        self.queue.append(request)
        self._emit(
            request.arrival_ns, "enqueue", tenant=request.share.name,
            request=request.name, depth=len(self.queue),
        )
        scheduler.block(request.task)

    def next_event_ns(self):
        """Virtual time of the earliest pending dispatch or queue expiry."""
        if not self.queue:
            return None
        earliest_arrival = min(r.arrival_ns for r in self.queue)
        event = max(self.rpc.earliest_free_ns(), earliest_arrival)
        for request in self.queue:
            expiry = request.expiry_ns()
            if expiry is not None and expiry < event:
                event = expiry
        return event

    def fire(self, now, scheduler):
        """Handle the event at ``now``: cancel expired waits, dispatch one."""
        expired = sorted(
            (r for r in self.queue
             if r.expiry_ns() is not None and r.expiry_ns() <= now),
            key=lambda r: (r.expiry_ns(), r.seq),
        )
        for request in expired:
            self.queue.remove(request)
            self._finish(scheduler, request, *self._cancel_queued(request))
        eligible = [r for r in self.queue if r.arrival_ns <= now]
        if not eligible or self.rpc.earliest_free_ns() > now:
            return
        request = self._pick(eligible)
        self.queue.remove(request)
        self._finish(scheduler, request, *self._dispatch(request, now))

    def _finish(self, scheduler, request, result, error):
        """Deliver a request's outcome: hook first, then task resumption."""
        if request.on_complete is not None:
            request.on_complete(request, result, error)
        if not request.resume_task:
            return
        if error is not None:
            scheduler.throw(request.task, error)
        else:
            scheduler.resume(request.task, result)

    # ------------------------------------------------------------------
    # The synchronous path (direct ctx.pushdown under a serving platform)
    # ------------------------------------------------------------------
    def run_inline(self, ctx, fn, args, options, verify=False):
        """Admit a synchronous ``pushdown()`` call.

        No free instance means the call queues in virtual time: the wait
        is charged to the caller's clock and accounted to its tenant. A
        synchronous caller cannot be reordered retroactively, so this path
        is FIFO regardless of the configured policy.
        """
        request = QueuedRequest(None, ctx, fn, args, options,
                                self.share_for(ctx), "inline")
        request.share.submitted += 1
        arrival = request.arrival_ns
        self._emit(
            arrival, "enqueue", tenant=request.share.name, request="inline",
            depth=self.queue_depth(arrival),
        )
        start = max(arrival, self.rpc.earliest_free_ns())
        if request.expiry_ns() is not None and start - arrival > options.timeout_ns:
            result, error = self._cancel_queued(request)
        else:
            result, error = self._dispatch(request, start, verify)
        if error is not None:
            raise error
        return result

    # ------------------------------------------------------------------
    # Shared internals: both paths dispatch and cancel through these
    # ------------------------------------------------------------------
    def _dispatch(self, request, now, verify=False):
        """Run ``request`` on the instance free at ``now``.

        Returns ``(result, error)``. The tenant is billed from ``now``
        until the instance itself frees — not until the caller's clock
        stops, which also covers the reply, post-sync and any local
        fallback re-run after a mid-execution cancel.
        """
        share = request.share
        share.dispatched += 1
        share.queue_delay_ns += now - request.arrival_ns
        request.dispatched_ns = now
        ctx = request.ctx
        ctx.thread.clock.advance_to(now)
        self._emit(
            now, "dispatch", tenant=share.name, request=request.name,
            wait_ms=round((now - request.arrival_ns) / 1e6, 6),
            depth=len(self.queue),
        )
        rpc = self.rpc
        dispatched = rpc.dispatched
        options = _remaining_timeout(request.options, now - request.arrival_ns)
        result = error = None
        try:
            self.dispatching = True
            result = self.runtime.pushdown(
                ctx, request.fn, *request.args, options=options, verify=verify
            )
        except ReproError as exc:
            error = exc
        finally:
            self.dispatching = False
        end_ns = ctx.now
        # A call that never occupied an instance (breaker short-circuit,
        # lost or cancelled before commit) consumed no service.
        if rpc.dispatched > dispatched:
            end_ns = rpc.last_free_ns()
            share.service_ns += end_ns - now
        if error is not None:
            self._emit(
                ctx.now, "complete", tenant=share.name, request=request.name,
                outcome=type(error).__name__,
            )
            return None, error
        request.completed_ns = ctx.now
        share.completed += 1
        self._emit(
            ctx.now, "complete", tenant=share.name, request=request.name,
            outcome="ok", service_ms=round((end_ns - now) / 1e6, 6),
        )
        return result, None

    def _cancel_queued(self, request):
        """A queued request timed out before reaching an instance (Section
        3.2: try_cancel trivially succeeds — the function never started).
        Returns ``(result, error)``."""
        share = request.share
        share.cancelled += 1
        expiry = request.expiry_ns()
        ctx = request.ctx
        ctx.thread.clock.advance_to(expiry)
        share.queue_delay_ns += expiry - request.arrival_ns
        self.stats.pushdown_timeouts += 1
        self.stats.pushdown_cancellations += 1
        self.runtime.breaker_for(ctx.thread.process).record_failure(expiry)
        self._emit(
            expiry, "cancel", tenant=share.name, request=request.name,
            waited_ms=round((expiry - request.arrival_ns) / 1e6, 6),
        )
        if request.options.on_timeout is TimeoutAction.FALLBACK:
            self.stats.pushdown_fallbacks += 1
            result = request.fn(ctx, *request.args)
            request.completed_ns = ctx.now
            return result, None
        return None, PushdownTimeout(
            f"pushdown cancelled after {request.options.timeout_ns:.0f}ns in "
            "the memory-pool admission queue",
            cancelled=True,
        )

    def _pick(self, eligible):
        """The policy's choice among requests whose arrival has passed."""
        if self.policy is QueuePolicy.FIFO:
            key = lambda r: (r.arrival_ns, r.seq)
        elif self.policy is QueuePolicy.PRIORITY:
            key = lambda r: (-r.share.priority, r.arrival_ns, r.seq)
        elif self.policy is QueuePolicy.FAIR:
            key = lambda r: (r.share.service_ns / r.share.weight, r.arrival_ns, r.seq)
        else:
            raise ReproError(f"unknown queue policy {self.policy!r}")
        return min(eligible, key=key)

    def _emit(self, at_ns, phase, **detail):
        tracer = self.platform.tracer
        if tracer.enabled:
            tracer.emit(at_ns, "sched", phase=phase, **detail)

    def __repr__(self):
        return (
            f"PoolScheduler(instances={self.rpc.instances}, "
            f"policy={self.policy.value}, queued={len(self.queue)})"
        )
