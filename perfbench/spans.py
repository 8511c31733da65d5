"""Host-time spans recorded around calls into the simulator's layers.

The traced run wraps public functions of every layer (``sim``, ``mem``,
``ddc``, ``teleport``, ``db``, ``graph``, ``mapreduce``, ``micro``,
``serve``) in place and restores them afterwards, so the program under
test is never edited and the untraced run pays nothing.

Two kinds of span exist:

* **coarse** spans (operators, phases, pushdowns, page-access batches,
  allocations) are kept as individual Chrome trace events;
* **aggregated** spans (the per-page ``PageCache``, ``SwapDevice``,
  ``PageTable``, ``Network``, ``DdcConfig`` cost and ``CoherenceProtocol``
  calls, which number in the millions) only add to a per-function
  count / total / self record.

A span's self time is its duration minus the durations of the spans it
directly contains, so the self times of every span inside a root span sum
to the root's duration.
"""

import functools
import time

#: Layers whose code calls into ``ddc`` for page accesses; a random
#: access is attributed to the innermost open span of one of these.
ENGINE_LAYERS = ("db", "graph", "mapreduce", "micro", "serve")

#: Chrome trace events kept per traced pass; further coarse spans still
#: count in the rollup but are not written as events.
MAX_EVENTS = 200_000


class FunctionRecord:
    """Rollup of one wrapped function: calls, inclusive and self seconds."""

    __slots__ = ("layer", "name", "calls", "total", "self")

    def __init__(self, layer, name):
        self.layer = layer
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self = 0.0

    def as_dict(self):
        return {"layer": self.layer, "name": self.name, "calls": self.calls,
                "total_s": self.total, "self_s": self.self}


class AccessCounts:
    """Page accesses passed to the ``ddc`` access methods."""

    __slots__ = ("seq_pages", "random", "writes", "sampled")

    def __init__(self):
        self.seq_pages = 0
        self.random = 0
        self.writes = 0
        self.sampled = 0


class Tracer:
    """Span stack, per-function rollup and Chrome trace events.

    ``clock`` returns seconds; tests pass a fake one to check the self-time
    arithmetic exactly.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: Child-duration accumulators of the open spans; index 0 is the
        #: root, which collects the durations of top-level spans.
        self.stack = [0.0]
        #: Layers of the open coarse spans (innermost last).
        self.layers = []
        self.records = {}
        self.events = []
        self.dropped_events = 0
        self.origin = clock()
        self.accesses = AccessCounts()
        #: Random accesses per engine layer: layer -> [random, writes, sampled].
        self.engine_accesses = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, layer, name):
        key = f"{layer}:{name}"
        record = self.records.get(key)
        if record is None:
            record = self.records[key] = FunctionRecord(layer, name)
        return record

    def aggregated(self, layer, name, fn):
        """Wrap ``fn`` as an aggregated span (rollup only, no event)."""
        record = self.record(layer, name)
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stack[-1] += duration
                record.calls += 1
                record.total += duration
                record.self += duration - child

        return wrapper

    def coarse(self, layer, name, fn, before=None):
        """Wrap ``fn`` as a coarse span: rollup plus one trace event.

        ``before(args, kwargs)`` runs inside the span before ``fn``; the
        ``ddc`` access counters use it.
        """
        tracer = self
        record = self.record(layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Span(tracer, record):
                if before is not None:
                    before(args, kwargs)
                return fn(*args, **kwargs)

        return wrapper

    def span(self, layer, name):
        """Context manager recording one coarse span."""
        return _Span(self, self.record(layer, name))

    def _close(self, record, start, child):
        end = self.clock()
        duration = end - start
        self.stack[-1] += duration
        record.calls += 1
        record.total += duration
        record.self += duration - child
        if len(self.events) < MAX_EVENTS:
            self.events.append((record.name, record.layer, start, duration))
        else:
            self.dropped_events += 1
        return duration

    def engine_layer(self):
        """The innermost open engine layer, or ``"bench"``."""
        for layer in reversed(self.layers):
            if layer in ENGINE_LAYERS:
                return layer
        return "bench"

    def count_random(self, n, write, sampled):
        counts = self.accesses
        counts.random += n
        if write:
            counts.writes += n
        if sampled:
            counts.sampled += n
        per_engine = self.engine_accesses.setdefault(self.engine_layer(), [0, 0, 0])
        per_engine[0] += n
        if write:
            per_engine[1] += n
        if sampled:
            per_engine[2] += n

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def self_total(self):
        """Sum of self seconds over every record (for the unit check)."""
        return sum(record.self for record in self.records.values())

    def layer_self(self):
        """Self seconds per layer."""
        layers = {}
        for record in self.records.values():
            layers[record.layer] = layers.get(record.layer, 0.0) + record.self
        return layers

    def chrome_trace(self, metadata):
        """The trace as a Chrome trace-event JSON object (opens in Perfetto).

        Coarse spans are complete (``"X"``) events in microseconds; the
        aggregated per-function rollup rides along under ``"rollup"``.
        """
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - self.origin) * 1e6, 3),
             "dur": round(duration * 1e6, 3)}
            for name, layer, start, duration in self.events
        ]
        events.sort(key=lambda event: (event["ts"], -event["dur"]))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {key: str(value) for key, value in metadata.items()},
            "rollup": sorted(
                (record.as_dict() for record in self.records.values()),
                key=lambda row: -row["self_s"],
            ),
            "droppedEvents": self.dropped_events,
        }


class _Span:
    __slots__ = ("tracer", "record", "start", "duration")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        tracer.stack.append(0.0)
        tracer.layers.append(self.record.layer)
        self.start = tracer.clock()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.layers.pop()
        child = tracer.stack.pop()
        self.duration = tracer._close(self.record, self.start, child)
        return False


class Patcher:
    """Replaces attributes in place and puts the originals back."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, name, make):
        """Set ``owner.name`` to ``make(original)``; skip absent names."""
        original = vars(owner).get(name)
        if original is None:
            return
        if isinstance(original, classmethod):
            patched = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            patched = staticmethod(make(original.__func__))
        else:
            patched = make(original)
        self._saved.append((owner, name, original))
        setattr(owner, name, patched)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
