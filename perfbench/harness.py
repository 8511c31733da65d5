"""Running a workload's units: timing, checking and per-pass rollups.

A pass runs every unit of a workload once, on one thread. Each unit's host
time is split at its first simulated page access: before it is set-up
(input generation, platform construction, region allocation), after it is
simulation. The split is marked by a one-shot hook on the
``ExecutionContext`` access methods that removes itself on first use, so
an untraced pass runs the program's own code everywhere else.

Host times are calibrated: a fixed loop runs between units, and each
unit's seconds are scaled by the loop's reference time over its measured
time around that unit. On a shared host whose speed drifts (here by up to
1.8x between 20-second windows) this keeps a run's figures comparable with
another run's; the raw seconds are kept alongside.
"""

import contextlib
import dataclasses
import gc
import hashlib
import json
import time
from collections import OrderedDict

import numpy as np

from repro.ddc.context import ExecutionContext
from repro.ddc.platform import Platform
from repro.sim.stats import Stats

from instrument import ACCESS_METHODS
from units import CheckFailed


#: Host seconds :func:`calibrate` takes on an unloaded reference host, so
#: calibrated seconds read as seconds on that host.
CALIBRATION_REFERENCE_S = 0.015

_RNG = np.random.default_rng(2022)
_SORT_KEYS = _RNG.random(100_000)
_TABLE = _RNG.random(2_000_000)
_GATHER = _RNG.integers(0, len(_TABLE), 200_000)


def calibrate():
    """Host seconds of a fixed loop that resembles the simulator's work.

    Exact-LRU bookkeeping in ``OrderedDict``s, one cache-resident and one
    larger than the CPU caches (interpreter-bound), then a stable numpy
    sort and a random gather from a 16 MB array (memory-bound). It shares
    no code with the program, so a faster simulator does not move it.
    """
    start = time.perf_counter()
    for key_space, capacity in ((4096, 1024), (262_144, 8192)):
        lru = OrderedDict()
        for i in range(8_000):
            key = (i * 7919) % key_space
            if key in lru:
                lru.move_to_end(key)
            else:
                lru[key] = i
                if len(lru) > capacity:
                    lru.popitem(last=False)
    np.argsort(_SORT_KEYS, kind="stable")
    _TABLE.take(_GATHER).sum()
    return time.perf_counter() - start


class FirstAccess:
    """Records the host time of the first page access, then unhooks."""

    def __init__(self):
        self.at = None
        self._saved = {}

    def arm(self):
        self.at = None
        self._saved = {name: ExecutionContext.__dict__[name] for name in ACCESS_METHODS}
        for name, original in self._saved.items():
            setattr(ExecutionContext, name, self._hook(original))

    def _hook(self, original):
        def hooked(*args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
                self.disarm()
            return original(*args, **kwargs)
        return hooked

    def disarm(self):
        for name, original in self._saved.items():
            setattr(ExecutionContext, name, original)
        self._saved = {}


class PlatformLog:
    """Collects the platforms built while it is active (one call each)."""

    def __init__(self):
        self.platforms = []
        self._original = None

    def __enter__(self):
        self._original = original = Platform.__dict__["__init__"]
        log = self.platforms

        def init(platform, *args, **kwargs):
            original(platform, *args, **kwargs)
            log.append(platform)

        Platform.__init__ = init
        return self

    def __exit__(self, *exc):
        Platform.__init__ = self._original
        return False


@dataclasses.dataclass
class UnitRecord:
    name: str
    kind: str
    setup_s: float
    sim_s: float
    outcome: object
    stats: dict
    #: Summed ``PushdownBreakdown.overhead_ns`` of the unit's platforms.
    overhead_ns: float
    digest: str
    error: str = None
    #: Traced runs only: |sum of self times - unit duration| / duration.
    self_residual: float = None
    #: Calibration factor: reference over measured calibration seconds.
    scale: float = 1.0


@dataclasses.dataclass
class PassResult:
    """One pass; ``setup_s`` and ``sim_s`` are calibrated seconds."""

    records: list
    #: Seconds of every calibration loop of the pass.
    calibrations: list

    @property
    def setup_s(self):
        return sum(record.setup_s * record.scale for record in self.records)

    @property
    def sim_s(self):
        return sum(record.sim_s * record.scale for record in self.records)

    @property
    def raw_setup_s(self):
        return sum(record.setup_s for record in self.records)

    @property
    def raw_sim_s(self):
        return sum(record.sim_s for record in self.records)

    @property
    def scale(self):
        """Calibrated over raw seconds for the whole pass."""
        raw = self.raw_setup_s + self.raw_sim_s
        return (self.setup_s + self.sim_s) / raw if raw else 1.0

    @property
    def failed(self):
        return [record for record in self.records if record.error is not None]

    def stats(self):
        """Stats summed over every platform of every unit."""
        total = Stats()
        for record in self.records:
            total.merge(Stats(**record.stats))
        return total


def digest_of(name, outcome, stats):
    """Hash of a unit's simulated time and counters (``repr`` of floats
    round-trips, so equal digests mean byte-identical results)."""
    payload = json.dumps(
        [name, outcome.virtual_ns, outcome.detail, stats], sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_unit(unit, state, tracer=None):
    """Run one unit; exceptions and wrong answers become its ``error``."""
    gc.collect()
    boundary = FirstAccess()
    span = tracer.span("bench", unit.name) if tracer else contextlib.nullcontext()
    self_before = tracer.self_total() if tracer else 0.0
    outcome, error = None, None
    with PlatformLog() as log:
        start = time.perf_counter()
        boundary.arm()
        try:
            with span:
                outcome = unit.run(state)
        except Exception as exc:  # a failing unit is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            boundary.disarm()
    first = boundary.at if boundary.at is not None else end
    stats = Stats()
    overhead_ns = 0.0
    for platform in log.platforms:
        stats.merge(platform.stats)
        runtime = getattr(platform, "teleport", None)
        if runtime is not None:
            overhead_ns += sum(b.overhead_ns for b in runtime.breakdowns)
    stats = stats.as_dict()
    if error is None:
        try:
            unit.check(outcome, state)
        except CheckFailed as exc:
            error = str(exc)
    residual = None
    if tracer is not None:
        duration = span.duration
        residual = abs(tracer.self_total() - self_before - duration) / duration
    return UnitRecord(
        name=unit.name, kind=unit.kind, setup_s=first - start, sim_s=end - first,
        outcome=outcome, stats=stats, overhead_ns=overhead_ns,
        digest=digest_of(unit.name, outcome, stats) if outcome is not None else None,
        error=error, self_residual=residual,
    )


def run_pass(workload, tracer=None, first_digests=None):
    """Run every unit once, then the cross-unit and repeatability checks.

    A calibration loop runs before the first unit and after each one; a
    unit is scaled by the mean of the two around it. ``first_digests``
    maps unit names to the digests of an earlier pass of the same run; a
    unit whose digest differs fails.
    """
    state = {}
    records = []
    calibrations = [calibrate()]
    for unit in workload.units():
        record = run_unit(unit, state, tracer)
        calibrations.append(calibrate())
        record.scale = 2 * CALIBRATION_REFERENCE_S / (calibrations[-2] + calibrations[-1])
        records.append(record)
    outcomes = {r.name: r.outcome for r in records if r.error is None}
    failures = workload.cross_check(outcomes)
    for record in records:
        if record.error is None and record.name in failures:
            record.error = failures[record.name]
        if (record.error is None and first_digests is not None
                and record.name in first_digests
                and first_digests[record.name] != record.digest):
            record.error = "virtual time or Stats differ from an earlier pass"
    return PassResult(records, calibrations)
