"""Virtual clocks.

Each simulated thread owns a :class:`VirtualClock`; all costs in the library
are charged by advancing a clock. Parallel execution is modelled by forking
clocks at a common start time and joining on the maximum.
"""

import math

from repro.errors import ConfigError

#: From 2**53 up, consecutive floats are 2 or more apart.
_EXACT_INTEGERS = 2.0**53


class VirtualClock:
    """A monotonically advancing virtual clock, in nanoseconds."""

    __slots__ = ("_now",)

    #: Optional process-wide :class:`~repro.analysis.sanitizers.SanitizerSuite`
    #: hook. ``advance(ns)`` rejects negative deltas itself, but NaN compares
    #: false against everything and would silently poison every timestamp
    #: downstream; the sanitizer catches non-finite time when armed. Set by
    #: :func:`repro.analysis.sanitizers.enable` (e.g. ``pytest --sanitize``).
    sanitizer = None

    def __init__(self, start_ns=0.0):
        if start_ns < 0:
            raise ConfigError(f"clock cannot start at negative time: {start_ns}")
        self._now = float(start_ns)

    @property
    def now(self):
        """Current virtual time in nanoseconds."""
        return self._now

    def advance(self, ns):
        """Charge ``ns`` nanoseconds of work and return the new time."""
        if ns < 0:
            raise ConfigError(f"cannot advance clock by negative time: {ns}")
        if VirtualClock.sanitizer is not None:
            VirtualClock.sanitizer.on_clock_advance(self._now, ns)
        self._now += ns
        return self._now

    def advance_to(self, ns):
        """Move the clock forward to an absolute time (no-op if in the past)."""
        if VirtualClock.sanitizer is not None:
            VirtualClock.sanitizer.on_clock_advance_to(self._now, ns)
        if ns > self._now:
            self._now = ns
        return self._now

    def fork(self):
        """Create a child clock starting at this clock's current time."""
        return VirtualClock(self._now)

    def join(self, others):
        """Advance this clock to the latest time among ``others``.

        Models a fork/join barrier: the parent resumes when the slowest
        child finishes.
        """
        for clock in others:
            self.advance_to(clock.now)
        return self._now

    def __repr__(self):
        return f"VirtualClock(now={self._now:.1f}ns)"


def add_repeated(cost, times, ns):
    """``cost`` plus ``times`` additions of ``ns``; returns ``(cost, bound)``.

    The sum is the same float as ``times`` separate ``cost += ns`` steps.
    They collapse into one addition when that is provably exact: ``ns`` is
    a whole number and ``cost + times * ns`` stays below ``bound``, the
    power of two above ``cost``, with ``bound`` at most 2**53. Every
    partial sum then lies in one binade whose spacing is at most 1, so
    every addition is exact; otherwise the steps are taken one at a time.

    The batch access loops keep ``bound`` and add inline while ``cost +
    span < bound``: ``cost`` only grows, so a bound found for an earlier
    cost holds until the sum reaches it. A bound of 0.0 (``ns`` not whole,
    or ``cost`` past 2**53) sends every call here.
    """
    span = times * ns
    bound = _binade_end(cost, ns)
    if cost + span < bound:
        return cost + span, bound
    for _ in range(times):
        cost += ns
    return cost, _binade_end(cost, ns)


def _binade_end(cost, ns):
    """The power of two above ``cost`` if whole ``ns`` steps below it are
    exact, else 0.0."""
    if not float(ns).is_integer():
        return 0.0
    end = math.ldexp(1.0, math.frexp(cost)[1])
    return end if end <= _EXACT_INTEGERS else 0.0
