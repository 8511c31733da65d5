"""Unit constants.

Sizes are in bytes; durations are in virtual nanoseconds, the base time unit
of the whole simulation.
"""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

US = 1_000.0
MS = 1_000_000.0
SEC = 1_000_000_000.0
