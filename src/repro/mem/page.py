"""Page table entry bits.

A page table entry is an ``int`` carrying exactly the bits the paper's
protocol reads and writes (Figures 8 and 9): :data:`PRESENT`,
:data:`WRITABLE` and :data:`DIRTY`. A page table is then a plain dict of
ints, so mapping a range and cloning a table are single dict operations.
"""

PRESENT = 1
WRITABLE = 2
DIRTY = 4


def permission(bits):
    """Symbolic permission: '0' absent, 'R' read-only, 'W' writable.

    ``bits`` may be None (never mapped). Matches the state names used in
    the paper's concurrent-fault analysis (Section 4.1).
    """
    if bits is None or not bits & PRESENT:
        return "0"
    return "W" if bits & WRITABLE else "R"
