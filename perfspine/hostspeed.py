"""How fast is this host right now?

The reference host is a 2-vCPU cloud sandbox whose processor delivers the
same work in between 1x and about 1.5x the time, in states that last
seconds to minutes (a neighbour on the physical core; nothing else runs
in the guest and no steal time is reported).  Raw times of one commit then
differ by 20-45% between two sets of ten runs made a quarter of an hour
apart, wider than any bound a gate may have, and no run length averages a
minutes-long state away (see "Host speed" in the README for the runs).

So every run interleaves a fixed reference kernel with its measured phase
-- between units, never inside one -- and the gated times are reported as
they would read at the kernel's nominal speed (``report.on_reference_host``:
only the share of the time a processor was busy is rescaled).  The kernel's
own time is taken out of the measured wall time, and every raw figure
stays in the run's ``detail.raw``.

The kernel is 0.1 ms of integer arithmetic on interpreter temporaries.  It
touches no memory of its own, so its reading does not depend on what the
code under test did to the caches since the last one: 647 us back to back
against 669 us after the process copied 13 MB and 679 us after 64 MB (at
6000 steps), where a pointer chase through 4 MB -- this benchmark's first
kernel, withdrawn in review -- read 114, 127 and 163 us.  It also tracked
best: over 200 s of a drifting host, 5-second blocks of fixed
``embedded_design``-like work spread by 8.8% (slowest over fastest block
1.47) raw, and by 2.5% (1.13) divided by this kernel's reading; by 2.9%
with an 8 KB chase, 6.2% with the 4 MB one, 14% with a walk over 1000
small objects.  The program slows somewhat more than the kernel does, so
the correction falls short and never overshoots.
"""

from __future__ import annotations

import time

clock = time.perf_counter_ns

STEPS = 1000
#: The kernel's reading, in ns, on the reference host in its fast state.
#: Only a scale: it cancels out of every comparison between two runs.
NOMINAL_NS = 108_000


def sample():
    """Run the kernel once; returns its duration in ns."""
    start = clock()
    x = 1
    for _ in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return clock() - start
