"""Keep one CPU out of idle: a busy loop in the lowest scheduling class.

    python perfbench/awake.py <parent pid>

On a virtual machine an idle CPU halts, and waking it again goes through
the hypervisor: a request that arrives at an idle daemon waits from tens
of microseconds to milliseconds before any of its code runs, and how
long depends on the other tenants of the host.  ``served`` runs one of
these loops per CPU while it measures latency at its fixed low rate, so
that wake-ups stay inside the guest.  ``SCHED_IDLE`` gives way to every other task at once.  The loop
ends when its parent does.
"""

import os
import sys

parent = int(sys.argv[1])
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    for _ in range(100_000):
        pass
