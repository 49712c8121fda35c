"""The machine's speed, measured next to each timing so that it can be
taken out.

The shared machine the benchmark was defined on switches, every few
seconds and sometimes for minutes, between a fast state and one about
1.6 times slower, and every timing moves with it: a run that falls in a
slow stretch read 30-50 % slower than one in a fast stretch.  So each
timing is paired with a fixed reference timed right next to it, and is
reported as ``timing * REF / reference``: the time it would have taken
in the fast state.  The references are the benchmark's own and never
change with the package, so a change of the package moves the reported
times as it moves the true ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

# Times of the two references in the machine's fast state (nproc 2,
# Python 3.11), measured once when the benchmark was defined; they fix
# the scale the reported times are given in.
REFERENCE_S = 0.0018
BARE_PROCESS_S = 0.0400

_SUCC = {v: tuple((v * 7 + k * 13) % 90 for k in range(1, 4)) for v in range(90)}


def reference_work() -> int:
    """A fixed pure-Python graph computation with the sets, dicts and
    tuples the package's code is made of: the nodes reachable from each
    node of a fixed 90-node graph."""
    total = 0
    for s in _SUCC:
        seen = {s}
        stack = [s]
        while stack:
            for w in _SUCC[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        total += len(seen)
    return total


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def bare_process_seconds() -> float:
    """Wall time of a fresh ``python -c pass``: the reference for the time
    of a fresh process, which the machine's state moves less than it moves
    pure-Python work."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=60, check=True)
    return time.perf_counter() - start
