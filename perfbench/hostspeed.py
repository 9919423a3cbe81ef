"""Host-speed reference for the end-to-end times.

On a shared host other tenants slow the CPU this benchmark runs on, by
up to about 1.7x, in spells that last from under a second to minutes.
The median over one run's passes absorbs the short spells but not a
spell as long as the run, so two runs of the same code can differ by
a third.  Every timed interval is therefore bracketed by
:func:`reference_s`, a fixed loop in the mix the program runs (gathers
over a neighbor table, small-array numpy and pure-Python dict work),
and the interval is rescaled to the speed at which the reference takes
``REFERENCE_S``::

    scaled = elapsed * REFERENCE_S / mean(reference before, reference after)

The reference is code of the benchmark, not of the program, so a change
to the program moves ``elapsed`` and leaves the reference alone.  The
raw times are printed beside the rescaled ones.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Sequence

import numpy as np

#: the fastest :func:`reference_s` ran on a 2-vCPU x86-64 VM (Python 3.11,
#: NumPy 2.4); only a scale, so that rescaled figures read as seconds
REFERENCE_S = 0.030

_RNG = np.random.default_rng(0)
#: a 4-regular neighbor table and 32 replica states on 300 vertices
_NEIGHBORS = _RNG.integers(0, 300, size=1200)
_STATES = _RNG.integers(0, 4, size=(32, 300))
_SMALL = _RNG.integers(0, 4, size=(36, 4))


def reference_s() -> float:
    """Seconds for the fixed reference loop on the current CPU: a
    plurality step gathered over a neighbor table (most of the time),
    small-array sorts and a pure-Python dict loop."""
    t0 = perf_counter()
    for _ in range(36):
        gathered = _STATES[:, _NEIGHBORS].reshape(32, 300, 4)
        counts = np.stack([(gathered == c).sum(axis=2) for c in range(4)])
        counts.argmax(axis=0)
    for _ in range(800):
        ordered = np.sort(_SMALL, axis=1)
        (ordered[:, 1:] == ordered[:, :-1]).sum(axis=1).any()
    tally: Dict[int, int] = {}
    for i in range(25000):
        tally[i % 512] = tally.get(i % 512, 0) + i
    return perf_counter() - t0


def rescale(elapsed: Sequence[float], references: Sequence[float]) -> List[float]:
    """``elapsed[i]`` at reference speed; ``references[i]`` and
    ``references[i + 1]`` were taken just before and just after it."""
    return [
        e * REFERENCE_S / ((references[i] + references[i + 1]) / 2)
        for i, e in enumerate(elapsed)
    ]
