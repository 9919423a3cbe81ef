"""Importable shared test helpers.

Test modules import these with ``from helpers import ...`` (pytest's
default ``prepend`` import mode puts each test module's directory on
``sys.path``).  They deliberately do NOT live in ``conftest.py``:
``conftest`` is a rootdir-wide singleton module name, so importing from
it breaks as soon as another directory (e.g. ``benchmarks/``) also has a
``conftest.py`` collected in the same session.
"""

from __future__ import annotations

import numpy as np

from repro.topology import ToroidalMesh, TorusCordalis, TorusSerpentinus

#: the three torus classes, keyed by the registry names used everywhere
TORUS_KINDS = {
    "mesh": ToroidalMesh,
    "cordalis": TorusCordalis,
    "serpentinus": TorusSerpentinus,
}


def random_coloring(topo, num_colors, rng, low=0):
    """Uniform random coloring with colors in [low, low + num_colors)."""
    return rng.integers(low, low + num_colors, size=topo.num_vertices).astype(
        np.int32
    )


def grid_colors(topo, rows):
    """Build a color vector from a list-of-lists grid literal."""
    arr = np.asarray(rows, dtype=np.int32)
    assert arr.shape == (topo.m, topo.n)
    return arr.reshape(-1)


def scalar_async_runs(con, trials, root):
    """The oracle of the batched async trials: trial ``i`` replayed
    through the scalar ``run_asynchronous`` loop under the schedule
    stream seeded ``(root, i)``."""
    from repro.engine.schedulers import AsyncSchedule, run_asynchronous
    from repro.rules import SMPRule

    schedule = AsyncSchedule.derive(root, trials)
    return [
        run_asynchronous(
            con.topo,
            con.colors,
            SMPRule(),
            order=schedule.order,
            rng=schedule.row_rng(i),
            target_color=con.k,
        )
        for i in range(trials)
    ]
