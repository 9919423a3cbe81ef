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


def per_leaf_complement(
    topo, seed_ids, k, palette, *, require_monotone=True, max_nodes=2_000_000,
    max_rounds=None,
):
    """The oracle of ``find_dynamo_complement``: the same DFS checking
    each leaf with its own ``run_synchronous`` call and each node with a
    whole-torus ``prune_to_core`` peel of the assigned non-k cells."""
    from repro.core.complement import _wavefront_order
    from repro.engine.runner import run_synchronous
    from repro.rules import SMPRule
    from repro.structures.blocks import prune_to_core

    seed_ids = np.asarray(sorted(set(int(v) for v in seed_ids)), dtype=np.int64)
    palette = [int(c) for c in palette]
    colors = np.full(topo.num_vertices, -1, dtype=np.int64)
    colors[seed_ids] = k
    cells = _wavefront_order(topo, seed_ids)
    rule = SMPRule()
    budget = [max_nodes]

    def neighbors(v):
        return [int(w) for w in topo.neighbors[v, : topo.degrees[v]]]

    def seed_protected(u):
        return rule.update_vertex(k, [int(colors[w]) for w in neighbors(u)]) == k

    def block_exists():
        return bool(prune_to_core(topo, (colors >= 0) & (colors != k), 3).any())

    def leaf_check():
        res = run_synchronous(
            topo, colors.astype(np.int32), rule, max_rounds=max_rounds,
            target_color=k, track_changes=False,
        )
        return res.is_dynamo_run(k) and (res.monotone or not require_monotone)

    def dfs(idx):
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        if idx == len(cells):
            return leaf_check()
        v = cells[idx]
        for c in palette:
            colors[v] = c
            if require_monotone and any(
                colors[u] == k
                and all(colors[w] >= 0 for w in neighbors(u))
                and not seed_protected(u)
                for u in [v] + neighbors(v)
            ):
                continue
            if block_exists():
                continue
            if dfs(idx + 1):
                return True
        colors[v] = -1
        return False

    return colors.astype(np.int32) if dfs(0) else None
