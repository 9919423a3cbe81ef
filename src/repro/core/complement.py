"""Complement-coloring search: make an arbitrary seed into a dynamo.

The paper's constructions fix both the seed *and* a hand-crafted
complement.  This module answers the general question behind them: given a
seed ``S_k`` on a torus, does **some** coloring of ``T - S_k`` make it a
(monotone) dynamo — and with how few colors?

Two engines:

* :func:`find_dynamo_complement` — depth-first search over complement
  cells in a wavefront order.  Leaves are checked on the batched engine:
  complete colorings are buffered into a block and each block is
  simulated by one :func:`~repro.engine.batch.run_batch` call (the block
  holds one leaf at first and doubles on every flush, up to
  :data:`MAX_LEAF_BLOCK`, so an early hit costs few simulations and a long
  search amortizes the engine).  The first passing leaf *in DFS order* is
  returned, so the result is the one a leaf-at-a-time search finds.  Two
  sound prunes:

  - *seed protection*: every seed vertex whose open neighborhood is fully
    assigned must not recolor at round 1 (necessary for monotonicity).
    Cells are assigned in a fixed order, so which seeds become decidable
    at each depth is precomputed once;
  - *non-k-block prune*: an assigned non-k region containing a
    non-k-block (Definition 5) can never be completed to a dynamo.  The
    assigned cells are always a prefix of the complement in DFS order,
    and a subset of a set with an empty 3-core has an empty 3-core, so a
    block shows up at some node exactly when the whole complement holds
    one.  The prune is therefore one check before the search: when it
    fires there is no leaf to reach, and the answer is None.

  Each call emits one ``complement-dfs`` telemetry event (nodes, leaves,
  leaf blocks, prunes and an ``outcome`` of ``found``, ``exhausted`` or
  ``budget``), which tells "budget ran out" apart from "search space
  exhausted" without changing the return type.

* :func:`minimum_palette_complement` — wrapper calling the DFS with
  growing palettes, returning the smallest palette size that admits a
  dynamo complement (used by the below-bound census and by the Theorem-2
  "is 4 really enough?" exploration).

Complexity is exponential in the complement size: the 5x5 diagonal
searches finish in well under a second, while the cordalis 6x6 diagonal
search outgrows any practical node budget.  The searcher is deterministic
given the cell order, so results are reproducible.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from .. import obs
from ..engine.batch import run_batch
from ..rules.smp import SMPRule
from ..structures.blocks import prune_to_core
from ..topology.base import Topology

__all__ = ["find_dynamo_complement", "minimum_palette_complement"]

#: largest number of leaf colorings simulated by one ``run_batch`` call
MAX_LEAF_BLOCK = 256


def _wavefront_order(topo: Topology, seed_ids: np.ndarray) -> List[int]:
    """Non-seed cells ordered by BFS distance from the seed.

    Assigning near-seed cells first lets the seed-protection prune fire as
    early as possible.
    """
    n = topo.num_vertices
    dist = np.full(n, -1, dtype=np.int64)
    queue = [int(v) for v in seed_ids]
    for v in queue:
        dist[v] = 0
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in topo.neighbors[v, : topo.degrees[v]]:
            w = int(w)
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    cells = [v for v in range(n) if dist[v] != 0]
    cells.sort(key=lambda v: (dist[v], v))
    return cells


def _protection_checks(topo: Topology, cells: List[int]) -> List[List[List[int]]]:
    """Per DFS depth, the neighbor lists of the seeds to re-check there.

    ``cells`` holds every non-seed vertex.  Assigning ``cells[idx]`` makes
    a neighboring seed decidable once every non-seed neighbor of that seed
    sits at depth ``<= idx``.
    """
    nbrs = [
        [int(w) for w in topo.neighbors[v, : topo.degrees[v]]]
        for v in range(topo.num_vertices)
    ]
    depth = {v: i for i, v in enumerate(cells)}
    checks: List[List[List[int]]] = []
    for idx, v in enumerate(cells):
        here = []
        for u in dict.fromkeys(nbrs[v]):
            if u not in depth and all(depth.get(w, -1) <= idx for w in nbrs[u]):
                here.append(nbrs[u])
        checks.append(here)
    return checks


def find_dynamo_complement(
    topo: Topology,
    seed_ids: Iterable[int] | np.ndarray,
    k: int,
    palette: Sequence[int],
    *,
    require_monotone: bool = True,
    max_nodes: int = 2_000_000,
    max_rounds: Optional[int] = None,
) -> Optional[np.ndarray]:
    """DFS for a complement coloring making ``seed_ids`` a k-dynamo.

    ``palette`` lists the distinct non-k colors available for complement
    cells.  Returns the full color vector, or None when the search space
    is exhausted (or the node budget ``max_nodes`` is hit — treat None as
    "not found", not a proof, when the budget binds; the ``outcome`` of
    the call's ``complement-dfs`` telemetry event says which).
    """
    seed_ids = np.asarray(sorted(set(int(v) for v in seed_ids)), dtype=np.int64)
    n = topo.num_vertices
    if seed_ids.size and (seed_ids[0] < 0 or seed_ids[-1] >= n):
        raise ValueError("seed vertex id out of range")
    if k < 0:
        raise ValueError(f"target color must be non-negative, got {k}")
    palette = [int(c) for c in palette]
    if k in palette:
        raise ValueError("palette must not contain the target color")
    if any(c < 0 for c in palette):
        raise ValueError(f"palette colors must be non-negative, got {palette}")
    if len(set(palette)) != len(palette):
        raise ValueError(f"palette colors must be distinct, got {palette}")
    cells = _wavefront_order(topo, seed_ids)
    rule = SMPRule()
    colors = [-1] * n
    for s in seed_ids:
        colors[s] = k
    checks = _protection_checks(topo, cells) if require_monotone else [[]] * len(cells)
    buf: List[List[int]] = []
    stats = dict(nodes=0, leaves=0, blocks=0, seed_prunes=0, block_prunes=0)
    block = 1
    budget_hit = False
    hit: Optional[np.ndarray] = None

    def flush() -> bool:
        """Simulate the buffered leaves; True when one of them passes."""
        nonlocal block, hit
        if not buf:
            return False
        batch = np.array(buf, dtype=np.int32)
        buf.clear()
        stats["blocks"] += 1
        block = min(2 * block, MAX_LEAF_BLOCK)
        res = run_batch(
            topo, batch, rule, max_rounds=max_rounds, target_color=k,
            detect_cycles=False,
        )
        ok = res.k_monochromatic
        if require_monotone:
            ok = ok & res.monotone
        rows = np.flatnonzero(ok)
        if rows.size:
            hit = batch[rows[0]].copy()
            return True
        return False

    def dfs(idx: int) -> bool:
        nonlocal budget_hit
        if stats["nodes"] >= max_nodes:
            budget_hit = True
            return False
        stats["nodes"] += 1
        if idx == len(cells):
            stats["leaves"] += 1
            buf.append(colors.copy())
            return len(buf) >= block and flush()
        v = cells[idx]
        for c in palette:
            colors[v] = c
            # cells past ``idx`` keep stale colors: nothing reads them
            # before they are assigned again
            if not all(rule.update_vertex(k, [colors[w] for w in nb]) == k
                       for nb in checks[idx]):
                stats["seed_prunes"] += 1
                continue
            if dfs(idx + 1):
                return True
        return False

    member = np.zeros(n, dtype=bool)
    member[cells] = True
    if prune_to_core(topo, member, 3).any():
        stats["block_prunes"] = 1
    elif not dfs(0):
        flush()
    outcome = "found" if hit is not None else "budget" if budget_hit else "exhausted"
    obs.emit("complement-dfs", outcome=outcome, **stats)
    return hit


def minimum_palette_complement(
    topo: Topology,
    seed_ids: Iterable[int] | np.ndarray,
    k: int,
    *,
    max_palette: int = 6,
    require_monotone: bool = True,
    max_nodes: int = 2_000_000,
) -> Optional[tuple]:
    """Smallest non-k palette admitting a dynamo complement for the seed.

    Returns ``(palette_size, colors)`` or None when nothing works up to
    ``max_palette`` non-k colors.
    """
    others = [c for c in range(max_palette + 1) if c != k]
    for p in range(1, max_palette + 1):
        colors = find_dynamo_complement(
            topo,
            seed_ids,
            k,
            others[:p],
            require_monotone=require_monotone,
            max_nodes=max_nodes,
        )
        if colors is not None:
            return p, colors
    return None
