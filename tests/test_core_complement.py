"""Complement-coloring search tests."""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.core import (
    find_dynamo_complement,
    is_monotone_dynamo,
    minimum_palette_complement,
    theorem2_mesh_dynamo,
)
from repro.core.complement import MAX_LEAF_BLOCK
from repro.core.diagonal import diagonal_seed
from repro.obs.report import load_stream
from repro.structures.blocks import prune_to_core
from repro.topology import ToroidalMesh, TorusCordalis

from helpers import TORUS_KINDS, per_leaf_complement


def test_rejects_bad_inputs():
    topo = ToroidalMesh(3, 3)
    with pytest.raises(ValueError):
        find_dynamo_complement(topo, [99], 0, [1, 2])
    with pytest.raises(ValueError):
        find_dynamo_complement(topo, [0], 0, [0, 1])  # palette contains k
    with pytest.raises(ValueError, match="target color"):
        find_dynamo_complement(topo, [0], -1, [1, 2])
    with pytest.raises(ValueError, match="non-negative"):
        find_dynamo_complement(topo, [0], 0, [-1, 1])
    with pytest.raises(ValueError, match="distinct"):
        find_dynamo_complement(topo, [0], 0, [1, 1, 2])


def test_finds_triangle_split_for_3x3_diagonal():
    topo = ToroidalMesh(3, 3)
    diag = [topo.vertex_index(i, i) for i in range(3)]
    colors = find_dynamo_complement(topo, diag, 0, [1, 2])
    assert colors is not None
    assert is_monotone_dynamo(topo, colors, 0)
    assert np.array_equal(np.flatnonzero(colors == 0), np.asarray(diag))


def test_minimum_palette_is_two_for_3x3_diagonal():
    topo = ToroidalMesh(3, 3)
    diag = [topo.vertex_index(i, i) for i in range(3)]
    p, colors = minimum_palette_complement(topo, diag, 0)
    assert p == 2
    assert is_monotone_dynamo(topo, colors, 0)


def test_one_color_complement_impossible_for_diagonal():
    # a monochromatic complement ties every staircase vertex: no dynamo
    topo = ToroidalMesh(3, 3)
    diag = [topo.vertex_index(i, i) for i in range(3)]
    assert find_dynamo_complement(topo, diag, 0, [1]) is None


def test_impossible_seed_returns_none():
    # a single vertex can never grow (no second k anywhere)
    topo = ToroidalMesh(3, 3)
    assert find_dynamo_complement(topo, [4], 0, [1, 2, 3]) is None


def test_theorem2_seed_four_total_colors_achievable_on_4x4():
    """Reproduction finding: a non-stripe complement achieves the paper's
    |C| >= 4 on the 4x4 mesh where stripes need 5."""
    con = theorem2_mesh_dynamo(4, 4)
    assert con.num_colors == 5  # the stripe construction's palette
    p, colors = minimum_palette_complement(
        con.topo, np.flatnonzero(con.seed), con.k
    )
    assert p == 3  # 3 non-k colors -> |C| = 4
    assert is_monotone_dynamo(con.topo, colors, con.k)


def test_non_monotone_search_is_weaker_or_equal():
    topo = ToroidalMesh(3, 3)
    diag = [topo.vertex_index(i, i) for i in range(3)]
    relaxed = minimum_palette_complement(topo, diag, 0, require_monotone=False)
    strict = minimum_palette_complement(topo, diag, 0, require_monotone=True)
    assert relaxed is not None and strict is not None
    assert relaxed[0] <= strict[0]


def test_works_on_cordalis():
    topo = TorusCordalis(4, 4)
    diag = [topo.vertex_index(i, i) for i in range(4)]
    found = minimum_palette_complement(topo, diag, 0, max_nodes=500_000)
    assert found is not None
    p, colors = found
    assert is_monotone_dynamo(topo, colors, 0)
    assert p <= 3


def test_budget_exhaustion_returns_none():
    topo = ToroidalMesh(4, 4)
    diag = [topo.vertex_index(i, i) for i in range(4)]
    # a 1-node budget cannot possibly finish
    assert (
        find_dynamo_complement(topo, diag, 0, [1, 2], max_nodes=1) is None
    )


def _dfs_events(tmp_path, calls):
    """Run ``calls`` under a telemetry session; return their results and
    the ``complement-dfs`` events the session recorded, in order."""
    path = tmp_path / "dfs.tel"
    with obs.telemetry_session(path, level="basic", command="unit"):
        results = [call() for call in calls]
    events = [
        r for r in load_stream(path)
        if r["kind"] == "event" and r["name"] == "complement-dfs"
    ]
    return results, sorted(events, key=lambda r: r["seq"])


def _doubling_blocks(leaves):
    """Number of leaf blocks the doubling schedule needs for ``leaves``."""
    blocks, size = 0, 1
    while leaves > 0:
        leaves -= size
        blocks += 1
        size = min(2 * size, MAX_LEAF_BLOCK)
    return blocks


def test_telemetry_outcomes(tmp_path):
    topo = ToroidalMesh(3, 3)
    diag = diagonal_seed(topo)
    serp = TORUS_KINDS["serpentinus"](3, 3)
    calls = [
        lambda: find_dynamo_complement(topo, diag, 0, [1, 2], max_nodes=1),
        lambda: find_dynamo_complement(topo, diag, 0, [1]),
        lambda: find_dynamo_complement(topo, diag, 0, [1, 2]),
        lambda: find_dynamo_complement(topo, [4], 0, [1, 2]),
        lambda: find_dynamo_complement(
            serp, diagonal_seed(serp), 0, [1, 2], require_monotone=False
        ),
    ]
    results, events = _dfs_events(tmp_path, calls)
    budget, exhausted, found, blocked, many = events
    assert [e["outcome"] for e in events] == [
        "budget", "exhausted", "found", "exhausted", "exhausted",
    ]
    assert [r is None for r in results] == [True, True, False, True, True]
    assert budget["nodes"] == 1 and budget["leaves"] == 0
    assert found["leaves"] >= found["blocks"] >= 1
    # an exhausted search flushes every leaf in doubling blocks
    assert many["leaves"] > 1
    assert many["blocks"] == _doubling_blocks(many["leaves"])
    # a lone seed vertex leaves a non-k-block in its complement: the
    # search is cut before its first node
    assert blocked["block_prunes"] == 1 and blocked["nodes"] == 0
    assert all(e["nodes"] >= e["leaves"] for e in events)


def test_results_bitwise_with_telemetry_on(tmp_path):
    topo = TorusCordalis(4, 4)
    diag = diagonal_seed(topo)
    calls = [
        lambda: find_dynamo_complement(topo, diag, 0, [1, 2, 3]),
        lambda: find_dynamo_complement(topo, diag, 0, [1, 2], max_nodes=500),
    ]
    traced, events = _dfs_events(tmp_path, calls)
    assert len(events) == len(calls)
    for on, call in zip(traced, calls):
        off = call()
        assert (on is None) == (off is None)
        if on is not None:
            assert on.tobytes() == off.tobytes()


def _parity_seeds(kind, n):
    """The diagonal plus six seeded random seeds of size n..2n."""
    topo = TORUS_KINDS[kind](n, n)
    seeds = [diagonal_seed(topo)]
    rng = np.random.default_rng(1000 * n + len(kind))
    for _ in range(6):
        size = int(rng.integers(n, 2 * n + 1))
        seeds.append(
            sorted(rng.choice(topo.num_vertices, size, replace=False).tolist())
        )
    return topo, seeds


def _assert_parity_with_oracle(topo, seed, k):
    """Identical array or None as the per-leaf DFS over every palette of
    1-3 colors, budget and monotonicity requirement."""
    for p, max_nodes, monotone in itertools.product(
        (1, 2, 3), (1, 7, 50, 500, 200_000), (True, False)
    ):
        palette = [c for c in range(p + 1) if c != k][:p]
        kw = dict(require_monotone=monotone, max_nodes=max_nodes)
        want = per_leaf_complement(topo, seed, k, palette, **kw)
        got = find_dynamo_complement(topo, seed, k, palette, **kw)
        case = (seed, palette, max_nodes, monotone)
        if want is None:
            assert got is None, case
        else:
            assert got is not None, case
            assert got.dtype == want.dtype and np.array_equal(got, want), case


@pytest.mark.parametrize(
    "kind,n",
    [pytest.param(kind, n, marks=[pytest.mark.slow] if n == 4 else [])
     for kind in sorted(TORUS_KINDS) for n in (3, 4)],
)
def test_matches_per_leaf_oracle(kind, n):
    topo, seeds = _parity_seeds(kind, n)
    for seed in seeds:
        _assert_parity_with_oracle(topo, seed, 0)


def test_matches_per_leaf_oracle_on_theorem2_seed():
    con = theorem2_mesh_dynamo(4, 4)
    _assert_parity_with_oracle(con.topo, np.flatnonzero(con.seed).tolist(), con.k)


def test_block_prune_is_one_check_on_the_complement():
    """The per-node non-k-block prune fires at some prefix of the DFS
    order exactly when the whole complement holds a 3-core, which is
    what lets the search test it once, up front."""
    rng = np.random.default_rng(0xC0DE)
    seen = set()
    for trial in range(200):
        kind = sorted(TORUS_KINDS)[trial % 3]
        topo = TORUS_KINDS[kind](*rng.integers(3, 7, size=2))
        n = topo.num_vertices
        order = rng.permutation(n)[: int(rng.integers(0, n + 1))]
        prefix = np.zeros(n, dtype=bool)
        fires = False
        for v in order:
            prefix[v] = True
            fires = fires or bool(prune_to_core(topo, prefix, 3).any())
        assert fires == bool(prune_to_core(topo, prefix, 3).any())
        seen.add(fires)
    assert seen == {True, False}
