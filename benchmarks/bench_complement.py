"""Complement DFS: batched leaf blocks vs one simulation per leaf.

:func:`repro.core.complement.find_dynamo_complement` buffers complete
leaf colorings into doubling blocks and checks each block with one
:func:`repro.engine.run_batch` call, and tests the non-k-block prune
once, up front.  The per-leaf oracle in ``tests/helpers.py`` is the
same DFS checking every leaf with its own ``run_synchronous`` call and
every node with a whole-torus ``prune_to_core`` peel.  Both visit the
same nodes under the same budget and return the same result; this
benchmark times the two on the search the cold census stalls in, the
cordalis 6x6 diagonal seed with four non-k colors, cut at a fixed node
budget.

* **pytest-benchmark suite** (``pytest benchmarks/bench_complement.py``)
  — asserts the two searches agree, asserts the >= 3x acceptance floor
  (skipped under ``REPRO_BENCH_RELAX``) and records the ratio in
  ``extra_info``;
* **standalone emitter** (``python benchmarks/bench_complement.py
  [--out BENCH_complement.json]``) — writes the comparison that
  ``tools/compare_bench.py`` gates in CI.  The JSON records, never
  asserts: raw timings move with the hardware, the ratio is measured on
  one machine against itself.
"""

import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: wall-clock floors are meaningless on loaded shared runners; CI's smoke
#: step sets this to record ratios without asserting them
_RELAX_SPEEDUP = os.environ.get("REPRO_BENCH_RELAX", "") not in ("", "0")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from helpers import per_leaf_complement  # noqa: E402

from repro import obs  # noqa: E402
from repro.core.complement import find_dynamo_complement  # noqa: E402
from repro.core.diagonal import diagonal_seed  # noqa: E402
from repro.obs.report import load_stream  # noqa: E402
from repro.topology import TorusCordalis  # noqa: E402

TORUS_SIZE = 6
PALETTE = (1, 2, 3, 4)
MAX_NODES = 4000


def _search(fn):
    topo = TorusCordalis(TORUS_SIZE, TORUS_SIZE)
    return fn(topo, diagonal_seed(topo), 0, PALETTE, max_nodes=MAX_NODES)


def _tmin(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _assert_parity():
    batched = _search(find_dynamo_complement)
    oracle = _search(per_leaf_complement)
    assert (batched is None) == (oracle is None)
    if batched is not None:
        assert np.array_equal(batched, oracle)


def _dfs_counters() -> dict:
    """The ``complement-dfs`` telemetry event of one batched search."""
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "bench.tel"
        with obs.telemetry_session(stream, level="basic", command="bench"):
            _search(find_dynamo_complement)
        (event,) = [
            r for r in load_stream(stream)
            if r["kind"] == "event" and r["name"] == "complement-dfs"
        ]
    return {key: event[key] for key in ("outcome", "nodes", "leaves", "blocks")}


def test_complement_batched_speedup(benchmark):
    """Batched leaf blocks vs per-leaf checks at the same node budget,
    parity included.  The acceptance bar is >= 3x."""
    _assert_parity()
    t_leaf = _tmin(lambda: _search(per_leaf_complement), repeats=1)
    t_batch = _tmin(lambda: _search(find_dynamo_complement), repeats=3)
    speedup = t_leaf / t_batch
    benchmark.pedantic(_search, args=(find_dynamo_complement,), rounds=1,
                       iterations=1)
    benchmark.extra_info.update(max_nodes=MAX_NODES,
                                batched_speedup=round(speedup, 2))
    if not _RELAX_SPEEDUP:
        assert speedup >= 3.0, (
            f"batched complement DFS only {speedup:.2f}x over per-leaf checks"
        )


def collect_complement_timings(rounds: int = 5) -> dict:
    """Time both searches; the ``BENCH_complement.json`` payload."""
    _assert_parity()
    t_leaf = _tmin(lambda: _search(per_leaf_complement), repeats=rounds)
    t_batch = _tmin(lambda: _search(find_dynamo_complement), repeats=rounds)
    return {
        "workload": {
            "search": f"cordalis {TORUS_SIZE}x{TORUS_SIZE}, diagonal seed, "
            f"k=0, palette {list(PALETTE)}, max_nodes={MAX_NODES}, monotone",
            "note": "per-leaf = tests/helpers.py:per_leaf_complement (one "
            "run_synchronous per leaf, prune_to_core per node); both return "
            "the same result at the same budget, so the ratio is pure speed",
        },
        "results": {
            "cordalis-6x6-diagonal": {
                "per_leaf_seconds": round(t_leaf, 3),
                "batched_seconds": round(t_batch, 3),
                "batched_speedup_vs_per_leaf": round(t_leaf / t_batch, 2),
                **_dfs_counters(),
            }
        },
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="emit the complement DFS comparison JSON "
        "(BENCH_complement.json)"
    )
    parser.add_argument("--out", default="BENCH_complement.json", metavar="FILE")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timing repeats per measurement (best-of)")
    args = parser.parse_args(argv)
    payload = collect_complement_timings(rounds=args.rounds)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for label, entry in sorted(payload["results"].items()):
        print(
            f"{label}: per-leaf {entry['per_leaf_seconds']:.3f}s -> batched "
            f"{entry['batched_seconds']:.3f}s "
            f"({entry['batched_speedup_vs_per_leaf']:.2f}x)"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
