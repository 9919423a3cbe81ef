"""ExecutionSettings contract: one settings object, bitwise parity.

Every sharded driver takes its execution configuration only as a frozen
:class:`repro.engine.ExecutionSettings` passed as ``settings=``; the
per-knob keywords are gone and raise :class:`TypeError`.  Pinned here:
each driver produces **bitwise-identical** results at ``processes=0``
and ``processes=2``, the rejection of inapplicable definitional knobs,
and cooperative cancellation through ``settings.cancel``.
"""

import dataclasses

import pytest

from repro.core.search import (
    exhaustive_dynamo_search,
    exhaustive_min_dynamo_size,
    random_dynamo_search,
)
from repro.engine import ExecutionSettings, RunCancelled, RunStats, run_sharded
from repro.experiments.census import below_bound_census
from repro.experiments.sweeps import convergence_sweep
from repro.ext.asynchrony import async_robustness
from repro.topology import ToroidalMesh

#: the same execution at both process counts (geometry held fixed, since
#: shard geometry is part of an experiment's definition)
INLINE = ExecutionSettings(processes=0)
POOLED = ExecutionSettings(processes=2)


def outcome_key(out):
    """Everything observable about a SearchOutcome, hashable-ish."""
    return (
        out.seed_size,
        out.examined,
        out.exhaustive,
        out.cached,
        [(cfg.tobytes(), mono) for cfg, mono in out.witnesses],
    )


class TestSettingsObject:
    def test_frozen_and_comparable(self):
        s = ExecutionSettings(processes=2, batch_size=64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.processes = 4
        assert s == ExecutionSettings(processes=2, batch_size=64)
        # cancel is execution wiring, not identity
        assert s == dataclasses.replace(s, cancel=lambda: False)

    def test_reject_inapplicable_definitional_knobs(self):
        topo = ToroidalMesh(3, 3)
        with pytest.raises(ValueError, match="shard_size"):
            exhaustive_dynamo_search(
                topo, 1, 3, settings=ExecutionSettings(shard_size=8)
            )

    def test_run_stats_shape(self):
        rs = RunStats(cells=2, cache_hits=1, records_appended=3)
        assert rs.as_dict() == {
            "cells": 2, "cache_hits": 1, "records_appended": 3
        }


class TestRunShardedSettings:
    def test_cancel_raises_run_cancelled(self):
        calls = []

        def work(shard):
            calls.append(shard)
            return shard

        with pytest.raises(RunCancelled):
            run_sharded(
                work,
                list(range(8)),
                processes=0,
                cancel=lambda: len(calls) >= 2,
            )
        assert len(calls) == 2  # committed work stopped at the boundary


class TestDriverParity:
    """processes=0 vs processes=2 on the settings= path: bitwise-equal
    results, every driver."""

    def test_random_search(self):
        topo = ToroidalMesh(3, 3)
        geometry = dict(batch_size=64, shard_size=128)
        inline = random_dynamo_search(
            topo, 3, 3, 300, 11,
            settings=ExecutionSettings(processes=0, **geometry),
        )
        pooled = random_dynamo_search(
            topo, 3, 3, 300, 11,
            settings=ExecutionSettings(processes=2, **geometry),
        )
        assert inline.found_dynamo
        assert outcome_key(inline) == outcome_key(pooled)

    def test_exhaustive_search(self):
        topo = ToroidalMesh(3, 3)
        inline = exhaustive_dynamo_search(
            topo, 1, 3, settings=ExecutionSettings(processes=0, batch_size=128)
        )
        pooled = exhaustive_dynamo_search(
            topo, 1, 3, settings=ExecutionSettings(processes=2, batch_size=128)
        )
        assert outcome_key(inline) == outcome_key(pooled)

    def test_exhaustive_min_size(self):
        topo = ToroidalMesh(3, 3)
        inline = exhaustive_min_dynamo_size(
            topo, 3, max_seed_size=2, settings=INLINE
        )
        pooled = exhaustive_min_dynamo_size(
            topo, 3, max_seed_size=2, settings=POOLED
        )
        assert inline[0] == pooled[0]
        assert [outcome_key(o) for o in inline[1]] == [
            outcome_key(o) for o in pooled[1]
        ]

    def test_census(self, tmp_path):
        from repro.io.witnessdb import WitnessDB

        def run(db_path, processes):
            db = WitnessDB(db_path)
            rows = below_bound_census(
                kinds=["mesh"], sizes=[3, 4], random_trials=300, db=db,
                settings=ExecutionSettings(
                    processes=processes, batch_size=512, shard_size=128
                ),
            )
            return rows, db_path.read_bytes()

        rows_inline, bytes_inline = run(tmp_path / "inline.jsonl", 0)
        rows_pooled, bytes_pooled = run(tmp_path / "pooled.jsonl", 2)
        assert rows_inline == rows_pooled
        assert bytes_inline == bytes_pooled
        assert rows_inline.run_stats == rows_pooled.run_stats
        assert rows_pooled.run_stats.cells == 2
        assert rows_pooled.run_stats.cache_hits == 0

    def test_convergence_sweep(self):
        points = [("mesh", 4, 4), ("cordalis", 4, 5)]
        geometry = dict(batch_size=16, shard_size=8)
        inline = convergence_sweep(
            points, "smp", replicas=32, seed=5,
            settings=ExecutionSettings(processes=0, **geometry),
        )
        pooled = convergence_sweep(
            points, "smp", replicas=32, seed=5,
            settings=ExecutionSettings(processes=2, **geometry),
        )
        assert inline.tobytes() == pooled.tobytes()
        assert inline.shape == pooled.shape

    def test_scale_free(self):
        pytest.importorskip("networkx")
        from repro.ext.scale_free import scale_free_takeover_census

        common = dict(
            n=30, m_attach=2, num_colors=2, strategies=("random",),
            seed_fractions=(0.2,), graphs=2, replicas=4, max_rounds=40,
            seed=9,
        )
        inline = scale_free_takeover_census(settings=INLINE, **common)
        pooled = scale_free_takeover_census(settings=POOLED, **common)
        assert [c.as_row() for c in inline.cells] == [
            c.as_row() for c in pooled.cells
        ]
        assert pooled.run_stats == RunStats(cells=1)

    def test_scale_free_rejects_geometry_knobs(self):
        pytest.importorskip("networkx")
        from repro.ext.scale_free import scale_free_takeover_census

        with pytest.raises(ValueError, match="batch_size"):
            scale_free_takeover_census(
                n=20, graphs=1, replicas=2,
                settings=ExecutionSettings(batch_size=64),
            )


class TestCancellationPaths:
    def test_census_cancel_stops_the_run(self):
        with pytest.raises(RunCancelled):
            below_bound_census(
                kinds=["mesh", "cordalis"],
                sizes=[3],
                random_trials=40,
                settings=ExecutionSettings(cancel=lambda: True),
            )

    def test_exhaustive_cancel_between_batches(self):
        topo = ToroidalMesh(3, 3)
        with pytest.raises(RunCancelled):
            exhaustive_dynamo_search(
                topo, 2, 3,
                settings=ExecutionSettings(
                    batch_size=16, cancel=lambda: True
                ),
            )


def _removed_keyword_calls():
    """One call per driver and removed keyword (all else valid)."""
    pytest.importorskip("networkx")
    from repro.core import build_minimum_dynamo
    from repro.ext.scale_free import scale_free_takeover_census

    topo = ToroidalMesh(3, 3)
    drivers = {
        "below_bound_census": lambda **kw: below_bound_census(
            kinds=["mesh"], sizes=[3], random_trials=10, **kw
        ),
        "random_dynamo_search": lambda **kw: random_dynamo_search(
            topo, 3, 3, 10, 1, **kw
        ),
        "exhaustive_dynamo_search": lambda **kw: exhaustive_dynamo_search(
            topo, 1, 3, **kw
        ),
        "exhaustive_min_dynamo_size": lambda **kw: exhaustive_min_dynamo_size(
            topo, 3, max_seed_size=1, **kw
        ),
        "convergence_sweep": lambda **kw: convergence_sweep(
            [("mesh", 3, 3)], replicas=4, **kw
        ),
        "scale_free_takeover_census": lambda **kw: scale_free_takeover_census(
            n=20, graphs=1, replicas=2, **kw
        ),
    }
    legacy = {
        "processes": 0, "shard_size": 8, "batch_size": 8, "backend": None,
        "plan": None, "ledger": None, "resume": False,
    }
    calls = [
        (name, keyword, value, call)
        for name, call in drivers.items()
        for keyword, value in legacy.items()
    ]
    con = build_minimum_dynamo("mesh", 4, 4)
    for name, call in (
        ("below_bound_census", drivers["below_bound_census"]),
        ("scale_free_takeover_census", drivers["scale_free_takeover_census"]),
        ("async_robustness", lambda **kw: async_robustness(con, 2, seed=1, **kw)),
    ):
        calls.append((name, "stats", {}, call))
    return calls


def test_removed_execution_keywords_raise_type_error():
    """settings= is the only execution spelling: every retired keyword
    (and the retired ``stats`` out-param) is a TypeError, never silently
    accepted."""
    for name, keyword, value, call in _removed_keyword_calls():
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: value})
    with pytest.raises(TypeError, match="settings"):
        run_sharded(abs, [1], settings=INLINE)
