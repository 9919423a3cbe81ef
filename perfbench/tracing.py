"""Benchmark-side spans around the program's layers.

:class:`Tracer` replaces each layer's public function with a timing
wrapper at every name the callers look it up by: every ``repro``
module attribute bound to the original function object (so
``repro.core.complement.run_synchronous`` and
``repro.core.verify.run_synchronous`` are both traced), or the class
attribute for methods.  :meth:`Tracer.uninstall` puts the originals
back, so untraced passes in the same process run the untouched code.

A span is ``[trace, id, parent, name, start, end, note]``: ``trace``
is the pass it belongs to, ``parent`` the id of the enclosing span and
``note`` a per-layer count taken from the call's arguments or result.
Spans stay in memory and are written out once, at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Note = Optional[Callable[[tuple, dict, Any], Any]]


def _leaf_passed(args: tuple, kwargs: dict, res: Any) -> Any:
    k = kwargs.get("target_color")
    return None if k is None else bool(res.is_dynamo_run(k) and res.monotone)


#: (span name, module, function, note) — module-level layer entry points
FUNCTION_LAYERS: List[Tuple[str, str, str, Note]] = [
    ("experiments.census", "repro.experiments.census", "below_bound_census", None),
    ("ext.scale_free", "repro.ext.scale_free", "scale_free_takeover_census", None),
    ("ext.scale_free.barabasi_albert_topology", "repro.ext.scale_free",
     "barabasi_albert_topology", None),
    ("core.complement.find_dynamo_complement", "repro.core.complement",
     "find_dynamo_complement", None),
    ("structures.blocks.prune_to_core", "repro.structures.blocks",
     "prune_to_core", None),
    ("engine.runner.run_synchronous", "repro.engine.runner", "run_synchronous",
     _leaf_passed),
    ("engine.batch.run_batch", "repro.engine.batch", "run_batch",
     lambda a, kw, res: len(res.rounds)),
    ("engine.parallel.run_sharded", "repro.engine.parallel", "run_sharded",
     lambda a, kw, res: len(res)),
    ("core.search.random_dynamo_search", "repro.core.search",
     "random_dynamo_search", lambda a, kw, res: (res.examined, len(res.witnesses))),
    ("core.search.exhaustive_min_dynamo_size", "repro.core.search",
     "exhaustive_min_dynamo_size", None),
    ("core.verify.is_monotone_dynamo", "repro.core.verify", "is_monotone_dynamo",
     None),
]

#: (span name, module, class, methods, note) — methods traced as one layer
METHOD_LAYERS: List[Tuple[str, str, str, Tuple[str, ...], Note]] = [
    ("io.witnessdb.WitnessDB.load", "repro.io.witnessdb", "WitnessDB",
     ("__init__",), None),
    ("io.witnessdb.WitnessDB.add", "repro.io.witnessdb", "WitnessDB", ("add",),
     lambda a, kw, res: bool(res)),
    ("io.witnessdb.WitnessDB.add_cell", "repro.io.witnessdb", "WitnessDB",
     ("add_cell",), None),
    ("io.witnessdb.WitnessDB.find_cell", "repro.io.witnessdb", "WitnessDB",
     ("find_cell",), lambda a, kw, res: res is not None),
    ("io.witnessdb.WitnessDB.verify", "repro.io.witnessdb", "WitnessDB",
     ("verify",), None),
    ("io.jsonl.JsonlStore.append", "repro.io.jsonl", "JsonlStore", ("append",),
     None),
    ("io.query.WitnessQueryIndex", "repro.io.query", "WitnessQueryIndex",
     ("db", "refresh", "witnesses", "census_cells", "witness"), None),
    ("service.state.ServiceState", "repro.service.state", "ServiceState",
     ("health", "list_witnesses", "list_census_cells", "get_witness"),
     lambda a, kw, res: res[0]),
]

LAYER_NAMES = [row[0] for row in FUNCTION_LAYERS] + [row[0] for row in METHOD_LAYERS]

#: extra per-layer metrics beyond ``<layer>.busy_s/.self_s/.calls``
DERIVED = [
    "core.complement.leaves",
    "core.complement.leaf_pass_ratio",
    "engine.batch.run_batch.rows",
    "engine.batch.run_batch.rows_per_s",
    "engine.parallel.run_sharded.shards",
    "core.search.random_dynamo_search.configs",
    "core.search.random_dynamo_search.witness_ratio",
    "io.witnessdb.WitnessDB.add.appended_ratio",
    "io.witnessdb.WitnessDB.find_cell.hit_ratio",
    "io.query.reloads",
    "service.state.ServiceState.non_200",
    "workload.unattributed_s",
]

#: every per-layer metric this module computes, with its unit
METRIC_UNITS: Dict[str, str] = {}
for _layer in LAYER_NAMES:
    METRIC_UNITS[f"{_layer}.busy_s"] = "s"
    METRIC_UNITS[f"{_layer}.self_s"] = "s"
    METRIC_UNITS[f"{_layer}.calls"] = "count"
for _name in DERIVED:
    METRIC_UNITS[_name] = (
        "1/s" if _name.endswith("_per_s") else
        "s" if _name.endswith("_s") else
        "ratio" if _name.endswith("_ratio") else "count"
    )
#: measured by the harness around whole passes rather than from spans
METRIC_UNITS.update({
    "startup.import_s": "s",
    "workload.trace_overhead": "ratio",
    "obs.overhead_basic": "ratio",
    "obs.overhead_detailed": "ratio",
    "engine.plans.hit_rate": "ratio",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.trace = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, note: Note) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [self.trace, len(spans), stack[-1] if stack else None,
                    name, perf_counter(), 0.0, None]
            spans.append(span)
            stack.append(span[1])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if note is not None:
                span[6] = note(args, kwargs, result)
            return result

        traced.perfbench_original = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]
        for name, modname, attr, note in FUNCTION_LAYERS:
            if modname not in sys.modules:
                continue
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        for name, modname, cls_name, methods, note in METHOD_LAYERS:
            if modname not in sys.modules:
                continue
            cls = getattr(sys.modules[modname], cls_name)
            for meth in methods:
                original = inspect.getattr_static(cls, meth)
                if isinstance(original, property):
                    wrapped: Any = property(self._wrap(name, original.fget, note))
                else:
                    wrapped = self._wrap(name, original, note)
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        # a module imported during a traced pass may have bound a wrapper
        for name, mod in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, value in list(vars(mod).items()):
                    original = getattr(value, "perfbench_original", None)
                    if original is not None:
                        setattr(mod, key, original)

    def pass_metrics(self, trace: int, wall: float) -> Dict[str, float]:
        """Per-layer metrics of one traced pass whose program wall was
        ``wall`` seconds."""
        spans = [s for s in self.spans if s[0] == trace]
        by_id = {s[1]: s for s in spans}
        child_time: Dict[int, float] = {}
        top_level = 0.0
        for s in spans:
            if s[2] is None:
                top_level += s[5] - s[4]
            else:
                child_time[s[2]] = child_time.get(s[2], 0.0) + s[5] - s[4]
        busy = dict.fromkeys(LAYER_NAMES, 0.0)
        own = dict.fromkeys(LAYER_NAMES, 0.0)
        calls = dict.fromkeys(LAYER_NAMES, 0)
        notes: Dict[str, list] = {name: [] for name in LAYER_NAMES}
        leaves = passed = reloads = 0
        for s in spans:
            name, dur = s[3], s[5] - s[4]
            calls[name] += 1
            own[name] += dur - child_time.get(s[1], 0.0)
            notes[name].append(s[6])
            ancestors = []
            parent = s[2]
            while parent is not None:
                ancestors.append(by_id[parent][3])
                parent = by_id[parent][2]
            if name not in ancestors:
                busy[name] += dur
            if name == "engine.runner.run_synchronous" and ancestors[:1] == [
                "core.complement.find_dynamo_complement"
            ]:
                leaves += 1
                passed += bool(s[6])
            if name == "io.witnessdb.WitnessDB.load" and "io.query.WitnessQueryIndex" in ancestors:
                reloads += 1
        out: Dict[str, float] = {}
        for name in LAYER_NAMES:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.calls"] = calls[name]
        rows = sum(notes["engine.batch.run_batch"])
        searches = notes["core.search.random_dynamo_search"]
        configs = sum(n[0] for n in searches)
        adds = notes["io.witnessdb.WitnessDB.add"]
        probes = notes["io.witnessdb.WitnessDB.find_cell"]
        out.update({
            "core.complement.leaves": leaves,
            "core.complement.leaf_pass_ratio": _ratio(passed, leaves),
            "engine.batch.run_batch.rows": rows,
            "engine.batch.run_batch.rows_per_s": _ratio(
                rows, busy["engine.batch.run_batch"]),
            "engine.parallel.run_sharded.shards": sum(
                notes["engine.parallel.run_sharded"]),
            "core.search.random_dynamo_search.configs": configs,
            "core.search.random_dynamo_search.witness_ratio": _ratio(
                sum(n[1] for n in searches), configs),
            "io.witnessdb.WitnessDB.add.appended_ratio": _ratio(sum(adds), len(adds)),
            "io.witnessdb.WitnessDB.find_cell.hit_ratio": _ratio(
                sum(probes), len(probes)),
            "io.query.reloads": reloads,
            "service.state.ServiceState.non_200": sum(
                status != 200 for status in notes["service.state.ServiceState"]),
            "workload.unattributed_s": wall - top_level,
        })
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for trace, sid, parent, name, start, end, _ in self.spans:
                fh.write(json.dumps({
                    "trace": trace, "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end,
                }) + "\n")
