"""The four benchmark workloads.

Each workload imports the layers it drives (:meth:`import_modules`),
prepares its inputs from the benchmark seed (the constructor), then runs
closed-loop passes: one caller, which waits for every call.  A pass
returns ``(wall_seconds, output)``; the wall covers only calls into the
program, never the harness's own bookkeeping.  :meth:`check` validates
an output against :mod:`oracle` and the pinned values in
``pinned.json`` and returns ``(checks_attempted, failure_messages)``.
:meth:`fingerprint` digests everything a pass produced, so the traced
and telemetry passes can be compared with the plain one.

Every pass of a run at benchmark seed ``s`` uses program seed
``base + s``, where ``base`` is the program's own default, so all passes
of a run do the same work however many of them fit in the window;
benchmark seed 0 is therefore the program's default seed, and that is
the seed the pinned values are checked on.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from oracle import digest, records_of, smp_monotone_dynamo

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())

#: program default seeds (``below_bound_census`` / ``scale_free_takeover_census``)
CENSUS_DEFAULT_SEED = 0xBEEF
SCALE_FREE_DEFAULT_SEED = 0x5CA1E

Checked = Tuple[int, List[str]]


def program_seed(base: int, seed: int) -> int:
    return base + seed


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


class Workload:
    name = ""

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.smoke = smoke

    @staticmethod
    def import_modules() -> None:
        raise NotImplementedError

    def run_pass(self) -> Tuple[float, Any]:
        raise NotImplementedError

    def check(self, out: Any) -> Checked:
        raise NotImplementedError

    def check_once(self) -> Checked:
        """Checks of inputs that never change within a run."""
        return 0, []

    def fingerprint(self, out: Any) -> str:
        return digest(out)

    def keep(self, out: Any) -> Any:
        """What :meth:`details` needs from a checked output; the rest of
        the output is dropped so passes do not grow the heap."""
        return None

    def details(self, kept: List[Any]) -> List[Tuple[str, float, str, str]]:
        """Workload-specific figures printed beside the metrics:
        ``(name, value, unit, note)``."""
        return []


class CensusCold(Workload):
    """``below_bound_census`` over every kind at sizes 3-5 into an empty db."""

    name = "census-cold"
    kinds = ("mesh", "cordalis", "serpentinus")

    @staticmethod
    def import_modules() -> None:
        import repro.experiments.census  # noqa: F401

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool) -> None:
        super().__init__(root, work, seed, smoke)
        from repro.engine.context import ExecutionSettings
        from repro.topology.tori import make_torus

        self.sizes = (3,) if smoke else (3, 4, 5)
        self.options: Dict[str, Any] = {"random_trials": 500} if smoke else {}
        self.settings = ExecutionSettings(processes=0)
        self.db = work / "census.jsonl"
        self.neighbors = {
            (kind, n): make_torus(kind, n, n).neighbors.tolist()
            for kind in self.kinds
            for n in self.sizes
        }

    def run_pass(self) -> Tuple[float, Any]:
        from repro.experiments.census import below_bound_census

        seed = program_seed(CENSUS_DEFAULT_SEED, self.seed)
        self.db.unlink(missing_ok=True)
        t0 = perf_counter()
        rows = below_bound_census(
            self.kinds, self.sizes, seed=seed, db=str(self.db),
            settings=self.settings, **self.options,
        )
        wall = perf_counter() - t0
        return wall, {
            "seed": seed,
            "rows": [asdict(row) for row in rows],
            "db": self.db.read_bytes().decode("utf-8"),
        }

    def check(self, out: Any) -> Checked:
        rows = out["rows"]
        raw = out["db"].encode("utf-8")
        cells = {(p["kind"], p["n"]): p for p in records_of(raw, "census-cell")}
        witnesses = {p["id"]: p for p in records_of(raw, "witness")}
        failures = []
        grid = [(kind, n) for kind in self.kinds for n in self.sizes]
        if [(row["kind"], row["n"]) for row in rows] != grid:
            failures.append("census rows do not cover the kind x size grid")
        for row in rows:
            size = row["certified_size"]
            cell = cells.get((row["kind"], row["n"]))
            if cell is None or cell["row"] != row:
                failures.append(f"row {row} has no matching census-cell record")
                continue
            if size is None:
                continue
            wit = witnesses.get(cell["witness_id"])
            where = f"{row['kind']} {row['n']}x{row['n']}"
            if wit is None:
                failures.append(f"{where}: witness {cell['witness_id']} missing")
                continue
            config = wit["configuration"]
            if wit["seed_size"] != size or config.count(wit["k"]) != size:
                failures.append(f"{where}: witness size is not {size}")
            elif not smp_monotone_dynamo(
                self.neighbors[(row["kind"], row["n"])], config, wit["k"]
            ):
                failures.append(f"{where}: witness is not a monotone dynamo")
        attempted = 1 + len(rows)
        if out["seed"] == CENSUS_DEFAULT_SEED and not self.smoke:
            attempted += 1
            if rows != PINNED["census_cold_table"]:
                failures.append("census table differs from the pinned table")
        return attempted, failures


class ComplementDFS(Workload):
    """Complement DFS: two 5x5 diagonal witnesses plus a budget-bound
    6x6 cordalis search that returns ``None``.  The seed is unused."""

    name = "complement-dfs"
    kinds = ("cordalis", "serpentinus")
    palette = (1, 2, 3, 4)

    @staticmethod
    def import_modules() -> None:
        import repro.core.complement  # noqa: F401
        import repro.core.diagonal  # noqa: F401

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool) -> None:
        super().__init__(root, work, seed, smoke)
        from repro.core.diagonal import diagonal_seed
        from repro.topology.tori import make_torus

        self.n = 4 if smoke else 5
        budget_n = 5 if smoke else 6
        self.max_nodes = 300 if smoke else 4000
        self.budget_topo = make_torus("cordalis", budget_n, budget_n)
        self.budget_seed = diagonal_seed(self.budget_topo)
        self.neighbors = {
            kind: make_torus(kind, self.n, self.n).neighbors.tolist()
            for kind in self.kinds
        }

    def run_pass(self) -> Tuple[float, Any]:
        from repro.core.complement import find_dynamo_complement
        from repro.core.diagonal import diagonal_dynamo

        t0 = perf_counter()
        found = {kind: diagonal_dynamo(self.n, kind) for kind in self.kinds}
        budget = find_dynamo_complement(
            self.budget_topo, self.budget_seed, 0, self.palette,
            max_nodes=self.max_nodes,
        )
        wall = perf_counter() - t0
        return wall, {
            "found": {
                kind: None if con is None else {
                    "palette": [int(c) for c in con.palette],
                    "colors": [int(c) for c in con.colors],
                }
                for kind, con in found.items()
            },
            "budget": None if budget is None else [int(c) for c in budget],
        }

    def check(self, out: Any) -> Checked:
        failures = []
        for kind, con in out["found"].items():
            if con is None:
                failures.append(f"diagonal_dynamo({self.n}, {kind!r}) found nothing")
                continue
            colors = con["colors"]
            if colors.count(0) != self.n or not smp_monotone_dynamo(
                self.neighbors[kind], colors, 0
            ):
                failures.append(f"{kind}: result is not a size-{self.n} monotone dynamo")
            elif not self.smoke and digest(con) != PINNED["complement_digests"][kind]:
                failures.append(f"{kind}: result differs from the pinned digest")
        if out["budget"] is not None:
            failures.append("the budget-bound search returned a coloring")
        return len(self.kinds) + 1, failures


def nth_permutation(items: Sequence[int], index: int) -> Tuple[int, ...]:
    """The ``index``-th tuple ``itertools.permutations(items)`` yields."""
    pool = list(items)
    out = []
    for left in range(len(pool), 0, -1):
        pick, index = divmod(index, math.factorial(left - 1))
        out.append(pool.pop(pick))
    return tuple(out)


def sample_variants(
    base: List[dict], count: int, rng: np.random.Generator
) -> List[Tuple[dict, Tuple[int, ...], dict]]:
    """``count`` distinct dynamo-preserving variants of shipped witnesses.

    SMP treats colors symmetrically, so permuting the non-target colors
    keeps a monotone dynamo one; the toroidal mesh is also invariant
    under translation.  Variant ``(witness, perm, shift)`` is numbered
    in a fixed order; indices are drawn in a seeded order and only the
    drawn variants are built, skipping any that equal a shipped or an
    earlier one.  Returns ``(base payload, configuration, provenance)``.
    """
    seen = {(p["kind"], p["m"], p["n"], p["colors"], tuple(p["configuration"])) for p in base}
    sizes = [
        math.factorial(p["colors"] - 1) * (p["m"] * p["n"] if p["kind"] == "mesh" else 1)
        for p in base
    ]
    starts = np.cumsum([0] + sizes)
    out = []
    for index in rng.permutation(int(starts[-1])):
        which = int(np.searchsorted(starts, index, side="right")) - 1
        p = base[which]
        shifts = p["m"] * p["n"] if p["kind"] == "mesh" else 1
        perm_index, shift_index = divmod(int(index - starts[which]), shifts)
        shift = divmod(shift_index, p["n"])
        others = [c for c in range(p["colors"]) if c != p["k"]]
        perm = nth_permutation(others, perm_index)
        relabel = np.arange(p["colors"])
        relabel[others] = perm
        grid = np.asarray(p["configuration"]).reshape(p["m"], p["n"])
        config = tuple(int(c) for c in relabel[np.roll(grid, shift, axis=(0, 1))].ravel())
        key = (p["kind"], p["m"], p["n"], p["colors"], config)
        if key in seen:
            continue
        seen.add(key)
        out.append((p, config, {
            "source": "perfbench-variant", "of": p["id"],
            "perm": list(perm), "shift": list(shift),
        }))
        if len(out) == count:
            return out
    raise ValueError(f"only {len(out)} distinct variants, {count} asked")


#: the query sessions of the two in-repo clients of the service, as
#: ``(witness filter keys, page limit)``: ``examples/query_service.py``
#: and the CI service smoke.  Each lists one filtered page of witnesses,
#: gets the first witness on it by id, then lists census cells of a kind.
QUERY_SESSIONS = (
    (("kind",), 3),
    (("kind", "colors", "verified"), 5),
)


class Corpus(Workload):
    """Read/write path of the witness corpus: durable appends, reopen,
    service queries, and verification with stamping."""

    name = "corpus"

    @staticmethod
    def import_modules() -> None:
        import repro.io.witnessdb  # noqa: F401
        import repro.service.state  # noqa: F401

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool) -> None:
        super().__init__(root, work, seed, smoke)
        from repro.io.serialize import WitnessRecord

        self.shipped = (root / "results" / "witnesses.jsonl").read_bytes()
        base = records_of(self.shipped, "witness")
        rng = np.random.default_rng(seed)
        self.variants = []
        for p, config, provenance in sample_variants(base, 100 if smoke else 1000, rng):
            self.variants.append(WitnessRecord(
                rule=p["rule"], kind=p["kind"], m=p["m"], n=p["n"],
                colors=p["colors"], k=p["k"], seed_size=p["seed_size"],
                monotone=p["monotone"], configuration=config,
                method=p["method"], provenance=provenance,
            ))
        shipped_ids = {p["id"] for p in base}
        self.expected_appends = sum(v.id not in shipped_ids for v in self.variants)
        self.queries = self._make_queries(rng, base, 20 if smoke else 150)
        self.db = work / "corpus.jsonl"
        self._expected_for = ""
        self._expected_pages: List[list] = []
        self._stored = 0
        self.oracle_sample = [self.variants[int(i)] for i in rng.choice(
            len(self.variants), size=10 if smoke else 40, replace=False
        )]

    def _make_queries(
        self, rng: np.random.Generator, base: List[dict], sessions: int
    ) -> List[Tuple[str, Any]]:
        """Seeded :data:`QUERY_SESSIONS`, the two shapes equally likely.
        Filter values come from a seeded shipped witness (so the page is
        never empty) and the census-cell kind from the shipped cells;
        values are query-string text, as the HTTP layer passes them.  A
        ``get`` query's id is the first item of the page before it."""
        cell_kinds = sorted({p["kind"] for p in records_of(self.shipped, "census-cell")})
        queries: List[Tuple[str, Any]] = []
        for _ in range(sessions):
            keys, limit = QUERY_SESSIONS[int(rng.integers(len(QUERY_SESSIONS)))]
            like = base[int(rng.integers(len(base)))]
            params = {
                key: str(like[key]).lower() if isinstance(like[key], bool) else str(like[key])
                for key in keys
            }
            params["limit"] = str(limit)
            queries.append(("witnesses", params))
            queries.append(("get", None))
            queries.append(("cells", {"kind": str(rng.choice(cell_kinds))}))
        return queries

    @staticmethod
    def _ask(state: Any, query: Tuple[str, Any]) -> Tuple[int, Dict[str, Any]]:
        op, arg = query
        if op == "get":
            return state.get_witness(arg)
        if op == "cells":
            return state.list_census_cells(arg)
        return state.list_witnesses(arg)

    def run_pass(self) -> Tuple[float, Any]:
        from repro.io.witnessdb import WitnessDB
        from repro.service.state import ServiceState

        self.db.write_bytes(self.shipped)
        t0 = perf_counter()
        store = WitnessDB(self.db)
        open_s = perf_counter() - t0
        append_ms = []
        appended = 0
        for record in self.variants:
            t0 = perf_counter()
            appended += store.add(record)
            append_ms.append((perf_counter() - t0) * 1e3)
        t0 = perf_counter()
        store = WitnessDB(self.db)
        load_s = perf_counter() - t0
        snapshot = self.db.read_bytes()
        query_ms = []
        responses = []
        t0 = perf_counter()
        state = ServiceState(self.db)
        try:
            for query in self.queries:
                if query[0] == "get":
                    query = ("get", responses[-1][1]["items"][0]["id"])
                t1 = perf_counter()
                responses.append(self._ask(state, query))
                query_ms.append((perf_counter() - t1) * 1e3)
        finally:
            state.close()
        service_s = perf_counter() - t0
        t0 = perf_counter()
        verdicts = [store.verify(record).ok for record in list(store)]
        verify_s = perf_counter() - t0
        wall = open_s + sum(append_ms) / 1e3 + load_s + service_s + verify_s
        return wall, {
            "appended": appended,
            "snapshot": snapshot.decode("utf-8"),
            "responses": json.loads(json.dumps(responses)),
            "verdicts": verdicts,
            "final": self.db.read_bytes().decode("utf-8"),
            "append_ms": append_ms,
            "load_s": load_s,
            "query_ms": query_ms,
            "verify_per_s": len(verdicts) / verify_s,
        }

    def _expected(
        self, query: Tuple[str, Any], witnesses: List[dict], cells: List[dict]
    ) -> Tuple[int, Any]:
        op, params = query
        if op == "get":
            match = [p for p in witnesses if p["id"] == params]
            return (200, match[0]) if match else (404, None)
        rows = cells if op == "cells" else witnesses

        def keep(p: dict) -> bool:
            for key, value in params.items():
                if key in ("limit", "offset"):
                    continue
                want: Any = value
                if key in ("m", "n", "colors"):
                    want = int(value)
                elif key == "verified":
                    want = value == "true"
                if p[key] != want:
                    return False
            return True

        hits = [p for p in rows if keep(p)]
        limit = int(params.get("limit", 50))
        offset = int(params.get("offset", 0))
        return 200, {
            "items": hits[offset:offset + limit], "total": len(hits),
            "limit": limit, "offset": offset,
        }

    def check(self, out: Any) -> Checked:
        failures = []
        if out["appended"] != self.expected_appends:
            failures.append(
                f"{out['appended']} appends, expected {self.expected_appends}"
            )
        if out["snapshot"] != self._expected_for:
            # every pass stores the same records; filter them once per run
            snapshot = out["snapshot"].encode("utf-8")
            witnesses = records_of(snapshot, "witness")
            cells = records_of(snapshot, "census-cell")
            self._expected_pages = []
            for query in self.queries:
                if query[0] == "get":
                    query = ("get", self._expected_pages[-1][1]["items"][0]["id"])
                self._expected_pages.append(list(self._expected(query, witnesses, cells)))
            self._stored = len(witnesses)
            self._expected_for = out["snapshot"]
        for query, response, expected in zip(
            self.queries, out["responses"], self._expected_pages
        ):
            if response[0] != 200:
                failures.append(f"{query}: status {response[0]}")
            elif response != expected:
                failures.append(f"{query}: page differs from a direct filter")
        verdicts = out["verdicts"]
        if len(verdicts) != self._stored or not all(verdicts):
            failures.append(
                f"verify passed {sum(verdicts)} of {len(verdicts)} records "
                f"({self._stored} stored)"
            )
        final = records_of(out["final"].encode("utf-8"), "witness")
        if not all(p["verified"] for p in final):
            failures.append("verification stamps missing after verify")
        return 2 + len(self.queries) + len(verdicts), failures

    def check_once(self) -> Checked:
        """Replay a seeded sample of the appended variants with the
        independent SMP loop (once per run: the variants never change)."""
        from repro.topology.tori import make_torus

        failures = []
        for record in self.oracle_sample:
            topo = make_torus(record.kind, record.m, record.n)
            if not smp_monotone_dynamo(
                topo.neighbors.tolist(), record.configuration, record.k
            ):
                failures.append(f"variant {record.id} is not a monotone dynamo")
        return len(self.oracle_sample), failures

    def fingerprint(self, out: Any) -> str:
        return digest({k: out[k] for k in ("appended", "snapshot", "responses", "verdicts", "final")})

    def keep(self, out: Any) -> Any:
        return {k: out[k] for k in ("append_ms", "load_s", "query_ms", "verify_per_s")}

    def details(self, outs: List[Any]) -> List[Tuple[str, float, str, str]]:
        appends = [ms for out in outs for ms in out["append_ms"]]
        queries = [ms for out in outs for ms in out["query_ms"]]
        return [
            ("append_p50_ms", percentile(appends, 50), "ms", f"n={len(appends)}"),
            ("append_p99_ms", percentile(appends, 99), "ms", f"n={len(appends)}"),
            ("load_s", statistics.median(o["load_s"] for o in outs), "s",
             f"median of {len(outs)} reopens"),
            ("query_p50_ms", percentile(queries, 50), "ms", f"n={len(queries)}"),
            ("query_p99_ms", percentile(queries, 99), "ms", f"n={len(queries)}"),
            ("verify_per_s", statistics.median(o["verify_per_s"] for o in outs),
             "1/s", f"median of {len(outs)} verify phases"),
        ]


class ScaleFree(Workload):
    """``scale_free_takeover_census`` at the CLI defaults (n=300)."""

    name = "scale-free"

    @staticmethod
    def import_modules() -> None:
        import networkx  # noqa: F401  (imported lazily by the first graph)
        import repro.ext.scale_free  # noqa: F401

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool) -> None:
        super().__init__(root, work, seed, smoke)
        from repro.engine.context import ExecutionSettings

        self.options: Dict[str, Any] = (
            {"n": 60, "graphs": 2, "replicas": 8} if smoke else {}
        )
        self.settings = ExecutionSettings(processes=0)

    def run_pass(self) -> Tuple[float, Any]:
        from repro.ext.scale_free import scale_free_takeover_census

        seed = program_seed(SCALE_FREE_DEFAULT_SEED, self.seed)
        t0 = perf_counter()
        census = scale_free_takeover_census(
            seed=seed, settings=self.settings, **self.options
        )
        wall = perf_counter() - t0
        return wall, {"seed": seed, "rows": [cell.as_row() for cell in census.cells]}

    def check(self, out: Any) -> Checked:
        from repro.ext.scale_free import SCALE_FREE_STRATEGIES

        n = self.options.get("n", 300)
        graphs = self.options.get("graphs", 4)
        replicas = self.options.get("replicas", 32)
        rows = out["rows"]
        failures = []
        grid = [(s, f) for s in SCALE_FREE_STRATEGIES for f in (0.02, 0.05, 0.10)]
        if [(r["strategy"], r["seed_fraction"]) for r in rows] != grid:
            failures.append("scale-free rows do not cover the strategy x fraction grid")
        for r in rows:
            if not (
                r["graphs"] == graphs and r["replicas"] == replicas
                and 0 <= r["takeover_rate"] <= r["converged_rate"] <= 1
                and r["takeover_rate"] <= r["mean_final_k_fraction"] <= 1
                and 0 <= r["mean_rounds"] <= 4 * n + 64
            ):
                failures.append(f"row {r} breaks the census invariants")
        attempted = 1 + len(rows)
        if out["seed"] == SCALE_FREE_DEFAULT_SEED and not self.smoke:
            attempted += 1
            if digest(rows) != PINNED["scale_free_digest"]:
                failures.append("scale-free rows differ from the pinned digest")
        return attempted, failures


WORKLOADS = {w.name: w for w in (CensusCold, ComplementDFS, Corpus, ScaleFree)}
