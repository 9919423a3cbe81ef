"""Append-only, versioned on-disk store of dynamo witnesses.

The census/search drivers discover *witnesses* — minimal dynamo
configurations that certify size bounds — and before this module existed
they threw them away, so every CLI invocation recomputed hours of sharded
search.  :class:`WitnessDB` persists them:

* **storage** is a JSON-lines file (one record per line, plain JSON
  types, diffable, checked into ``results/witnesses.jsonl``); writes only
  ever *append*, and every append is flushed and fsynced (via
  :class:`repro.io.jsonl.JsonlStore`), so a record a caller saw recorded
  survives a ``kill -9`` and the file history is the discovery history.
  A crash *mid*-append leaves a partial final line; that torn tail is
  reported via :attr:`WitnessDB.torn_tail` (never as corruption) and is
  truncated away by the next append;
* **versioning** is two-fold: every line carries the serializer's
  ``schema`` number (legacy lines are upgraded on load, see
  :func:`repro.io.serialize.witness_from_dict`), and a record appended
  with an id already in the file *supersedes* the earlier line
  (last-wins on load) — that is how verification stamps land without
  rewriting history;
* the **in-memory index** keys witnesses by ``(rule, kind, m, n,
  colors)`` and every other record by its id, so lookups are O(1) dict
  probes;
* **corrupted lines** never abort a load: they are collected into
  :attr:`WitnessDB.corrupt` as ``(line_number, message)`` pairs (pass
  ``strict=True`` to raise instead).

Every line carries a ``type`` tag, and :func:`record_from_dict` /
:func:`record_to_dict` are the one codec for all of them.

``"witness"``
    A configuration + provenance + verification status
    (:class:`~repro.io.serialize.WitnessRecord`).  Provenance carries the
    *search definition* (mode, entropy words, trial counts, batch and
    shard geometry) under which the configuration was first discovered,
    plus the kernel backend name it ran under — recorded for forensics
    only, since backends are bitwise-interchangeable and therefore
    deliberately excluded from every cache-definition key.  Witnesses
    keep their own serializer: it upgrades legacy lines, and
    :meth:`WitnessDB.add` is first-wins with an explicit ``replace=``.

The *keyed* kinds, listed in :data:`RECORD_KINDS`
    Cached results of one experiment definition: a
    :class:`RecordKind` names the type tag, the dataclass, and the id
    fields hashed (with the tag) into the record id.  The generic
    :meth:`WitnessDB.put` / :meth:`WitnessDB.find` store and probe all
    of them; a hit requires an exact definition match.  A new kind is
    one dataclass and one table entry.

    * ``"census-cell"`` (:class:`CensusCellRecord`) — one below-bound
      census cell: the full :class:`~repro.experiments.census.CensusRow`
      payload plus a pointer to its witness record.  Negative scans are
      part of the row, so ``repro-dynamo census --db`` skips the sharded
      pool entirely on a re-run.
    * ``"scale-free-cell"`` (:class:`ScaleFreeCellRecord`) and
      ``"async-summary"`` (:class:`AsyncSummaryRecord`) — the
      scale-free takeover census and async-robustness statistics.
    * ``"search"`` (:class:`SearchRecord`) — one search invocation's
      summary, the consult-before-recompute cache of
      :mod:`repro.core.search`.

Re-verification (:func:`verify_witness`) replays a stored configuration
through the batched engine and checks it still reaches the
``k``-monochromatic fixed point (and monotonically, when the record
claims so); :meth:`WitnessDB.verify` stamps the outcome back into the
store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    cast,
)

import numpy as np

from .. import obs
from ..engine.batch import run_batch
from ..rules import RULE_NAMES, make_rule
from ..rules.base import Rule

if TYPE_CHECKING:  # type-only: keep io importable without the backends
    from ..engine.backends import KernelBackend
from ..topology.tori import make_torus
from .jsonl import JsonlStore
from .serialize import (
    WITNESS_SCHEMA,
    WitnessFormatError,
    WitnessRecord,
    check_schema,
    witness_from_dict,
    witness_to_dict,
)

__all__ = [
    "AsyncSummaryRecord",
    "CensusCellRecord",
    "KeyedRecord",
    "RECORD_KINDS",
    "RecordKind",
    "ScaleFreeCellRecord",
    "SearchRecord",
    "WitnessDB",
    "WitnessVerification",
    "record_from_dict",
    "record_to_dict",
    "rule_registry_name",
    "verify_witness",
]

PathLike = Union[str, Path]

#: cache-probe result type (see :meth:`WitnessDB._probed`)
_R = TypeVar("_R")
#: a keyed record class (see :meth:`WitnessDB.find`)
_K = TypeVar("_K", bound="KeyedRecord")

#: class-name -> registry-name map used when recording witnesses found
#: under a rule instance (falls back to the class name for custom rules)
_RULE_CLASS_NAMES = {type(make_rule(name)).__name__: name for name in RULE_NAMES}


def _state_matches(a: Rule, b: Rule) -> bool:
    """Instance-state equality, numpy-safe, ignoring lazy caches."""
    da, db = vars(a), vars(b)
    if set(da) != set(db):
        return False
    for key, va in da.items():
        if key.startswith("_cached"):
            continue
        vb = db[key]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if not np.array_equal(np.asarray(va), np.asarray(vb)):
                return False
        elif va is not vb and va != vb:
            return False
    return True


def rule_registry_name(rule: Rule, num_colors: Optional[int] = None) -> str:
    """Registry name of a rule instance (``"smp"``), or its class name.

    Witness records store rules by registry name so
    :func:`verify_witness` can rebuild them with
    :func:`repro.rules.make_rule`.  The name is only used when the
    rebuild is *faithful*: pass ``num_colors`` and a rule constructed
    with non-default options (a custom tie policy, threshold spec, ...)
    falls back to its class name — such records fail verification with
    a clear message instead of silently replaying different dynamics.
    Custom rules outside the registry always store their class name.
    """
    name = _RULE_CLASS_NAMES.get(type(rule).__name__)
    if name is None:
        return rule.name()
    if num_colors is not None:
        try:
            candidate = make_rule(name, num_colors=num_colors)
        except ValueError:
            return rule.name()
        if type(candidate) is not type(rule) or not _state_matches(rule, candidate):
            return rule.name()
    return name


# -- keyed record kinds -------------------------------------------------
def _object(value: Any) -> dict:
    """A definition/row field: a JSON object, normalized so dict equality
    matches what a load from disk produces (tuples -> lists, numpy ints
    -> ints)."""
    if not isinstance(value, dict):
        raise TypeError(f"must be an object, got {type(value).__name__}")
    return cast(dict, json.loads(json.dumps(value, sort_keys=True)))


def _str_list(value: Any) -> List[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"must be a list of strings, got {value!r}")
    return list(value)


def _coerced(coerce: Callable[[Any], Any], **kwargs: Any) -> Any:
    """A dataclass field whose value ``coerce`` normalizes (and checks)."""
    return field(metadata={"coerce": coerce}, **kwargs)


class KeyedRecord:
    """Base of the keyed record kinds: coerces every field that declares
    a coercer (a bad value raises :class:`WitnessFormatError` naming the
    field), then derives the id from the kind's id fields."""

    schema: int
    id: str

    def __post_init__(self) -> None:
        kind = _KIND_OF[type(self)]
        for name, coerce in kind.coercers.items():
            try:
                setattr(self, name, coerce(getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise WitnessFormatError(f"{name}: {exc}") from None
        if not self.id:
            self.id = kind.id_of(*(getattr(self, name) for name in kind.id_fields))


@dataclass
class CensusCellRecord(KeyedRecord):
    """One cached below-bound-census cell: row payload + definition."""

    kind: str = _coerced(str)
    n: int = _coerced(int)
    #: the cell's experiment definition (seed, trials, batch/shard
    #: geometry) — cache hits require an exact match
    definition: dict = _coerced(_object)
    #: the full CensusRow fields, as a plain dict
    row: dict = _coerced(_object)
    #: id of the cell's witness record (``None`` when the cell certified
    #: nothing)
    witness_id: Optional[str] = None
    schema: int = WITNESS_SCHEMA
    id: str = ""


@dataclass
class ScaleFreeCellRecord(KeyedRecord):
    """One cached scale-free takeover-census cell.

    A cell is one ``(strategy, seed_fraction)`` point of
    :func:`repro.ext.scale_free.scale_free_takeover_census`: its
    aggregated takeover statistics (``row``) plus the exact experiment
    definition they were computed under.  Like census cells, hits
    require an exact definition match, and the kernel backend / plan /
    process count are recorded in provenance only — they are
    bitwise-invisible to outcomes, so they never join the cache key.
    """

    strategy: str = _coerced(str)
    seed_fraction: float = _coerced(float)
    #: the cell's experiment definition (seed, graph/replica counts,
    #: dynamics version, ...) — cache hits require an exact match
    definition: dict = _coerced(_object)
    #: aggregated statistics for the cell, as a plain dict
    row: dict = _coerced(_object)
    schema: int = WITNESS_SCHEMA
    id: str = ""


@dataclass
class AsyncSummaryRecord(KeyedRecord):
    """One cached async-robustness summary.

    ``label`` names the configuration under test (a construction name);
    ``definition`` pins everything that influences the outcome — the
    schedule root seed, trial count, sweep cap, and dynamics version —
    so a hit reproduces the :class:`repro.ext.asynchrony.AsyncRobustness`
    statistics bitwise without re-running a single sweep.
    """

    label: str = _coerced(str)
    #: the experiment definition — cache hits require an exact match
    definition: dict = _coerced(_object)
    #: the AsyncRobustness fields, as a plain dict
    row: dict = _coerced(_object)
    schema: int = WITNESS_SCHEMA
    id: str = ""


@dataclass
class SearchRecord(KeyedRecord):
    """One search invocation's summary: definition -> recorded witnesses.

    The cache key of the consult-before-recompute path.  ``witness_ids``
    is ordered (recording order), and lists the ids *this* definition
    produced even when the configurations themselves were first appended
    by an earlier search — witness rows deduplicate by id, search
    summaries never do.
    """

    #: the exact search definition (every parameter that influences the
    #: outcome); cache hits require an exact match
    definition: dict = _coerced(_object)
    #: recorded witness ids, in recording order (capped representatives)
    witness_ids: List[str] = _coerced(_str_list, default_factory=list)
    #: configurations the original search examined
    examined: int = _coerced(int, default=0)
    #: the original search covered every configuration
    exhaustive: bool = _coerced(bool, default=False)
    #: total witnesses the original search found (>= len(witness_ids))
    witnesses_found: int = _coerced(int, default=0)
    schema: int = WITNESS_SCHEMA
    id: str = ""


@dataclass(frozen=True)
class RecordKind:
    """How one keyed record kind is stored: one row of :data:`RECORD_KINDS`."""

    #: the line's ``type`` tag
    tag: str
    #: the record dataclass (a :class:`KeyedRecord` subclass)
    cls: Type[Any]
    #: the fields hashed, with the tag, into the record id — the cache
    #: key :meth:`WitnessDB.find` probes, in probe-argument order
    id_fields: Tuple[str, ...]
    #: the kind's name in corpus summaries (the service's ``/health``)
    collection: str

    @cached_property
    def payload_fields(self) -> Tuple[str, ...]:
        """The serialized fields after ``type``/``schema``/``id``."""
        return tuple(
            f.name
            for f in dataclasses.fields(self.cls)
            if f.name not in ("schema", "id")
        )

    @cached_property
    def coercers(self) -> Dict[str, Callable[[Any], Any]]:
        return {
            f.name: f.metadata["coerce"]
            for f in dataclasses.fields(self.cls)
            if "coerce" in f.metadata
        }

    def id_of(self, *key: Any) -> str:
        """Id of the record whose :attr:`id_fields` hold ``key``."""
        if len(key) != len(self.id_fields):
            raise TypeError(f"{self.tag} id fields are {self.id_fields}, got {key!r}")
        parts = [self.coercers[name](v) for name, v in zip(self.id_fields, key)]
        identity = json.dumps([self.tag, *parts], sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(identity.encode()).hexdigest()[:12]


#: the keyed record kinds by type tag
RECORD_KINDS: Dict[str, RecordKind] = {
    kind.tag: kind
    for kind in (
        RecordKind(
            "census-cell",
            CensusCellRecord,
            ("kind", "n", "definition"),
            "census_cells",
        ),
        RecordKind(
            "scale-free-cell",
            ScaleFreeCellRecord,
            ("strategy", "seed_fraction", "definition"),
            "scale_free_cells",
        ),
        RecordKind(
            "async-summary",
            AsyncSummaryRecord,
            ("label", "definition"),
            "async_summaries",
        ),
        RecordKind("search", SearchRecord, ("definition",), "searches"),
    )
}
_KIND_OF: Dict[type, RecordKind] = {kind.cls: kind for kind in RECORD_KINDS.values()}

StoreRecord = Union[WitnessRecord, KeyedRecord]


def record_to_dict(record: StoreRecord) -> dict:
    """Serialize any store record to its JSON-line payload.

    Returns a dict of plain JSON types led by ``type``, ``schema`` and
    ``id``; :func:`record_from_dict` inverts it exactly.
    """
    if isinstance(record, WitnessRecord):
        return witness_to_dict(record)
    kind = _KIND_OF[type(record)]
    return {
        "type": kind.tag,
        "schema": int(record.schema),
        "id": record.id,
        **{name: getattr(record, name) for name in kind.payload_fields},
    }


def record_from_dict(payload: Any) -> StoreRecord:
    """Deserialize (and validate) one JSON-line payload of any kind.

    Lines tagged ``"witness"``, and untagged legacy lines, go through
    :func:`~repro.io.serialize.witness_from_dict`; the keyed kinds go
    through their :data:`RECORD_KINDS` entry.

    Raises
    ------
    WitnessFormatError
        On an unknown type tag, a bad or newer ``schema``, missing or
        malformed fields, or a stored id that contradicts the content.
    """
    tag = payload.get("type", "witness") if isinstance(payload, dict) else "witness"
    if tag == "witness":
        return witness_from_dict(payload)
    kind = RECORD_KINDS.get(tag) if isinstance(tag, str) else None
    if kind is None:
        raise WitnessFormatError(f"unknown record type {tag!r}")
    check_schema(payload.get("schema"))
    try:
        record = kind.cls(
            **{k: payload[k] for k in kind.payload_fields if k in payload}
        )
    except (TypeError, ValueError) as exc:
        raise WitnessFormatError(f"malformed {tag} record: {exc}") from None
    stored = payload.get("id", "")
    if stored and stored != record.id:
        raise WitnessFormatError(
            f"stored {tag} id {stored!r} does not match {record.id!r}"
        )
    return record


@dataclass
class WitnessVerification:
    """Outcome of replaying one witness through the engine."""

    ok: bool
    reason: str = ""
    #: rounds the replay took (``-1`` when it never ran)
    rounds: int = -1


def verify_witness(
    record: WitnessRecord,
    *,
    max_rounds: Optional[int] = None,
    backend: "str | KernelBackend | None" = None,
) -> WitnessVerification:
    """Replay a stored witness through :func:`repro.engine.batch.run_batch`.

    Rebuilds the torus and rule from the record's key fields, runs the
    stored configuration as a one-row batch, and checks that it reaches
    the ``k``-monochromatic fixed point — monotonically, when the record
    claims monotonicity.  Structural problems (bad torus kind, unknown
    rule name, length mismatch) fail with a reason rather than raising,
    so ``witness verify --all`` can report per-record verdicts.

    Parameters
    ----------
    record:
        The witness to replay.
    max_rounds:
        Round cap for the replay; defaults to the search drivers'
        ``4 * N + 16``.
    backend:
        Kernel backend for the replay
        (:func:`repro.engine.backends.select_backend` spec).  Backends
        are bitwise-interchangeable, so a witness verifies identically
        under all of them — including witnesses whose provenance records
        a *different* discovery backend.

    Returns
    -------
    :class:`WitnessVerification` with ``ok``, a failure ``reason``, and
    the replay's round count.
    """
    try:
        topo = make_torus(record.kind, record.m, record.n)
    except (KeyError, ValueError) as exc:
        return WitnessVerification(False, f"cannot rebuild topology: {exc}")
    if len(record.configuration) != topo.num_vertices:
        return WitnessVerification(
            False,
            f"configuration length {len(record.configuration)} != "
            f"{topo.num_vertices} vertices",
        )
    try:
        rule = make_rule(record.rule, num_colors=record.colors)
    except ValueError as exc:
        return WitnessVerification(False, str(exc))
    if max_rounds is None:
        max_rounds = 4 * topo.num_vertices + 16
    res = run_batch(
        topo,
        record.colors_array()[None, :],
        rule,
        max_rounds=max_rounds,
        target_color=record.k,
        detect_cycles=False,
        backend=backend,
    )
    rounds = int(res.rounds[0])
    if not bool(res.k_monochromatic[0]):
        return WitnessVerification(
            False,
            f"did not reach the {record.k}-monochromatic fixed point "
            f"within {max_rounds} rounds",
            rounds,
        )
    if record.monotone and not bool(res.monotone[0]):
        return WitnessVerification(
            False, "record claims monotone but the replay recolored back", rounds
        )
    return WitnessVerification(True, "", rounds)


class WitnessDB:
    """The append-only witness store with an in-memory index.

    Parameters
    ----------
    path:
        The JSON-lines file.  A missing file is an empty store; the
        parent directory is created on first append.
    strict:
        Raise :class:`~repro.io.serialize.WitnessFormatError` on the
        first corrupted line instead of collecting it into
        :attr:`corrupt`.
    """

    def __init__(self, path: PathLike, *, strict: bool = False):
        self.path = Path(path)
        self.strict = strict
        self._store = JsonlStore(self.path)
        #: witness records by id, last-appended-wins
        self._records: Dict[str, WitnessRecord] = {}
        #: keyed records: type tag -> {id: record}, last-appended-wins
        self._keyed: Dict[str, Dict[str, KeyedRecord]] = {
            tag: {} for tag in RECORD_KINDS
        }
        #: index: (rule, kind, m, n, colors) -> [witness ids]
        self._by_key: Dict[Tuple[str, str, int, int, int], List[str]] = {}
        #: unreadable lines as (1-based line number, message)
        self.corrupt: List[Tuple[int, str]] = []
        #: count of legacy-format lines upgraded during load
        self.legacy_upgraded = 0
        if self.path.exists():
            self._load()

    # -- loading -------------------------------------------------------
    @property
    def torn_tail(self) -> Optional[Tuple[int, str]]:
        """A partial final line left by a crash mid-append, or ``None``.

        Unlike :attr:`corrupt` this is not an error in strict mode: the
        torn bytes never formed a committed record and are truncated
        away by the next append.
        """
        return self._store.torn_tail

    def _load(self) -> None:
        for scanned in self._store.read_all():
            lineno = scanned.lineno
            if scanned.error is not None:
                self._corrupt_line(lineno, scanned.error)
                continue
            try:
                record = record_from_dict(scanned.payload)
            except WitnessFormatError as exc:
                self._corrupt_line(lineno, str(exc))
                continue
            if isinstance(record, WitnessRecord):
                if record.method == "legacy":
                    self.legacy_upgraded += 1
                self._index(record)
            else:
                self._keyed[_KIND_OF[type(record)].tag][record.id] = record

    def _corrupt_line(self, lineno: int, message: str) -> None:
        if self.strict:
            raise WitnessFormatError(f"{self.path}:{lineno}: {message}")
        self.corrupt.append((lineno, message))

    def _index(self, record: WitnessRecord) -> None:
        fresh = record.id not in self._records
        self._records[record.id] = record
        if fresh:
            self._by_key.setdefault(record.key, []).append(record.id)

    # -- writing -------------------------------------------------------
    def _append(self, payload: dict) -> None:
        # Durable append (flush + fsync) with torn-tail healing; keeps
        # the store's historical formatting (sorted keys, spaced
        # separators) so existing files grow byte-consistently.
        obs.count("witnessdb.append")
        self._store.append(
            payload, dumps=lambda p: json.dumps(p, sort_keys=True)
        )

    @staticmethod
    def _probed(cache: str, record: Optional[_R]) -> Optional[_R]:
        # cache-effectiveness telemetry on the consult-before-recompute
        # probes; the record itself is never touched
        if record is None:
            obs.count("witnessdb.cache-miss")
        else:
            obs.count("witnessdb.cache-hit")
            obs.emit("cache-serve", key=cache, level="detailed")
        return record

    def add(self, record: WitnessRecord, *, replace: bool = False) -> bool:
        """Record a witness; returns ``True`` when a line was appended.

        A witness whose id is already present is left untouched
        (first-wins — re-discovering a known configuration through a
        different search must not churn the shipped catalog) unless
        ``replace=True``, which appends a superseding line; a verified
        stamp on the existing record survives either way (the caller's
        record object is never mutated).
        """
        existing = self._records.get(record.id)
        if existing is not None:
            if not replace:
                return False
            merged = dataclasses.replace(
                record, verified=record.verified or existing.verified
            )
            if witness_to_dict(merged) == witness_to_dict(existing):
                return False
            record = merged
        self._index(record)
        self._append(witness_to_dict(record))
        return True

    def put(self, record: KeyedRecord) -> bool:
        """Record a keyed record; returns ``True`` when a line was appended.

        A record identical to the stored one under its id is not
        re-appended; a different one supersedes it (last-wins).
        """
        payload = record_to_dict(record)
        stored = self._keyed[payload["type"]]
        existing = stored.get(record.id)
        if existing is not None and record_to_dict(existing) == payload:
            return False
        stored[record.id] = record
        self._append(payload)
        return True

    def add_cell(self, cell: CensusCellRecord) -> bool:
        """Record a census cell (:meth:`put`)."""
        return self.put(cell)

    # -- querying ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[WitnessRecord]:
        return iter(self._records.values())

    def records(self, cls: Type[_K]) -> List[_K]:
        """The stored records of one keyed kind, in insertion order."""
        return cast(List[_K], list(self._keyed[_KIND_OF[cls].tag].values()))

    @property
    def cells(self) -> List[CensusCellRecord]:
        return self.records(CensusCellRecord)

    def get(self, witness_id: str) -> Optional[WitnessRecord]:
        """Exact-id lookup."""
        return self._records.get(witness_id)

    def resolve(self, id_prefix: str) -> WitnessRecord:
        """Unique-prefix lookup (the CLI's ``witness show a1b2`` path).

        Raises :class:`KeyError` when the prefix matches zero or several
        records.
        """
        matches = [r for i, r in self._records.items() if i.startswith(id_prefix)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no witness with id {id_prefix!r} in {self.path}")
        raise KeyError(
            f"id prefix {id_prefix!r} is ambiguous "
            f"({', '.join(r.id for r in matches[:4])}...)"
        )

    def witnesses(
        self,
        *,
        rule: Optional[str] = None,
        kind: Optional[str] = None,
        m: Optional[int] = None,
        n: Optional[int] = None,
        colors: Optional[int] = None,
        method: Optional[str] = None,
        verified: Optional[bool] = None,
    ) -> List[WitnessRecord]:
        """Filtered view of the witness records, in insertion order."""
        out = []
        for rec in self._records.values():
            if rule is not None and rec.rule != rule:
                continue
            if kind is not None and rec.kind != kind:
                continue
            if m is not None and rec.m != m:
                continue
            if n is not None and rec.n != n:
                continue
            if colors is not None and rec.colors != colors:
                continue
            if method is not None and rec.method != method:
                continue
            if verified is not None and rec.verified != verified:
                continue
            out.append(rec)
        return out

    def lookup(
        self, rule: str, kind: str, m: int, n: int, colors: int
    ) -> List[WitnessRecord]:
        """All witnesses under one index key, in insertion order."""
        ids = self._by_key.get((rule, kind, int(m), int(n), int(colors)), [])
        return [self._records[i] for i in ids]

    def best(
        self, rule: str, kind: str, m: int, n: int, colors: int
    ) -> Optional[WitnessRecord]:
        """Smallest-seed *monotone* witness under a key, or ``None``."""
        candidates = [
            r for r in self.lookup(rule, kind, m, n, colors) if r.monotone
        ]
        return min(candidates, key=lambda r: r.seed_size, default=None)

    def find(self, cls: Type[_K], *key: Any) -> Optional[_K]:
        """Cache probe: the stored ``cls`` record whose id fields (its
        :attr:`RecordKind.id_fields`, in order) equal ``key``.

        This is the consult-before-recompute probe of every keyed kind:
        the definition dict in the key pins every parameter that
        influences the outcome (seed material, trial counts, batch and
        shard geometry, ...), so a hit reproduces the original result
        exactly — e.g. ``find(SearchRecord, definition)`` in
        :func:`repro.core.search.random_dynamo_search`.
        """
        kind = _KIND_OF[cls]
        hit = self._keyed[kind.tag].get(kind.id_of(*key))
        return cast(Optional[_K], self._probed(kind.tag, hit))

    def find_cell(
        self, kind: str, n: int, definition: dict
    ) -> Optional[CensusCellRecord]:
        """Census-cell cache probe (:meth:`find`)."""
        return self.find(CensusCellRecord, kind, n, definition)

    # -- verification --------------------------------------------------
    def verify(
        self,
        record_or_id: Union[WitnessRecord, str],
        *,
        max_rounds: Optional[int] = None,
        update: bool = True,
        backend: "str | KernelBackend | None" = None,
    ) -> WitnessVerification:
        """Re-verify one witness and (by default) stamp the outcome.

        A changed verification status is persisted by appending a
        superseding record line — the file stays append-only and the
        stamp survives reloads.  Stamping is idempotent: re-verifying an
        already-verified witness appends nothing.  A record object that
        is *not* in the store is replayed but never stamped (``add`` it
        first) — verification must not insert new rows into a catalog.
        """
        record = (
            record_or_id
            if isinstance(record_or_id, WitnessRecord)
            else self.resolve(record_or_id)
        )
        outcome = verify_witness(record, max_rounds=max_rounds, backend=backend)
        stored = record.id in self._records
        if update and stored and record.verified != outcome.ok:
            stamped = dataclasses.replace(record, verified=outcome.ok)
            # direct supersede: skip the verified-stamp merge in add()
            self._index(stamped)
            self._append(witness_to_dict(stamped))
        return outcome
