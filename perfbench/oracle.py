"""Independent output checks shared by the workloads.

Nothing here calls the engine under test: the SMP dynamics are replayed
by a plain-Python loop over the torus neighbor table, and digests are
computed from plain JSON, so a broken kernel cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Dict, Iterable, List, Sequence


def digest(payload: object) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def smp_monotone_dynamo(
    neighbors: Sequence[Sequence[int]], colors: Sequence[int], k: int
) -> bool:
    """Replay synchronous SMP; True when the run stays monotone in ``k``
    and reaches the all-``k`` fixed point within ``4N + 16`` rounds.

    SMP: a vertex adopts the unique color held by at least two of its
    four neighbors and keeps its color otherwise (2-2 ties included).
    """
    cur = [int(c) for c in colors]
    nbrs = [tuple(int(w) for w in row) for row in neighbors]
    for _ in range(4 * len(cur) + 16):
        nxt = []
        for v, row in enumerate(nbrs):
            counts = Counter(cur[w] for w in row)
            top = [c for c, m in counts.items() if m >= 2]
            nxt.append(top[0] if len(top) == 1 else cur[v])
        if any(c == k and d != k for c, d in zip(cur, nxt)):
            return False
        if nxt == cur:
            return all(c == k for c in cur)
        cur = nxt
    return False


def last_wins(lines: Iterable[bytes]) -> Dict[str, dict]:
    """JSONL payloads by id, in first-appearance order, last line wins —
    the store's documented supersede semantics, re-read from raw bytes."""
    out: Dict[str, dict] = {}
    for line in lines:
        if line.strip():
            payload = json.loads(line)
            out[payload["id"]] = payload
    return out


def records_of(raw: bytes, kind: str) -> List[dict]:
    """Last-wins payloads of one record ``type`` from a store's bytes."""
    return [
        p for p in last_wins(raw.splitlines()).values()
        if p.get("type", "witness") == kind
    ]
