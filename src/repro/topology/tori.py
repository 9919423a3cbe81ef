"""The three torus topologies of the paper (Definitions, Section II-A).

All three are 4-regular graphs on an ``m x n`` vertex grid; they differ only
in how row/column boundary edges wrap:

:class:`ToroidalMesh`
    The classical 2-D torus: rows wrap onto themselves, columns wrap onto
    themselves.  ``v(i, n-1)``'s right neighbor is ``v(i, 0)``;
    ``v(m-1, j)``'s down neighbor is ``v(0, j)``.

:class:`TorusCordalis`
    Rows are chained into one Hamiltonian cycle: the right neighbor of
    ``v(i, n-1)`` is ``v((i+1) mod m, 0)`` — the *first vertex of the next
    row* — and correspondingly the left neighbor of ``v(i, 0)`` is
    ``v((i-1) mod m, n-1)``.  Columns wrap as in the toroidal mesh.

:class:`TorusSerpentinus`
    Like the cordalis on rows, and additionally columns are chained: the
    down neighbor of ``v(m-1, j)`` is ``v(0, (j-1) mod n)`` — the *first
    vertex of the previous column* — and the up neighbor of ``v(0, j)`` is
    ``v(m-1, (j+1) mod n)``.

These wrap rules are what make single rows/columns k-blocks in some tori but
not others (paper, remarks after Definition 4), which in turn drives the
different dynamo lower bounds (Theorems 1, 3, 5).
"""

from __future__ import annotations

import numpy as np

from .base import GridTopology

__all__ = [
    "ToroidalMesh",
    "TorusCordalis",
    "TorusSerpentinus",
    "TORUS_CLASSES",
    "TORUS_KINDS",
    "make_torus",
]


def _row_major_lattice(m: int, n: int) -> "tuple[np.ndarray, np.ndarray]":
    """Return ``(I, J)`` coordinate arrays for the flattened row-major grid."""
    idx = np.arange(m * n)
    return idx // n, idx % n


class ToroidalMesh(GridTopology):
    """Standard 2-D wraparound grid (Definition 1 of the paper)."""

    def _build_neighbors(self) -> np.ndarray:
        m, n = self.m, self.n
        i, j = _row_major_lattice(m, n)
        up = ((i - 1) % m) * n + j
        down = ((i + 1) % m) * n + j
        left = i * n + (j - 1) % n
        right = i * n + (j + 1) % n
        return np.stack([up, down, left, right], axis=1).astype(np.int32)


class TorusCordalis(GridTopology):
    """Torus cordalis: rows chained into a single cycle, columns wrap."""

    def _build_neighbors(self) -> np.ndarray:
        m, n = self.m, self.n
        i, j = _row_major_lattice(m, n)
        up = ((i - 1) % m) * n + j
        down = ((i + 1) % m) * n + j
        # Row chaining: in flattened row-major order the "row" edges form a
        # single cycle over all m*n vertices.
        flat = i * n + j
        left = (flat - 1) % (m * n)
        right = (flat + 1) % (m * n)
        return np.stack([up, down, left, right], axis=1).astype(np.int32)


class TorusSerpentinus(GridTopology):
    """Torus serpentinus: rows chained as in the cordalis, columns chained too.

    Column chaining follows the paper: the last vertex ``v(m-1, j)`` of
    column ``j`` connects to the first vertex ``v(0, (j-1) mod n)`` of
    column ``j-1``.  In column-major terms the "column" edges form a single
    cycle over all vertices, descending each column and stepping one column
    *left* at each wrap.
    """

    def _build_neighbors(self) -> np.ndarray:
        m, n = self.m, self.n
        i, j = _row_major_lattice(m, n)
        flat = i * n + j
        # Row chaining (same as cordalis).
        left = (flat - 1) % (m * n)
        right = (flat + 1) % (m * n)
        # Column chaining: down from (m-1, j) goes to (0, (j-1) mod n);
        # elsewhere down is (i+1, j).  Up is the inverse map.
        down = np.where(i < m - 1, (i + 1) * n + j, ((j - 1) % n))
        up = np.where(i > 0, (i - 1) * n + j, (m - 1) * n + (j + 1) % n)
        return np.stack([up, down, left, right], axis=1).astype(np.int32)


#: The paper's three tori by their short names, in the paper's order.
TORUS_KINDS = ("mesh", "cordalis", "serpentinus")

#: Name -> class registry used by the CLI and experiment drivers.
TORUS_CLASSES = {
    "mesh": ToroidalMesh,
    "toroidal_mesh": ToroidalMesh,
    "cordalis": TorusCordalis,
    "torus_cordalis": TorusCordalis,
    "serpentinus": TorusSerpentinus,
    "torus_serpentinus": TorusSerpentinus,
}


def make_torus(kind: str, m: int, n: int) -> GridTopology:
    """Instantiate a torus by name (``mesh`` / ``cordalis`` / ``serpentinus``)."""
    try:
        cls = TORUS_CLASSES[kind.lower()]
    except KeyError:
        raise ValueError(
            f"unknown torus kind {kind!r}; expected one of {sorted(set(TORUS_CLASSES))}"
        ) from None
    return cls(m, n)
