"""Independent correctness oracle for the benchmark's answers.

Reference distances come from ``scipy.sparse.csgraph.dijkstra`` run over
the graph's own CSR arrays, so no traversal code is shared with
``repro``.  Parallel arcs are collapsed to their lightest weight first,
because a shortest path can only use the lightest of them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

#: relative tolerance of a distance comparison.  Summation order differs
#: between the engine and scipy, so the last few ulps may differ.
REL_TOL = 1e-9


def distances_match(got: float, want: float) -> bool:
    """``got`` equals ``want`` within :data:`REL_TOL`; ``inf`` matches ``inf``."""
    got, want = float(got), float(want)
    if math.isinf(want) or math.isinf(got):
        return got == want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


class Oracle:
    """Reference shortest paths over one graph's CSR arrays."""

    def __init__(self, indptr, indices, weights) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        n = len(indptr) - 1
        tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        keys = tails * n + np.asarray(indices, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        w = np.asarray(weights, dtype=np.float64)[order]
        if len(keys):
            starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
            keys, w = keys[starts], np.minimum.reduceat(w, starts)
        self.n = n
        self._keys = keys
        self._weights = w
        self.matrix = csr_matrix((w, (keys // n, keys % n)), shape=(n, n))

    @classmethod
    def of(cls, graph) -> "Oracle":
        return cls(graph.indptr, graph.indices, graph.weights)

    def rows(self, sources) -> dict[int, np.ndarray]:
        """Full distance rows from each distinct source."""
        sources = sorted({int(s) for s in sources})
        if not sources:
            return {}
        table = dijkstra(self.matrix, directed=True, indices=sources)
        return {s: table[i] for i, s in enumerate(sources)}

    def largest_component(self) -> np.ndarray:
        """Vertices of the largest weakly connected component, sorted."""
        _, labels = connected_components(self.matrix, directed=True, connection="weak")
        biggest = np.argmax(np.bincount(labels))
        return np.flatnonzero(labels == biggest)

    def path_length(self, path) -> float:
        """Sum of arc weights along ``path``; raises if a hop is no arc."""
        path = np.asarray(path, dtype=np.int64)
        if len(path) == 0:
            raise ValueError("empty path")
        if len(path) == 1:
            return 0.0
        hops = path[:-1] * self.n + path[1:]
        pos = np.searchsorted(self._keys, hops)
        pos = np.minimum(pos, len(self._keys) - 1)
        if not np.array_equal(self._keys[pos], hops):
            raise ValueError("path uses a pair of vertices joined by no arc")
        return float(self._weights[pos].sum())
