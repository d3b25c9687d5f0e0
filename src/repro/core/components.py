"""Connected-component clustering of the neighbor graph (QROCK fast path).

A structural property of ROCK (exploited by the follow-on QROCK
algorithm, Dutta et al. 2005): links are positive only between points
of one connected component of the neighbor graph, so however far the
merge loop runs, ROCK's partition *refines* the component partition --
components are the coarsest clustering links can ever reach, computable
in O(edges) with a union-find, no links, heaps, or goodness needed.

The refinement is an equality whenever every neighbor edge closes a
triangle (then every edge carries at least one link, so adjacent
clusters always have positive cross links and a k=1 run merges each
component completely).  Sparse structures break equality: in a 3-point
path a-b-c, ROCK merges {a, c} (one link through b) and then stops,
because the pairs (a, b) and (c, b) are neighbors with *zero* common
neighbors.  Both the refinement and the triangle-condition equality are
property-tested against the full merge loop (``tests/test_components.py``).

Use this fast path when theta is the only parameter you trust and k is
unknown; use the full ROCK loop when you need a specific k, goodness
ordering, or outlier weeding.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.neighbors import NeighborGraph, compute_neighbor_graph
from repro.core.similarity import SimilarityFunction


class UnionFind:
    """Disjoint-set forest with union by size and path halving."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self._parent = list(range(n))
        self._size = [1] * n
        self.n_components = n

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the sets of ``a`` and ``b``; True when they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self.n_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def component_size(self, x: int) -> int:
        return self._size[self.find(x)]

    def components(self) -> list[list[int]]:
        """All components as sorted member lists, largest first."""
        groups: dict[int, list[int]] = {}
        for x in range(len(self._parent)):
            groups.setdefault(self.find(x), []).append(x)
        out = [sorted(members) for members in groups.values()]
        out.sort(key=lambda c: (-len(c), c[0]))
        return out


def connected_components(graph: NeighborGraph) -> list[list[int]]:
    """Connected components of a neighbor graph, largest first."""
    uf = UnionFind(graph.n)
    if graph.has_dense:
        # nonzero + mask instead of np.triu: triu materialises a second
        # n x n matrix just to drop the lower half
        rows, cols = np.nonzero(graph.adjacency)
        upper = rows < cols
        for a, b in zip(rows[upper].tolist(), cols[upper].tolist()):
            uf.union(a, b)
    else:
        # sparse-backed graph: walk the neighbor lists
        for a, neighbors in enumerate(graph.neighbor_lists()):
            for b in neighbors.tolist():
                if a < b:
                    uf.union(a, b)
    return uf.components()


def qrock(
    points: Any,
    theta: float,
    similarity: SimilarityFunction | None = None,
    min_cluster_size: int = 1,
    neighbor_method: str = "auto",
) -> tuple[list[list[int]], list[int]]:
    """QROCK: clusters = components of the neighbor graph at ``theta``.

    The coarsest clustering a ROCK run at this theta can reach (equal
    to a k=1 ROCK run whenever every neighbor edge closes a triangle;
    see the module docstring).  Returns ``(clusters, outliers)`` where
    clusters smaller than ``min_cluster_size`` are diverted to the
    outlier list.
    """
    if min_cluster_size < 1:
        raise ValueError("min_cluster_size must be at least 1")
    graph = compute_neighbor_graph(
        points, theta, similarity=similarity, method=neighbor_method
    )
    components = connected_components(graph)
    clusters = [c for c in components if len(c) >= min_cluster_size]
    outliers = sorted(p for c in components if len(c) < min_cluster_size for p in c)
    return clusters, outliers
