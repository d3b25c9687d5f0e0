"""Link computation (Sections 3.2 and 4.4, Figure 4).

``link(p_i, p_j)`` is the number of common neighbors of ``p_i`` and
``p_j`` -- equivalently, the number of distinct paths of length 2
between them in the neighbor graph.  The paper gives two computation
strategies:

* view the problem as squaring the boolean adjacency matrix ``A``
  (Section 4.4, first paragraph) -- implemented by
  :func:`dense_link_matrix` with one numpy matrix product (the oracle),
  and by :func:`blocked_link_table`, which squares the upper triangle
  of ``A`` one float32 row block at a time;
* the sparse neighbor-list algorithm of Figure 4, which for every point
  increments the link count of every pair of its neighbors -- cost
  ``O(sum_i m_i^2)`` -- implemented by :func:`sparse_link_table` one
  output row at a time (Gustavson's sparse ``A @ A``): the C
  ``link_rows`` kernel, or scipy's CSR product without the C tier
  (:func:`row_link_table`).

Every producer picks between the two by one expected-cost rule
(:func:`square_pays`): :func:`compute_links` for a graph, and
:func:`neighbor_list_links` for the neighbor lists the one-pass
kernels score.  Every producer emits the same sorted upper-triangle
pair codes ``i * n + j`` and counts, which :class:`LinkTable` holds as
two arrays; the equivalence is property-tested.

As an extension (the paper's Section 3.2 sketches "alternative
definitions for links, based on paths of length 3 or more"),
:func:`path_link_matrix` counts simple paths of length 3, used by the
link-order ablation bench.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.neighbors import DENSE_BLOCK_ROWS, NeighborGraph

_EMPTY_CODES = np.empty(0, dtype=np.int64)

# Every link producer counts rows while sum_i m_i^2 < SQUARE_LINK_WORK[tier]
# * n^3 and squares the adjacency in row blocks above (when the square
# fits).  Rows cost grows with the pair work sum m^2, the BLAS square
# with n^3, so the crossover ratio sum m^2 / n^2 grows with n.  The
# constants are the A4 sweep's (bench_ablation_link_impl.py,
# results/ablation_link_impl.txt, n = 1,000 and 2,000, 2 vCPUs).
SQUARE_LINK_WORK = {"cext": 0.0125, "numpy": 0.0024}


def _as_counts(counts: np.ndarray) -> np.ndarray:
    """int64 for integer counts, float64 for weighted ones."""
    kind = np.int64 if counts.dtype.kind in "biu" else np.float64
    return counts.astype(kind, copy=False)


class LinkTable:
    """Sparse symmetric table of positive link counts, held as arrays.

    ``codes`` lists every linked pair once as the int64 code
    ``i * n + j`` with ``i < j``, sorted and unique; ``counts[k]`` is
    the link count of pair ``codes[k]`` (int64 for the paper's binary
    links, float64 for the weighted variant of
    :func:`weighted_link_matrix`).  Absent pairs have zero links.  The
    arrays are read-only and taken on trust; :meth:`from_pair_counts`
    validates.  ``producer`` names the kernel that counted the pairs.
    ``row`` and ``get`` read a symmetric CSR index built on first use,
    for the oracles and tests only (:mod:`repro.core.reference`,
    :func:`repro.core.goodness.intra_cluster_links`).
    """

    def __init__(
        self, n: int, codes: np.ndarray = _EMPTY_CODES,
        counts: np.ndarray = _EMPTY_CODES, producer: str | None = None,
    ) -> None:
        self.n = n
        self.codes = codes
        self.counts = counts
        self.producer = producer
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        return np.divmod(self.codes, max(self.n, 1))

    def get(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("links are defined between distinct points")
        return self.row(i).get(j, 0)

    def row(self, i: int) -> dict[int, float]:
        """Positive-link partners of point ``i``, ascending."""
        if self._csr is None:
            lo, hi = self._ends()
            rows = np.concatenate([lo, hi])
            cols = np.concatenate([hi, lo])
            order = np.argsort(rows * self.n + cols, kind="stable")
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
            values = np.concatenate([self.counts, self.counts])
            self._csr = (indptr, cols[order], values[order])
        indptr, cols, values = self._csr
        start, stop = indptr[i], indptr[i + 1]
        return dict(zip(cols[start:stop].tolist(), values[start:stop].tolist()))

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        """Yield each linked pair once as ``(i, j, count)``, in code order."""
        lo, hi = self._ends()
        return zip(lo.tolist(), hi.tolist(), self.counts.tolist())

    def nnz_pairs(self) -> int:
        """Number of unordered pairs with a positive link count."""
        return int(self.codes.size)

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every linked pair as ``(i, j, counts)`` arrays with ``i < j``.

        In code order (the order :meth:`pairs` yields), counts as
        float64 -- the vectorized entry point for the fast merge engine.
        """
        lo, hi = self._ends()
        return lo, hi, self.counts.astype(np.float64)

    def to_dense(self) -> np.ndarray:
        counts = self.counts
        integral = counts.dtype.kind != "f" or np.all(counts == np.floor(counts))
        dense = np.zeros((self.n, self.n), np.int64 if integral else np.float64)
        lo, hi = self._ends()
        dense[lo, hi] = dense[hi, lo] = counts
        return dense

    @classmethod
    def from_pair_counts(
        cls, n: int, codes: np.ndarray, counts: np.ndarray,
        producer: str | None = None,
    ) -> "LinkTable":
        """Wrap packed pair codes ``i * n + j`` (``i < j``) and counts.

        The output format of :func:`repro.parallel.links.pair_link_counts`
        and the C ``link_rows``.  Unsorted input is sorted;
        duplicate codes and counts ``<= 0`` are rejected, since either
        would silently misstate the links.
        """
        codes = np.asarray(codes, dtype=np.int64)
        counts = _as_counts(np.asarray(counts))
        if codes.shape != counts.shape or codes.ndim != 1:
            raise ValueError("codes and counts must be matching 1-d arrays")
        if codes.size and (codes.min() < 0 or codes.max() >= n * n):
            raise ValueError("pair codes out of range")
        if np.any(codes[1:] <= codes[:-1]):
            order = np.argsort(codes, kind="stable")
            codes, counts = codes[order], counts[order]
            if np.any(codes[1:] == codes[:-1]):
                raise ValueError("duplicate pair codes")
        if not np.all(counts > 0):
            raise ValueError("link counts must be positive")
        lo, hi = np.divmod(codes, max(n, 1))
        if np.any(lo >= hi):
            raise ValueError("pair codes must encode i < j")
        return cls(n, codes, counts, producer)

    def subset(self, indices: "np.ndarray | list[int]") -> "LinkTable":
        """Restrict to ``indices``, reindexed to their positions.

        ``subset(kept)`` after isolated-point pruning equals computing
        links on the pruned subgraph *when the dropped points are
        degree-0*: an isolated point appears in no neighbor list, so it
        participates in no pair increment on either side.  Ascending
        ``indices`` (the pruning case) keep the codes sorted, so the
        result is built without re-validation.
        """
        index = np.asarray(indices, dtype=np.int64).reshape(-1)
        m = index.size
        ascending = bool(np.all(index[1:] > index[:-1]))
        if not ascending and np.unique(index).size != m:
            raise ValueError("subset indices must be unique")
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[index] = np.arange(m, dtype=np.int64)
        lo, hi = self._ends()
        a, b = remap[lo], remap[hi]
        keep = (a >= 0) & (b >= 0)
        a, b = a[keep], b[keep]
        if ascending:
            return LinkTable(m, a * m + b, self.counts[keep], self.producer)
        return LinkTable.from_pair_counts(
            m, np.minimum(a, b) * m + np.maximum(a, b), self.counts[keep],
            self.producer,
        )

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "LinkTable":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("link matrix must be square")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("link matrix must be symmetric")
        if matrix.size and np.diagonal(matrix).any():
            raise ValueError("link matrix must have an empty diagonal")
        upper = np.triu(matrix, 1).reshape(-1)
        codes = np.flatnonzero(upper)
        return cls(matrix.shape[0], codes, _as_counts(upper[codes]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkTable(n={self.n}, linked_pairs={self.nnz_pairs()})"


def dense_link_matrix(graph: NeighborGraph) -> np.ndarray:
    """Link counts as the square of the adjacency matrix (Section 4.4).

    With a hollow adjacency ``A``, ``(A @ A)[i, j]`` counts the common
    neighbors of ``i`` and ``j`` exactly: every walk ``i -> k -> j``
    has ``k != i`` and ``k != j`` because the diagonal is empty.  The
    diagonal of the product (each point's degree) is zeroed since
    ``link(p, p)`` is not defined by the paper.
    """
    # float64 matmul hits BLAS (int64 does not); 0/1 products are exact
    a = graph.adjacency.astype(np.float64)
    links = np.rint(a @ a).astype(np.int64)
    np.fill_diagonal(links, 0)
    return links


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else _EMPTY_CODES


def link_tier() -> str:
    """``"cext"`` when the C tier probed clean, ``"numpy"`` otherwise."""
    from repro.native import get_kernels

    return "numpy" if get_kernels() is None else "cext"


def square_pays(degrees: np.ndarray, n: int) -> bool:
    """The Section 4.4 cost rule every link producer follows.

    The Figure 4 count does ``sum_i m_i^2`` pair work; squaring the
    adjacency costs an ``n^3`` product.  Squaring pays from
    ``SQUARE_LINK_WORK[tier] * n^3`` on.
    """
    d = np.asarray(degrees, dtype=np.float64)
    return bool(d @ d >= SQUARE_LINK_WORK[link_tier()] * float(n) ** 3)


def square_link_bytes(n: int) -> int:
    """Bytes charged to the row-block square: its ``4 n^2``-byte float32
    adjacency, plus ``n^2`` for the bool adjacency it is built from on
    the dense route (room for the block products otherwise)."""
    return 5 * n * n


def _square_table(a: np.ndarray, block_rows: int) -> LinkTable:
    """Upper-triangle link counts of the float32 0/1 adjacency ``a``."""
    n = a.shape[0]
    codes: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        # A is symmetric, so A[:, start:] is the transposed view A[start:].T
        block = np.triu(a[start:stop] @ a[start:].T, 1)
        flat = np.flatnonzero(block)
        rows, cols = np.divmod(flat, n - start)
        codes.append((rows + start) * n + (cols + start))
        counts.append(block.reshape(-1)[flat].astype(np.int64))
    return LinkTable(n, _concat(codes), _concat(counts), "dense-blocks")


def blocked_link_table(
    graph: NeighborGraph, block_rows: int = DENSE_BLOCK_ROWS
) -> LinkTable:
    """``LinkTable.from_dense(dense_link_matrix(graph))`` by row blocks.

    Each block is one float32 BLAS product ``A[rows] @ A[:, start:]``;
    zeroing its diagonal and lower triangle leaves the pairs ``i < j``,
    whose codes ``np.flatnonzero`` returns already sorted.  A count is
    at most ``n - 2 < 2**24``, so float32 holds it exactly.  Besides the
    adjacency, only its ``4 n^2``-byte float32 copy and one block of
    counts exist at a time.
    """
    return _square_table(graph.adjacency.astype(np.float32), block_rows)


def _neighbor_csr(graph: NeighborGraph) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor lists as one ``(indptr, indices)`` CSR pair."""
    if graph.has_dense:
        rows, indices = np.divmod(np.flatnonzero(graph.adjacency), graph.n)
        lengths = np.bincount(rows, minlength=graph.n)
    else:
        lists = graph.neighbor_lists()
        lengths = np.fromiter((lst.size for lst in lists), np.int64, len(lists))
        indices = _concat(lists)
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr, indices


def _spgemm_pairs(
    indptr: np.ndarray, indices: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle codes and counts of ``A @ A`` by scipy's CSR product."""
    from scipy import sparse

    a = sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int32), indices, indptr), shape=(n, n)
    )
    square = a @ a
    square.sort_indices()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(square.indptr))
    cols = square.indices.astype(np.int64)
    upper = cols > rows
    return rows[upper] * n + cols[upper], square.data[upper].astype(np.int64)


def row_link_table(indptr: np.ndarray, indices: np.ndarray, n: int) -> LinkTable:
    """Figure 4 over neighbor lists held as CSR, one output row at a time.

    Gustavson's sparse ``A @ A``: the C ``link_rows`` kernel when the
    native tier probed clean (producer ``rows:<tier>``), scipy's CSR
    product otherwise (``spgemm``).  Either does the ``sum_i m_i^2``
    pair work in O(n + pairs) memory.  Without scipy the lists'
    pairs are counted by :func:`repro.parallel.links.pair_link_counts`.
    """
    from repro.native import get_kernels

    kernels = get_kernels()
    if kernels is not None:
        codes, counts = kernels.link_rows(indptr, indices, n)
        return LinkTable(n, codes, counts, f"rows:{kernels.name}")
    try:
        codes, counts = _spgemm_pairs(indptr, indices, n)
    except ImportError:
        from repro.parallel.links import pair_link_counts

        lists = np.split(np.asarray(indices, dtype=np.int64), indptr[1:-1])
        return LinkTable(n, *pair_link_counts(lists, n), "pair-count:numpy")
    return LinkTable(n, codes, counts, "spgemm")


def neighbor_list_links(
    indptr: np.ndarray, indices: np.ndarray, n: int, memory_budget: int
) -> LinkTable:
    """Links of a neighbor graph held as CSR, by :func:`square_pays`.

    What the one-pass kernels call on the lists they scored: the
    row-block square when it pays and its :func:`square_link_bytes`
    fit ``memory_budget``, :func:`row_link_table` otherwise.
    Identical counts either way; the table's ``producer`` says which
    ran.
    """
    degrees = np.diff(indptr)
    if square_pays(degrees, n) and square_link_bytes(n) <= memory_budget:
        a = np.zeros((n, n), dtype=np.float32)
        a[np.repeat(np.arange(n), degrees), indices] = 1.0
        return _square_table(a, DENSE_BLOCK_ROWS)
    return row_link_table(indptr, indices, n)


def sparse_link_table(graph: NeighborGraph) -> LinkTable:
    """The Figure 4 algorithm: every point links each pair of its neighbors.

    Cost is ``O(sum_i m_i^2)`` where ``m_i`` is point ``i``'s neighbor
    count -- the paper's ``O(n * m_m * m_a)`` bound.  Point ``j``
    contributes +1 to every unordered pair drawn from ``nbrlist[j]``;
    :func:`row_link_table` regroups those increments by the pair's
    smaller end ``i`` and counts each output row in an ``n``-sized
    accumulator, emitting the codes ``i * n + l`` (``i < l``) sorted.
    """
    return row_link_table(*_neighbor_csr(graph), graph.n)


def compute_links(graph: NeighborGraph, method: str = "auto") -> LinkTable:
    """Compute the link table, picking dense vs sparse by expected cost.

    ``auto`` squares the adjacency in row blocks
    (:func:`blocked_link_table`) when :func:`square_pays` and counts
    rows (:func:`sparse_link_table`) otherwise.  A sparse-backed
    graph always stays sparse unless ``dense`` is forced, so no
    ``n x n`` array is built for it.  ``dense`` / ``sparse`` force a
    path.  Every path returns identical counts; the table's
    ``producer`` names the kernel that ran.
    """
    if method not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        square = graph.has_dense and square_pays(graph.degrees(), graph.n)
        method = "dense" if square else "sparse"
    return sparse_link_table(graph) if method == "sparse" else blocked_link_table(graph)


def weighted_link_matrix(
    graph: NeighborGraph, similarity: np.ndarray
) -> np.ndarray:
    """Similarity-weighted links (a Section 3.2 'alternative definition').

    The binary link counts every common neighbor equally; the weighted
    variant credits each common neighbor ``z`` of ``(p, q)`` with
    ``sim(p, z) * sim(z, q)``, so barely-over-threshold neighbors
    contribute less than strong ones:

        L_w[p, q] = sum_z  A[p, z] A[z, q] sim(p, z) sim(z, q)
                  = (W @ W)[p, q]   with  W = A * sim.

    With an all-ones similarity this reduces exactly to
    :func:`dense_link_matrix` (property-tested).  Returned as a float
    matrix; :class:`LinkTable` and the merge loop accept float counts,
    so ``LinkTable.from_dense(weighted_link_matrix(...))`` feeds
    :func:`repro.core.rock.cluster_with_links` directly.  Ablation A7
    measures what the weighting buys on noisy cluster boundaries.
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    if similarity.shape != graph.adjacency.shape:
        raise ValueError(
            "similarity matrix shape does not match the neighbor graph"
        )
    w = graph.adjacency * similarity
    links = w @ w
    links = (links + links.T) / 2.0  # exact symmetry against BLAS rounding
    np.fill_diagonal(links, 0.0)
    return links


def path_link_matrix(graph: NeighborGraph, length: int = 2) -> np.ndarray:
    """Counts of simple paths of the given length between every pair.

    ``length=2`` reproduces :func:`dense_link_matrix`.  ``length=3``
    implements the paper's sketched alternative link definition: the
    number of distinct (simple) paths ``i - a - b - j`` with consecutive
    neighbors.  Walk counts from ``A^3`` are corrected for the two ways
    a length-3 walk can revisit an endpoint (``a = j`` or ``b = i``),
    which overlap exactly when the walk is ``i - j - i - j``:

    ``P3[i,j] = A^3[i,j] - A[i,j] * (deg(i) + deg(j) - 1)``.
    """
    if length == 2:
        return dense_link_matrix(graph)
    if length != 3:
        raise ValueError("only path lengths 2 and 3 are supported")
    a = graph.adjacency.astype(np.int64)
    a3 = a @ a @ a
    deg = graph.degrees()
    correction = a * (deg[:, None] + deg[None, :] - 1)
    paths = a3 - correction
    np.fill_diagonal(paths, 0)
    return paths
