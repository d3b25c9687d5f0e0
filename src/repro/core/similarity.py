"""Similarity functions (Section 3.1).

The paper assumes a normalised similarity function ``sim(p_i, p_j)`` in
``[0, 1]`` with 1 for identical points.  It may be metric (L1/L2 mapped
into [0,1]) or non-metric (Jaccard, or an arbitrary domain-expert
similarity table) -- the link machinery is agnostic.

All similarity classes here implement the tiny :class:`SimilarityFunction`
protocol (a single ``__call__``); several additionally provide a
``pairwise`` bulk path used by the vectorised neighbor computation in
:mod:`repro.core.neighbors`.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping, Sequence
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.core.encoding import as_item_set, restrict_to_shared_attributes
from repro.data.records import CategoricalRecord
from repro.data.transactions import TransactionDataset


@runtime_checkable
class SimilarityFunction(Protocol):
    """A normalised similarity: ``sim(a, b)`` in [0, 1], symmetric."""

    def __call__(self, a: Any, b: Any) -> float:  # pragma: no cover - protocol
        ...


class JaccardSimilarity:
    """``sim(T1, T2) = |T1 ∩ T2| / |T1 ∪ T2|`` (Section 3.1.1).

    Applies to transactions, raw sets, and categorical records (records
    are first encoded as ``A.v`` transactions, Section 3.1.2).  Two empty
    sets have similarity 0 by convention.
    """

    def __call__(self, a: Any, b: Any) -> float:
        sa, sb = as_item_set(a), as_item_set(b)
        union = len(sa | sb)
        if union == 0:
            return 0.0
        return len(sa & sb) / union

    def pairwise(self, dataset: TransactionDataset) -> np.ndarray:
        """Dense ``n x n`` Jaccard matrix via one integer matrix product.

        With indicator matrix ``M``, intersections are ``M @ M.T`` and
        unions are ``|A| + |B| - |A ∩ B|`` -- the same observation that
        makes link computation a matrix squaring in Section 4.4.
        """
        m = dataset.indicator_matrix().astype(np.int32)
        inter = m @ m.T
        sizes = m.sum(axis=1, dtype=np.int64)
        union = sizes[:, None] + sizes[None, :] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        np.fill_diagonal(sim, 1.0)
        # identical-to-empty convention: an all-empty pair is 0, but the
        # diagonal of an empty transaction is still "identical", so keep 1.
        return sim


def similarity_levels(size_a: int, size_b: int) -> list[float]:
    """The possible Jaccard values between transactions of given sizes.

    Section 3.1.1: "for a pair of transactions T1 and T2, sim can take
    at most min(|T1|, |T2|) + 1 values" -- one per possible
    intersection size ``0 .. min(|T1|, |T2|)``.  Useful when choosing
    theta: with uniform transaction sizes the threshold only needs to
    fall between two adjacent levels.
    """
    if size_a < 0 or size_b < 0:
        raise ValueError("transaction sizes must be non-negative")
    smaller = min(size_a, size_b)
    levels = []
    for intersection in range(smaller + 1):
        union = size_a + size_b - intersection
        levels.append(intersection / union if union else 0.0)
    return levels


class OverlapSimilarity:
    """``sim(T1, T2) = |T1 ∩ T2| / min(|T1|, |T2|)``.

    A common alternative normalisation for market-basket data; included
    because the paper stresses that *any* normalised similarity plugs
    into the link framework.  Empty sets have similarity 0.
    """

    def __call__(self, a: Any, b: Any) -> float:
        sa, sb = as_item_set(a), as_item_set(b)
        smaller = min(len(sa), len(sb))
        if smaller == 0:
            return 0.0
        return len(sa & sb) / smaller

    def pairwise(self, dataset: TransactionDataset) -> np.ndarray:
        m = dataset.indicator_matrix().astype(np.int32)
        inter = m @ m.T
        sizes = m.sum(axis=1, dtype=np.int64)
        smaller = np.minimum(sizes[:, None], sizes[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(smaller > 0, inter / np.maximum(smaller, 1), 0.0)
        np.fill_diagonal(sim, np.where(sizes > 0, 1.0, 1.0))
        return sim


class MissingAwareJaccard:
    """Pairwise-restricted Jaccard for records with missing values.

    Section 3.1.2 (time-series discussion): for each *pair* of records,
    only attributes whose values are present in **both** records
    participate; the two restricted item sets are then compared with the
    Jaccard coefficient.  A record may therefore map to different
    transactions in different comparisons.

    When the two records share no observed attribute the similarity is
    0 -- there is no evidence of closeness.
    """

    def __call__(self, a: CategoricalRecord, b: CategoricalRecord) -> float:
        items_a, items_b = restrict_to_shared_attributes(a, b)
        union = len(items_a | items_b)
        if union == 0:
            return 0.0
        return len(items_a & items_b) / union

    def pairwise(self, records: Sequence[CategoricalRecord]) -> np.ndarray:
        """Dense pairwise matrix, vectorised over the attribute axis.

        Encode each record as two aligned integer matrices: ``codes``
        (per-attribute value codes, -1 for missing) and ``present``
        (0/1).  For a pair (i, j), the intersection size is the count of
        attributes observed in both and equal; the union size is
        ``2 * n_shared - n_equal`` (each shared attribute contributes
        its two ``A.v`` items, collapsing to one when equal).
        """
        if not records:
            return np.zeros((0, 0))
        schema = records[0].schema
        n, d = len(records), len(schema)
        codes = np.full((n, d), -1, dtype=np.int64)
        value_codes: list[dict[Any, int]] = [{} for _ in range(d)]
        for i, r in enumerate(records):
            if r.schema != schema:
                raise ValueError("records must share a schema")
            for j, v in enumerate(r.values):
                if v is None:
                    continue
                table = value_codes[j]
                codes[i, j] = table.setdefault(v, len(table))
        present = (codes >= 0).astype(np.int64)
        shared = present @ present.T  # attributes observed in both
        sim = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            both = (codes[i] >= 0) & (codes >= 0)
            equal = ((codes == codes[i]) & both).sum(axis=1)
            union = 2 * shared[i] - equal
            with np.errstate(divide="ignore", invalid="ignore"):
                row = np.where(union > 0, equal / np.maximum(union, 1), 0.0)
            sim[i] = row
        return sim


class SimilarityTable:
    """A non-metric similarity given extensionally by a lookup table.

    "Our methods naturally extend to non-metric similarity measures that
    are relevant in situations where a domain expert/similarity table is
    the only source of knowledge" (abstract).  Keys are unordered pairs
    of point identifiers; the table is symmetrised on construction.

    Parameters
    ----------
    entries:
        Mapping from ``(id_a, id_b)`` to similarity in [0, 1].
    default:
        Similarity for pairs absent from the table (default 0.0).
    key:
        Function extracting the identifier from a point (default:
        identity, i.e. points *are* their ids).
    """

    def __init__(
        self,
        entries: Mapping[tuple[Hashable, Hashable], float],
        default: float = 0.0,
        key=None,
    ) -> None:
        if not 0.0 <= default <= 1.0:
            raise ValueError("default similarity must be in [0, 1]")
        self._table: dict[frozenset[Hashable], float] = {}
        for (a, b), value in entries.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"similarity for ({a!r}, {b!r}) outside [0, 1]")
            pair = frozenset((a, b))
            existing = self._table.get(pair)
            if existing is not None and existing != value:
                raise ValueError(
                    f"conflicting entries for pair ({a!r}, {b!r}): "
                    f"{existing} vs {value}"
                )
            self._table[pair] = value
        self._default = default
        self._key = key or (lambda p: p)

    def __call__(self, a: Any, b: Any) -> float:
        ka, kb = self._key(a), self._key(b)
        if ka == kb:
            return 1.0
        return self._table.get(frozenset((ka, kb)), self._default)


def similarity_to_dict(similarity: SimilarityFunction | None) -> dict[str, Any] | None:
    """A JSON-ready ``{"name": ..., "params": ...}`` description of a similarity.

    ``None`` (the pipeline default, plain Jaccard) stays ``None``.  The
    built-in similarity classes all round-trip; a custom callable has no
    declarative form, so it is recorded by class name with a
    ``"custom": True`` marker -- enough for provenance, not enough to
    reconstruct (:func:`similarity_from_dict` returns ``None`` for it).
    """
    if similarity is None:
        return None
    if isinstance(similarity, JaccardSimilarity):
        return {"name": "jaccard"}
    if isinstance(similarity, OverlapSimilarity):
        return {"name": "overlap"}
    if isinstance(similarity, MissingAwareJaccard):
        return {"name": "missing-aware-jaccard"}
    if isinstance(similarity, LpSimilarity):
        p: Any = "inf" if math.isinf(similarity.p) else similarity.p
        return {"name": "lp", "params": {"p": p, "scale": similarity.scale}}
    return {"name": type(similarity).__name__, "custom": True}


def similarity_from_dict(data: dict[str, Any] | None) -> SimilarityFunction | None:
    """Reconstruct a similarity recorded by :func:`similarity_to_dict`.

    Returns ``None`` both for ``None`` (meaning: the default Jaccard)
    and for custom entries that cannot be rebuilt declaratively.
    Unknown non-custom names raise -- they indicate a file written by a
    newer library version.
    """
    if data is None:
        return None
    if data.get("custom"):
        return None
    name = data.get("name")
    params = data.get("params", {})
    if name == "jaccard":
        return JaccardSimilarity()
    if name == "overlap":
        return OverlapSimilarity()
    if name == "missing-aware-jaccard":
        return MissingAwareJaccard()
    if name == "lp":
        p = params.get("p", 2.0)
        return LpSimilarity(
            p=math.inf if p == "inf" else float(p),
            scale=float(params.get("scale", 1.0)),
        )
    raise ValueError(f"unknown similarity function {name!r}")


class LpSimilarity:
    """Lp distance mapped into a [0, 1] similarity: ``1 / (1 + d_p(a, b))``.

    Included for completeness -- Section 3.1 allows ``sim`` to be "one of
    the well-known distance metrics (e.g., L1, L2)".  Points are numeric
    vectors.  ``p = inf`` gives the Chebyshev metric.
    """

    def __init__(self, p: float = 2.0, scale: float = 1.0) -> None:
        if p < 1:
            raise ValueError("p must be >= 1 for a metric")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.p = p
        self.scale = scale

    def __call__(self, a: Sequence[float], b: Sequence[float]) -> float:
        va = np.asarray(a, dtype=np.float64)
        vb = np.asarray(b, dtype=np.float64)
        if va.shape != vb.shape:
            raise ValueError("points must have the same dimensionality")
        if np.isinf(self.p):
            distance = float(np.max(np.abs(va - vb))) if va.size else 0.0
        else:
            distance = float(np.sum(np.abs(va - vb) ** self.p) ** (1.0 / self.p))
        return 1.0 / (1.0 + distance / self.scale)
