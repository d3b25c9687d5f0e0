"""repro -- a from-scratch reproduction of ROCK (Guha, Rastogi, Shim; ICDE 1999).

ROCK clusters data with boolean and categorical attributes using
*links* -- common-neighbor counts -- instead of distances.  This package
provides:

* :mod:`repro.core` -- the ROCK algorithm and all of its substrates;
* :mod:`repro.data` -- transaction / categorical-record / time-series
  data models;
* :mod:`repro.datasets` -- the paper's synthetic market-basket
  generator and generative replicas of its three real-life data sets;
* :mod:`repro.baselines` -- the traditional clustering algorithms the
  paper compares against (centroid-based, MST/single-link,
  group-average hierarchical clustering, plus a k-modes extension);
* :mod:`repro.eval` -- clustering quality metrics and the cluster
  characterisation used to regenerate the paper's tables;
* :mod:`repro.serve` -- persisted :class:`RockModel` artifacts and the
  high-throughput assignment engine/service (fit once, serve many).

Quickstart::

    from repro import RockPipeline, Transaction

    points = [Transaction(t) for t in [{1, 2, 3}, {1, 2, 4}, {5, 6}, {5, 7}]]
    result = RockPipeline(k=2, theta=0.3).fit(points)
    print(result.clusters)
"""

from repro.core import (
    ClusterLabeler,
    Dendrogram,
    JaccardSimilarity,
    LinkTable,
    MissingAwareJaccard,
    NeighborGraph,
    OverlapSimilarity,
    PipelineResult,
    RockPipeline,
    RockResult,
    SimilarityTable,
    cluster_with_links,
    compute_links,
    compute_neighbor_graph,
    criterion_value,
    default_f,
    goodness,
    qrock,
    rock,
)
from repro.estimator import RockClusterer
from repro.serve import AssignmentEngine, RockModel
from repro.data import (
    CategoricalDataset,
    CategoricalRecord,
    CategoricalSchema,
    TimeSeries,
    Transaction,
    TransactionDataset,
)

__version__ = "1.0.0"

__all__ = [
    "AssignmentEngine",
    "CategoricalDataset",
    "RockModel",
    "Dendrogram",
    "qrock",
    "CategoricalRecord",
    "CategoricalSchema",
    "ClusterLabeler",
    "JaccardSimilarity",
    "LinkTable",
    "MissingAwareJaccard",
    "NeighborGraph",
    "OverlapSimilarity",
    "PipelineResult",
    "RockPipeline",
    "RockClusterer",
    "RockResult",
    "SimilarityTable",
    "TimeSeries",
    "Transaction",
    "TransactionDataset",
    "cluster_with_links",
    "compute_links",
    "compute_neighbor_graph",
    "criterion_value",
    "default_f",
    "goodness",
    "rock",
    "__version__",
]
