"""An in-process clustering service facade.

:class:`ClusteringService` ties the serve subsystem together: load a
persisted :class:`~repro.serve.model.RockModel`, assign single points,
batches or whole files, and expose one metrics snapshot for everything
that flowed through.  It is the object an application embeds
(or a future RPC layer wraps) -- the CLI's ``repro assign`` is a thin
shell around it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.io import iter_transactions, read_uci_data
from repro.obs.registry import MetricsRegistry
from repro.serve.engine import AssignmentEngine
from repro.serve.model import RockModel


class ClusteringService:
    """Fit-once / serve-many: everything after the model is frozen.

    Parameters
    ----------
    model:
        The servable artifact (load one with
        :meth:`ClusteringService.from_file`).
    cache_size:
        LRU size for the embedded engine.
    registry:
        Optional shared metrics registry; a private one is created
        when omitted.
    """

    def __init__(
        self,
        model: RockModel,
        cache_size: int = 4096,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.model = model
        self.engine = AssignmentEngine(
            model, cache_size=cache_size, registry=registry
        )
        self.registry = self.engine.registry

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        cache_size: int = 4096,
        registry: MetricsRegistry | None = None,
    ) -> "ClusteringService":
        """Load a saved model and stand up a service around it."""
        return cls(RockModel.load(path), cache_size=cache_size, registry=registry)

    @property
    def n_clusters(self) -> int:
        return self.model.n_clusters

    def assign(self, point: Any) -> int:
        """Cluster index for one point, -1 for an outlier."""
        return self.engine.assign(point)

    def assign_batch(self, points: Sequence[Any]) -> np.ndarray:
        """Labels for an in-memory batch, in input order."""
        return self.engine.assign_batch(points)

    def assign_file(
        self,
        source: str | Path,
        output: str | Path | None = None,
        input_format: str = "transactions",
        chunk_size: int = 2048,
    ) -> np.ndarray:
        """Label a data file (the §4.6 "data on disk"), optionally writing labels.

        ``transactions`` input streams without materialising the file;
        ``uci`` input infers column names from the first line the same
        way the CLI's clustering commands do.
        """
        if input_format == "transactions":
            points: Iterable[Any] = iter_transactions(source)
        elif input_format == "uci":
            with open(source, encoding="utf-8") as handle:
                first = handle.readline()
            n_columns = len(first.strip().split(","))
            attributes = [f"col{i}" for i in range(n_columns - 1)]
            points = read_uci_data(source, attributes)
        else:
            raise ValueError(f"unknown input format {input_format!r}")
        labels = self.engine.assign_all(points, batch_size=chunk_size)
        if output is not None:
            Path(output).write_text(
                "\n".join(str(int(l)) for l in labels) + "\n", encoding="utf-8"
            )
        return labels

    def metrics_snapshot(self) -> dict[str, Any]:
        """The registry's snapshot: the engine's ``serve.*`` metrics, plus
        anything else recording into a shared registry."""
        return self.registry.snapshot()

    def describe(self) -> dict[str, Any]:
        """Model facts an operator wants at a glance."""
        return self.engine.describe()
