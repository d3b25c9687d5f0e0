"""repro.serve -- deploy a finished clustering as an assignment service.

The paper's own deployment story (Section 4.6) is fit-once /
serve-many: cluster a (sampled) data set once, persist the labeling
sets, then stream any amount of data through cheap per-point
assignment.  This package is that second phase, productionised:

* :class:`~repro.serve.model.RockModel` -- the versioned JSON artifact
  (labeling sets, theta, ``f(theta)``, similarity config, cluster
  metadata);
* :class:`~repro.serve.engine.AssignmentEngine` -- batch assignment
  through the model's :class:`~repro.core.labeling.ClusterLabeler`,
  with ``serve.*`` metrics (what ``repro assign`` and ``repro serve``
  run);
* :class:`~repro.serve.index.AssignmentIndex` -- the item ->
  representative inverted index that picks and runs the assignment
  tier (``native``, ``dense`` or ``pruned``; all bit-identical to
  :meth:`~repro.core.labeling.ClusterLabeler.assign`);
* :mod:`repro.serve.http` -- the async network front-end
  (``repro serve``): request batching, hot model reload,
  backpressure, Prometheus ``/metrics``.

Every engine records its ``serve.*`` counters and histograms straight
into a :class:`~repro.obs.registry.MetricsRegistry` (its own, or the
one passed as ``registry=``), so the CLI, the HTTP server and a traced
run read serving metrics the same way.

Quickstart::

    from repro import RockPipeline
    from repro.serve import AssignmentEngine, RockModel

    result, model = RockPipeline(k=4, theta=0.5, sample_size=500,
                                 seed=0).fit_model(points)
    model.save("model.json")

    engine = AssignmentEngine(RockModel.load("model.json"))
    labels = engine.assign_batch(new_points)
"""

from repro.serve.engine import AssignmentEngine
from repro.serve.index import AssignmentIndex, resolve_assign_backend
from repro.serve.model import (
    MODEL_FORMAT,
    MODEL_VERSION,
    ArtifactIntegrityError,
    RockModel,
    model_from_result,
)

__all__ = [
    "ArtifactIntegrityError",
    "AssignmentEngine",
    "AssignmentIndex",
    "MODEL_FORMAT",
    "MODEL_VERSION",
    "RockModel",
    "model_from_result",
    "resolve_assign_backend",
]
