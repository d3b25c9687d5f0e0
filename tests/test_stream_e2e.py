"""End-to-end: stream -> drift refit -> republish -> live server hot-swap.

The acceptance path for stream mode, exercised against a real HTTP
server (reusing the atomic-swap-under-load harness from
``test_serve_http_reload``):

* records flow through :class:`StreamClusterer`, which fits a warmup
  model, publishes it, and keeps labeling arrivals;
* the stream then shifts to a disjoint vocabulary -- every arrival is
  an outlier under the warmup model -- so the drift detector must
  trigger at least one refit, republished atomically to the artifact
  the server watches;
* while that happens, every labeled batch is *also* sent to the
  running server's ``POST /assign_batch``; each response must be
  internally consistent -- all labels in a batch explained by the one
  ``model_version`` the response reports (no mixed-version batch),
  verified against locally-loaded copies of every published
  generation;
* the server ends up serving the stream's final version with zero
  reload errors.
"""

import random

from repro.core.pipeline import RockPipeline
from repro.data.transactions import Transaction
from repro.serve.engine import AssignmentEngine
from repro.serve.http import load_versioned_model, serve_in_thread
from repro.stream import DriftDetector, StreamClusterer
from tests.test_serve_http_reload import request_json, wait_for_version

A_VOCAB = [f"a{i}" for i in range(12)]
B_VOCAB = [f"b{i}" for i in range(12)]  # disjoint: pure outliers under A


def make_stream(vocab, count, seed):
    rng = random.Random(seed)
    return [Transaction(rng.sample(vocab, 4)) for _ in range(count)]


def test_drift_refit_republish_hot_swap(tmp_path):
    model_path = tmp_path / "model.json"
    drift = DriftDetector(window=40, max_outlier_rate=0.5)
    clusterer = StreamClusterer(
        RockPipeline(k=3, theta=0.3, seed=11),
        reservoir_size=80,
        warmup=100,
        batch_size=40,
        drift=drift,
        refit_mode="resume",
        publish_to=model_path,
        seed=7,
    )

    # locally-loaded copy of every published generation, keyed by version
    generations = {}
    engines = {}

    def on_refit(event):
        model, version = load_versioned_model(model_path)
        assert version == event.version
        generations[version] = model

    clusterer.on_refit = on_refit

    # phase 1: warmup on vocabulary A publishes generation 1
    warm = clusterer.process(make_stream(A_VOCAB, 100, seed=1))
    assert [event.reason for event in warm.refits] == ["warmup"]
    version_1 = clusterer.version
    assert version_1 in generations

    with serve_in_thread(model_path, poll_seconds=0.02) as handle:
        wait_for_version(handle.address, version_1)
        failures = []
        batch_versions = []

        def on_batch(points, labels, scores, version):
            status, data = request_json(
                handle.address, "POST", "/assign_batch",
                {"points": [sorted(point.items) for point in points]},
            )
            if status != 200:
                failures.append(("status", status))
                return
            served_version = data["model_version"]
            batch_versions.append(served_version)
            model = generations.get(served_version)
            if model is None:
                failures.append(("unknown version", served_version))
                return
            engine = engines.get(served_version)
            if engine is None:
                engine = engines[served_version] = AssignmentEngine(model)
            want = [int(label) for label in engine.assign_batch(points)]
            if data["labels"] != want:
                failures.append(("mixed", served_version, data["labels"], want))

        clusterer.on_batch = on_batch

        # phase 2: the distribution shifts; drift must force a refit and
        # the server must hot-swap to the republished artifact
        shifted = clusterer.process(make_stream(B_VOCAB, 200, seed=2))

        drift_refits = [
            event for event in shifted.refits
            if event.reason.startswith("drift")
        ]
        assert drift_refits, [event.reason for event in shifted.refits]
        assert "outlier_rate" in drift_refits[0].reason
        assert drift_refits[0].resumed  # resume mode carried the partition

        final = wait_for_version(handle.address, clusterer.version)
        assert final["model_age_seconds"] >= 0.0
        _, health = request_json(handle.address, "GET", "/healthz")
        assert health["reloads"] >= 1
        assert health["reload_errors"] == 0
        assert health["model_version"] == clusterer.version

    assert failures == [], failures[:5]
    # every batch was answered by a published generation; the swap is
    # visible as the responses move off generation 1
    assert batch_versions, "no batch ever reached the server"
    assert batch_versions[0] == version_1
    assert set(batch_versions) <= set(generations)
    assert len(generations) >= 2
