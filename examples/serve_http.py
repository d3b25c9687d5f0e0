"""HTTP serving: the network front-end over a saved RockModel.

``repro.serve.http`` puts the §4.6 labeling phase behind a long-running
asyncio HTTP server with production mechanics:

1. concurrent ``POST /assign`` requests are *coalesced* into shared
   ``AssignmentEngine.assign_batch`` calls (the paper's labeling step
   is a matmul -- it wants big batches, not one-point calls);
2. overwriting ``model.json`` hot-reloads it: the server checksums,
   loads, and atomically swaps the new generation without dropping a
   request;
3. ``GET /metrics`` exposes engine + server counters as Prometheus
   text.

This example runs the server on a background thread, talks to it with
plain ``http.client``, swaps the model under load, and scrapes the
metrics page.  In production you would run ``python -m repro serve
--model model.json --port 8000`` instead.

    python examples/serve_http.py
"""

import http.client
import json
import tempfile
import threading
from pathlib import Path

from repro import RockPipeline
from repro.datasets import small_synthetic_basket
from repro.serve.http import serve_in_thread


def get_json(address, method, path, payload=None):
    conn = http.client.HTTPConnection(*address, timeout=30)
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return json.loads(data) if path != "/metrics" else data.decode()


def main() -> None:
    # --- fit day: freeze a model artifact -------------------------------
    basket = small_synthetic_basket(
        n_clusters=3, cluster_size=120, n_outliers=12, seed=7
    )
    pipeline = RockPipeline(
        k=3, theta=0.45, sample_size=150, min_cluster_size=5, seed=0
    )
    result, model = pipeline.fit_model(basket.transactions)
    model_path = Path(tempfile.mkdtemp()) / "model.json"
    model.save(model_path)
    print(f"fit {result.n_clusters} clusters; model at {model_path}\n")

    # --- serve day: the HTTP front-end ----------------------------------
    with serve_in_thread(
        model_path, batch_max=32, poll_seconds=0.1
    ) as handle:
        host, port = handle.address
        print(f"serving on http://{host}:{port}")

        info = get_json(handle.address, "GET", "/model")
        print(f"/model: version {info['model_version']}, "
              f"{info['n_clusters']} clusters, theta={info['theta']}\n")

        # 80 concurrent single-point requests -> far fewer engine calls
        points = [sorted(t.items) for t in basket.transactions[:80]]
        labels = {}

        def client(worker_points):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            for point in worker_points:
                conn.request(
                    "POST", "/assign", body=json.dumps({"point": point})
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                labels[tuple(point)] = payload["label"]
            conn.close()

        threads = [
            threading.Thread(target=client, args=(points[i::8],))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        snap = handle.server.registry.snapshot()["counters"]
        print(f"80 requests answered by {snap['http.batcher.flushes']} "
              f"engine calls (request coalescing)")
        outliers = sum(1 for label in labels.values() if label == -1)
        print(f"labels: {len(labels)} points, {outliers} outliers\n")

        # hot reload: overwrite the artifact, watch the version flip
        model.metadata["retrained"] = True
        model.save(model_path)
        import time

        old = info["model_version"]
        while get_json(handle.address, "GET", "/model")["model_version"] == old:
            time.sleep(0.05)
        health = get_json(handle.address, "GET", "/healthz")
        print(f"hot reload: version {old} -> {health['model_version']} "
              f"({health['reloads']} reload, {health['reload_errors']} errors)\n")

        # the Prometheus page: engine serve_* and server http_* families
        metrics = get_json(handle.address, "GET", "/metrics")
        wanted = ("rock_http_requests_assign_total",
                  "rock_serve_requests_total",
                  "rock_http_batcher_queue_wait_seconds_count",
                  "rock_http_reload_count_total")
        print("/metrics excerpt:")
        for line in metrics.splitlines():
            if line.startswith(wanted):
                print(f"  {line}")

    print("\nserver drained and stopped")


if __name__ == "__main__":
    main()
