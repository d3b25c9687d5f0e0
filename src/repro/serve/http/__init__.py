"""repro.serve.http -- the network serving layer over RockModel artifacts.

The paper's labeling phase is serve-shaped: a model fit on a sample
assigns every future point cheaply.  This package puts that behind a
long-running, zero-dependency async HTTP front-end:

* :class:`~repro.serve.http.server.RockHttpServer` -- asyncio HTTP/1.1
  server exposing ``POST /assign`` / ``POST /assign_batch`` /
  ``GET /model`` / ``GET /healthz`` / ``GET /metrics``;
* :class:`~repro.serve.http.batcher.RequestBatcher` -- coalesces
  concurrent single-point requests into shared
  ``AssignmentEngine.assign_batch`` calls (the first request of a batch
  leads it and runs the flush on the event loop, with no timer), with
  a bounded queue that sheds load as ``503 + Retry-After``;
* :class:`~repro.serve.http.reload.ModelWatcher` -- hot model reload:
  watches the artifact path, loads + checksum-verifies on a side
  thread, and atomically swaps the served generation while in-flight
  requests drain on the old model;
* :func:`~repro.serve.http.server.serve_in_thread` -- run the whole
  server on a background thread (tests, benchmarks, notebooks).

Start one from the CLI with ``python -m repro serve --model model.json
--port 8000``; see ``examples/serve_http.py`` for the library API.
"""

from repro.serve.http.batcher import BatcherClosed, QueueFull, RequestBatcher
from repro.serve.http.protocol import HttpRequest, ProtocolError
from repro.serve.http.reload import ModelWatcher, ServedModel, load_versioned_model
from repro.serve.http.server import RockHttpServer, ServerHandle, serve_in_thread

__all__ = [
    "BatcherClosed",
    "HttpRequest",
    "ModelWatcher",
    "ProtocolError",
    "QueueFull",
    "RequestBatcher",
    "RockHttpServer",
    "ServedModel",
    "ServerHandle",
    "load_versioned_model",
    "serve_in_thread",
]
