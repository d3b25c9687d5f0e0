"""Run ``python -m repro serve`` in this process, optionally under probes.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_launcher.py --report OUT.json [--trace] -- \\
        --model MODEL.json --port 0

Everything after ``--`` goes to ``repro.cli.main(["serve", ...])``
unchanged.  With ``--trace`` the server-side probes of
:mod:`perfbench.probes` are installed first.  When the server has
drained (SIGTERM) the launcher writes ``OUT.json``: peak RSS, CPU
seconds, the server registry snapshot and, when traced, the
per-request stamps, spans and hot-call totals.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    import repro.cli
    import repro.serve.http.server as server
    from perfbench.spans import Patcher, SpanRecorder
    from perfbench.probes import RequestTable, install_server

    rec = SpanRecorder()
    table = RequestTable()
    if args.trace:
        install_server(rec, table)
    servers: list = []

    def keep_instance(init):
        def __init__(self, *a, **k):
            servers.append(self)
            init(self, *a, **k)

        return __init__

    Patcher().wrap(server.RockHttpServer, "__init__", keep_instance)

    code = repro.cli.main(["serve", *serve_args])

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "registry": servers[0].registry.snapshot() if servers else {},
        "requests": table.rows,
        "spans": [
            {"name": s.name, "start": s.start, "end": s.end, "attrs": s.attrs}
            for s in rec.spans
        ],
        "hot": {name: list(v) for name, v in rec.hot.items()},
    }
    tmp = args.report.with_name(args.report.name + ".tmp")
    tmp.write_text(json.dumps(report), encoding="utf-8")
    os.replace(tmp, args.report)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
