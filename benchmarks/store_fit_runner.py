"""One fit of ``bench_store_fit.py``, run in a fresh interpreter.

``python -m benchmarks.store_fit_runner --variant store --data f.store
--n-clusters 1260 [--budget-mb 600]`` loads the points (``text`` reads
a transactions file, ``store`` opens a store directory), runs
:func:`repro.core.rock` to ``n_clusters`` and prints one JSON row.  It
imports only what the fit needs, so ``ru_maxrss`` is the fit's own
high-water mark, and ``--budget-mb`` sets ``RLIMIT_AS`` before the
first import of the library, so the cap binds the whole fit.
"""

import argparse
import hashlib
import json
import resource
import time

THETA = 0.5
MEMORY_BUDGET = 512 << 20  # the fit's planning budget
VARIANTS = ("text", "store")


def clusters_digest(clusters) -> str:
    """A short digest of a clustering, comparable across processes."""
    text = json.dumps([[int(p) for p in cluster] for cluster in clusters])
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_variant(
    variant: str, data: str, n_clusters: int, budget_mb: int | None = None
) -> dict:
    if budget_mb is not None:
        cap = budget_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    from repro.core import rock

    row = {"variant": variant, "budget_mb": budget_mb, "infeasible": False}
    try:
        start = time.perf_counter()
        if variant == "text":
            from repro.data.io import read_transactions

            points = read_transactions(data)
        else:
            from repro.data.store import TransactionStore

            points = TransactionStore.open(data)
        load_s = time.perf_counter() - start
        start = time.perf_counter()
        result = rock(points, k=n_clusters, theta=THETA, memory_budget=MEMORY_BUDGET)
        fit_s = time.perf_counter() - start
    except MemoryError:
        row.update(infeasible=True, peak_rss=peak_rss())
        return row
    row.update(
        seconds_load=load_s,
        seconds_fit=fit_s,
        clusters=len(result.clusters),
        digest=clusters_digest(result.clusters),
        peak_rss=peak_rss(),
    )
    return row


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", required=True, choices=VARIANTS)
    parser.add_argument("--data", required=True)
    parser.add_argument("--n-clusters", type=int, required=True)
    parser.add_argument("--budget-mb", type=int, default=None)
    args = parser.parse_args()
    print(json.dumps(
        run_variant(args.variant, args.data, args.n_clusters, args.budget_mb)
    ))
