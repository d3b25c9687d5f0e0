"""The in-process workloads (fit-full, paper-basket, stream-drift) and shared plumbing.

Each workload function takes ``(seed, seconds, trace, work, speed)``
and returns a :class:`RunResult`.  The program only ever receives the
generated inputs and the paper's parameters (k, theta, sample size,
seed); fit modes, merge engines, worker counts and assignment backends
are left for the program to resolve, so a change to that resolution
shows up in the numbers.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import data
from perfbench.hostspeed import HostSpeed
from perfbench.metrics import units
from perfbench.probes import install_inprocess, peak_rss_mb
from perfbench.spans import Patcher, SpanRecord, SpanRecorder, self_times
from perfbench.stats import summarize

clock = time.perf_counter

# set-up runs at least SETUP_REPS times, and more (up to SETUP_MAX_REPS)
# while the set-ups so far took under SETUP_MIN_S, so a set-up of a few
# tens of milliseconds is still a median over a second of work
SETUP_REPS = 3
SETUP_MAX_REPS = 15
SETUP_MIN_S = 1.0
FIT_FULL_CLUSTERS = 210
FIT_FULL_PER_CLUSTER = 8
STREAM_ARRIVALS = 40_000
# the vocabulary switch comes after about a quarter of the stream: at
# the midpoint the number of drift refits it set off depended on the
# seed (two, three or four, as the fourth window's outlier rate fell
# either side of 0.5), which moved arrivals per second by a fifth
# between seeds; after 9,900 arrivals every seed tried set off exactly
# two, and the first drift window (ending at arrival 10,496) is 58 %
# new vocabulary, well clear of the 0.5 trigger
STREAM_SWITCH_AT = 9_900
# spans that stand for the whole run rather than one layer: their self
# time is the part of the end-to-end time no layer accounts for
ROOT_SPANS = ("fit", "stream.session")


@dataclass
class RunResult:
    """What one benchmark run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failed_checks: list[str] = field(default_factory=list)

    def operation(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One correctness check; a failure counts in ``failed``."""
        self.attempted += 1
        self.details.setdefault("checks", {})[name] = (
            ("ok" if ok else "FAILED") + (f": {detail}" if detail else "")
        )
        if not ok:
            self.failed += 1
            self.failed_checks.append(name)


def timed_setup(
    speed: HostSpeed,
    build: Callable[[], Any],
    reps: int = SETUP_REPS,
    discard: Callable[[Any], None] | None = None,
) -> tuple[float, float, Any]:
    """Run ``build`` ``reps`` times or more (see ``SETUP_MIN_S``);
    ``(median normalised s, median wall s, last state)``."""
    walls: list[float] = []
    normalised: list[float] = []
    state = None
    while len(walls) < reps or (
        sum(walls) < SETUP_MIN_S and len(walls) < SETUP_MAX_REPS
    ):
        if state is not None and discard is not None:
            discard(state)
        wall, norm, state = speed.timed(build)
        walls.append(wall)
        normalised.append(norm)
    return statistics.median(normalised), statistics.median(walls), state


def repeat_for(
    speed: HostSpeed,
    seconds: float,
    op: Callable[[], Any],
    digest: Callable[[Any], Any] = lambda outcome: outcome,
) -> tuple[list[float], list[float], list[Any]]:
    """Run ``op`` at least once, and again while another would end within ``seconds``.

    Returns the normalised and the wall durations of the ops and
    ``digest(outcome)`` of each op, taken outside the timed interval;
    the outcome itself is dropped before the next op starts, so later
    ops do not run with earlier outputs alive and the peak RSS does not
    depend on how many ops fit in the run.
    """
    normalised: list[float] = []
    walls: list[float] = []
    digests: list[Any] = []
    started = clock()
    while True:
        wall, norm, outcome = speed.timed(op)
        walls.append(wall)
        normalised.append(norm)
        digests.append(digest(outcome))
        del outcome
        if clock() - started + statistics.median(walls) > seconds:
            return normalised, walls, digests


def native_probe() -> dict[str, Any]:
    from repro.native import backend_info

    return backend_info()


# ---------------------------------------------------------------------------
# quality measures
# ---------------------------------------------------------------------------

def ari_on_members(truth: Sequence[int], pred: Sequence[int]) -> float:
    """ARI over the generator's cluster members (truth >= 0); -1 predictions stay a class."""
    from repro.eval import adjusted_rand_index

    pairs = [(t, int(p)) for t, p in zip(truth, pred) if t >= 0]
    return adjusted_rand_index([t for t, _ in pairs], [p for _, p in pairs])


def recovered_clusters(truth: Sequence[int], pred: Sequence[int]) -> int:
    """Planted clusters whose modal label is theirs by mutual majority.

    Cluster ``c`` counts when its most common predicted label ``l`` is
    not -1, covers more than half of ``c``, and more than half of the
    points labelled ``l`` come from ``c``.
    """
    members: dict[int, list[int]] = {}
    for t, p in zip(truth, pred):
        members.setdefault(t, []).append(int(p))
    label_sizes = Counter(int(p) for p in pred)
    recovered = 0
    for c, labels in members.items():
        label, count = Counter(labels).most_common(1)[0]
        if label >= 0 and 2 * count > len(labels) and 2 * count > label_sizes[label]:
            recovered += 1
    return recovered


# ---------------------------------------------------------------------------
# per-layer metrics from an in-process trace
# ---------------------------------------------------------------------------

def unaccounted_share(rec: SpanRecorder, roots: Sequence[SpanRecord]) -> float:
    """Self time of the root spans below (and including) ``roots`` over their duration."""
    selfs = self_times(rec.spans)
    total = sum(r.duration for r in roots)
    uncovered = 0.0
    for root in roots:
        for span in [root, *rec.descendants(root)]:
            if span.name in ROOT_SPANS:
                uncovered += selfs[span.id]
    return uncovered / total if total > 0 else 0.0


def inprocess_layers(rec: SpanRecorder) -> dict[str, float]:
    """Every per-layer metric, filled from the in-process spans (others 0)."""
    names = rec.by_name()

    def total(name: str) -> float:
        return names.get(name, {}).get("total_s", 0.0)

    def count(name: str) -> int:
        return int(names.get(name, {}).get("count", 0))

    def attr_sum(name: str, attr: str) -> float:
        return float(sum(s.attrs.get(attr, 0) for s in rec.named(name)))

    out = dict.fromkeys(units("per_layer"), 0.0)
    out["core.sampling.s"] = total("core.sampling")
    out["core.neighbors.s"] = total("core.neighbors")
    out["core.neighbors.edges"] = attr_sum("core.neighbors", "edges")
    out["core.neighbors.rss_delta_mb"] = max(
        (s.attrs.get("rss_delta_mb", 0.0) for s in rec.named("core.neighbors")),
        default=0.0,
    )
    out["core.links.s"] = total("core.links")
    out["core.links.pairs"] = attr_sum("core.links", "pairs")
    out["core.merge.s"] = total("core.merge")
    for name in ("merges", "heap_ops", "components"):
        out[f"core.merge.{name}"] = attr_sum("core.merge", name)
    assign_s = total("core.labeling.assign")
    out["core.labeling.s"] = (
        total("core.labeling") + total("core.labeling.build") + assign_s
    )
    out["core.labeling.points"] = count("core.labeling.assign")
    out["core.labeling.points_per_s"] = (
        out["core.labeling.points"] / assign_s if assign_s > 0 else 0.0
    )
    out["serve.model.to_model_s"] = total("serve.model.to_model")
    out["serve.model.save_s"] = total("serve.model.save")
    out["serve.model.load_s"] = total("serve.model.load")
    out["serve.model.bytes"] = max(
        (s.attrs.get("bytes", 0) for s in rec.spans
         if s.name in ("serve.model.save", "stream.publish")),
        default=0,
    )
    out["serve.index.build_s"] = total("serve.index.build")
    out["serve.index.assign_s"] = total("serve.index.assign")
    out["stream.reservoir.s"] = total("stream.reservoir")
    out["stream.drift.s"] = total("stream.drift")
    out["stream.label.s"] = total("stream.label")
    out["stream.refit.fit_s"] = sum(
        s.duration
        for refit in rec.named("stream.refit")
        for s in rec.descendants(refit)
        if s.name == "fit"
    )
    out["stream.publish.s"] = total("stream.publish")
    out["stream.refits"] = count("stream.refit")
    out["stream.drift_triggers"] = count("stream.drift_triggers")
    return out


def traced_op(
    speed: HostSpeed, op: Callable[[], Any]
) -> tuple[SpanRecorder, float, float, Any]:
    """Run ``op`` once to warm up, then untraced, then traced:
    ``(recorder, untraced s, traced s, result)``, both times at the
    reference host speed.  The warm-up keeps one-time costs (imports,
    first calls into NumPy and the native kernels) out of the untraced
    reference; the traced run takes no probes inside it, so probe time
    never shows as unaccounted time."""
    op()
    _, untraced, _ = speed.timed(op)
    rec = SpanRecorder()
    patch = install_inprocess(rec)
    try:
        _, traced, result = speed.timed(op, checkpoints=False)
    finally:
        patch.restore()
    return rec, untraced, traced, result


def fill_traced(result: RunResult, rec: SpanRecorder, untraced: float,
                traced: float, roots: Sequence[SpanRecord]) -> None:
    result.layers = inprocess_layers(rec)
    result.layers["trace.overhead_ratio"] = traced / untraced - 1.0
    result.layers["unaccounted_share"] = unaccounted_share(rec, roots)
    span_details(result, rec)


def span_details(result: RunResult, rec: SpanRecorder) -> None:
    """The neighbor kernels that ran and per-name span totals, for the printout."""
    result.details["neighbors_backends"] = sorted(
        {s.attrs["backend"] for s in rec.named("core.neighbors")}
    )
    result.details["layer_spans"] = {
        name: {k: round(v, 6) for k, v in row.items()}
        for name, row in sorted(rec.by_name().items())
    }


# ---------------------------------------------------------------------------
# fit-full and paper-basket
# ---------------------------------------------------------------------------

def _fit_workload(
    result: RunResult,
    speed: HostSpeed,
    build: Callable[[], tuple[Any, list[int]]],
    make_pipeline: Callable[[], Any],
    check: Callable[[RunResult, list[int], Any], float],
    seconds: float,
    trace: bool,
) -> None:
    setup_s, setup_wall_s, (points, truth) = timed_setup(
        speed, lambda: (build(), native_probe())[0]
    )
    result.metrics["setup_s"] = setup_s
    result.details["setup_wall_s"] = setup_wall_s

    def op() -> Any:
        return make_pipeline().fit(points)

    def digest(fit: Any) -> tuple[float, dict, int, dict]:
        result.operation(True)
        return check(result, truth, fit), dict(fit.backends), fit.n_clusters, fit.timings

    if trace:
        rec, untraced, traced, fit = traced_op(speed, op)
        durations, walls, digests = [traced], [traced], [digest(fit)]
        fill_traced(result, rec, untraced, traced, rec.named("fit"))
    else:
        from repro.core.labeling import ClusterLabeler

        # the labeling loop is most of a paper-basket fit: checkpoints
        # between its calls cut the fit into segments of about a second
        patch = Patcher()
        patch.wrap(ClusterLabeler, "assign", speed.checkpointing)
        try:
            durations, walls, digests = repeat_for(speed, seconds, op, digest)
        finally:
            patch.restore()
    lat = summarize([d * 1000.0 for d in durations])
    result.metrics.update(
        latency_p50_ms=lat["p50"],
        throughput_per_s=len(points) / statistics.median(durations),
        peak_rss_mb=peak_rss_mb(),
        ari=statistics.median(ari for ari, _, _, _ in digests),
    )
    _, backends, n_clusters, timings = digests[-1]
    result.provenance["backends"] = backends
    result.details.update(
        fit_s=statistics.median(durations),
        fit_wall_s=statistics.median(walls),
        fits=len(durations),
        fit_tail_s=lat["tail"] / 1000.0,
        fit_tail_label=lat["tail_label"],
        n_points=len(points),
        n_clusters=n_clusters,
        phase_timings_s={k: round(v, 4) for k, v in timings.items()},
    )


def fit_full(seed: int, seconds: float, trace: bool, work: Path,
             speed: HostSpeed) -> RunResult:
    """RockPipeline(k=210, theta=0.5).fit on 3,360 planted-cluster baskets, no sampling."""
    from repro.core import RockPipeline

    result = RunResult()

    def check(result: RunResult, truth: list[int], fit: Any) -> float:
        found = recovered_clusters(truth, fit.labels.tolist())
        result.check(
            "all planted clusters recovered", found == FIT_FULL_CLUSTERS,
            f"{found}/{FIT_FULL_CLUSTERS}",
        )
        return ari_on_members(truth, fit.labels.tolist())

    _fit_workload(
        result, speed,
        lambda: data.clustered_baskets(FIT_FULL_CLUSTERS, FIT_FULL_PER_CLUSTER, seed),
        lambda: RockPipeline(k=FIT_FULL_CLUSTERS, theta=0.5, seed=seed),
        check, seconds, trace,
    )
    return result


def paper_basket(seed: int, seconds: float, trace: bool, work: Path,
                 speed: HostSpeed) -> RunResult:
    """The Table 5 data set (114,586 baskets): sample 2,000, cluster, label the rest."""
    from repro.core import RockPipeline
    from repro.eval import misclassified_count

    result = RunResult()

    def build() -> tuple[Any, list[int]]:
        basket = data.paper_basket(seed)
        return basket.transactions, basket.labels

    def check(result: RunResult, truth: list[int], fit: Any) -> float:
        pred = fit.labels.tolist()
        members = [(t, p) for t, p in zip(truth, pred) if t >= 0]
        wrong = misclassified_count([t for t, _ in members], [p for _, p in members])
        ari = ari_on_members(truth, pred)
        result.check("0 misclassified (Table 6, theta=0.5, sample 2000)", wrong == 0,
                     f"{wrong} misclassified")
        result.check("ari >= 0.99", ari >= 0.99, f"{ari:.5f}")
        result.details["unassigned_members"] = sum(1 for _, p in members if p == -1)
        return ari

    _fit_workload(
        result, speed, build,
        lambda: RockPipeline(
            k=10, theta=0.5, sample_size=2000, min_cluster_size=20, seed=seed
        ),
        check, seconds, trace,
    )
    return result


# ---------------------------------------------------------------------------
# stream-drift
# ---------------------------------------------------------------------------

def stream_drift(seed: int, seconds: float, trace: bool, work: Path,
                 speed: HostSpeed) -> RunResult:
    """StreamClusterer (resume mode) over 40,000 arrivals with a hard
    vocabulary switch after 9,900."""
    from repro.core import RockPipeline
    from repro.serve.http.reload import load_versioned_model
    from repro.stream import DriftDetector, StreamClusterer

    result = RunResult()
    setup_s, setup_wall_s, (records, truth) = timed_setup(
        speed,
        lambda: (
            data.drifting_stream(seed, STREAM_ARRIVALS, STREAM_SWITCH_AT), native_probe()
        )[0],
    )
    result.metrics["setup_s"] = setup_s
    result.details["setup_wall_s"] = setup_wall_s
    sessions_started = itertools.count()

    def op() -> tuple[Any, Any, list[tuple[float, float]]]:
        # each session publishes its own artifact, so a later session
        # cannot overwrite the one an earlier session is checked against
        artifact = work / f"stream-model-{next(sessions_started)}.json"
        clusterer = StreamClusterer(
            RockPipeline(k=10, theta=0.5, min_cluster_size=10, seed=seed),
            reservoir_size=1000,
            publish_to=artifact,
            drift=DriftDetector(window=1024, max_outlier_rate=0.5),
            seed=seed,
        )
        # a refit runs from its trigger (the call into _refit) until the
        # artifact is published and the new model labels the next batch;
        # checkpoints on both sides make it one segment of the session
        refits: list[tuple[float, float]] = []

        def timing(fn: Callable[..., Any]) -> Callable[..., Any]:
            def refit(*args: Any, **kwargs: Any) -> Any:
                speed.checkpoint()
                outcome = fn(*args, **kwargs)
                refits.append(speed.checkpoint())
                return outcome
            return refit

        patch = Patcher()
        patch.wrap(StreamClusterer, "_refit", timing)
        try:
            summary = clusterer.process(records)
        finally:
            patch.restore()
        return clusterer, summary, refits

    if trace:
        rec, untraced, traced, session = traced_op(speed, op)
        sessions, session_s, session_walls = [session], [traced], [traced]
        fill_traced(result, rec, untraced, traced, rec.named("stream.session"))
    else:
        session_s, session_walls, sessions = repeat_for(speed, seconds, op)

    refit_ms = []
    refit_wall_ms = []
    for clusterer, summary, refits in sessions:
        result.operation(summary.arrivals == len(records))
        if len(refits) != len(summary.refits):
            raise RuntimeError(f"timed {len(refits)} refits of {len(summary.refits)}")
        drift_refits = sum(r.reason.startswith("drift") for r in summary.refits)
        result.check("a drift refit happened", drift_refits >= 1,
                     f"{drift_refits} drift refits")
        _, version = load_versioned_model(clusterer.publish_to)
        result.check("published version == clusterer.version",
                     version == clusterer.version, f"{version} vs {clusterer.version}")
        refit_ms += [norm * 1000.0 for _, norm in refits]
        refit_wall_ms += [wall * 1000.0 for wall, _ in refits]

    clusterer, summary, refits = sessions[-1]
    labeler = clusterer.model.labeler()
    switch = STREAM_SWITCH_AT
    probe = list(range(switch - 1000, switch)) + list(range(len(records) - 1000, len(records)))
    ari = ari_on_members([truth[i] for i in probe], [labeler.assign(records[i]) for i in probe])
    lat = summarize(refit_ms)
    result.metrics.update(
        latency_p50_ms=lat["p50"],
        throughput_per_s=statistics.median(len(records) / s for s in session_s),
        peak_rss_mb=peak_rss_mb(),
        ari=ari,
    )
    result.provenance["backends"] = dict(clusterer.last_result.backends)
    result.provenance["backends"]["assign"] = clusterer._assign_backend
    result.details.update(
        stream_records_per_s=result.metrics["throughput_per_s"],
        refit_p50_s=lat["p50"] / 1000.0,
        stream_records_per_wall_s=statistics.median(len(records) / s for s in session_walls),
        refit_wall_p50_s=statistics.median(refit_wall_ms) / 1000.0,
        refits=[(r.reason, r.arrivals_seen, r.n_clusters, round(norm, 3))
                for r, (_, norm) in zip(summary.refits, refits)],
        refit_tail_s=lat["tail"] / 1000.0,
        refit_tail_label=lat["tail_label"],
        sessions=len(sessions),
        session_s=statistics.median(session_s),
        session_wall_s=statistics.median(session_walls),
        labels_per_s=summary.labels_per_second(),
    )
    return result

