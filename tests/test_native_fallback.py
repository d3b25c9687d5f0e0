"""Backend fallback: native is the default, and it degrades, never crashes.

The C kernels are an acceleration, not a requirement.  Where the probe
passes, every stage -- merge engine, assignment tier, the pipeline's
labeling scan -- runs native silently.  Where it fails (no compiler, a
failed build, a smoke-test mismatch, or the ``REPRO_NATIVE=0`` kill
switch) every behaviour stays byte for byte on the reference paths,
without a warning (the fit planner routes an over-budget fit to the
fused kernel and records why in its plan), and :func:`backend_info`
records why.  These tests simulate each failure mode and pin the
silence, the fallback targets, the recorded reason, and the backend
observability (``PipelineResult.backends``, model metadata,
``fit.backend.*`` gauges).  One test fails outright where a compiler
exists but the probe does not pass: the native test modules skip
there, so a broken kernel would otherwise leave the suite green.
"""

import os
import shutil
import warnings

import numpy as np
import pytest

import repro.native as native
from repro.core.goodness import naive_goodness
from repro.core.merge import merge_engine
from repro.core.pipeline import RockPipeline
from repro.data.transactions import Transaction, TransactionDataset
from repro.native import cext
from repro.obs.trace import Tracer
from repro.serve.index import AssignmentIndex, resolve_assign_backend


@pytest.fixture(autouse=True)
def reset_probe_cache():
    """Every test starts (and leaves) with a cold probe cache."""
    native._reset_for_tests()
    yield
    native._reset_for_tests()


@pytest.fixture
def no_backends(monkeypatch):
    """Disable the native tier with the kill switch."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    native._reset_for_tests()


@pytest.fixture
def missing_compiler(monkeypatch, tmp_path):
    """A machine whose only C compiler is missing, with a cold cache."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    native._reset_for_tests()
    return tmp_path / "cache"


@pytest.fixture
def c_tier(monkeypatch):
    """The C tier with the kill switch off; skips where it cannot build."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    native._reset_for_tests()
    if native.get_kernels() is None:
        pytest.skip(f"C tier unavailable: {native.backend_info()['reason']}")
    return native.get_kernels()


def baskets(n_clusters: int = 4, per: int = 8, seed: int = 3):
    # 6 of 12 pool items per basket: S is about 3 / n_clusters * n^2 / 2,
    # under both tiers' shared-item gates at 4 clusters
    rng = np.random.default_rng(seed)
    txns = []
    for c in range(n_clusters):
        pool = np.arange(c * 12, c * 12 + 12)
        for _ in range(per):
            txns.append(Transaction(rng.choice(pool, 6, replace=False).tolist()))
    return TransactionDataset(txns)


def record_label_tiers(monkeypatch) -> list[str]:
    """The tier of every index scan the next fits run, in order."""
    tiers: list[str] = []
    scan = AssignmentIndex.assign_with_scores

    def recorded(self, *args, **kwargs):
        tiers.append(self.tier)
        return scan(self, *args, **kwargs)

    monkeypatch.setattr(AssignmentIndex, "assign_with_scores", recorded)
    return tiers


def compiler_on_path() -> str | None:
    """The C compiler the probe would build with, if one is installed."""
    cc = os.environ.get("CC")
    for name in [cc] if cc else ["cc", "gcc", "clang"]:
        if shutil.which(name):
            return name
    return None


class TestProbe:
    def test_probe_passes_where_a_compiler_exists(self):
        """With a compiler and ``REPRO_NATIVE`` not off, the C tier must
        probe clean: a kernel failing its own smoke test fails here."""
        switch = os.environ.get("REPRO_NATIVE", "").strip().lower()
        if switch in ("0", "off", "false", "no"):
            pytest.skip(f"REPRO_NATIVE={switch}")
        cc = compiler_on_path()
        if cc is None:
            pytest.skip("no C compiler on PATH")
        assert native.get_kernels() is not None, (
            f"the C tier failed to probe with {cc}: "
            f"{native.backend_info()['reason']}"
        )

    def test_missing_compiler_probe_records_reason(self, missing_compiler):
        assert native.get_kernels() is None
        assert native.available_backend() is None
        assert not native.native_available()
        info = native.backend_info()
        assert info["backend"] is None and info["disabled"] is False
        assert "no-such-cc" in info["reason"] and "not found" in info["reason"]
        # nothing was built: the failure happened before the compile
        assert not missing_compiler.exists()

    def test_missing_compiler_fit_is_quiet(self, missing_compiler, monkeypatch):
        """A default sampled fit runs on fast + fused, without a warning
        (the baskets share few items, so the planner picks shared-item
        scoring, and without the C tier that is the fused kernel)."""
        label_tiers = record_label_tiers(monkeypatch)
        data = baskets(per=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            result = RockPipeline(k=3, theta=0.5, sample_size=30, seed=1).fit(data)
            assert resolve_assign_backend("auto") == ("numpy", None)
        assert result.backends == {
            "fit": "fused", "links": "dense-blocks", "merge": "fast"
        }
        # 12-item pools: each item's postings hold many representatives
        assert label_tiers == ["dense"]
        assert len(result.clusters) >= 1

    def test_disabled_env_kills_every_tier(self, no_backends):
        assert native.get_kernels() is None
        assert native.available_backend() is None
        assert not native.native_available()
        assert native.backend_info() == {
            "backend": None,
            "disabled": True,
            "reason": "disabled by REPRO_NATIVE=0",
        }

    def test_enabled_env_changes_nothing(self, c_tier, monkeypatch):
        """``REPRO_NATIVE=1`` is accepted and is the default anyway."""
        default = native.backend_info()
        monkeypatch.setenv("REPRO_NATIVE", "1")
        native._reset_for_tests()
        assert native.backend_info() == default
        assert native.native_available()

    def test_broken_kernels_degrade_silently(self, c_tier, monkeypatch):
        """A loader that raises, or kernels that fail the smoke test,
        leave the tier absent with the failure as the reason, and the
        default fit stays on the reference engines without a warning."""

        def boom():
            raise RuntimeError("toolchain on fire")

        class WrongScores:
            """The real kernels with a miscompiled ``score_block``."""

            name, info = "cext", {}

            def __getattr__(self, attr):
                return getattr(c_tier, attr)

            def score_block(self, *args):
                indptr, indices = c_tier.score_block(*args)
                return indptr, indices[:0]

        for loader, reason in (
            (boom, "toolchain on fire"),
            (WrongScores, "score_block smoke test mismatch"),
        ):
            monkeypatch.setattr(cext, "load_kernels", loader)
            native._reset_for_tests()
            assert native.get_kernels() is None
            assert native.backend_info()["reason"] == reason
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = RockPipeline(k=3, theta=0.5, seed=1).fit(baskets())
        assert result.backends == {
            "fit": "fused", "links": "dense-blocks", "merge": "fast"
        }


class TestForcedNativeFallsBack:
    def test_pipeline_forced_native_no_backend_never_raises(self, no_backends):
        """An over-budget fit, which would run native, degrades quietly."""
        data = baskets()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = RockPipeline(
                k=3, theta=0.5, memory_budget=1, seed=1
            ).fit(data)
        assert result.backends["fit"] == "fused"
        assert result.backends["merge"] == "fast"


class TestAutoStaysSilent:
    def test_auto_without_opt_in_is_quiet(self, c_tier, monkeypatch):
        """No ``REPRO_NATIVE`` set: auto goes native for merge, assign
        and labeling; under ``REPRO_NATIVE=0`` it stays on fast and the
        numpy tier the index picks (dense here).  Neither side warns."""
        label_tiers = record_label_tiers(monkeypatch)
        data = baskets(per=20)
        pipeline = RockPipeline(k=3, theta=0.5, sample_size=30, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            assert merge_engine() == "native:cext"
            assert resolve_assign_backend("auto") == ("native", c_tier)
            promoted = pipeline.fit(data)
            assert promoted.backends["merge"] == "native:cext"
            assert promoted.backends["links"] == "rows:cext"
            assert label_tiers == ["native"]

            monkeypatch.setenv("REPRO_NATIVE", "0")
            assert merge_engine() == "fast"
            assert resolve_assign_backend("auto") == ("numpy", None)
            reference = pipeline.fit(data)
            assert reference.backends == {
                "fit": "fused", "links": "dense-blocks", "merge": "fast"
            }
            assert label_tiers == ["native", "dense"]
        assert np.array_equal(promoted.labels, reference.labels)
        assert promoted.clusters == reference.clusters

    def test_auto_disabled_env_is_quiet(self, no_backends):
        data = baskets()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = RockPipeline(k=3, theta=0.5, seed=1).fit(data)
        assert result.backends == {
            "fit": "fused", "links": "dense-blocks", "merge": "fast"
        }


class TestObservability:
    def test_gauges_and_span_attrs_reference_path(self, no_backends):
        tracer = Tracer()
        data = baskets()
        RockPipeline(k=3, theta=0.5, seed=1).fit(data, tracer=tracer)
        gauges = tracer.registry.snapshot()["gauges"]
        assert gauges["fit.backend.native_fit"] == 0
        assert gauges["fit.backend.native_merge"] == 0
        root = next(s for s in tracer.spans() if s.name == "fit")
        assert root.attrs["fit_backend"] == "fused"
        assert root.attrs["merge_backend"] == "fast"

    def test_model_metadata_records_backends(self, no_backends):
        from repro.serve.model import model_from_result

        data = baskets()
        pipeline = RockPipeline(k=3, theta=0.5, seed=1)
        result = pipeline.fit(data)
        model = model_from_result(pipeline, result, points=data)
        assert model.metadata["backends"] == result.backends
        assert model.metadata["backends"]["merge"] == "fast"

    def test_naive_goodness_auto_merge(self, no_backends):
        """Built-in naive goodness still runs the component engine."""
        assert merge_engine(naive_goodness) == "fast"


class TestStreamRunnerRefit:
    def test_stream_clusterer_with_native_pipeline(self, no_backends):
        """An over-budget pipeline inside the stream runner degrades too."""
        from repro.stream.runner import StreamClusterer

        pipeline = RockPipeline(k=2, theta=0.5, memory_budget=1, seed=1)
        clusterer = StreamClusterer(
            pipeline, reservoir_size=24, warmup=12, seed=0
        )
        rng = np.random.default_rng(0)
        records = [
            Transaction(
                rng.choice(
                    np.arange(12) if rng.random() < 0.5 else np.arange(12, 24),
                    6,
                    replace=False,
                ).tolist()
            )
            for _ in range(30)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            clusterer.process(records)
        assert clusterer.model is not None
        assert clusterer.model.metadata["backends"]["fit"] == "fused"
