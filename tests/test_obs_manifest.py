"""Tests for repro.obs.manifest: host metadata, persistence, round trips."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.native import backend_info
from repro.obs import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    RunManifest,
    Tracer,
    host_memory,
    host_metadata,
)


class TestHostMetadata:
    def test_expected_keys(self):
        meta = host_metadata()
        assert set(meta) == {
            "platform", "python", "machine", "cpu_count", "numpy", "scipy",
            "mem_total_bytes", "mem_available_bytes", "native",
        }
        assert isinstance(meta["cpu_count"], int)
        assert meta["native"] == backend_info()
        json.dumps(meta)  # JSON-plain

    def test_host_memory_in_metadata(self):
        meta = host_metadata()
        assert "mem_total_bytes" in meta
        assert "mem_available_bytes" in meta
        total, available = host_memory()
        if total is not None:
            assert total > 0
            assert meta["mem_total_bytes"] == total
        if total is not None and available is not None:
            assert 0 < available <= total


class TestFromTracer:
    def make_manifest(self):
        tracer = Tracer()
        with tracer.span("fit", fit_mode="dense"):
            with tracer.span("neighbors"):
                tracer.registry.inc("fit.neighbors.rows", 10)
        return RunManifest.from_tracer("unit", tracer, config={"theta": 0.5})

    def test_bundles_spans_metrics_host(self):
        manifest = self.make_manifest()
        assert manifest.name == "unit"
        assert manifest.config == {"theta": 0.5}
        assert manifest.metrics["counters"]["fit.neighbors.rows"] == 10
        assert manifest.span_names() == {"fit", "neighbors"}
        assert manifest.host["python"] == host_metadata()["python"]
        assert manifest.created_unix is not None

    def test_find_span(self):
        manifest = self.make_manifest()
        neighbors = manifest.find_span("neighbors")
        assert neighbors is not None
        assert neighbors["name"] == "neighbors"
        assert manifest.find_span("no-such-span") is None

    def test_explicit_host_overrides_probe(self):
        tracer = Tracer()
        manifest = RunManifest.from_tracer("x", tracer, host={"machine": "m"})
        assert manifest.host == {"machine": "m"}


class TestPersistence:
    def test_save_load_round_trip_path(self, tmp_path):
        manifest = TestFromTracer().make_manifest()
        path = tmp_path / "run.manifest.json"
        manifest.save(path)
        assert RunManifest.load(path).to_dict() == manifest.to_dict()

    def test_save_load_round_trip_stream(self):
        manifest = TestFromTracer().make_manifest()
        buf = io.StringIO()
        manifest.save(buf)
        buf.seek(0)
        assert RunManifest.load(buf).to_dict() == manifest.to_dict()

    def test_saved_file_is_indented_json(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        TestFromTracer().make_manifest().save(path)
        text = path.read_text()
        assert text.startswith("{\n  ")
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["format"] == MANIFEST_FORMAT
        assert data["version"] == MANIFEST_VERSION

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="expected format"):
            RunManifest.from_dict({"format": "rock-model", "version": 1,
                                   "name": "x"})

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            RunManifest.from_dict({"format": MANIFEST_FORMAT,
                                   "version": MANIFEST_VERSION + 1,
                                   "name": "x"})


# strategies producing only JSON-plain values, so dict equality after a
# JSON round trip is exact
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_configs = st.dictionaries(st.text(max_size=10), _json_scalars, max_size=4)
_span_dicts = st.recursive(
    st.fixed_dictionaries({
        "name": st.text(min_size=1, max_size=10),
        "attrs": _configs,
        "wall_seconds": st.floats(min_value=0, max_value=1e6,
                                  allow_nan=False, allow_infinity=False),
        "cpu_seconds": st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
        "rss_delta_bytes": st.integers(min_value=0, max_value=2**40),
        "error": st.none() | st.text(max_size=10),
        "children": st.just([]),
    }),
    lambda children: st.fixed_dictionaries({
        "name": st.text(min_size=1, max_size=10),
        "attrs": _configs,
        "wall_seconds": st.just(0.0),
        "cpu_seconds": st.just(0.0),
        "rss_delta_bytes": st.just(0),
        "error": st.none(),
        "children": st.lists(children, max_size=3),
    }),
    max_leaves=6,
)


@settings(max_examples=50, deadline=None)
@given(
    name=st.text(min_size=1, max_size=20),
    config=_configs,
    counters=st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.integers(min_value=0, max_value=2**40),
        max_size=4,
    ),
    spans=st.lists(_span_dicts, max_size=3),
    created=st.none() | st.floats(min_value=0, max_value=4e9,
                                  allow_nan=False, allow_infinity=False),
)
def test_manifest_json_round_trip(name, config, counters, spans, created):
    manifest = RunManifest(
        name=name,
        config=config,
        host=host_metadata(),
        metrics={"counters": counters, "gauges": {}, "histograms": {}},
        spans=spans,
        created_unix=created,
    )
    wire = json.dumps(manifest.to_dict())
    restored = RunManifest.from_dict(json.loads(wire))
    assert restored.to_dict() == manifest.to_dict()
