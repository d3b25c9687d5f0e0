"""Hot model reload: atomic swap, no torn reads, failure containment.

The acceptance bar: reload the artifact while the server is under
sustained load and observe (a) zero failed requests across the swap,
(b) every response internally consistent -- the returned label always
matches the returned ``model_version`` -- and (c) ``/model`` flipping
to the new version exactly, never to a half-state.

Two deliberately different models make torn reads observable: a probe
point that model A labels ``0`` is labeled ``1`` by model B (whose
labeling sets are swapped), so any response pairing the old version
string with the new label (or vice versa) fails the test.
"""

import dataclasses
import http.client
import json
import os
import threading
import time

import pytest

from repro.data.transactions import Transaction
from repro.obs.registry import MetricsRegistry
from repro.serve import RockModel
from repro.serve.http import ModelWatcher, load_versioned_model, serve_in_thread

SETS_A = [
    [Transaction({1, 2, 3}), Transaction({1, 2, 4})],
    [Transaction({7, 8, 9}), Transaction({7, 8, 10})],
]
# same clusters, opposite order: the probe {1,2,3} flips label 0 -> 1
SETS_B = [list(SETS_A[1]), list(SETS_A[0])]

PROBE = [1, 2, 3]
THETA = 0.4


def build_model(labeling_sets, tag):
    return RockModel(
        labeling_sets=labeling_sets,
        theta=THETA,
        f_theta=(1 - THETA) / (1 + THETA),
        metadata={"tag": tag},
    )


def write_model(path, model):
    """Atomic-rename write, the way a deploy pipeline would."""
    tmp = path.with_suffix(".tmp")
    model.save(tmp)
    tmp.replace(path)


def request_json(address, method, path, payload=None, conn=None):
    own = conn is None
    if own:
        conn = http.client.HTTPConnection(*address, timeout=30)
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    raw = response.read()
    if own:
        conn.close()
    return response.status, json.loads(raw)


def wait_for_version(address, version, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, data = request_json(address, "GET", "/model")
        if data["model_version"] == version:
            return data
        time.sleep(0.02)
    raise AssertionError(f"server never served version {version}")


class TestLoadVersionedModel:
    def test_version_is_checksum_prefix(self, tmp_path):
        path = tmp_path / "m.json"
        build_model(SETS_A, "a").save(path)
        model, version = load_versioned_model(path)
        assert len(version) == 16
        assert model.metadata["tag"] == "a"
        # identical content -> identical version, regardless of mtime
        path2 = tmp_path / "copy.json"
        build_model(SETS_A, "a").save(path2)
        assert load_versioned_model(path2)[1] == version

    def test_different_content_different_version(self, tmp_path):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        build_model(SETS_A, "a").save(pa)
        build_model(SETS_B, "b").save(pb)
        assert load_versioned_model(pa)[1] != load_versioned_model(pb)[1]

    def test_corrupt_artifact_refused(self, tmp_path):
        path = tmp_path / "m.json"
        build_model(SETS_A, "a").save(path)
        data = json.loads(path.read_text())
        data["theta"] = 0.9  # tamper after checksumming
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_versioned_model(path)


class TestAtomicSwap:
    def test_model_endpoint_flips_to_new_version(self, tmp_path):
        path = tmp_path / "model.json"
        model_a = build_model(SETS_A, "a")
        write_model(path, model_a)
        with serve_in_thread(path, poll_seconds=0.05) as handle:
            before = request_json(handle.address, "GET", "/model")[1]
            assert before["metadata"]["tag"] == "a"
            write_model(path, build_model(SETS_B, "b"))
            _, new_version = load_versioned_model(path)
            after = wait_for_version(handle.address, new_version)
            assert after["metadata"]["tag"] == "b"
            assert after["model_version"] != before["model_version"]
            _, health = request_json(handle.address, "GET", "/healthz")
            assert health["reloads"] >= 1
            assert health["reload_errors"] == 0

    def test_no_torn_reads_under_load(self, tmp_path):
        path = tmp_path / "model.json"
        write_model(path, build_model(SETS_A, "a"))
        version_a = load_versioned_model(path)[1]
        expected = {version_a: 0}

        with serve_in_thread(
            path, poll_seconds=0.02, batch_max=16,
        ) as handle:
            stop = threading.Event()
            failures = []
            observed_versions = set()
            n_ok = [0]
            lock = threading.Lock()

            def worker():
                conn = http.client.HTTPConnection(*handle.address, timeout=30)
                while not stop.is_set():
                    status, data = request_json(
                        handle.address, "POST", "/assign",
                        {"point": PROBE}, conn=conn,
                    )
                    with lock:
                        if status != 200:
                            failures.append(("status", status))
                            continue
                        n_ok[0] += 1
                        version = data["model_version"]
                        observed_versions.add(version)
                        want = expected.get(version)
                        if want is None:
                            failures.append(("unknown version", version))
                        elif data["label"] != want:
                            failures.append(
                                ("torn", version, data["label"])
                            )
                conn.close()

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            try:
                time.sleep(0.3)  # load against model A
                write_model(path, build_model(SETS_B, "b"))
                version_b = load_versioned_model(path)[1]
                with lock:
                    expected[version_b] = 1
                wait_for_version(handle.address, version_b)
                time.sleep(0.3)  # load against model B
            finally:
                stop.set()
                for t in threads:
                    t.join(30)
            snap = handle.server.registry.snapshot()["counters"]

        assert failures == [], failures[:10]
        assert n_ok[0] > 50, "load generator barely ran"
        assert observed_versions == {version_a, version_b}, (
            "swap never observed under load"
        )
        assert snap["http.reload.count"] >= 1
        assert snap.get("http.errors.assign", 0) == 0

    def test_failed_reload_keeps_serving_old_model(self, tmp_path):
        path = tmp_path / "model.json"
        write_model(path, build_model(SETS_A, "a"))
        version_a = load_versioned_model(path)[1]
        with serve_in_thread(path, poll_seconds=0.02) as handle:
            wait_for_version(handle.address, version_a)
            path.write_text('{"format": "rock-model", "truncated')
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                _, health = request_json(handle.address, "GET", "/healthz")
                if health["reload_errors"] >= 1:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("corrupt artifact never noticed")
            assert health["last_reload_error"]
            # still serving, still on the old generation
            status, data = request_json(
                handle.address, "POST", "/assign", {"point": PROBE}
            )
            assert status == 200
            assert data["model_version"] == version_a
            assert data["label"] == 0
            # recovery: a good artifact heals the watcher
            write_model(path, build_model(SETS_B, "b"))
            version_b = load_versioned_model(path)[1]
            wait_for_version(handle.address, version_b)
            _, health = request_json(handle.address, "GET", "/healthz")
            assert health["last_reload_error"] is None

    def test_tampered_artifact_is_a_contained_reload_error(self, tmp_path):
        path = tmp_path / "model.json"
        write_model(path, build_model(SETS_A, "a"))
        version_a = load_versioned_model(path)[1]
        with serve_in_thread(path, poll_seconds=0.02) as handle:
            wait_for_version(handle.address, version_a)
            data = json.loads(path.read_text())
            data["theta"] = 0.99  # checksum no longer matches
            path.write_text(json.dumps(data))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                _, health = request_json(handle.address, "GET", "/healthz")
                if health["reload_errors"] >= 1:
                    break
                time.sleep(0.02)
            assert "checksum mismatch" in (health["last_reload_error"] or "")
            assert health["model_version"] == version_a


class TestDamagedArtifact:
    def test_watcher_keeps_the_old_generation_and_counts_the_failure(
        self, tmp_path
    ):
        """A truncated or bit-flipped rewrite is an integrity error: the
        watcher keeps serving the generation it has, says why, and
        counts the failure under ``http.reload.errors``."""
        path = tmp_path / "model.json"
        write_model(path, build_model(SETS_A, "a"))
        registry = MetricsRegistry()
        watcher = ModelWatcher(path, registry=registry)
        served = watcher.current
        raw = path.read_bytes()
        flipped = bytearray(raw)
        flipped[len(raw) // 2] ^= 0x04
        for damaged in (raw[: len(raw) // 2], bytes(flipped)):
            path.write_bytes(damaged)
            assert watcher.check_once() is False
            assert watcher.current is served
            assert watcher.last_error.startswith("ArtifactIntegrityError")
            assert served.engine.assign(Transaction(PROBE)) == 0
        assert registry.snapshot()["counters"]["http.reload.errors"] == 2
        write_model(path, build_model(SETS_B, "b"))
        assert watcher.check_once() is True
        assert watcher.last_error is None


class TestRewriteWindow:
    """Regression: change detection keyed on ``(mtime_ns, size)`` alone
    missed a same-size in-place rewrite landing within the mtime
    granularity.  The watcher must confirm a *recent* unchanged
    signature against the content digest -- and go back to stat-only
    once the mtime has aged past the window."""

    def same_size_rewrite(self, path):
        """Rewrite the artifact in place with swapped labeling sets,
        byte length preserved, and the original stat signature forced
        back (the worst case the mtime granularity can produce)."""
        before = path.stat()
        scratch = path.parent / "rewrite-src.json"
        build_model(SETS_B, "x").save(scratch)
        content_b = scratch.read_text()
        scratch.unlink()
        assert len(content_b.encode()) == before.st_size, (
            "fixture drift: models A and B must serialize to equal sizes"
        )
        path.write_text(content_b)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_mtime_ns, after.st_size) == (
            before.st_mtime_ns, before.st_size,
        )

    def test_same_signature_rewrite_detected(self, tmp_path):
        path = tmp_path / "model.json"
        build_model(SETS_A, "x").save(path)
        watcher = ModelWatcher(path, rewrite_window_seconds=60.0)
        version_a = watcher.current.version
        self.same_size_rewrite(path)
        assert watcher.check_once() is True
        assert watcher.current.version != version_a
        assert watcher.current.version == load_versioned_model(path)[1]
        counters = watcher.registry.snapshot()["counters"]
        assert counters["http.reload.content_checks"] >= 1
        assert counters["http.reload.count"] == 1

    def test_missed_without_content_confirmation(self, tmp_path):
        """The bug, demonstrated: with the window disabled the same
        rewrite is invisible to a stat-only poll."""
        path = tmp_path / "model.json"
        build_model(SETS_A, "x").save(path)
        watcher = ModelWatcher(path, rewrite_window_seconds=0.0)
        version_a = watcher.current.version
        self.same_size_rewrite(path)
        assert watcher.check_once() is False
        assert watcher.current.version == version_a

    def test_steady_state_stays_stat_only(self, tmp_path):
        path = tmp_path / "model.json"
        build_model(SETS_A, "x").save(path)
        stat = path.stat()
        # age the artifact well past the default window
        os.utime(
            path, ns=(stat.st_atime_ns, stat.st_mtime_ns - 600 * 10**9)
        )
        watcher = ModelWatcher(path, rewrite_window_seconds=2.0)
        for _ in range(5):
            assert watcher.check_once() is False
        counters = watcher.registry.snapshot()["counters"]
        assert counters.get("http.reload.content_checks", 0) == 0
        assert counters.get("http.reload.count", 0) == 0

    def test_recent_unchanged_content_confirmed_not_swapped(self, tmp_path):
        path = tmp_path / "model.json"
        build_model(SETS_A, "x").save(path)
        watcher = ModelWatcher(path, rewrite_window_seconds=3600.0)
        assert watcher.check_once() is False  # content check, same digest
        counters = watcher.registry.snapshot()["counters"]
        assert counters["http.reload.content_checks"] >= 1
        assert counters.get("http.reload.count", 0) == 0

    def test_negative_window_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        build_model(SETS_A, "x").save(path)
        with pytest.raises(ValueError):
            ModelWatcher(path, rewrite_window_seconds=-1.0)


class TestMonotonicAge:
    """Regression: reload recorded ``loaded_unix = time.time()`` while
    the server measured age against ``time.monotonic()`` -- a wall
    clock step (NTP, DST, manual set) corrupted every age readout.
    Age math now lives entirely in the monotonic domain."""

    def test_age_is_monotonic_and_ignores_wall_clock(self, tmp_path):
        path = tmp_path / "model.json"
        build_model(SETS_A, "x").save(path)
        watcher = ModelWatcher(path)
        served = watcher.current
        basis = served.loaded_monotonic
        assert served.age_seconds(now_monotonic=basis + 5.0) == 5.0
        # never negative, even against a stale monotonic reading
        assert served.age_seconds(now_monotonic=basis - 5.0) == 0.0
        # a wall-clock step an hour forward must not touch the age
        skewed = dataclasses.replace(served, loaded_unix=time.time() + 3600)
        assert skewed.age_seconds(now_monotonic=basis + 5.0) == 5.0
        assert 0.0 <= skewed.age_seconds() < 60.0

    def test_server_reports_monotonic_age(self, tmp_path):
        path = tmp_path / "model.json"
        write_model(path, build_model(SETS_A, "a"))
        with serve_in_thread(path, poll_seconds=5.0) as handle:
            _, first = request_json(handle.address, "GET", "/model")
            assert first["model_age_seconds"] >= 0.0
            time.sleep(0.05)
            _, second = request_json(handle.address, "GET", "/model")
            assert second["model_age_seconds"] > first["model_age_seconds"]
            _, health = request_json(handle.address, "GET", "/healthz")
            assert health["model_age_seconds"] >= 0.0
