"""Crash-safety of the sharded fit: worker retries, degrade, resume."""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import rock
from repro.datasets import small_synthetic_basket
from repro.shard import RunDirectory, shard_fit
from repro.shard.checkpoint import KILL_ENV


@pytest.fixture(scope="module")
def basket():
    return small_synthetic_basket(
        n_clusters=3, cluster_size=40, n_outliers=8, seed=7
    )


def _merge_key(result):
    return [
        (m.left, m.right, m.merged, float(m.goodness).hex(), m.size)
        for m in result.merges
    ]


F_THETA = (1 - 0.5) / (1 + 0.5)


class TestRunDirectory:
    def test_unit_round_trip(self, tmp_path):
        run = RunDirectory(tmp_path / "run")
        assert not run.begin({"theta": 0.5})
        assert not run.unit_done("block-00000")
        run.publish_unit("block-00000", {"x": np.arange(5)})
        assert run.unit_done("block-00000")
        np.testing.assert_array_equal(
            run.load_unit("block-00000")["x"], np.arange(5)
        )

    def test_matching_fingerprint_resumes(self, tmp_path):
        run = RunDirectory(tmp_path / "run")
        run.begin({"theta": 0.5})
        run.publish_unit("block-00000", {"x": np.arange(3)})
        again = RunDirectory(tmp_path / "run")
        assert again.begin({"theta": 0.5})
        assert again.unit_done("block-00000")

    def test_changed_fingerprint_wipes_units(self, tmp_path):
        run = RunDirectory(tmp_path / "run")
        run.begin({"theta": 0.5})
        run.publish_unit("block-00000", {"x": np.arange(3)})
        again = RunDirectory(tmp_path / "run")
        assert not again.begin({"theta": 0.7})
        assert not again.unit_done("block-00000")


class TestWorkerCrash:
    def test_killed_worker_is_retried(self, tmp_path, basket, monkeypatch):
        ds = basket.transactions
        reference = rock(ds, k=4, theta=0.5, memory_budget=1)
        monkeypatch.setenv(KILL_ENV, "block-00002")
        sharded = shard_fit(
            ds, k=4, theta=0.5, f_theta=F_THETA, workers=2,
            block_rows=16, spill_dir=tmp_path / "spill", max_retries=2,
        )
        assert sharded.retries >= 1
        assert not sharded.degraded
        assert _merge_key(sharded.result) == _merge_key(reference)
        assert sharded.result.clusters == reference.clusters

    def test_exhausted_retries_degrade_to_coordinator(
        self, tmp_path, basket, monkeypatch
    ):
        ds = basket.transactions
        reference = rock(ds, k=4, theta=0.5, memory_budget=1)
        monkeypatch.setenv(KILL_ENV, "block-00002:2")
        with pytest.warns(RuntimeWarning, match="coordinator process"):
            sharded = shard_fit(
                ds, k=4, theta=0.5, f_theta=F_THETA, workers=2,
                block_rows=16, spill_dir=tmp_path / "spill", max_retries=1,
            )
        assert sharded.degraded
        assert sharded.retries == 2
        assert _merge_key(sharded.result) == _merge_key(reference)
        assert sharded.result.clusters == reference.clusters


RESUME_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro.datasets import small_synthetic_basket
    from repro.shard import shard_fit

    spill = sys.argv[1]
    ds = small_synthetic_basket(
        n_clusters=3, cluster_size=40, n_outliers=8, seed=7
    ).transactions
    fit = shard_fit(
        ds, k=4, theta=0.5, f_theta=(1 - 0.5) / (1 + 0.5),
        block_rows=16, spill_dir=spill,
    )
    labels = np.asarray(fit.result.labels(), dtype=np.int64)
    print("RESUMED", fit.resumed_units)
    print("LABELS", labels.tobytes().hex())
    """
)


class TestCoordinatorResume:
    def test_sigkilled_fit_resumes_byte_identical(self, tmp_path):
        spill = tmp_path / "spill"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {
            **os.environ,
            "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
        }

        # run 1: the coordinator SIGKILLs itself at block-00005
        crashed = subprocess.run(
            [sys.executable, "-c", RESUME_SCRIPT, str(spill)],
            env={**env, KILL_ENV: "block-00005"},
            capture_output=True,
            text=True,
        )
        assert crashed.returncode == -signal.SIGKILL
        done = sorted(p.name for p in spill.iterdir() if p.suffix == ".done")
        assert done, "some block units must have completed before the kill"

        # run 2: same spill dir, no kill -- resumes the completed units
        resumed = subprocess.run(
            [sys.executable, "-c", RESUME_SCRIPT, str(spill)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert resumed.returncode == 0, resumed.stderr
        lines = dict(
            line.split(" ", 1) for line in resumed.stdout.splitlines()
        )
        assert int(lines["RESUMED"]) >= len(done)

        # and a fresh, never-crashed run produces byte-identical labels
        fresh = subprocess.run(
            [sys.executable, "-c", RESUME_SCRIPT, str(tmp_path / "fresh")],
            env=env,
            capture_output=True,
            text=True,
        )
        assert fresh.returncode == 0, fresh.stderr
        fresh_lines = dict(
            line.split(" ", 1) for line in fresh.stdout.splitlines()
        )
        assert int(fresh_lines["RESUMED"]) == 0
        assert lines["LABELS"] == fresh_lines["LABELS"]

    def test_in_process_resume_counts_units(self, tmp_path, basket):
        ds = basket.transactions
        spill = tmp_path / "spill"
        first = shard_fit(
            ds, k=4, theta=0.5, f_theta=F_THETA, block_rows=16,
            spill_dir=spill,
        )
        assert first.resumed_units == 0
        second = shard_fit(
            ds, k=4, theta=0.5, f_theta=F_THETA, block_rows=16,
            spill_dir=spill,
        )
        assert second.resumed_units > 0
        assert _merge_key(first.result) == _merge_key(second.result)

    def test_changed_config_does_not_resume(self, tmp_path, basket):
        ds = basket.transactions
        spill = tmp_path / "spill"
        shard_fit(
            ds, k=4, theta=0.5, f_theta=F_THETA, block_rows=16,
            spill_dir=spill,
        )
        changed = shard_fit(
            ds, k=4, theta=0.6, f_theta=(1 - 0.6) / (1 + 0.6),
            block_rows=16, spill_dir=spill,
        )
        assert changed.resumed_units == 0
        reference = rock(ds, k=4, theta=0.6, memory_budget=1)
        assert changed.result.clusters == reference.clusters
