"""Shared fixtures and helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper (see
DESIGN.md's per-experiment index) and:

* times its central computation through ``pytest-benchmark``;
* asserts the *shape* the paper reports (who wins, by roughly what
  factor, where trends point) -- absolute numbers are hardware-bound;
* writes the regenerated table to ``benchmarks/results/<name>.txt`` so
  the output survives pytest's stdout capture.  The CI-sized
  ``*_smoke`` runs write into ``benchmarks/results/smoke/`` instead,
  which git ignores: a ``make bench-smoke`` run leaves the checked-in
  full-run results untouched.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
tables inline).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE_DIR = RESULTS_DIR / "smoke"


def result_path(name: str, suffix: str) -> Path:
    """Where result ``name`` lands: smoke runs under ``results/smoke/``."""
    directory = SMOKE_DIR if name.endswith("_smoke") else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{name}{suffix}"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result():
    """Write (and echo) a regenerated table."""

    def _save(name: str, text: str) -> None:
        path = result_path(name, ".txt")
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[saved to {path}]")

    return _save


@pytest.fixture(scope="session")
def save_manifest():
    """Write a :class:`repro.obs.RunManifest` next to the text results.

    The manifest is the machine-readable twin of ``save_result``'s
    table: span tree, metrics snapshot, host metadata and config in one
    versioned JSON file (``<name>.manifest.json``).
    """

    def _save(name: str, manifest) -> None:
        path = result_path(name, ".manifest.json")
        manifest.save(path)
        print(f"[manifest saved to {path}]")

    return _save


@pytest.fixture(scope="session")
def votes_dataset():
    from repro.datasets import generate_votes

    return generate_votes(seed=1)


@pytest.fixture(scope="session")
def mushroom_data():
    from repro.datasets import generate_mushroom

    return generate_mushroom(seed=3)


@pytest.fixture(scope="session")
def funds_data():
    from repro.datasets import generate_mutual_funds

    return generate_mutual_funds(seed=5)


@pytest.fixture(scope="session")
def basket_data():
    """A structurally faithful, laptop-scale instance of the Table 5
    generator: same 10-cluster layout, item-set sizes and overlap, with
    cluster populations scaled by ~1/6 (see EXPERIMENTS.md)."""
    from repro.datasets import SyntheticBasketConfig, generate_synthetic_basket

    config = SyntheticBasketConfig(
        cluster_sizes=(1622, 2171, 2472, 1815, 2170, 1231, 1427, 1995, 2379, 901),
        items_per_cluster=(19, 20, 19, 19, 22, 19, 19, 21, 22, 19),
        n_outliers=909,
    )
    return generate_synthetic_basket(config, seed=0)
