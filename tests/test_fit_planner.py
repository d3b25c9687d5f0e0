"""The fit planner: one budget, one price, one recorded route, identical results.

:func:`repro.core.pipeline.plan_fit` picks every fit route.  These tests
pin that it prices the dense route against the one memory budget it
hands to the kernels, that an in-budget transaction fit whose
shared-item pair work ``S`` stays under
``SHARED_PAIR_RATIO[tier] * n^2 / 2`` (one gate per link tier) runs the
shared-item kernels, that ``backends["fit"]`` and the root span name
the route that ran, and -- property-tested -- that every
route, over in-memory points and over a
:class:`~repro.data.store.TransactionStore`, reproduces the dense
route's clusters, merge history, kept points and outliers.
"""

import os
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro.parallel.links as parallel_links
from repro.core.encoding import transaction_csr
from repro.core.goodness import default_f
from repro.core.neighbors import resolve_memory_budget
from repro.core.pipeline import (
    SHARED_PAIR_RATIO,
    FitPlan,
    RockPipeline,
    plan_fit,
    run_fit_plan,
)
from repro.core.rock import cluster_with_links
from repro.core.similarity import (
    JaccardSimilarity,
    MissingAwareJaccard,
    SimilarityTable,
    similarity_levels,
)
from repro.data.records import CategoricalRecord, CategoricalSchema
from repro.data.store import TransactionStore
from repro.data.transactions import Transaction, TransactionDataset
from repro.datasets import SyntheticBasketConfig, generate_synthetic_basket
from repro.native import get_kernels
from repro.obs.trace import Tracer

JACCARD = JaccardSimilarity()
THETAS = sorted(
    {0.0}
    | {
        level
        for a in range(1, 6)
        for b in range(1, 6)
        for level in similarity_levels(a, b)
    }
)


@contextmanager
def native(enabled: bool):
    """Run with the C tier on (``REPRO_NATIVE`` unset) or off (``=0``)."""
    with mock.patch.dict(os.environ):
        if enabled:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = "0"
        yield


def fit(points, **kwargs):
    """A full fit's observable outcome, or the error it raised."""
    kwargs.setdefault("k", 3)
    try:
        result = RockPipeline(seed=0, **kwargs).fit(points)
    except ValueError as exc:
        return str(exc), None
    kept = sorted(set(result.sample_indices) - set(result.outlier_indices))
    outcome = (
        result.clusters,
        result.rock_result.merges,
        kept,
        result.outlier_indices,
    )
    return outcome, result.backends["fit"]


def dense_reference(points, theta, min_neighbors, k=3):
    """What :func:`fit` observes, from the dense route run without the planner."""
    plan = FitPlan("dense", "dense", resolve_memory_budget(None), "reference")
    try:
        with native(False):
            stages = run_fit_plan(
                plan, points, theta, min_neighbors=min_neighbors, tracer=Tracer()
            )
            result = cluster_with_links(stages.links, k=k, f_theta=default_f(theta))
    except ValueError as exc:
        return str(exc)
    kept = stages.kept.tolist()
    clusters = sorted(
        (sorted(kept[p] for p in cluster) for cluster in result.clusters),
        key=lambda members: (-len(members), members[0]),
    )
    return clusters, result.merges, kept, stages.discarded.tolist()


def below_gate(points, theta, tier):
    """Whether ``S < SHARED_PAIR_RATIO[tier] * n^2 / 2`` sends an in-budget
    fit to shared-item scoring."""
    n = len(points)
    shared = transaction_csr(points).shared_pairs()
    return theta > 0 and shared < SHARED_PAIR_RATIO[tier] * n * n / 2


def expected_backend(points, memory_budget, enabled, theta):
    tier = "cext" if enabled and get_kernels() is not None else "numpy"
    if memory_budget is None and not below_gate(points, theta, tier):
        return "dense"
    if enabled and theta > 0 and get_kernels() is not None:
        return "native:cext"
    return "fused"


class TestOneBudget:
    """The dense route is priced against the number the kernels get."""

    BUDGET = 512 << 20  # 8 n^2 == BUDGET at n == 8192

    @pytest.fixture(autouse=True)
    def host(self, monkeypatch):
        import repro.obs.manifest as manifest

        monkeypatch.setattr(
            manifest, "host_memory", lambda: (8 << 30, 2 * self.BUDGET)
        )

    def points(self, n):
        # items 100-104 in every basket: S is over both shared-item gates
        return TransactionDataset(
            [Transaction({i % 97, *range(100, 105)}) for i in range(n)]
        )

    def test_routes_on_either_side_of_the_wall(self):
        at_wall, past_wall = (
            plan_fit(self.points(n), 0.5) for n in (8192, 8193)
        )
        assert at_wall.memory_budget == past_wall.memory_budget == self.BUDGET
        assert at_wall.route == "dense"
        assert past_wall.route in ("native", "fused")
        assert str(self.BUDGET) in past_wall.reason

    def test_kernel_receives_the_planned_budget(self, monkeypatch):
        seen = []

        class Stop(Exception):
            pass

        def record(points, theta, *, memory_budget, **kwargs):
            seen.append(memory_budget)
            raise Stop

        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(parallel_links, "fused_neighbor_links", record)
        with pytest.raises(Stop):
            RockPipeline(k=2, theta=0.5).fit(self.points(8193))
        assert seen == [self.BUDGET]


class TestRecordedRoute:
    """``backends["fit"]`` and the root span name the route that ran."""

    def baskets(self):
        # every basket holds items 99-104 as well: S >= 6 n (n - 1) / 2
        # keeps the in-budget fit on the dense route on either tier
        rng = np.random.default_rng(3)
        return TransactionDataset([
            Transaction([
                *rng.choice(np.arange(c * 12, c * 12 + 12), 6, replace=False).tolist(),
                *range(99, 105),
            ])
            for c in range(3)
            for _ in range(8)
        ])

    @pytest.mark.parametrize(
        "kwargs, enabled, backend",
        [
            ({}, True, "dense"),
            ({"similarity": lambda a, b: JACCARD(a, b)}, True, "bruteforce"),
            ({"memory_budget": 1}, False, "fused"),
            ({"memory_budget": 1, "min_neighbors": 2}, False, "fused"),
            ({"memory_budget": 1}, True, "native:cext"),
            ({"memory_budget": 1, "min_neighbors": 2}, True, "native:cext"),
        ],
    )
    def test_every_route(self, kwargs, enabled, backend):
        with native(enabled):
            if backend.startswith("native") and get_kernels() is None:
                pytest.skip("C tier unavailable")
            tracer = Tracer()
            result = RockPipeline(k=3, theta=0.5, seed=1, **kwargs).fit(
                self.baskets(), tracer=tracer
            )
        assert result.backends["fit"] == backend
        root = next(span for span in tracer.spans() if span.name == "fit")
        assert root.attrs["fit_backend"] == backend
        assert root.attrs["fit_reason"]


def test_resolve_memory_budget():
    from repro.core.neighbors import DEFAULT_MEMORY_BUDGET
    from repro.obs import host_memory

    assert resolve_memory_budget(12345) == 12345
    default = resolve_memory_budget()
    _, available = host_memory()
    if available is None:
        assert default == DEFAULT_MEMORY_BUDGET
    else:
        assert (256 << 20) <= default <= (4 << 30)


class TestSharedItemGate:
    """In budget, ``S`` against ``n^2 / 2`` picks the neighbor kernel."""

    def fit_full_shaped(self):
        # 210 planted clusters x 8 baskets of 10 from 14-item pools in a
        # 400-item vocabulary: S is about 0.28 n^2 / 2
        rng = np.random.default_rng(41)
        baskets = []
        for _ in range(210):
            pool = rng.choice(400, size=14, replace=False)
            baskets.extend(
                frozenset(rng.choice(pool, size=10, replace=False).tolist())
                for _ in range(8)
            )
        return TransactionDataset(baskets)

    def paper_basket_shaped(self):
        # the Table 5 generator at 2,000 points: S is about 3.8 n^2 / 2
        config = SyntheticBasketConfig()
        scale = 2000 / config.n_transactions
        config = replace(
            config,
            cluster_sizes=tuple(round(s * scale) for s in config.cluster_sizes),
            n_outliers=round(config.n_outliers * scale),
        )
        return generate_synthetic_basket(config, seed=0).transactions

    @pytest.mark.parametrize("enabled", [True, False])
    def test_fit_full_shape_runs_shared_item(self, enabled):
        points = self.fit_full_shaped()
        with native(enabled):
            if enabled and get_kernels() is None:
                pytest.skip("C tier unavailable")
            plan = plan_fit(points, 0.5)
        assert plan.backend == ("native:cext" if enabled else "fused")
        n = len(points)
        assert plan.shared_pairs < 0.3 * n * n / 2
        assert f"S = {plan.shared_pairs}" in plan.reason
        assert "shared-item scoring" in plan.reason
        assert plan.encoding is not None and plan.encoding.n == n

    @pytest.mark.parametrize("enabled", [True, False])
    def test_paper_basket_shape_routes_by_tier(self, enabled):
        # S is about 3.8 n^2 / 2: under the C tier's gate (native
        # scoring wins on Table 5 shapes), over the numpy tier's
        points = self.paper_basket_shaped()
        with native(enabled):
            if enabled and get_kernels() is None:
                pytest.skip("C tier unavailable")
            plan = plan_fit(points, 0.5)
        n = len(points)
        assert 3 * n * n / 2 < plan.shared_pairs < SHARED_PAIR_RATIO["cext"] * n * n / 2
        if enabled:
            assert plan.backend == "native:cext"
            assert "shared-item scoring" in plan.reason
        else:
            assert plan.backend == "dense"
            assert "dense scoring" in plan.reason

    def test_theta_zero_stays_dense(self):
        points = TransactionDataset([Transaction({i, i + 1}) for i in range(40)])
        assert plan_fit(points, 0.5).route in ("native", "fused")
        assert plan_fit(points, 0.0).route == "dense"

    def test_over_budget_planning_ignores_the_gate(self):
        dense_shaped = TransactionDataset(
            [Transaction({0, 1, 2, 3, 4, i + 5}) for i in range(40)]
        )
        assert not below_gate(dense_shaped, 0.5, "cext")
        assert plan_fit(dense_shaped, 0.5).route == "dense"
        assert plan_fit(dense_shaped, 0.5, memory_budget=1).route in ("native", "fused")

    def test_shared_pairs_recorded(self):
        tracer = Tracer()
        points = TransactionDataset([Transaction({i, i + 1}) for i in range(40)])
        RockPipeline(k=2, theta=0.3, seed=1).fit(points, tracer=tracer)
        shared = transaction_csr(points).shared_pairs()
        assert tracer.registry.snapshot()["gauges"]["fit.plan.shared_pairs"] == shared
        (neighbors,) = [
            span for root in tracer.spans() for span in root.iter_spans()
            if span.name == "neighbors"
        ]
        assert neighbors.attrs["shared_pairs"] == shared


# -- the identity property ----------------------------------------------------

# a small vocabulary packs baskets over the gate (dense), a large one
# leaves them under it (shared-item scoring)
baskets = st.integers(min_value=1, max_value=40).flatmap(
    lambda vocab: st.lists(
        st.frozensets(
            st.integers(min_value=0, max_value=vocab - 1), min_size=1, max_size=5
        ),
        min_size=2,
        max_size=30,
    )
)


@settings(max_examples=100, deadline=None)
@given(
    sets=baskets,
    theta=st.sampled_from(THETAS),
    min_neighbors=st.sampled_from([0, 1, 2, 3]),
    memory_budget=st.sampled_from([None, 1]),
    enabled=st.booleans(),
    stored=st.booleans(),
)
def test_every_route_reproduces_the_dense_route(
    sets, theta, min_neighbors, memory_budget, enabled, stored
):
    points = TransactionDataset([Transaction(s) for s in sets])
    reference = dense_reference(points, theta, min_neighbors)
    with native(enabled), tempfile.TemporaryDirectory() as scratch:
        source = (
            TransactionStore.write(os.path.join(scratch, "store"), points)
            if stored
            else points
        )
        outcome, backend = fit(
            source, theta=theta, min_neighbors=min_neighbors,
            memory_budget=memory_budget,
        )
        expected = expected_backend(points, memory_budget, enabled, theta)
    event(f"route {expected}")
    assert outcome == reference
    if backend is not None:
        assert backend == expected


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", None]),
            st.sampled_from(["x", "y", None]),
            st.sampled_from([0, 1, None]),
        ),
        min_size=2,
        max_size=25,
    ),
    theta=st.sampled_from([0.0, 0.25, 0.5, 2 / 3, 1.0]),
    min_neighbors=st.sampled_from([0, 1, 2]),
)
def test_missing_aware_records_route_to_fused(rows, theta, min_neighbors):
    schema = CategoricalSchema(("f1", "f2", "f3"))
    points = [CategoricalRecord(schema, row) for row in rows]
    common = dict(
        k=2, theta=theta, similarity=MissingAwareJaccard(),
        min_neighbors=min_neighbors,
    )
    reference, reference_backend = fit(points, **common)
    outcome, backend = fit(points, memory_budget=1, **common)
    assert outcome == reference
    if reference_backend is not None:
        assert (reference_backend, backend) == ("dense", "fused")


def test_similarity_table_stays_on_the_oracle():
    names = ["a", "b", "c", "d", "e"]
    table = SimilarityTable({
        ("a", "b"): 0.9, ("b", "c"): 0.8, ("a", "c"): 0.7, ("d", "e"): 0.9,
    })
    common = dict(k=2, theta=0.5, similarity=table, min_neighbors=1)
    reference, reference_backend = fit(names, **common)
    outcome, backend = fit(names, memory_budget=1, **common)
    assert outcome == reference
    assert reference_backend == backend == "bruteforce"
