"""Property-test: heap-based merge loop == naive O(n^3) reference.

The Figure 3 bookkeeping (local heaps, global heap, incremental
cross-link updates) must be semantically invisible: the fast
implementation and a full-rescan reference must pick the identical
merge at every step on any link table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goodness import naive_goodness
from repro.core.links import LinkTable
from repro.core.reference import naive_cluster_with_links
from repro.core.rock import cluster_with_links
from tests.linktables import link_table


def table_from_pairs(n, pairs):
    return link_table(n, [(i, j, count) for i, j, count in pairs if i != j])


@st.composite
def random_link_tables(draw):
    n = draw(st.integers(2, 12))
    n_pairs = draw(st.integers(0, n * (n - 1) // 2))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(1, 6),
            ),
            min_size=n_pairs,
            max_size=n_pairs,
        )
    )
    return n, pairs


def assert_same_run(fast, slow):
    assert [(m.left, m.right, m.merged) for m in fast.merges] == [
        (m.left, m.right, m.merged) for m in slow.merges
    ]
    assert fast.clusters == slow.clusters
    assert fast.stopped_early == slow.stopped_early
    for a, b in zip(fast.merges, slow.merges):
        assert a.goodness == pytest.approx(b.goodness, rel=1e-12)


class TestKnownCases:
    def test_simple_two_cluster(self):
        table = table_from_pairs(4, [(0, 1, 5), (2, 3, 5), (1, 2, 1)])
        fast = cluster_with_links(table, k=2, f_theta=1 / 3)
        slow = naive_cluster_with_links(table, k=2, f_theta=1 / 3)
        assert_same_run(fast, slow)

    def test_ties_broken_identically(self):
        # four identical pairs: merge order must match exactly
        table = table_from_pairs(
            8, [(0, 1, 3), (2, 3, 3), (4, 5, 3), (6, 7, 3)]
        )
        fast = cluster_with_links(table, k=4, f_theta=0.5)
        slow = naive_cluster_with_links(table, k=4, f_theta=0.5)
        assert_same_run(fast, slow)

    def test_initial_clusters(self):
        table = table_from_pairs(
            6, [(0, 2, 3), (1, 3, 3), (2, 4, 2), (3, 5, 2), (4, 5, 4)]
        )
        initial = [[0, 1], [2, 3], [4], [5]]
        fast = cluster_with_links(table, k=2, f_theta=1 / 3, initial_clusters=initial)
        slow = naive_cluster_with_links(
            table, k=2, f_theta=1 / 3, initial_clusters=initial
        )
        assert_same_run(fast, slow)

    def test_naive_goodness_strategy(self):
        table = table_from_pairs(5, [(0, 1, 2), (1, 2, 4), (3, 4, 3), (2, 3, 1)])
        fast = cluster_with_links(table, k=1, f_theta=0.4, goodness_fn=naive_goodness)
        slow = naive_cluster_with_links(
            table, k=1, f_theta=0.4, goodness_fn=naive_goodness
        )
        assert_same_run(fast, slow)

    def test_validation_matches(self):
        with pytest.raises(ValueError):
            naive_cluster_with_links(LinkTable(2), k=0, f_theta=0.5)
        with pytest.raises(ValueError):
            naive_cluster_with_links(
                LinkTable(3), k=1, f_theta=0.5, initial_clusters=[[0], [0, 1]]
            )
        with pytest.raises(ValueError):
            naive_cluster_with_links(
                LinkTable(2), k=1, f_theta=0.5, initial_clusters=[[]]
            )
        with pytest.raises(ValueError):
            naive_cluster_with_links(
                LinkTable(2), k=1, f_theta=0.5, initial_clusters=[[9]]
            )


@settings(max_examples=150, deadline=None)
@given(random_link_tables(), st.integers(1, 4), st.sampled_from([0.0, 1 / 3, 0.5, 1.0]))
def test_equivalence_on_random_tables(spec, k, f_theta):
    n, pairs = spec
    table = table_from_pairs(n, pairs)
    fast = cluster_with_links(table, k=k, f_theta=f_theta)
    slow = naive_cluster_with_links(table, k=k, f_theta=f_theta)
    assert_same_run(fast, slow)


@settings(max_examples=75, deadline=None)
@given(random_link_tables())
def test_equivalence_full_agglomeration(spec):
    n, pairs = spec
    table = table_from_pairs(n, pairs)
    fast = cluster_with_links(table, k=1, f_theta=1 / 3)
    slow = naive_cluster_with_links(table, k=1, f_theta=1 / 3)
    assert_same_run(fast, slow)
