"""Tests for the criterion function and goodness measure (Sections 3.3, 4.2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goodness import (
    constant_f,
    criterion_value,
    default_f,
    expected_cross_links,
    expected_intra_links,
    goodness,
    intra_cluster_links,
    naive_goodness,
)
from tests.linktables import link_table


class TestDefaultF:
    def test_endpoints(self):
        # Section 3.3: f(1) = 0 (only self as neighbor), f(0) = 1
        assert default_f(1.0) == 0.0
        assert default_f(0.0) == 1.0

    def test_half(self):
        assert default_f(0.5) == pytest.approx(1 / 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            default_f(-0.1)
        with pytest.raises(ValueError):
            default_f(1.1)

    @settings(max_examples=50)
    @given(st.floats(0.0, 1.0))
    def test_monotone_decreasing(self, theta):
        if theta < 1.0:
            assert default_f(theta) > default_f(min(1.0, theta + 0.05)) - 1e-12


class TestConstantF:
    def test_ignores_theta(self):
        f = constant_f(0.25)
        assert f(0.1) == f(0.9) == 0.25

    def test_range_check(self):
        with pytest.raises(ValueError):
            constant_f(1.5)


class TestExpectedLinks:
    def test_theta_one_expected_links_is_n(self):
        # f = 0 => n^(1+0) = n, the paper's sanity check
        assert expected_intra_links(10, 0.0) == 10.0

    def test_theta_zero_expected_links_is_n_cubed(self):
        assert expected_intra_links(10, 1.0) == 1000.0

    def test_cross_links_additive_definition(self):
        value = expected_cross_links(3, 4, 0.5)
        assert value == pytest.approx(7.0**2 - 3.0**2 - 4.0**2)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            expected_intra_links(-1, 0.5)
        with pytest.raises(ValueError):
            expected_cross_links(-1, 2, 0.5)

    @settings(max_examples=50)
    @given(st.integers(1, 500), st.integers(1, 500), st.floats(0.01, 1.0))
    def test_cross_links_positive_for_positive_f(self, ni, nj, f):
        assert expected_cross_links(ni, nj, f) > 0.0


class TestGoodness:
    def test_normalisation_divides_expectation(self):
        f = 1 / 3
        expected = expected_cross_links(5, 7, f)
        assert goodness(10, 5, 7, f) == pytest.approx(10 / expected)

    def test_zero_links_zero_goodness(self):
        assert goodness(0, 3, 3, 0.5) == 0.0

    def test_degenerate_f_zero(self):
        assert goodness(1, 3, 3, 0.0) == math.inf
        assert goodness(0, 3, 3, 0.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            goodness(-1, 2, 2, 0.5)
        with pytest.raises(ValueError):
            goodness(1, 0, 2, 0.5)

    def test_big_cluster_penalised(self):
        """Section 4.2's motivation: with equal cross links, merging with
        the smaller cluster is better."""
        assert goodness(10, 2, 3, 1 / 3) > goodness(10, 2, 30, 1 / 3)

    def test_naive_goodness_is_raw_count(self):
        assert naive_goodness(17, 2, 300, 0.5) == 17.0
        with pytest.raises(ValueError):
            naive_goodness(-1, 1, 1, 0.5)
        with pytest.raises(ValueError):
            naive_goodness(1, 0, 1, 0.5)

    @settings(max_examples=100)
    @given(
        st.integers(0, 1000),
        st.integers(1, 100),
        st.integers(1, 100),
        st.floats(0.05, 1.0),
    )
    def test_monotone_in_links(self, links, ni, nj, f):
        assert goodness(links + 1, ni, nj, f) > goodness(links, ni, nj, f)


class TestCriterion:
    def make_links(self):
        # cluster {0,1,2}: links 0-1: 2, 1-2: 1; cluster {3,4,5}: 3-4: 3;
        # 2-3 is a weak cross link that should NOT count intra
        return link_table(6, [(0, 1, 2), (1, 2, 1), (3, 4, 3), (2, 3, 5)])

    def test_intra_cluster_links(self):
        links = self.make_links()
        assert intra_cluster_links([0, 1, 2], links) == 3
        assert intra_cluster_links([3, 4, 5], links) == 3
        assert intra_cluster_links([0], links) == 0

    def test_criterion_value(self):
        links = self.make_links()
        f = 1 / 3
        expected = 3 * (3 / 3.0 ** (1 + 2 * f)) + 3 * (3 / 3.0 ** (1 + 2 * f))
        assert criterion_value([[0, 1, 2], [3, 4, 5]], links, f) == pytest.approx(expected)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            criterion_value([[]], self.make_links(), 0.5)

    def test_separating_unlinked_points_beats_lumping(self):
        """The Section 3.3 argument: E_l must penalise assigning points
        with few links between them to one big cluster."""
        table = link_table(4, [(0, 1, 4), (2, 3, 4)])
        f = 1 / 3
        split = criterion_value([[0, 1], [2, 3]], table, f)
        lumped = criterion_value([[0, 1, 2, 3]], table, f)
        assert split > lumped

    def test_all_pairs_linked_prefers_one_cluster(self):
        table = link_table(
            4, [(i, j, 2) for i in range(4) for j in range(i + 1, 4)]
        )
        f = 1 / 3
        lumped = criterion_value([[0, 1, 2, 3]], table, f)
        split = criterion_value([[0, 1], [2, 3]], table, f)
        assert lumped > split
