"""Tests for categorical-record encodings (Section 3.1.2, Section 5)."""

import numpy as np
import pytest

from repro.core.encoding import (
    attribute_item,
    dataset_to_boolean_matrix,
    dataset_to_transactions,
    record_to_transaction,
    restrict_to_shared_attributes,
)
from repro.data.records import MISSING, CategoricalDataset, CategoricalRecord, CategoricalSchema


@pytest.fixture
def schema():
    return CategoricalSchema(["color", "size"])


class TestRecordToTransaction:
    def test_items_are_attribute_dot_value(self, schema):
        record = CategoricalRecord(schema, ["brown", "narrow"], rid=7)
        t = record_to_transaction(record)
        assert t.items == {"color.brown", "size.narrow"}
        assert t.tid == 7

    def test_missing_values_ignored(self, schema):
        record = CategoricalRecord(schema, ["brown", MISSING])
        assert record_to_transaction(record).items == {"color.brown"}

    def test_attribute_item_format(self):
        assert attribute_item("odor", "foul") == "odor.foul"

    def test_same_value_different_attribute_distinct(self):
        schema = CategoricalSchema(["a", "b"])
        record = CategoricalRecord(schema, ["x", "x"])
        assert len(record_to_transaction(record)) == 2


class TestDatasetToTransactions:
    def test_consistent_vocabulary(self, schema):
        ds = CategoricalDataset(schema, [["brown", "broad"], ["white", MISSING]])
        txns = dataset_to_transactions(ds)
        assert len(txns) == 2
        assert set(txns.vocabulary) == {"color.brown", "color.white", "size.broad"}


class TestBooleanMatrix:
    def test_one_column_per_attribute_value(self, schema):
        ds = CategoricalDataset(schema, [["brown", "broad"], ["white", "broad"]])
        matrix, names = dataset_to_boolean_matrix(ds)
        assert matrix.shape == (2, 3)
        assert names == ["color.brown", "color.white", "size.broad"]
        assert matrix[0].tolist() == [1.0, 0.0, 1.0]
        assert matrix[1].tolist() == [0.0, 1.0, 1.0]

    def test_missing_expands_to_zero_row_block(self, schema):
        ds = CategoricalDataset(schema, [["brown", MISSING], ["brown", "broad"]])
        matrix, names = dataset_to_boolean_matrix(ds)
        size_col = names.index("size.broad")
        assert matrix[0, size_col] == 0.0

    def test_row_sums_equal_present_attributes(self, schema):
        ds = CategoricalDataset(schema, [["brown", "broad"], [MISSING, MISSING]])
        matrix, _ = dataset_to_boolean_matrix(ds)
        assert matrix.sum(axis=1).tolist() == [2.0, 0.0]

    def test_pairs_with_one_name_keep_their_columns(self):
        # values 1 and "1" both format as "a.1"; "x" = "y.z" and "x.y" = "z"
        # both as "x.y.z": each (attribute, value) pair keeps its column
        ds = CategoricalDataset(
            CategoricalSchema(["a", "x", "x.y"]),
            [[1, "y.z", MISSING], ["1", MISSING, "z"]],
        )
        matrix, names = dataset_to_boolean_matrix(ds)
        assert sorted(names) == ["a.1", "a.1", "x.y.z", "x.y.z"]
        assert matrix.shape == (2, 4)
        assert (matrix.sum(axis=0) == 1.0).all()
        assert matrix.sum(axis=1).tolist() == [2.0, 2.0]


class TestSharedAttributeRestriction:
    def test_only_mutually_present_attributes(self, schema):
        a = CategoricalRecord(schema, ["brown", MISSING])
        b = CategoricalRecord(schema, ["brown", "broad"])
        items_a, items_b = restrict_to_shared_attributes(a, b)
        assert items_a == {"color.brown"}
        assert items_b == {"color.brown"}

    def test_identical_on_shared_gives_equal_sets(self, schema):
        a = CategoricalRecord(schema, ["brown", MISSING])
        b = CategoricalRecord(schema, ["brown", "broad"])
        items_a, items_b = restrict_to_shared_attributes(a, b)
        assert items_a == items_b

    def test_pairwise_dependence(self, schema):
        """The same record maps to different item sets against different
        partners -- the Section 3.1.2 time-series behaviour."""
        r = CategoricalRecord(schema, ["brown", "broad"])
        partner1 = CategoricalRecord(schema, ["white", MISSING])
        partner2 = CategoricalRecord(schema, ["white", "narrow"])
        items_vs_1, _ = restrict_to_shared_attributes(r, partner1)
        items_vs_2, _ = restrict_to_shared_attributes(r, partner2)
        assert items_vs_1 == {"color.brown"}
        assert items_vs_2 == {"color.brown", "size.broad"}

    def test_schema_mismatch_rejected(self, schema):
        other = CategoricalSchema(["x", "y"])
        a = CategoricalRecord(schema, ["brown", "broad"])
        b = CategoricalRecord(other, ["brown", "broad"])
        with pytest.raises(ValueError, match="share a schema"):
            restrict_to_shared_attributes(a, b)
