"""Tests for JSON persistence of clustering results."""

import io
import json

import numpy as np
import pytest

from repro.core.dendrogram import Dendrogram
from repro.core.pipeline import RockPipeline
from repro.core.rock import cluster_with_links
from repro.core.serialization import (
    FORMAT_VERSION,
    load_result,
    pipeline_result_from_dict,
    pipeline_result_to_dict,
    rock_result_from_dict,
    rock_result_to_dict,
    save_result,
)
from repro.core.similarity import (
    JaccardSimilarity,
    LpSimilarity,
    MissingAwareJaccard,
    OverlapSimilarity,
    SimilarityTable,
    similarity_from_dict,
    similarity_to_dict,
)
from repro.data.transactions import Transaction, TransactionDataset
from tests.linktables import link_table


@pytest.fixture
def rock_result():
    table = link_table(5, [(0, 1, 4), (1, 2, 3), (3, 4, 5)])
    return cluster_with_links(table, k=2, f_theta=1 / 3)


@pytest.fixture
def pipeline_result():
    ds = TransactionDataset(
        [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {8, 9, 10}, {8, 9, 11}, {8, 10, 11}] * 5
    )
    return RockPipeline(k=2, theta=0.4, sample_size=20, seed=0).fit(ds)


class TestRockResultRoundTrip:
    def test_dict_round_trip(self, rock_result):
        back = rock_result_from_dict(rock_result_to_dict(rock_result))
        assert back.clusters == rock_result.clusters
        assert back.merges == rock_result.merges
        assert back.stopped_early == rock_result.stopped_early
        assert back.n_points == rock_result.n_points

    def test_file_round_trip(self, rock_result, tmp_path):
        path = tmp_path / "result.json"
        save_result(rock_result, path)
        back = load_result(path)
        assert back.clusters == rock_result.clusters

    def test_stream_round_trip(self, rock_result):
        buffer = io.StringIO()
        save_result(rock_result, buffer)
        buffer.seek(0)
        back = load_result(buffer)
        assert back.merges == rock_result.merges

    def test_dendrogram_rebuildable_from_loaded(self, rock_result, tmp_path):
        path = tmp_path / "result.json"
        save_result(rock_result, path)
        tree = Dendrogram.from_result(load_result(path))
        assert tree.cut(len(rock_result.clusters)) == rock_result.clusters

    def test_json_is_plain(self, rock_result, tmp_path):
        path = tmp_path / "result.json"
        save_result(rock_result, path)
        data = json.loads(path.read_text())
        assert data["format"] == "rock-result"
        assert isinstance(data["clusters"][0][0], int)


class TestPipelineResultRoundTrip:
    def test_round_trip(self, pipeline_result, tmp_path):
        path = tmp_path / "pipeline.json"
        save_result(pipeline_result, path)
        back = load_result(path)
        assert np.array_equal(back.labels, pipeline_result.labels)
        assert back.clusters == pipeline_result.clusters
        assert back.sample_indices == pipeline_result.sample_indices
        assert back.outlier_indices == pipeline_result.outlier_indices
        assert back.timings == pytest.approx(pipeline_result.timings)
        assert back.rock_result.merges == pipeline_result.rock_result.merges

    def test_derived_accessors_work_after_load(self, pipeline_result, tmp_path):
        path = tmp_path / "pipeline.json"
        save_result(pipeline_result, path)
        back = load_result(path)
        assert back.n_clusters == pipeline_result.n_clusters
        assert back.cluster_sizes() == pipeline_result.cluster_sizes()
        assert back.clustering_seconds() >= 0


class TestSimilarityRecorded:
    def test_default_similarity_round_trips_as_none(self, pipeline_result):
        data = pipeline_result_to_dict(pipeline_result)
        assert data["version"] == FORMAT_VERSION
        assert data["similarity"] is None
        assert pipeline_result_from_dict(data).similarity is None

    def test_named_similarity_round_trips(self):
        ds = TransactionDataset(
            [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {8, 9, 10}, {8, 9, 11}] * 6
        )
        result = RockPipeline(
            k=2, theta=0.4, sample_size=20, seed=0,
            similarity=OverlapSimilarity(),
        ).fit(ds)
        back = pipeline_result_from_dict(pipeline_result_to_dict(result))
        assert isinstance(back.similarity, OverlapSimilarity)

    def test_version1_files_still_load(self, pipeline_result):
        data = pipeline_result_to_dict(pipeline_result)
        # forge a version-1 file: no similarity entry existed back then
        data["version"] = 1
        del data["similarity"]
        data["rock_result"]["version"] = 1
        back = pipeline_result_from_dict(data)
        assert back.similarity is None
        assert np.array_equal(back.labels, pipeline_result.labels)

    @pytest.mark.parametrize(
        "similarity",
        [
            JaccardSimilarity(),
            OverlapSimilarity(),
            MissingAwareJaccard(),
            LpSimilarity(p=1.0, scale=3.0),
            LpSimilarity(p=float("inf")),
        ],
    )
    def test_builtin_similarities_round_trip(self, similarity):
        back = similarity_from_dict(similarity_to_dict(similarity))
        assert type(back) is type(similarity)
        if isinstance(similarity, LpSimilarity):
            assert back.p == similarity.p
            assert back.scale == similarity.scale

    def test_custom_similarity_recorded_by_name_only(self):
        table = SimilarityTable({("a", "b"): 0.5})
        data = similarity_to_dict(table)
        assert data == {"name": "SimilarityTable", "custom": True}
        assert similarity_from_dict(data) is None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown similarity"):
            similarity_from_dict({"name": "from-the-future"})


class TestErrors:
    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            save_result({"not": "a result"}, io.StringIO())

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "mystery"}')
        with pytest.raises(ValueError, match="not a saved clustering"):
            load_result(path)

    def test_version_mismatch_rejected(self, rock_result):
        data = rock_result_to_dict(rock_result)
        data["version"] = 999
        with pytest.raises(ValueError, match="version"):
            rock_result_from_dict(data)

    def test_cross_format_rejected(self, rock_result):
        data = rock_result_to_dict(rock_result)
        with pytest.raises(ValueError, match="expected format"):
            pipeline_result_from_dict(data)
