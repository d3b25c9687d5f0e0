"""Tests for the servable RockModel artifact and the pipeline bridge."""

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import RockPipeline
from repro.core.similarity import LpSimilarity, MissingAwareJaccard, SimilarityTable
from repro.data.records import MISSING, CategoricalRecord, CategoricalSchema
from repro.data.transactions import Transaction, TransactionDataset
from repro.datasets import small_synthetic_basket
from repro.serve import AssignmentEngine, RockModel
from repro.serve.http.reload import load_versioned_model
from repro.serve.model import (
    MODEL_VERSION,
    ArtifactIntegrityError,
    artifact_checksum,
    artifact_digests,
    model_version,
    read_artifact,
)

CLUSTER_A = [Transaction({1, 2, 3}), Transaction({1, 2, 4}), Transaction({2, 3, 4})]
CLUSTER_B = [Transaction({7, 8, 9}), Transaction({7, 8, 10})]


@pytest.fixture
def model():
    return RockModel(
        labeling_sets=[CLUSTER_A, CLUSTER_B],
        theta=0.4,
        f_theta=(1 - 0.4) / (1 + 0.4),
        cluster_sizes=[30, 20],
        metadata={"k": 2},
    )


@pytest.fixture
def dataset():
    return TransactionDataset(
        [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {8, 9, 10}, {8, 9, 11}, {8, 10, 11}] * 20
    )


class TestRoundTrip:
    def test_dict_round_trip(self, model):
        back = RockModel.from_dict(model.to_dict())
        assert back.theta == model.theta
        assert back.f_theta == model.f_theta
        assert back.cluster_sizes == model.cluster_sizes
        assert back.metadata == model.metadata
        assert [
            [frozenset(r) for r in li] for li in back.labeling_sets
        ] == [[r.items for r in li] for li in model.labeling_sets]

    def test_file_round_trip(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        back = RockModel.load(path)
        assert back.n_clusters == 2
        # loaded model assigns identically
        points = [Transaction({1, 2, 3}), Transaction({7, 8}), Transaction({42})]
        assert back.labeler().assign_all(points).tolist() == \
            model.labeler().assign_all(points).tolist()

    def test_json_is_plain_and_versioned(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        assert data["format"] == "rock-model"
        assert data["version"] == MODEL_VERSION
        assert data["points"] == "sets"
        assert isinstance(data["labeling_sets"][0][0], list)

    def test_stream_round_trip(self, model):
        buf = io.StringIO()
        model.save(buf)
        buf.seek(0)
        assert RockModel.load(buf).theta == model.theta

    def test_version_mismatch_rejected(self, model):
        data = model.to_dict()
        data["version"] = MODEL_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            RockModel.from_dict(data)

    def test_wrong_format_rejected(self, model):
        data = model.to_dict()
        data["format"] = "pipeline-result"
        with pytest.raises(ValueError, match="format"):
            RockModel.from_dict(data)

    def test_record_representatives_round_trip(self):
        schema = CategoricalSchema(["a", "b", "c"])
        reps = [
            [CategoricalRecord(schema, ["x", "y", MISSING])],
            [CategoricalRecord(schema, ["p", MISSING, "q"])],
        ]
        model = RockModel(
            labeling_sets=reps, theta=0.5, f_theta=0.3,
            similarity=MissingAwareJaccard(),
        )
        back = RockModel.from_dict(model.to_dict())
        assert isinstance(back.similarity, MissingAwareJaccard)
        rep = back.labeling_sets[0][0]
        assert isinstance(rep, CategoricalRecord)
        assert rep.values == ("x", "y", MISSING)

    def test_vector_representatives_round_trip(self):
        model = RockModel(
            labeling_sets=[[[0.0, 1.0]], [[5.0, 5.0]]],
            theta=0.5,
            f_theta=0.3,
            similarity=LpSimilarity(p=2.0, scale=2.0),
        )
        back = RockModel.from_dict(model.to_dict())
        assert isinstance(back.similarity, LpSimilarity)
        assert back.similarity.scale == 2.0
        assert back.labeler().assign([0.1, 0.9]) == 0

    def test_custom_similarity_rejected(self):
        table = SimilarityTable({("a", "b"): 0.9})
        model = RockModel(
            labeling_sets=[["a"], ["b"]], theta=0.5, f_theta=0.3,
            similarity=table,
        )
        with pytest.raises(ValueError, match="custom similarity"):
            model.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            RockModel(labeling_sets=[], theta=0.5, f_theta=0.3)
        with pytest.raises(ValueError, match="non-empty"):
            RockModel(labeling_sets=[[], []], theta=0.5, f_theta=0.3)
        with pytest.raises(ValueError, match="theta"):
            RockModel(labeling_sets=[CLUSTER_A], theta=1.5, f_theta=0.3)


class TestPipelineBridge:
    def test_fit_model_reproduces_labels_on_held_out(self, dataset):
        pipeline = RockPipeline(k=2, theta=0.4, sample_size=40, seed=0)
        result, model = pipeline.fit_model(dataset)
        in_sample = set(result.sample_indices)
        held_out = [i for i in range(len(dataset)) if i not in in_sample]
        assert held_out  # the split is real
        engine = AssignmentEngine(model)
        labels = engine.assign_batch([dataset[i] for i in held_out])
        assert np.array_equal(labels, result.labels[held_out])

    def test_fit_model_survives_json_round_trip(self, dataset, tmp_path):
        pipeline = RockPipeline(k=2, theta=0.4, sample_size=40, seed=0)
        result, model = pipeline.fit_model(dataset)
        path = tmp_path / "model.json"
        model.save(path)
        engine = AssignmentEngine(RockModel.load(path))
        in_sample = set(result.sample_indices)
        held_out = [i for i in range(len(dataset)) if i not in in_sample]
        labels = engine.assign_batch([dataset[i] for i in held_out])
        assert np.array_equal(labels, result.labels[held_out])

    def test_to_model_without_stored_sets_needs_points(self, dataset):
        pipeline = RockPipeline(k=2, theta=0.4, seed=0)  # clusters every point
        result = pipeline.fit(dataset)
        assert result.labeling_sets is None
        with pytest.raises(ValueError, match="original points"):
            pipeline.to_model(result)
        model = pipeline.to_model(result, dataset)
        assert model.n_clusters == result.n_clusters

    def test_labeling_sets_follow_final_cluster_order(self, dataset):
        pipeline = RockPipeline(k=2, theta=0.4, sample_size=40, seed=0)
        result, model = pipeline.fit_model(dataset)
        # each labeling set's representatives belong to its final cluster
        for c, li in enumerate(model.labeling_sets):
            member_items = {dataset[i].items for i in result.clusters[c]}
            assert all(rep.items in member_items for rep in li)

    def test_metadata_records_provenance(self, dataset):
        pipeline = RockPipeline(k=2, theta=0.4, sample_size=40, seed=7)
        _, model = pipeline.fit_model(dataset)
        assert model.metadata["k"] == 2
        assert model.metadata["seed"] == 7
        assert model.metadata["sample_size"] == 40
        assert model.metadata["n_points"] == len(dataset)
        assert model.metadata["uses_default_f"] is True
        assert model.cluster_sizes == result_sizes(dataset, pipeline)


def result_sizes(dataset, pipeline):
    return RockPipeline(
        k=pipeline.k, theta=pipeline.theta,
        sample_size=pipeline.sample_size, seed=pipeline.seed,
    ).fit(dataset).cluster_sizes()


class NoIteration(TransactionDataset):
    """A dataset that may only be indexed, never walked."""

    def __iter__(self):
        raise AssertionError("the whole dataset was decoded")


class TestSetUpDecode:
    def test_labeling_sets_drawn_by_index_not_by_walk(self):
        """``to_model`` after a fit that labeled nothing draws the
        labeling sets from sample members only: a dataset is indexed,
        never decoded whole, and the model equals the list-built one."""
        basket = small_synthetic_basket(
            n_clusters=3, cluster_size=80, n_outliers=10, seed=1
        )
        indptr, codes = basket.transactions.csr
        dataset = NoIteration.from_csr(
            indptr, codes, basket.transactions.vocabulary
        )
        pipeline = RockPipeline(
            k=3, theta=0.45, sample_size=100, min_cluster_size=5, seed=1
        )
        fit = pipeline.fit(dataset, label_remaining=False)
        assert fit.labeling_sets is None
        from_dataset = pipeline.to_model(fit, dataset)
        from_list = pipeline.to_model(fit, list(basket.transactions))
        assert from_dataset == from_list
        assert from_dataset.to_dict() == from_list.to_dict()


class TestArtifactChecksum:
    """Content checksums written on save and verified on load."""

    def test_save_embeds_sha256_checksum(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        from repro.serve.model import artifact_checksum

        assert data["checksum"] == "sha256:" + artifact_checksum(data)
        assert len(data["checksum"]) == len("sha256:") + 64

    def test_checksum_is_content_addressed(self, model, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        model.save(p1)
        model.save(p2)
        c1 = json.loads(p1.read_text())["checksum"]
        c2 = json.loads(p2.read_text())["checksum"]
        assert c1 == c2  # same content, same digest, mtime-independent

    def test_clean_round_trip_verifies(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        loaded = RockModel.load(path)
        assert loaded.theta == model.theta

    def test_tampered_artifact_fails_fast(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        data["theta"] = 0.7
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            RockModel.load(path)

    def test_truncated_labeling_set_fails_fast(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        data["labeling_sets"][0].pop()
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            RockModel.load(path)

    def test_pre_checksum_artifacts_still_load(self, model, tmp_path):
        """Artifacts written before checksums existed have no key."""
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        del data["checksum"]
        path.write_text(json.dumps(data))
        loaded = RockModel.load(path)
        assert loaded.theta == model.theta
        assert loaded.n_clusters == model.n_clusters

    def test_checksum_survives_reserialization(self, model, tmp_path):
        """Round-tripping through json.loads/dumps keeps the digest valid."""
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        (tmp_path / "copy.json").write_text(json.dumps(data))
        loaded = RockModel.load(tmp_path / "copy.json")
        assert loaded.theta == model.theta


@pytest.fixture(scope="module")
def saved_artifact(tmp_path_factory):
    """A fitted model (float metadata included) and its saved bytes."""
    dataset = TransactionDataset(
        [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {8, 9, 10}, {8, 9, 11}, {8, 10, 11}] * 20
    )
    _, model = RockPipeline(
        k=2, theta=0.5, sample_size=60, min_cluster_size=3, seed=3
    ).fit_model(dataset)
    path = tmp_path_factory.mktemp("artifact") / "model.json"
    model.save(path)
    return model, path.read_bytes(), path.with_name("damaged.json")


class TestArtifactDamage:
    """Truncated and bit-flipped artifacts raise
    :class:`ArtifactIntegrityError`; none loads as a different model."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_truncated_artifact_raises(self, saved_artifact, data):
        model, raw, path = saved_artifact
        keep = data.draw(st.integers(0, len(raw)))
        path.write_bytes(raw[:keep])
        if keep < len(raw.rstrip()):
            with pytest.raises(ArtifactIntegrityError):
                RockModel.load(path)
        else:  # only the trailing newline is gone
            assert RockModel.load(path) == model

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_bit_flipped_artifact_never_loads_as_another_model(
        self, saved_artifact, data
    ):
        model, raw, path = saved_artifact
        at = data.draw(st.integers(0, len(raw) - 1))
        damaged = bytearray(raw)
        damaged[at] ^= 1 << data.draw(st.integers(0, 7))
        path.write_bytes(damaged)
        try:
            loaded = RockModel.load(path)
        except ArtifactIntegrityError:
            return
        # only a flip the canonical payload cannot see may load (a float
        # digit past its round-trip precision), and as the same model
        assert artifact_checksum(json.loads(damaged)) == artifact_checksum(
            json.loads(raw)
        )
        assert loaded.to_dict() == model.to_dict()

    def test_checksum_key_damage_is_not_a_legacy_artifact(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        data = json.loads(path.read_text())
        data["chdcksum"] = data.pop("checksum")
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactIntegrityError, match="unknown keys"):
            RockModel.load(path)
        data["checksum"] = "rha256:" + data.pop("chdcksum").split(":")[1]
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactIntegrityError, match="malformed"):
            RockModel.load(path)

    def test_non_object_and_undecodable_json_raise(self, tmp_path):
        path = tmp_path / "model.json"
        for raw in (b"[1, 2]", b"\xff\xfe", b"", b'{"format": '):
            path.write_bytes(raw)
            with pytest.raises(ArtifactIntegrityError):
                RockModel.load(path)


class TestArtifactsWithWorkers:
    """Artifacts from before the fit derived its thread count carry a
    ``workers`` metadata key where new ones carry ``threads``."""

    # written by the previous release: RockPipeline(k=4, theta=0.5,
    # sample_size=80, seed=0, memory_budget=1, workers=2) over the data
    # below, then RockModel.save
    ARTIFACT = Path(__file__).parent / "data" / "model_with_workers.json"
    # what that release served for the same points ("x" is -1)
    SERVED = (
        "0123103302x00x10x2032030302230232020130102231330120121x33111120"
        "221321212x301032313100110311033321010102323003212012002x2231131"
        "231x321123302303211120103202232130331300"
    )

    def test_loads_and_serves_identical_labels(self):
        from repro.datasets import small_synthetic_basket

        points = list(small_synthetic_basket(
            n_clusters=4, cluster_size=40, n_outliers=6, seed=0
        ).transactions)
        legacy = RockModel.load(self.ARTIFACT)
        assert legacy.metadata["workers"] == 2
        assert "threads" not in legacy.metadata
        served = AssignmentEngine(legacy).assign_all(points)
        assert "".join("x" if v < 0 else str(v) for v in served) == self.SERVED

        _, model = RockPipeline(
            k=4, theta=0.5, sample_size=80, seed=0, memory_budget=1
        ).fit_model(points)
        assert "workers" not in model.metadata
        assert model.metadata["threads"] >= 1
        assert model.labeling_sets == legacy.labeling_sets
        assert np.array_equal(AssignmentEngine(model).assign_all(points), served)


class TestArtifactsFromShardedFits:
    """Artifacts of the deleted sharded fit record its knobs in their
    metadata; they load and serve as they did."""

    # written by the previous release: RockPipeline(k=4, theta=0.5,
    # sample_size=80, seed=0, fit_mode="sharded", shard_block_rows=16,
    # spill_dir="spill", max_retries=3) over the points of
    # TestArtifactsWithWorkers, then RockModel.save
    ARTIFACT = Path(__file__).parent / "data" / "model_sharded.json"

    def test_loads_and_serves_identical_labels(self):
        from repro.datasets import small_synthetic_basket

        points = list(small_synthetic_basket(
            n_clusters=4, cluster_size=40, n_outliers=6, seed=0
        ).transactions)
        legacy = RockModel.load(self.ARTIFACT)
        assert legacy.metadata["fit_mode"] == "sharded"
        assert legacy.metadata["shard_block_rows"] == 16
        assert legacy.metadata["spill_dir"] == "spill"
        assert legacy.metadata["max_retries"] == 3
        served = AssignmentEngine(legacy).assign_all(points)
        # what that release served for the same points ("x" is -1)
        assert "".join(
            "x" if v < 0 else str(v) for v in served
        ) == TestArtifactsWithWorkers.SERVED

        _, model = RockPipeline(
            k=4, theta=0.5, sample_size=80, seed=0
        ).fit_model(points)
        for removed in ("fit_mode", "shard_block_rows", "spill_dir", "max_retries"):
            assert removed not in model.metadata
        assert model.labeling_sets == legacy.labeling_sets


def reference_sha256(payload):
    """The canonical rendering, done whole, as the artifact format
    defines it."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


class TestArtifactDigests:
    """Both digests come from one rendering of each top-level member;
    the bytes they hash are the whole payload's canonical JSON."""

    @settings(max_examples=200, deadline=None)
    @given(
        payload=st.dictionaries(
            st.text(max_size=8).filter(lambda k: k not in ("checksum", "metadata")),
            json_values,
            max_size=6,
        ),
        metadata=st.one_of(
            st.none(),
            json_values,
            st.dictionaries(st.text(max_size=6), json_values, max_size=3),
        ),
        timings=st.one_of(st.none(), json_values),
        checksum=st.one_of(st.none(), st.text(max_size=8)),
    )
    def test_digests_match_the_whole_canonical_json(
        self, payload, metadata, timings, checksum
    ):
        if metadata is not None:
            if isinstance(metadata, dict) and timings is not None:
                metadata = {**metadata, "fit_timings": timings}
            payload["metadata"] = metadata
        body = dict(payload)
        if checksum is not None:
            payload["checksum"] = checksum
        untimed = dict(body)
        if isinstance(metadata, dict):
            untimed["metadata"] = {
                k: v for k, v in metadata.items() if k != "fit_timings"
            }
        expected = (reference_sha256(body), reference_sha256(untimed)[:16])
        assert artifact_digests(payload) == expected
        assert artifact_checksum(payload) == expected[0]
        assert model_version(payload) == expected[1]

    @pytest.mark.parametrize("name, version, checksum", [
        ("model_with_workers.json", "2eda8e1ed42ce925",
         "4d043f2ea9b086570c4652ee92f21aea47023e50170109a3b4b5411037d03ed1"),
        ("model_sharded.json", "bc4add6d08cce836",
         "fd8f4ed495a94a9cb8fb2be49aec3913526e2f500249fe7a00bdd4a6e44896db"),
    ], ids=["with-workers", "sharded"])
    def test_checked_in_artifacts_keep_their_digests(self, name, version, checksum):
        path = Path(__file__).parent / "data" / name
        payload, digest, served = read_artifact(path)
        assert (digest, served) == (checksum, version)
        assert payload["checksum"] == "sha256:" + checksum
        assert load_versioned_model(path)[1] == version
