"""repro.data.store: the on-disk CSR opens as a checksummed dataset.

Round trips, tamper and fuzz sweeps (a damaged store raises
:class:`StoreIntegrityError` and never returns a dataset), stores
written before the metadata carried its own checksum, chunk-size
invariance, and a fit over a store equal to the fit over the text file
it was encoded from -- in the library and through the CLI.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import RockPipeline, rock
from repro.data.io import read_transactions
from repro.data.store import (
    INDPTR_NAME,
    ITEMS_NAME,
    META_NAME,
    StoreIntegrityError,
    TransactionStore,
)
from repro.datasets import small_synthetic_basket, write_basket_file


@pytest.fixture(scope="module")
def basket():
    return small_synthetic_basket(
        n_clusters=3, cluster_size=40, n_outliers=8, seed=7
    )


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, basket):
    """A store directory the damage tests copy before they damage it."""
    path = tmp_path_factory.mktemp("pristine") / "store"
    TransactionStore.write(path, basket.transactions)
    return path


def _merge_key(result):
    """Byte-level identity of the merge history (goodness included)."""
    return [
        (m.left, m.right, m.merged, float(m.goodness).hex(), m.size)
        for m in result.merges
    ]


class TestRoundTrip:
    def test_round_trip(self, tmp_path, basket):
        ds = basket.transactions
        store = TransactionStore.write(tmp_path / "store", ds)
        assert len(store) == len(ds)
        assert store.vocabulary == ds.vocabulary
        assert [t.items for t in store] == [t.items for t in ds]
        np.testing.assert_array_equal(store.csr[0], ds.csr[0])
        np.testing.assert_array_equal(store.csr[1], ds.csr[1])

    def test_open_maps_the_files_without_copying(self, tmp_path, basket):
        path = tmp_path / "store"
        TransactionStore.write(path, basket.transactions)
        indptr, codes = TransactionStore.open(path).csr
        for array, name in ((indptr, INDPTR_NAME), (codes, ITEMS_NAME)):
            assert isinstance(array.base, np.memmap)
            assert Path(array.base.filename) == (path / name).resolve()
            assert not array.flags.writeable

    def test_store_written_without_a_metadata_checksum_opens(
        self, tmp_path, basket
    ):
        path = tmp_path / "store"
        TransactionStore.write(path, basket.transactions)
        meta = json.loads((path / META_NAME).read_text(encoding="utf-8"))
        del meta["checksums"][META_NAME]
        (path / META_NAME).write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )
        reopened = TransactionStore.open(path)
        assert [t.items for t in reopened] == [t.items for t in basket.transactions]

    def test_chunked_write_is_chunk_size_invariant(self, tmp_path, basket):
        rows = [t.items for t in basket.transactions]
        TransactionStore.write(tmp_path / "a", rows, chunk_rows=7)
        TransactionStore.write(tmp_path / "b", rows, chunk_rows=4096)
        for name in (META_NAME, ITEMS_NAME, INDPTR_NAME):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_rows_and_an_empty_store(self, tmp_path):
        store = TransactionStore.write(tmp_path / "s", [[], ["a"], []])
        assert [t.items for t in store] == [frozenset(), {"a"}, frozenset()]
        empty = TransactionStore.write(tmp_path / "e", [])
        assert len(empty) == 0


class TestDamage:
    def test_tamper_detected(self, tmp_path, pristine):
        path = tmp_path / "store"
        shutil.copytree(pristine, path)
        payload = bytearray((path / ITEMS_NAME).read_bytes())
        payload[0] ^= 0xFF
        (path / ITEMS_NAME).write_bytes(bytes(payload))
        with pytest.raises(StoreIntegrityError, match="checksum"):
            TransactionStore.open(path)

    def test_edited_vocabulary_detected(self, tmp_path, pristine):
        """A well-formed edit of ``store.json`` fails its own checksum."""
        path = tmp_path / "store"
        shutil.copytree(pristine, path)
        meta = json.loads((path / META_NAME).read_text(encoding="utf-8"))
        meta["vocabulary"][0], meta["vocabulary"][1] = (
            meta["vocabulary"][1], meta["vocabulary"][0],
        )
        (path / META_NAME).write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )
        with pytest.raises(StoreIntegrityError, match="checksum"):
            TransactionStore.open(path)

    @pytest.mark.parametrize("name", [META_NAME, ITEMS_NAME, INDPTR_NAME])
    def test_missing_file_detected(self, tmp_path, pristine, name):
        path = tmp_path / "store"
        shutil.copytree(pristine, path)
        (path / name).unlink()
        with pytest.raises(StoreIntegrityError):
            TransactionStore.open(path)

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from([META_NAME, ITEMS_NAME, INDPTR_NAME]),
        position=st.floats(0.0, 1.0, exclude_max=True),
        damage=st.one_of(st.just("truncate"), st.integers(0, 7)),
    )
    def test_damaged_store_never_opens(self, pristine, name, position, damage):
        """Truncate a file, or flip one bit of it: opening raises."""
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "store"
            shutil.copytree(pristine, path)
            target = path / name
            payload = bytearray(target.read_bytes())
            at = int(position * len(payload))
            if damage == "truncate":
                del payload[at:]
            else:
                payload[at] ^= 1 << damage
            target.write_bytes(bytes(payload))
            with pytest.raises(StoreIntegrityError):
                TransactionStore.open(path)


class TestTextFileEquivalence:
    @pytest.fixture(scope="class")
    def source(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("text") / "txns.txt"
        write_basket_file(path, 300, n_clusters=3, seed=5)
        return path

    def test_from_transactions_file_matches_in_memory(self, tmp_path, source):
        ds = read_transactions(source)
        from_file = TransactionStore.from_transactions_file(
            source, tmp_path / "s1", chunk_rows=17
        )
        from_memory = TransactionStore.write(tmp_path / "s2", ds)
        # item codes may permute (first-seen against sorted vocabulary),
        # but the rows are the same item sets
        assert [t.items for t in from_file] == [t.items for t in ds]
        assert [t.items for t in from_memory] == [t.items for t in ds]
        # and similarity is permutation-invariant, so the fits agree
        expected = rock(ds, k=3, theta=0.5)
        for store in (from_file, from_memory):
            got = rock(store, k=3, theta=0.5)
            assert got.clusters == expected.clusters
            assert _merge_key(got) == _merge_key(expected)

    def test_sampled_pipeline_labels_match(self, tmp_path, source):
        store = TransactionStore.from_transactions_file(source, tmp_path / "s")
        pipeline = RockPipeline(k=3, theta=0.5, sample_size=120, seed=3)
        from_text = pipeline.fit(read_transactions(source))
        from_store = pipeline.fit(store)
        np.testing.assert_array_equal(from_store.labels, from_text.labels)
        assert from_store.outlier_indices == from_text.outlier_indices

    @pytest.mark.parametrize("command", ["cluster", "fit-model"])
    def test_cli_input_may_be_a_store(self, tmp_path, source, command, capsys):
        store_dir = tmp_path / "store"
        TransactionStore.from_transactions_file(source, store_dir)
        outputs = []
        for name, given_input in (("text", source), ("store", store_dir)):
            labels = tmp_path / f"{name}.labels"
            argv = [command, "--input", str(given_input), "--theta", "0.5",
                    "-k", "3", "--sample", "150", "--seed", "1"]
            if command == "cluster":
                argv += ["--output", str(labels)]
            else:
                argv += ["--model", str(tmp_path / f"{name}.json"),
                         "--labels", str(labels)]
            assert main(argv) == 0
            outputs.append(labels.read_text())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_cli_damaged_store_fails(self, tmp_path, pristine):
        path = tmp_path / "store"
        shutil.copytree(pristine, path)
        (path / INDPTR_NAME).write_bytes(b"")
        with pytest.raises(StoreIntegrityError):
            main(["cluster", "--input", str(path), "--theta", "0.5", "-k", "3"])
