"""Feature store, word-table, and text-source behavior."""

import re

import numpy as np
import pytest

from audioret import experts as ex


@pytest.fixture
def registry():
    return ex.ExpertRegistry({
        "synthA": ex.ExpertInfo(12, "audio"),
        "synthB": ex.ExpertInfo(8, "audio"),
    })


def _write_store(tmp_path, registry, entries):
    builder = ex.FeatureStoreBuilder(tmp_path / "feat")
    for expert, sample_id, matrix in entries:
        builder.add(expert, sample_id, matrix)
    return builder.finalize()


class TestMatrixFormat:
    def test_round_trip_exact(self, tmp_path):
        """A random float32 matrix survives write/read bit-for-bit."""
        rng = np.random.default_rng(0)
        m = rng.standard_normal((17, 5)).astype(np.float32)
        path = tmp_path / "x.mat"
        ex.write_matrix(path, m)
        back = ex.read_matrix(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, m)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"NOTFMT" + b"\x00" * 16)
        with pytest.raises(ValueError, match=f"bad magic in {re.escape(str(path))}$"):
            ex.read_matrix(path)

    def test_rejects_1d(self, tmp_path):
        path = tmp_path / "v.mat"
        with pytest.raises(ValueError, match="only 2-D"):
            ex.write_matrix(path, np.ones(3))
        assert not path.exists()

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "t.mat"
        ex.write_matrix(path, np.zeros((4, 3), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ValueError, match=f"truncated matrix in {re.escape(str(path))}$"):
            ex.read_matrix(path)


class TestFeatureStore:
    def test_open_fetch_round_trip(self, tmp_path, registry):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((9, 12)).astype(np.float32)
        root = _write_store(tmp_path, registry, [("synthA", "s1", m)])
        store = ex.open_feature_store(root, registry)
        stream = store.fetch("s1", "synthA")
        np.testing.assert_array_equal(stream.matrix.astype(np.float32), m)
        assert stream.sample_id == "s1" and stream.expert == "synthA"

    def test_clip_stages_float32_owning_at_most_its_cap(self, tmp_path,
                                                         registry):
        """An on-disk clip keeps the store's float32, and a stream longer
        than its cap is a copy of its first rows, not a view that keeps
        the uncapped matrix alive."""
        rng = np.random.default_rng(2)
        a = rng.standard_normal((9, 12)).astype(np.float32)
        b = rng.standard_normal((3, 8)).astype(np.float32)
        root = _write_store(tmp_path, registry,
                            [("synthA", "s1", a), ("synthB", "s1", b)])
        clip = ex.gather_clip(ex.open_feature_store(root, registry), "s1",
                              ("synthA", "synthB"), {"synthA": 4, "synthB": 5})
        for expert, want in (("synthA", a[:4]), ("synthB", b)):
            got = clip.streams[expert]
            assert got.dtype == np.float32 and got.flags.owndata
            np.testing.assert_array_equal(got, want)

    def test_in_memory_store_stays_float64(self):
        store = ex.InMemoryFeatureStore()
        store.add("synthA", "s1", np.ones((3, 12), dtype=np.float32))
        clip = ex.gather_clip(store, "s1", ("synthA",), {"synthA": 2})
        assert store.fetch("s1", "synthA").matrix.dtype == np.float64
        assert clip.streams["synthA"].dtype == np.float64
        assert clip.streams["synthA"].shape == (2, 12)

    def test_missing_index_errors(self, tmp_path, registry):
        with pytest.raises(FileNotFoundError, match="no index"):
            ex.open_feature_store(tmp_path / "empty", registry)

    def test_dim_mismatch_against_registry(self, tmp_path):
        root = tmp_path / "feat"
        root.mkdir()
        (root / "index.txt").write_text("VGGish\t256\t0\n")
        with pytest.raises(ValueError, match=r"dimension mismatch \(expected 128\)"):
            ex.open_feature_store(root)

    def test_non_integer_count_rejected(self, tmp_path):
        root = tmp_path / "feat"
        root.mkdir()
        (root / "index.txt").write_text("VGGish\t128\tmany\n")
        with pytest.raises(ValueError, match="many"):
            ex.open_feature_store(root)

    def test_unknown_sample_errors(self, tmp_path, registry):
        root = _write_store(tmp_path, registry,
                            [("synthA", "s1", np.zeros((2, 12), dtype=np.float32))])
        store = ex.open_feature_store(root, registry)
        with pytest.raises(FileNotFoundError, match="sample not found"):
            store.fetch("nope", "synthA")

    def test_non_finite_record_names_sample(self, tmp_path, registry):
        bad = np.zeros((3, 12), dtype=np.float32)
        bad[1, 4] = np.nan
        root = _write_store(tmp_path, registry, [("synthA", "s9", bad)])
        store = ex.open_feature_store(root, registry)
        with pytest.raises(ValueError, match="s9"):
            store.fetch("s9", "synthA")

    def test_rejects_path_traversal_ids(self, tmp_path, registry):
        root = _write_store(tmp_path, registry,
                            [("synthA", "ok", np.zeros((1, 12), dtype=np.float32))])
        store = ex.open_feature_store(root, registry)
        with pytest.raises(ValueError, match="invalid sample id"):
            store.fetch("../ok", "synthA")

    def test_in_memory_store_matches_interface(self):
        store = ex.InMemoryFeatureStore()
        store.add("synthA", "s1", np.ones((4, 6)))
        assert store.has("s1", "synthA") and not store.has("s2", "synthA")
        assert store.fetch("s1", "synthA").matrix.shape == (4, 6)
        with pytest.raises(FileNotFoundError):
            store.fetch("s2", "synthA")


class TestWordTable:
    def _table(self):
        rng = np.random.default_rng(3)
        tokens = ["a", "dog", "barks", "loud"]
        return ex.WordTable(tokens, rng.standard_normal((4, 6)))

    def test_embed_lookup_fidelity(self):
        """In-vocabulary rows come back bit-for-bit from the table."""
        table = self._table()
        emb = ex.embed_tokens("A dog barks", table, caption_id="c1")
        assert emb.token_matrix.shape == (3, 6)
        np.testing.assert_array_equal(emb.token_matrix, table.vectors[:3])
        assert emb.mask.all()

    def test_punctuation_splits_tokens(self):
        table = self._table()
        emb = ex.embed_tokens("dog,barks!", table)
        assert emb.token_matrix.shape == (2, 6)

    def test_all_oov_degrades_to_zero_row(self):
        table = self._table()
        emb = ex.embed_tokens("xylophone zebra", table)
        assert emb.token_matrix.shape == (1, 6)
        assert not emb.mask.any()
        assert (emb.token_matrix == 0).all()

    def test_empty_text_errors(self):
        with pytest.raises(ValueError, match="empty caption"):
            ex.embed_tokens("   ", self._table())

    def test_save_load_round_trip(self, tmp_path):
        table = self._table()
        path = tmp_path / "table.txt"
        table.save(path)
        back = ex.load_word_table(path)
        assert back.dim == table.dim
        np.testing.assert_array_equal(back.vectors, table.vectors)
        assert back.index == table.index


class TestTextSources:
    def test_word_table_source(self):
        table = ex.WordTable(["dog"], np.ones((1, 4)))
        source = ex.WordTableTextSource(table)

        class Cap:
            caption_id = "c1"
            text = "dog dog"

        emb = source.tokens_for(Cap())
        assert emb.token_matrix.shape == (2, 4)
