"""Checkpoint archive format: round-trips and corruption handling."""

import json
import struct
import zipfile

import numpy as np
import pytest

from audioret import blas
from audioret import training as tr
from audioret.checkpoint import load_checkpoint, save_checkpoint
from audioret.synthetic import make_synthetic_benchmark
from test_training import tiny_model, _train_cfg


@pytest.fixture(scope="module")
def trained():
    bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=8)
    model = tiny_model("moee", bench)
    ckpt = tr.train(model, bench.corpus, bench.store, bench.text_source,
                    _train_cfg(epochs=1), tr.LossConfig(batch_size=4))
    return bench, ckpt


class TestRoundTrip:
    def test_metadata_survives(self, trained, tmp_path):
        _, ckpt = trained
        path = save_checkpoint(ckpt, tmp_path / "m.ckpt")
        back = load_checkpoint(path)
        assert back.architecture == ckpt.architecture
        assert back.model_config == ckpt.model_config
        assert back.train_config == ckpt.train_config
        assert back.selection_score == ckpt.selection_score
        assert back.best_step == ckpt.best_step
        assert back.history == ckpt.history

    def test_blas_provenance_survives(self, trained, tmp_path):
        _, ckpt = trained
        assert ckpt.blas == blas.describe()
        back = load_checkpoint(save_checkpoint(ckpt, tmp_path / "m.ckpt"))
        assert back.blas == ckpt.blas

    def test_tensors_survive_at_storage_precision(self, trained, tmp_path):
        _, ckpt = trained
        back = load_checkpoint(save_checkpoint(ckpt, tmp_path / "m.ckpt"))
        assert sorted(back.params) == sorted(ckpt.params)
        for name, arr in ckpt.params.items():
            assert back.params[name].shape == arr.shape
            np.testing.assert_array_equal(
                back.params[name], arr.astype("<f4").astype(np.float64))

    def test_members_are_store_matrices(self, trained, tmp_path):
        """Each tensor is a store matrix: a vector 1 x N, any other rank its
        leading axis by the rest, float32 little-endian."""
        _, ckpt = trained
        path = save_checkpoint(ckpt, tmp_path / "m.ckpt")
        with zipfile.ZipFile(path) as archive:
            for name, arr in ckpt.params.items():
                rows = arr.shape[0] if arr.ndim > 1 else 1
                want = (b"XFEAT1" + struct.pack("<II", rows, arr.size // rows)
                        + arr.astype("<f4").tobytes())
                assert archive.read(f"params/{name}.mat") == want, name

    def test_rebuilt_model_scores_like_original(self, trained, tmp_path):
        bench, ckpt = trained
        back = load_checkpoint(save_checkpoint(ckpt, tmp_path / "m.ckpt"))
        from audioret.models.similarity import similarity_matrix
        caps = [c for c in bench.corpus.captions][:3]
        texts = [bench.text_source.tokens_for(c) for c in caps]
        from audioret.experts import gather_clip
        clips = [gather_clip(bench.store, c.sample_id, ("ea", "eb"))
                 for c in caps]
        a = similarity_matrix(ckpt.rebuild(), texts, clips).values
        b = similarity_matrix(back.rebuild(), texts, clips).values
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_no_temp_file_left(self, trained, tmp_path):
        _, ckpt = trained
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class TestOlderArchives:
    def _rewrite(self, path, out, compression, edit=None):
        with zipfile.ZipFile(path) as archive, \
                zipfile.ZipFile(out, "w", compression=compression) as copy:
            for name in archive.namelist():
                blob = archive.read(name)
                if name == "manifest.json" and edit is not None:
                    manifest = json.loads(blob)
                    edit(manifest)
                    blob = json.dumps(manifest)
                copy.writestr(name, blob)
        return out

    def test_tensors_are_stored_uncompressed(self, trained, tmp_path):
        _, ckpt = trained
        path = save_checkpoint(ckpt, tmp_path / "m.ckpt")
        with zipfile.ZipFile(path) as archive:
            kinds = {info.compress_type for info in archive.infolist()}
        assert kinds == {zipfile.ZIP_STORED}

    def test_deflated_archive_loads_bit_for_bit(self, trained, tmp_path):
        _, ckpt = trained
        path = save_checkpoint(ckpt, tmp_path / "m.ckpt")
        deflated = self._rewrite(path, tmp_path / "deflated.ckpt",
                                 zipfile.ZIP_DEFLATED)
        with zipfile.ZipFile(deflated) as archive:
            kinds = {info.compress_type for info in archive.infolist()}
        assert kinds == {zipfile.ZIP_DEFLATED}
        want, got = load_checkpoint(path), load_checkpoint(deflated)
        assert sorted(got.params) == sorted(want.params)
        for name, arr in want.params.items():
            np.testing.assert_array_equal(got.params[name], arr)
        assert got.train_config == want.train_config
        assert got.history == want.history

    def test_manifest_with_checkpoint_every_loads(self, trained, tmp_path):
        _, ckpt = trained
        path = save_checkpoint(ckpt, tmp_path / "m.ckpt")
        old = self._rewrite(
            path, tmp_path / "old.ckpt", zipfile.ZIP_DEFLATED,
            edit=lambda m: m["train_config"].update(checkpoint_every=None))
        with zipfile.ZipFile(old) as archive:
            manifest = json.loads(archive.read("manifest.json"))
        assert manifest["train_config"]["checkpoint_every"] is None
        back = load_checkpoint(old)
        assert back.train_config == ckpt.train_config

    def test_manifest_without_blas_loads_with_none(self, trained, tmp_path):
        _, ckpt = trained
        path = save_checkpoint(ckpt, tmp_path / "m.ckpt")
        old = self._rewrite(path, tmp_path / "old.ckpt", zipfile.ZIP_STORED,
                            edit=lambda m: m.pop("blas"))
        with zipfile.ZipFile(old) as archive:
            assert "blas" not in json.loads(archive.read("manifest.json"))
        back = load_checkpoint(old)
        assert back.blas is None
        assert back.train_config == ckpt.train_config


class TestCorruption:
    def _saved(self, trained, tmp_path):
        _, ckpt = trained
        return save_checkpoint(ckpt, tmp_path / "m.ckpt"), ckpt

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not an archive")
        with pytest.raises(ValueError, match="not a checkpoint archive"):
            load_checkpoint(path)

    def test_zip_without_manifest(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("readme.txt", "hello")
        with pytest.raises(ValueError, match="no manifest"):
            load_checkpoint(path)

    def test_foreign_manifest_rejected(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("manifest.json", json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="not a checkpoint archive"):
            load_checkpoint(path)

    def test_future_version_rejected(self, trained, tmp_path):
        path, _ = self._saved(trained, tmp_path)
        with zipfile.ZipFile(path) as archive:
            manifest = json.loads(archive.read("manifest.json"))
            members = {n: archive.read(n) for n in archive.namelist()}
        manifest["version"] = 99
        members["manifest.json"] = json.dumps(manifest)
        out = tmp_path / "future.ckpt"
        with zipfile.ZipFile(out, "w") as archive:
            for name, blob in members.items():
                archive.writestr(name, blob)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(out)

    def test_missing_tensor_rejected(self, trained, tmp_path):
        path, ckpt = self._saved(trained, tmp_path)
        victim = sorted(ckpt.params)[0]
        out = tmp_path / "short.ckpt"
        with zipfile.ZipFile(path) as archive, \
                zipfile.ZipFile(out, "w") as copy:
            for name in archive.namelist():
                if name != f"params/{victim}.mat":
                    copy.writestr(name, archive.read(name))
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint(out)

    def test_bad_magic_names_tensor(self, trained, tmp_path):
        path, ckpt = self._saved(trained, tmp_path)
        victim = sorted(ckpt.params)[0]
        out = tmp_path / "garbled.ckpt"
        with zipfile.ZipFile(path) as archive, \
                zipfile.ZipFile(out, "w") as copy:
            for name in archive.namelist():
                blob = archive.read(name)
                if name == f"params/{victim}.mat":
                    blob = b"NOTFMT" + blob[6:]
                copy.writestr(name, blob)
        with pytest.raises(ValueError, match=f"bad magic in checkpoint tensor {victim}"):
            load_checkpoint(out)

    def test_shape_mismatch_rejected(self, trained, tmp_path):
        path, ckpt = self._saved(trained, tmp_path)
        victim = sorted(ckpt.params)[0]
        out = tmp_path / "reshaped.ckpt"
        with zipfile.ZipFile(path) as archive, \
                zipfile.ZipFile(out, "w") as copy:
            manifest = json.loads(archive.read("manifest.json"))
            manifest["tensors"][victim] = [1, 1, 7]
            for name in archive.namelist():
                if name == "manifest.json":
                    copy.writestr(name, json.dumps(manifest))
                else:
                    copy.writestr(name, archive.read(name))
        with pytest.raises(ValueError, match="does not match manifest"):
            load_checkpoint(out)
