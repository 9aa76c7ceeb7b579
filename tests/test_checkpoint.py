"""Checkpoint format: round trips, mapped loads, version 1 archives and
corruption handling."""

import json
import os
import struct
import subprocess
import sys
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from audioret import blas
from audioret import training as tr
from audioret.checkpoint import ALIGN, MAGIC, load_checkpoint, save_checkpoint
from audioret.evaluation import report_to_dict
from audioret.experts import encode_matrix
from audioret.models import build_model
from audioret.synthetic import make_synthetic_benchmark
from test_training import tiny_model, _train_cfg


def save_v1(ckpt, path):
    """Write `ckpt` as the version 1 writer did: a stored (uncompressed) zip
    of the JSON manifest and each tensor as a float32 store matrix."""
    manifest = {
        "format": "audioret-checkpoint",
        "version": 1,
        "architecture": ckpt.architecture,
        "experts": list(ckpt.model_config["experts"]),
        "model_config": ckpt.model_config,
        "train_config": asdict(ckpt.train_config),
        "seed": ckpt.train_config.seed,
        "selection_score": ckpt.selection_score,
        "best_step": ckpt.best_step,
        "history": [[step, report_to_dict(rep)] for step, rep in ckpt.history],
        "tensors": {name: list(arr.shape) for name, arr in ckpt.params.items()},
        "blas": ckpt.blas,
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        archive.writestr("manifest.json", json.dumps(manifest, indent=1,
                                                     sort_keys=True))
        for name, arr in sorted(ckpt.params.items()):
            rows = arr.shape[0] if arr.ndim > 1 else 1  # a vector is 1 x N
            archive.writestr(f"params/{name}.mat",
                             encode_matrix(np.reshape(arr, (rows, -1))))
    return path


def split_v2(path):
    """A version 2 file's manifest and the bytes from its first tensor on."""
    blob = Path(path).read_bytes()
    end = blob.index(b"\n", len(MAGIC)) + 1
    start = -(-end // ALIGN) * ALIGN
    return json.loads(blob[len(MAGIC):end]), blob[start:]


def write_v2(path, manifest, data):
    """A version 2 file of this manifest, with `data` from the first
    64-byte boundary after it."""
    header = MAGIC + json.dumps(manifest, sort_keys=True).encode() + b"\n"
    Path(path).write_bytes(header + bytes(-len(header) % ALIGN) + data)
    return path


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
        """A version 1 archive stores float32: it loads at that precision."""
        _, ckpt = trained
        back = load_checkpoint(save_v1(ckpt, tmp_path / "m.ckpt"))
        assert sorted(back.params) == sorted(ckpt.params)
        for name, arr in ckpt.params.items():
            assert back.params[name].shape == arr.shape
            np.testing.assert_array_equal(
                back.params[name], arr.astype("<f4").astype(np.float64))

    def test_members_are_store_matrices(self, trained, tmp_path):
        """Each tensor is a store matrix: a vector 1 x N, any other rank its
        leading axis by the rest, float32 little-endian (version 1)."""
        _, ckpt = trained
        path = save_v1(ckpt, tmp_path / "m.ckpt")
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
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_no_temp_file_left(self, trained, tmp_path):
        _, ckpt = trained
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    @pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
    def test_default_model_round_trips_bit_for_bit(self, arch, tmp_path):
        bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=4)
        model = build_model(arch, tuple(bench.expert_dims),
                            dict(bench.expert_dims), bench.word_table.dim,
                            np.random.default_rng(1))
        params = {k: p.data for k, p in model.named_parameters().items()}
        ckpt = tr.Checkpoint(arch, model.config_dict(), params,
                             _train_cfg(architecture=arch), [], 0.0, 0)
        back = load_checkpoint(save_checkpoint(ckpt, tmp_path / "m.ckpt"))
        assert sorted(back.params) == sorted(params)
        for name, arr in params.items():
            got = back.params[name]
            assert got.dtype == np.float64 and got.shape == arr.shape, name
            np.testing.assert_array_equal(got.view(np.uint64),
                                          arr.view(np.uint64), err_msg=name)

    def test_layout(self, trained, tmp_path):
        """A magic line, a one-line manifest, then each tensor's float64
        bytes at its offset from the first 64-byte boundary, in name order,
        the last one ending the file."""
        _, ckpt = trained
        path = save_checkpoint(ckpt, tmp_path / "m.ckpt")
        manifest, data = split_v2(path)
        assert manifest["version"] == 2
        assert path.read_bytes().startswith(b"audioret-checkpoint\n")
        ends = []
        for name in sorted(ckpt.params):
            offset, shape, _ = manifest["tensors"][name]
            arr = ckpt.params[name]
            assert offset % ALIGN == 0 and shape == list(arr.shape)
            assert data[offset:offset + arr.nbytes] == arr.astype("<f8").tobytes()
            assert offset >= (ends[-1] if ends else 0)
            ends.append(offset + arr.nbytes)
        assert ends[-1] == len(data)

    def test_loaded_tensors_are_aligned_read_only_views(self, trained, tmp_path):
        """Every tensor is a read-only view over the file's mapping, on a
        64-byte boundary, and the rebuilt model runs on that memory."""
        _, ckpt = trained
        back = load_checkpoint(save_checkpoint(ckpt, tmp_path / "m.ckpt"))
        model = back.rebuild()
        for name, param in model.named_parameters().items():
            arr = back.params[name]
            assert not arr.flags.writeable and not arr.flags.owndata, name
            assert arr.ctypes.data % ALIGN == 0, name
            assert np.shares_memory(param.data, arr), name
        with pytest.raises(ValueError, match="read-only"):
            next(iter(back.params.values()))[...] = 0.0

    def test_saving_over_a_mapped_file(self, trained, tmp_path):
        """Saving over the file a checkpoint was loaded from writes a new
        file: the loaded checkpoint keeps reading the old one's values."""
        _, ckpt = trained
        path = save_checkpoint(ckpt, tmp_path / "m.ckpt")
        first = load_checkpoint(path)
        inode = path.stat().st_ino
        save_checkpoint(first, path)
        assert path.stat().st_ino != inode
        again = load_checkpoint(path)
        for name, arr in first.params.items():
            np.testing.assert_array_equal(again.params[name].view(np.uint64),
                                          arr.view(np.uint64), err_msg=name)
        negated = tr.Checkpoint(ckpt.architecture, ckpt.model_config,
                                {k: -v for k, v in ckpt.params.items()},
                                ckpt.train_config, ckpt.history,
                                ckpt.selection_score, ckpt.best_step)
        save_checkpoint(negated, path)
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(first.params[name], arr, err_msg=name)
            np.testing.assert_array_equal(load_checkpoint(path).params[name], -arr)


# The peak resident set of the child's own memory: Linux's ru_maxrss also
# counts the memory of the process that started it (raised at exec).
_LOAD_RSS = """
import sys
from audioret.checkpoint import load_checkpoint

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))

before = peak_kb()
ckpt = load_checkpoint(sys.argv[1])
print(1024 * (peak_kb() - before))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set from /proc")
def test_load_copies_no_tensor(tmp_path):
    """Loading 64 MB of tensors raises the loading process's peak RSS by
    less than a quarter of that: the tensors stay in the page cache."""
    rows = 2048
    params = {name: np.arange(rows * rows, dtype=np.float64).reshape(rows, rows)
              + i for i, name in enumerate(("a.w", "b.w"))}
    tensor_bytes = sum(arr.nbytes for arr in params.values())
    assert tensor_bytes >= 64 << 20
    ckpt = tr.Checkpoint("ce", {"experts": ["ea"]}, params,
                         tr.TrainConfig(architecture="ce", steps=0), [], 0.0, 0)
    path = save_checkpoint(ckpt, tmp_path / "big.ckpt")
    del ckpt, params
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run([sys.executable, "-c", _LOAD_RSS, str(path)],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    rise = int(result.stdout)
    assert rise < tensor_bytes // 4, f"peak RSS rose {rise} bytes"


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
        path = save_v1(ckpt, tmp_path / "m.ckpt")
        with zipfile.ZipFile(path) as archive:
            kinds = {info.compress_type for info in archive.infolist()}
        assert kinds == {zipfile.ZIP_STORED}

    def test_deflated_archive_loads_bit_for_bit(self, trained, tmp_path):
        _, ckpt = trained
        path = save_v1(ckpt, tmp_path / "m.ckpt")
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
        path = save_v1(ckpt, tmp_path / "m.ckpt")
        old = self._rewrite(
            path, tmp_path / "old.ckpt", zipfile.ZIP_DEFLATED,
            edit=lambda m: m["train_config"].update(checkpoint_every=None))
        with zipfile.ZipFile(old) as archive:
            manifest = json.loads(archive.read("manifest.json"))
        assert manifest["train_config"]["checkpoint_every"] is None
        back = load_checkpoint(old)
        assert back.train_config == ckpt.train_config

    def test_manifest_with_log_path_loads(self, trained, tmp_path):
        """Files of either version written before train.log_path was
        retired hold it in their train config; they load without it."""
        _, ckpt = trained
        old_v1 = self._rewrite(
            save_v1(ckpt, tmp_path / "m.ckpt"), tmp_path / "old1.ckpt",
            zipfile.ZIP_STORED,
            edit=lambda m: m["train_config"].update(log_path="train.log"))
        manifest, data = split_v2(save_checkpoint(ckpt, tmp_path / "m2.ckpt"))
        assert "log_path" not in manifest["train_config"]
        manifest["train_config"]["log_path"] = None
        old_v2 = write_v2(tmp_path / "old2.ckpt", manifest, data)
        for path in (old_v1, old_v2):
            assert load_checkpoint(path).train_config == ckpt.train_config

    def test_manifest_without_blas_loads_with_none(self, trained, tmp_path):
        _, ckpt = trained
        path = save_v1(ckpt, tmp_path / "m.ckpt")
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
        return save_v1(ckpt, tmp_path / "m.ckpt"), ckpt

    def _saved_v2(self, trained, tmp_path):
        """A saved file's manifest, tensor bytes and largest tensor's name."""
        _, ckpt = trained
        manifest, data = split_v2(save_checkpoint(ckpt, tmp_path / "m.ckpt"))
        return manifest, data, max(ckpt.params, key=lambda n: ckpt.params[n].size)

    def test_v2_bad_manifest(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(MAGIC + b"\xff not json\n" + bytes(64))
        with pytest.raises(ValueError, match="bad manifest"):
            load_checkpoint(path)

    def test_v2_foreign_manifest_rejected(self, tmp_path):
        path = write_v2(tmp_path / "foreign.ckpt", {"format": "other"}, b"")
        with pytest.raises(ValueError, match="not a checkpoint archive"):
            load_checkpoint(path)

    def test_v2_future_version_rejected(self, trained, tmp_path):
        manifest, data, _ = self._saved_v2(trained, tmp_path)
        manifest["version"] = 99
        with pytest.raises(ValueError, match="unsupported checkpoint version 99"):
            load_checkpoint(write_v2(tmp_path / "future.ckpt", manifest, data))

    def test_v2_version_1_manifest_rejected(self, trained, tmp_path):
        """Version 1 is a zip archive: its number in a version 2 file is
        an error, not a reason to read float32."""
        manifest, data, _ = self._saved_v2(trained, tmp_path)
        manifest["version"] = 1
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(write_v2(tmp_path / "old.ckpt", manifest, data))

    def test_v2_crc_mismatch_names_tensor(self, trained, tmp_path):
        manifest, data, _ = self._saved_v2(trained, tmp_path)
        victim = sorted(manifest["tensors"])[1]
        offset = manifest["tensors"][victim][0]
        garbled = bytearray(data)
        garbled[offset + 3] ^= 0x10
        out = write_v2(tmp_path / "garbled.ckpt", manifest, bytes(garbled))
        with pytest.raises(ValueError,
                           match=f"CRC mismatch in checkpoint tensor {victim}$"):
            load_checkpoint(out)

    def test_v2_truncated_tensor_rejected(self, trained, tmp_path):
        manifest, data, _ = self._saved_v2(trained, tmp_path)
        victim = sorted(manifest["tensors"])[-1]
        offset = manifest["tensors"][victim][0]
        out = write_v2(tmp_path / "cut.ckpt", manifest, data[:offset + 8])
        with pytest.raises(ValueError,
                           match=f"truncated checkpoint tensor {victim}$"):
            load_checkpoint(out)

    def test_v2_missing_tensor_rejected(self, trained, tmp_path):
        """A file cut before a tensor's first byte has lost that tensor."""
        manifest, data, _ = self._saved_v2(trained, tmp_path)
        victim = sorted(manifest["tensors"])[-1]
        offset = manifest["tensors"][victim][0]
        out = write_v2(tmp_path / "short.ckpt", manifest, data[:offset])
        with pytest.raises(ValueError, match=f"checkpoint tensor missing: {victim}$"):
            load_checkpoint(out)

    @pytest.mark.parametrize("edit", ["shape", "trailing", "offset"])
    def test_v2_shape_mismatch_rejected(self, trained, tmp_path, edit):
        """Shapes fix the layout: a shape, a tensor's offset or the file's
        end that disagrees with it is an error."""
        manifest, data, victim = self._saved_v2(trained, tmp_path)
        if edit == "shape":
            manifest["tensors"][victim][1] = [1, 1, 7]
        elif edit == "trailing":
            data += bytes(ALIGN)
        else:
            manifest["tensors"][victim][0] += ALIGN
        out = write_v2(tmp_path / "reshaped.ckpt", manifest, data)
        with pytest.raises(ValueError, match="does not match manifest shape"):
            load_checkpoint(out)

    def test_v2_negative_dimension_rejected(self, trained, tmp_path):
        manifest, data, victim = self._saved_v2(trained, tmp_path)
        manifest["tensors"][victim][1] = [-1]
        out = write_v2(tmp_path / "negative.ckpt", manifest, data)
        with pytest.raises(ValueError, match="does not match manifest shape"):
            load_checkpoint(out)

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
