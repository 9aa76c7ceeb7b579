"""Checkpoint format: round trips, mapped loads, older files and
corruption handling."""

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from audioret import blas
from audioret import training as tr
from audioret.checkpoint import ALIGN, MAGIC, load_checkpoint, save_checkpoint
from audioret.cli import main as cli_main
from audioret.models import build_model
from audioret.synthetic import make_synthetic_benchmark
from test_training import tiny_model, _train_cfg


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
    def test_manifest_with_log_path_loads(self, trained, tmp_path):
        """Files written before train.log_path was retired hold it in their
        train config; they load without it."""
        _, ckpt = trained
        manifest, data = split_v2(save_checkpoint(ckpt, tmp_path / "m.ckpt"))
        assert "log_path" not in manifest["train_config"]
        manifest["train_config"]["log_path"] = None
        old = write_v2(tmp_path / "old.ckpt", manifest, data)
        assert load_checkpoint(old).train_config == ckpt.train_config

    def test_manifest_with_retired_training_knobs_loads(self, trained,
                                                        tmp_path):
        """Files written while the learning-rate decay and Lookahead's k and
        alpha were train config keys hold them; they load without them."""
        _, ckpt = trained
        manifest, data = split_v2(save_checkpoint(ckpt, tmp_path / "m.ckpt"))
        manifest["train_config"].update(lr_decay=0.95, lookahead_k=5,
                                        lookahead_alpha=0.5)
        old = write_v2(tmp_path / "old.ckpt", manifest, data)
        assert load_checkpoint(old).train_config == ckpt.train_config

    def test_manifest_without_blas_loads_with_none(self, trained, tmp_path):
        _, ckpt = trained
        manifest, data = split_v2(save_checkpoint(ckpt, tmp_path / "m.ckpt"))
        del manifest["blas"]
        back = load_checkpoint(write_v2(tmp_path / "old.ckpt", manifest, data))
        assert back.blas is None
        assert back.train_config == ckpt.train_config

    def test_version_1_zip_rejected(self, trained, tmp_path, capsys):
        """A version 1 file, a zip of its manifest and float32 tensors, is
        refused by its zip signature; the command line exits 1."""
        manifest, _ = split_v2(save_checkpoint(trained[1], tmp_path / "m.ckpt"))
        manifest["version"] = 1
        path = tmp_path / "old.ckpt"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("manifest.json", json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)
        assert cli_main(["search", "rain", "--checkpoint", str(path),
                         "--dataset", "synthetic"]) == 1
        assert "error: unsupported checkpoint version 1" in capsys.readouterr().err


class TestCorruption:
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

    def test_unrecognised_bytes_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not an archive")
        with pytest.raises(ValueError, match="not a checkpoint archive"):
            load_checkpoint(path)
