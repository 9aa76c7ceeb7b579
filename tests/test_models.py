"""Architecture behavior: blocks, scores, oracles, and invariances."""

import time
import warnings

import numpy as np
import pytest

from audioret import autodiff as ad
from audioret import blas
from audioret import models as md
from audioret.experts import AudioClip, TextEmbedding
from audioret.models import similarity
from audioret.models.blocks import stream_rows
from audioret.training import ranking_loss
from helpers import (check_gradients, needs_openblas, ref_ce_score,
                     ref_gated_unit, ref_mmt_encode, ref_mmt_score,
                     ref_moee_score, ref_netvlad)


def _rig_unit(unit, target: np.ndarray) -> None:
    """Force a gated unit to output target/|target| for any input."""
    unit.w1.data[:] = 0.0
    unit.b1.data[:] = target
    unit.w2.data[:] = 0.0
    unit.b2.data[:] = 0.0


def _moee(rng, experts=("p", "q"), word_dim=3, joint=3, dims=None, **kw):
    dims = dims or {e: 3 for e in experts}
    cfg = md.MoeeConfig(experts, dims, word_dim=word_dim, text_clusters=2,
                        text_ghost=1, audio_clusters=2, audio_ghost=0,
                        joint_dim=joint, **kw)
    return md.MoeeModel(cfg, rng)


def _ce(rng, experts=("p", "q"), word_dim=3, joint=3, dims=None, gate_width=5):
    dims = dims or {e: 3 for e in experts}
    cfg = md.CeConfig(experts, dims, word_dim=word_dim, text_clusters=2,
                      text_ghost=1, audio_clusters=2, audio_ghost=0,
                      joint_dim=joint, gate_width=gate_width)
    return md.CeModel(cfg, rng)


def _mmt(rng, experts=("p", "q"), layers=1, dims=None, text_dim=5, **kw):
    dims = dims or {"p": 4, "q": 3}
    cfg = md.MmtConfig(tuple(experts), dims, text_dim=text_dim, model_dim=8,
                       layers=layers, heads=2, ff_dim=10, max_frames=8, **kw)
    return md.MmtModel(cfg, rng)


def _text(rng, n_tokens=3, dim=3, caption_id="c"):
    return TextEmbedding(caption_id, rng.standard_normal((n_tokens, dim)),
                         np.ones(n_tokens, dtype=bool))


class TestNetVlad:
    def test_permutation_bit_identical(self):
        rng = np.random.default_rng(0)
        block = md.NetVlad(4, 3, 1, rng)
        frames = rng.standard_normal((7, 4))
        base = block([frames]).data
        for _ in range(5):
            perm = rng.permutation(7)
            np.testing.assert_array_equal(block([frames[perm]]).data, base)

    def test_padding_bit_identical(self):
        rng = np.random.default_rng(1)
        block = md.NetVlad(4, 3, 1, rng)
        frames = rng.standard_normal((5, 4))
        base = block([frames]).data
        padded = np.vstack([frames, rng.standard_normal((3, 4)) * 100])
        mask = np.array([True] * 5 + [False] * 3)
        np.testing.assert_array_equal(block([stream_rows((padded, mask))]).data,
                                      base)

    def test_output_dim_text_config(self):
        rng = np.random.default_rng(2)
        word_dim = 6
        block = md.NetVlad(word_dim, 20, 1, rng)
        out = block([rng.standard_normal((9, word_dim))])
        assert out.shape == (1, 20 * word_dim)

    def test_zero_residual_passes_through_guard(self):
        """A single frame sitting exactly on the only center yields zero."""
        rng = np.random.default_rng(3)
        block = md.NetVlad(4, 1, 0, rng)
        frame = block.centers.data[0].copy()
        out = block([frame[None, :]]).data
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_all_masked_errors(self):
        block = md.NetVlad(4, 2, 0, np.random.default_rng(4))
        with pytest.raises(ValueError, match="masked"):
            block([stream_rows((np.zeros((3, 4)), np.zeros(3, dtype=bool)))])

    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            block = md.NetVlad(3, 2, 1, rng)
            frames = rng.standard_normal((6, 3))
            expected = ref_netvlad(frames, block.centers.data, block.assign_w.data,
                                   block.assign_b.data, block.clusters)
            np.testing.assert_allclose(block([frames]).data[0], expected,
                                       atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        block = md.NetVlad(3, 2, 1, rng)
        frames = rng.standard_normal((5, 3))
        probe = rng.standard_normal(block.output_dim)

        def build():
            return ad.dot(block([frames]), probe)

        check_gradients(build, block.named_parameters())


class TestGatedUnit:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            unit = md.GatedUnit(6, 4, rng)
            out = unit(rng.standard_normal(6)).data
            assert abs(np.linalg.norm(out) - 1.0) < 1e-6

    def test_constant_gate_preserves_direction(self):
        rng = np.random.default_rng(1)
        unit = md.GatedUnit(5, 4, rng)
        unit.w2.data[:] = 0.0
        unit.b2.data[:] = 0.0
        x = rng.standard_normal(5)
        y1 = unit.w1.data @ x + unit.b1.data
        out = unit(x).data
        np.testing.assert_allclose(out, y1 / np.linalg.norm(y1), atol=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(2)
        unit = md.GatedUnit(6, 4, rng)
        x = rng.standard_normal(6)
        expected = ref_gated_unit(x, unit.w1.data, unit.b1.data,
                                  unit.w2.data, unit.b2.data)
        np.testing.assert_allclose(unit(x).data, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        unit = md.GatedUnit(5, 4, rng)
        x = rng.standard_normal(5)
        probe = rng.standard_normal(4)

        def build():
            return ad.dot(unit(x), probe)

        check_gradients(build, unit.named_parameters())


def _clip(rng, experts=("p", "q"), frames=4, dims=None):
    dims = dims or {e: 3 for e in experts}
    return AudioClip("a0", {e: rng.standard_normal((frames, dims[e]))
                            for e in experts})


class TestMoee:
    def test_identical_vectors_score_one(self):
        rng = np.random.default_rng(0)
        model = _moee(rng, experts=("p",))
        target = np.array([1.0, 0.0, 0.0])
        _rig_unit(model.text_units["p"], target)
        _rig_unit(model.audio_units["p"], target)
        score = md.batch_scores(model, [_text(rng)], [_clip(rng, ("p",))])[0, 0]
        assert abs(score.item() - 1.0) < 1e-12

    def test_convex_combination_half(self):
        rng = np.random.default_rng(1)
        model = _moee(rng)
        model.weight_head.w.data[:] = 0.0
        model.weight_head.b.data[:] = 0.0
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        _rig_unit(model.text_units["p"], e1)
        _rig_unit(model.audio_units["p"], e1)  # cosine 1
        _rig_unit(model.text_units["q"], e1)
        _rig_unit(model.audio_units["q"], e2)  # cosine 0
        score = md.batch_scores(model, [_text(rng)], [_clip(rng)])[0, 0]
        assert abs(score.item() - 0.5) < 1e-12

    def test_compositional_oracle(self):
        """Forward score equals an independent numpy recomposition."""
        rng = np.random.default_rng(2)
        for _ in range(50):
            model = _moee(rng)
            text = _text(rng)
            clip = _clip(rng)
            got = md.batch_scores(model, [text], [clip])[0, 0].item()
            want = ref_moee_score(model, text.token_matrix, text.mask, clip.streams)
            assert abs(got - want) < 1e-6

    def test_missing_expert_renormalizes(self):
        rng = np.random.default_rng(3)
        model = _moee(rng)
        text = _text(rng)
        only_p = {"p": _clip(rng).streams["p"]}
        clip = AudioClip("a0", only_p)
        score = md.batch_scores(model, [text], [clip])[0, 0].item()
        want = ref_moee_score(model, text.token_matrix, text.mask, only_p)
        assert abs(score - want) < 1e-6

    def test_weights_convex(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            model = _moee(rng)
            side = model.encode_text([TextEmbedding(
                "c", rng.standard_normal((4, 3)), np.ones(4, dtype=bool))])
            w = side.weights.data
            assert (w >= 0).all() and abs(w.sum() - 1.0) < 1e-6

    def test_no_experts_errors(self):
        model = _moee(np.random.default_rng(5))
        with pytest.raises(ValueError, match="no experts"):
            model.encode_audio([{}])

    def test_unknown_expert_rejected(self):
        rng = np.random.default_rng(6)
        model = _moee(rng)
        with pytest.raises(KeyError, match="unconfigured"):
            model.encode_audio([{"zz": np.zeros((2, 3))}])

    @pytest.mark.parametrize("seed", range(3))
    def test_score_gradients(self, seed):
        rng = np.random.default_rng(seed)
        model = _moee(rng)
        text = _text(rng)
        clip = _clip(rng)

        def build():
            return md.batch_scores(model, [text], [clip])[0, 0]

        check_gradients(build, model.named_parameters())


class TestCe:
    def test_gate_ignores_key_order(self):
        """The gate reads its vectors in configured-expert order, whatever
        the order of the dict's keys."""
        rng = np.random.default_rng(2)
        experts = ("p", "q", "r")
        model = _ce(rng, experts=experts)
        present = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=bool)
        vectors = {e: rng.standard_normal((int(present[:, i].sum()),
                                           model.audio_vlad[e].output_dim))
                   for i, e in enumerate(experts)}
        want = model.collaborative_gate(vectors, present)
        got = model.collaborative_gate(dict(reversed(vectors.items())), present)
        for e in experts:
            np.testing.assert_array_equal(got[e].data, want[e].data)

    def test_mask_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        model = _ce(rng)
        pooled = {e: ad.Tensor(rng.standard_normal(model.audio_vlad[e].output_dim))
                  for e in ("p", "q")}
        gated = model.collaborative_gate(
            {e: v.data[None] for e, v in pooled.items()}, np.ones((1, 2), dtype=bool))
        for e, v in pooled.items():
            ratio = gated[e].data / v.data
            assert ((ratio > 0) & (ratio < 1)).all()

    def test_single_expert_self_pair_formula(self):
        rng = np.random.default_rng(1)
        model = _ce(rng, experts=("p",))
        v = rng.standard_normal(model.audio_vlad["p"].output_dim)
        got = model.collaborative_gate({"p": ad.Tensor(v[None])},
                                       np.ones((1, 1), dtype=bool))["p"].data[0]
        proj = model.gate_in["p"].w.data @ v + model.gate_in["p"].b.data
        h = np.maximum(model.pair_fc1.w.data @ np.concatenate([proj, proj])
                       + model.pair_fc1.b.data, 0.0)
        msg = model.pair_fc2.w.data @ h + model.pair_fc2.b.data
        gate = 1.0 / (1.0 + np.exp(-(model.gate_out["p"].w.data @ msg
                                     + model.gate_out["p"].b.data)))
        np.testing.assert_allclose(got, v * gate, atol=1e-12)

    def test_saturated_gate_reduces_to_moee(self):
        """Driving every mask to 1 recovers the ungated mixture score."""
        rng = np.random.default_rng(2)
        model = _ce(rng)
        for e in model.cfg.experts:
            model.gate_out[e].w.data[:] = 0.0
            model.gate_out[e].b.data[:] = 50.0
        text = _text(rng)
        clip = _clip(rng)
        got = md.batch_scores(model, [text], [clip])[0, 0].item()
        want = ref_moee_score(model, text.token_matrix, text.mask, clip.streams)
        assert abs(got - want) < 1e-4

    def test_compositional_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            model = _ce(rng)
            text = _text(rng)
            clip = _clip(rng)
            got = md.batch_scores(model, [text], [clip])[0, 0].item()
            want = ref_ce_score(model, text.token_matrix, text.mask, clip.streams)
            assert abs(got - want) < 1e-6

    def test_identical_vectors_single_expert(self):
        rng = np.random.default_rng(4)
        model = _ce(rng, experts=("p",))
        target = np.eye(3)[0]
        _rig_unit(model.text_units["p"], target)
        _rig_unit(model.audio_units["p"], target)
        score = md.batch_scores(model, [_text(rng)], [_clip(rng, ("p",))])[0, 0]
        assert abs(score.item() - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_gate_gradients(self, seed):
        rng = np.random.default_rng(seed)
        model = _ce(rng)
        text = _text(rng)
        clip = _clip(rng)

        def build():
            return md.batch_scores(model, [text], [clip])[0, 0]

        check_gradients(build, model.named_parameters())


class TestMmt:
    def test_padded_frames_cannot_leak(self):
        """Garbage in masked rows never reaches the outputs (bitwise)."""
        rng = np.random.default_rng(0)
        model = _mmt(rng, layers=2)
        clean = {"p": rng.standard_normal((4, 4)), "q": rng.standard_normal((3, 3))}
        mask_p = np.array([True, True, False, False])
        base = model.encode_audio(
            [{"p": (clean["p"], mask_p), "q": clean["q"]}]).vectors.data.copy()
        dirty = clean["p"].copy()
        dirty[2:] = 1e6
        redo = model.encode_audio([{"p": (dirty, mask_p), "q": clean["q"]}])
        np.testing.assert_array_equal(redo.vectors.data, base)

    def test_zero_layers_returns_agg_embeddings(self):
        rng = np.random.default_rng(1)
        model = _mmt(rng, layers=0)
        out = model.encode_audio([{"p": rng.standard_normal((3, 4))}])
        np.testing.assert_array_equal(out.vectors.data[0, 0], model.agg["p"].data)

    def test_convex_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = _mmt(rng)
            side = model.encode_text([TextEmbedding(
                "c", rng.standard_normal((4, 5)), np.ones(4, dtype=bool))])
            w = side.weights.data
            assert (w >= 0).all() and abs(w.sum() - 1.0) < 1e-6

    def test_forced_identical_embeddings_score_one(self):
        rng = np.random.default_rng(4)
        model = _mmt(rng, experts=("p",), dims={"p": 4})
        streams = {"p": rng.standard_normal((3, 4))}
        audio_vec = model.encode_audio([streams]).vectors.data[0, 0]
        _rig_unit(model.text_units["p"], audio_vec)
        text = TextEmbedding("c", rng.standard_normal((2, 5)),
                             np.ones(2, dtype=bool))
        score = md.batch_scores(model, [text], [AudioClip("a0", streams)])[0, 0]
        assert abs(score.item() - 1.0) < 1e-12

    def test_compositional_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = _mmt(rng, layers=2)
            text = TextEmbedding("c", rng.standard_normal((3, 5)),
                                 np.ones(3, dtype=bool))
            streams = {"p": rng.standard_normal((3, 4)),
                       "q": rng.standard_normal((2, 3))}
            clip = AudioClip("a0", streams)
            got = md.batch_scores(model, [text], [clip])[0, 0].item()
            want = ref_mmt_score(model, text.token_matrix, text.mask, streams)
            assert abs(got - want) < 1e-5

    def test_overlong_stream_rejected(self):
        rng = np.random.default_rng(6)
        model = _mmt(rng)
        with pytest.raises(ValueError, match="position table"):
            model.encode_audio([{"p": rng.standard_normal((20, 4))}])

    @pytest.mark.parametrize("seed", range(2))
    def test_score_gradients(self, seed):
        rng = np.random.default_rng(seed)
        model = _mmt(rng, layers=1)
        text = TextEmbedding("c", rng.standard_normal((3, 5)),
                             np.ones(3, dtype=bool))
        streams = {"p": rng.standard_normal((3, 4)),
                   "q": rng.standard_normal((2, 3))}

        def build():
            return md.batch_scores(model, [text], [AudioClip("a0", streams)])[0, 0]

        check_gradients(build, model.named_parameters())


class TestSimilarityMatrix:
    def _batch(self, rng, model_kind="moee", n_text=4, n_audio=4):
        model = _moee(rng) if model_kind == "moee" else _ce(rng)
        texts = [_text(rng, caption_id=f"c{i}") for i in range(n_text)]
        clips = [AudioClip(f"a{j}", _clip(rng).streams) for j in range(n_audio)]
        return model, texts, clips

    def test_entries_bounded(self):
        rng = np.random.default_rng(0)
        model, texts, clips = self._batch(rng)
        sim = md.similarity_matrix(model, texts, clips)
        assert (sim.values >= -1.0).all() and (sim.values <= 1.0).all()

    def test_singleton_matches_scalar_op(self):
        rng = np.random.default_rng(1)
        model, texts, clips = self._batch(rng, n_text=1, n_audio=1)
        sim = md.similarity_matrix(model, texts, clips)
        scalar = md.batch_scores(model, [texts[0]], [clips[0]])[0, 0].item()
        assert sim.values[0, 0] == scalar

    def test_matches_looped_pair_scoring(self):
        rng = np.random.default_rng(2)
        model, texts, clips = self._batch(rng)
        sim = md.similarity_matrix(model, texts, clips)
        for i, text in enumerate(texts):
            for j, clip in enumerate(clips):
                one = md.batch_scores(model, [text], [clip])[0, 0].item()
                assert abs(sim.values[i, j] - one) < 1e-6

    def test_column_shuffle_permutes_columns_exactly(self):
        """Reordering the audio batch only permutes columns, bitwise."""
        rng = np.random.default_rng(3)
        model, texts, clips = self._batch(rng, n_audio=5)
        sim = md.similarity_matrix(model, texts, clips)
        perm = rng.permutation(5)
        shuffled = md.similarity_matrix(model, texts, [clips[p] for p in perm])
        np.testing.assert_array_equal(shuffled.values, sim.values[:, perm])

    def test_mixed_presence_columns(self):
        rng = np.random.default_rng(4)
        model, texts, clips = self._batch(rng)
        clips[1] = AudioClip("a1", {"p": clips[1].streams["p"]})
        sim = md.similarity_matrix(model, texts, clips)
        assert np.isfinite(sim.values).all()
        one = md.batch_scores(model, [texts[0]], [clips[1]])[0, 0].item()
        assert abs(sim.values[0, 1] - one) < 1e-12

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(5)
        model, texts, clips = self._batch(rng)
        with pytest.raises(ValueError, match="empty batch"):
            md.similarity_matrix(model, [], clips)

    def test_transposed_swaps_ids(self):
        rng = np.random.default_rng(6)
        model, texts, clips = self._batch(rng, n_text=2, n_audio=3)
        sim = md.similarity_matrix(model, texts, clips)
        t = sim.transposed()
        assert t.row_ids == sim.col_ids and t.col_ids == sim.row_ids
        np.testing.assert_array_equal(t.values, sim.values.T)


# -- randomized batched-vs-reference property --------------------------

_REFS = {"moee": ref_moee_score, "ce": ref_ce_score, "mmt": ref_mmt_score}


def _random_model(arch, rng):
    experts = ("p", "q", "r")
    dims = {"p": 4, "q": 3, "r": 5}
    if arch == "mmt":
        cfg = md.MmtConfig(experts, dims, text_dim=5, model_dim=8, layers=2,
                           heads=2, ff_dim=10, max_frames=12)
        return md.MmtModel(cfg, rng), 5
    kw = dict(word_dim=4, text_clusters=3, text_ghost=1, audio_clusters=2,
              audio_ghost=1, joint_dim=5)
    if arch == "ce":
        return md.CeModel(md.CeConfig(experts, dims, gate_width=4, **kw), rng), 4
    return md.MoeeModel(md.MoeeConfig(experts, dims, **kw), rng), 4


def _random_caption(rng, dim, caption_id, max_tokens, oov=False):
    n = int(rng.integers(1, max_tokens + 1))
    mask = np.zeros(n, dtype=bool) if oov else rng.random(n) > 0.3
    tokens = rng.standard_normal((n, dim)) * mask[:, None]
    return TextEmbedding(caption_id, tokens, mask)


def _random_clip(rng, model, sample_id, max_frames):
    experts = model.cfg.experts
    present = [e for e in experts if rng.random() < 0.7]
    if not present:
        present = [experts[int(rng.integers(len(experts)))]]
    return AudioClip(sample_id, {
        e: rng.standard_normal((int(rng.integers(1, max_frames + 1)),
                                model.cfg.expert_dims[e]))
        for e in present})


def _refs(model, arch, texts, clips):
    ref = _REFS[arch]
    return np.array([[ref(model, t.token_matrix, t.mask, c.streams)
                      for c in clips] for t in texts])


@pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
@pytest.mark.parametrize("seed", range(4))
def test_batched_scores_match_reference_and_ignore_batchmates(arch, seed):
    """Every entry equals the plain-numpy reference, and a caption's row and
    a clip's column are bitwise unchanged when their batchmates change, the
    padded lengths with them."""
    rng = np.random.default_rng(900 + seed)
    model, dim = _random_model(arch, rng)
    b = int(rng.integers(2, 10))
    texts = [_random_caption(rng, dim, f"c{i}", 6, oov=(i == 0))
             for i in range(b)]
    texts = [texts[i] for i in rng.permutation(b)]
    clips = [_random_clip(rng, model, f"a{j}", 6) for j in range(b)]
    sim = md.similarity_matrix(model, texts, clips)
    want = np.clip(_refs(model, arch, texts, clips), -1.0, 1.0)
    np.testing.assert_allclose(sim.values, want, rtol=0, atol=1e-9)

    # new batchmates, longer than any item of the first batch, in new order
    keep = rng.choice(b, size=int(rng.integers(1, b)), replace=False)
    n_new = int(rng.integers(max(1, 2 - keep.size), 4))
    fresh_clips = [_random_clip(rng, model, f"n{j}", 10) for j in range(n_new)]
    fresh_texts = [_random_caption(rng, dim, f"m{i}", 10) for i in range(n_new)]
    clips2 = [clips[k] for k in keep] + fresh_clips
    texts2 = [texts[k] for k in keep] + fresh_texts
    order = rng.permutation(len(clips2))
    clips2 = [clips2[k] for k in order]
    texts2 = [texts2[k] for k in order]

    cols = md.similarity_matrix(model, texts, clips2).values
    rows = md.similarity_matrix(model, texts2, clips).values
    for pos, k in enumerate(order):
        if k < keep.size:
            np.testing.assert_array_equal(cols[:, pos], sim.values[:, keep[k]])
            np.testing.assert_array_equal(rows[pos], sim.values[keep[k]])


@pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
def test_only_single_item_batches_run_rowwise(arch, monkeypatch):
    """A batch of one caption goes row by row and agrees with its row of a
    larger batch to rounding; a larger batch never goes row by row."""
    rng = np.random.default_rng(950)
    model, dim = _random_model(arch, rng)
    texts = [_random_caption(rng, dim, f"c{i}", 6) for i in range(3)]
    clips = [_random_clip(rng, model, f"a{j}", 6) for j in range(3)]
    modes = []
    stacked_matmul = ad.stacked_matmul

    def spy(x, w, *rest):
        modes.append(ad._ROW_MODE.get())
        return stacked_matmul(x, w, *rest)

    monkeypatch.setattr(ad, "stacked_matmul", spy)
    sim = md.similarity_matrix(model, texts, clips)
    assert modes and not any(modes)
    modes.clear()
    one = md.similarity_matrix(model, texts[:1], clips)
    assert any(modes)
    np.testing.assert_allclose(one.values[0], sim.values[0], rtol=0, atol=1e-12)


@needs_openblas
@pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
def test_pool_and_caller_loop_give_the_same_bits(arch, two_threads,
                                                 thread_starts, monkeypatch):
    """Chunks encoded on the thread pool and in the caller give bitwise the
    same clip encoding and matrix: 65 captions in four chunks on the pool
    and three in the caller, and 6 clips that the pool splits in two and
    the caller does not."""
    rng = np.random.default_rng(970)
    model, dim = _random_model(arch, rng)
    texts = [_random_caption(rng, dim, f"c{i}", 6) for i in range(65)]
    clips = [_random_clip(rng, model, f"a{j}", 6) for j in range(6)]
    runs = []
    for cutoff in (0, 1 << 62):
        monkeypatch.setattr(blas, "POOL_MIN_WEIGHTS", cutoff)
        thread_starts.clear()
        runs.append((md.encode_clips(model, clips).vectors.data,
                     md.similarity_matrix(model, texts, clips).values))
        assert bool(thread_starts) == (cutoff == 0)
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])


def test_chunks_are_near_equal_and_never_single():
    for count in range(1, 200):
        for least in (1, 2, 3):
            sizes = [p.stop - p.start for p in similarity._chunks(count, least)]
            assert sum(sizes) == count and max(sizes) <= similarity.ENCODE_CHUNK
            assert max(sizes) - min(sizes) <= 1
            assert count == 1 or 1 not in sizes
            assert len(sizes) >= min(least, count // 2)
            # every worker gets as many chunks, where two items a chunk allow
            balanced = -(-len(sizes) // least) * least
            assert len(sizes) % least == 0 or balanced > count // 2


@needs_openblas
def test_synthetic_size_matrix_starts_no_thread(two_threads, thread_starts):
    """A model of synthetic_fit's size stays below the pool cut-off, so its
    validation runs in the caller even with two chunks a side."""
    rng = np.random.default_rng(971)
    model = md.build_model("ce", ("p", "q"), {"p": 12, "q": 8}, 10, rng,
                           dict(text_clusters=8, text_ghost=1, audio_clusters=8,
                                audio_ghost=0, joint_dim=64))
    texts = [_random_caption(rng, 10, f"c{i}", 6) for i in range(64)]
    clips = [_random_clip(rng, model, f"a{j}", 6) for j in range(64)]
    md.similarity_matrix(model, texts, clips)
    assert thread_starts == []


@needs_openblas
def test_failing_worker_restores_blas_and_grad_mode(two_threads, monkeypatch):
    """An encoder that raises inside a worker fails the matrix only after
    every chunk has finished, with the BLAS thread count and grad mode
    restored."""
    rng = np.random.default_rng(972)
    model, dim = _random_model("ce", rng)
    texts = [_random_caption(rng, dim, f"c{i}", 6)
             for i in range(3 * similarity.ENCODE_CHUNK)]
    clips = [_random_clip(rng, model, f"a{j}", 6) for j in range(40)]
    monkeypatch.setattr(blas, "POOL_MIN_WEIGHTS", 0)
    starts = [f"c{p.start}" for p in similarity._chunks(len(texts), 2)]
    assert len(starts) == 4
    encode_text, finished = model.encode_text, []

    def flaky(captions):
        if captions[0].caption_id == starts[1]:
            raise RuntimeError("encoder failed")
        time.sleep(0.05)
        finished.append(captions[0].caption_id)
        return encode_text(captions)

    monkeypatch.setattr(model, "encode_text", flaky)
    with pytest.raises(RuntimeError, match="encoder failed"):
        md.similarity_matrix(model, texts, clips)
    assert sorted(finished) == sorted(starts[:1] + starts[2:])
    assert blas.describe()["threads"] == 2
    assert ad._GRAD_MODE.get()


@needs_openblas
@pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
def test_query_branches_on_a_worker_match_a_one_caption_matrix(arch,
                                                                two_threads,
                                                                monkeypatch):
    """A query's expert branches give the same bits handed to the pool as
    in the caller, and both are the caption's row of a one-caption matrix,
    an all-OOV caption included."""
    rng = np.random.default_rng(973)
    model, dim = _random_model(arch, rng)
    texts = [_random_caption(rng, dim, f"c{i}", 6, oov=i == 0) for i in range(4)]
    clips = [_random_clip(rng, model, f"a{j}", 6) for j in range(40)]
    pool = md.encode_clips(model, clips)
    for text in texts:
        want = md.similarity_matrix(model, [text], clips).values[0]
        for cutoff in (0, 1 << 62):
            monkeypatch.setattr(blas, "POOL_MIN_WEIGHTS", cutoff)
            np.testing.assert_array_equal(
                similarity.query_scores(model, text, pool), want)


@needs_openblas
def test_failing_branch_fails_the_query_after_the_others(two_threads,
                                                         monkeypatch):
    """A branch that raises on the worker fails the query only once the
    caller's and the other worker branch have finished, with the BLAS
    thread count, grad mode and row mode restored."""
    rng = np.random.default_rng(974)
    model, dim = _random_model("ce", rng)
    clips = [_random_clip(rng, model, f"a{j}", 6) for j in range(8)]
    pool = md.encode_clips(model, clips)
    monkeypatch.setattr(blas, "POOL_MIN_WEIGHTS", 0)
    finished = []

    def slow(expert):
        unit = model.text_units[expert]

        def run(x):
            time.sleep(0.05)
            finished.append(expert)
            return unit(x)
        run.w1 = unit.w1  # query_scores sizes its fan-out by it
        return run

    def broken(x):
        raise RuntimeError("branch failed")

    broken.w1 = model.text_units["q"].w1
    monkeypatch.setitem(model.text_units, "p", slow("p"))
    monkeypatch.setitem(model.text_units, "q", broken)
    monkeypatch.setitem(model.text_units, "r", slow("r"))
    with pytest.raises(RuntimeError, match="branch failed"):
        similarity.query_scores(model, _random_caption(rng, dim, "c", 6), pool)
    assert sorted(finished) == ["p", "r"]
    assert blas.describe()["threads"] == 2
    assert ad._GRAD_MODE.get() and not ad._ROW_MODE.get()


def test_encode_clips_rejects_an_empty_pool():
    model, _ = _random_model("moee", np.random.default_rng(975))
    with pytest.raises(ValueError, match="empty batch"):
        md.encode_clips(model, [])


@pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
def test_float32_streams_encode_bitwise_like_their_float64_upcast(arch):
    """Streams kept float32 at rest are upcast once per batch, so they
    encode bitwise like their float64 upcast, as a batch, alone (row by
    row) and as masked pairs; NetVLAD's models also under any frame
    permutation (MMT's frames carry positions)."""
    rng = np.random.default_rng(990)
    model, _ = _random_model(arch, rng)
    low = [{e: m.astype(np.float32) for e, m in
            _random_clip(rng, model, f"a{j}", 9).streams.items()}
           for j in range(6)]
    high = [{e: m.astype(np.float64) for e, m in s.items()} for s in low]
    for batch in (slice(None), slice(0, 1)):
        np.testing.assert_array_equal(model.encode_audio(low[batch]).vectors.data,
                                      model.encode_audio(high[batch]).vectors.data)
    want = model.encode_audio(high).vectors.data
    masked = [{e: (np.vstack([m, np.full((2, m.shape[1]), 7.0, np.float32)]),
                   np.arange(len(m) + 2) < len(m)) for e, m in s.items()}
              for s in low]
    np.testing.assert_array_equal(model.encode_audio(masked).vectors.data, want)
    if arch != "mmt":
        shuffled = [{e: m[rng.permutation(len(m))] for e, m in s.items()}
                    for s in low]
        np.testing.assert_array_equal(model.encode_audio(shuffled).vectors.data,
                                      want)


def test_mmt_clip_alone_matches_its_row_among_changing_batchmates():
    """Each MMT item's dense layers are one GEMM over its own rows, so a
    clip encoded alone is bitwise its row of any batch, at widths where a
    batch spans several GEMM blocks."""
    rng = np.random.default_rng(960)
    dims = {"p": 24, "q": 40}
    cfg = md.MmtConfig(("p", "q"), dims, text_dim=6, model_dim=64, layers=2,
                       heads=4, ff_dim=96, max_frames=40)
    model = md.MmtModel(cfg, rng)
    clips = [_random_clip(rng, model, f"a{j}", 40) for j in range(7)]
    for j, clip in enumerate(clips):
        alone = model.encode_audio([clip.streams]).vectors.data[0]
        for trial in range(2):
            mates = [clips[k].streams for k in rng.permutation(7) if k != j]
            mates = mates[: 2 + 2 * trial]
            at = int(rng.integers(len(mates) + 1))
            batch = mates[:at] + [clip.streams] + mates[at:]
            got = model.encode_audio(batch).vectors.data[at]
            np.testing.assert_array_equal(got, alone)


def _mmt_batch_with_missing_expert(rng, model):
    """Three clips of random lengths; the second has no "p" stream."""
    return [{e: rng.standard_normal((int(rng.integers(1, 8)),
                                     model.cfg.expert_dims[e]))
             for e in (("q",) if j == 1 else ("p", "q"))} for j in range(3)]


def test_mmt_last_block_computes_only_aggregation_rows(monkeypatch):
    """In the last block, wq, wo, ff1 and ff2 see one row per present
    (item, expert) and wk and wv every row; earlier blocks see every row."""
    rng = np.random.default_rng(970)
    model = _mmt(rng, layers=2)
    streams = _mmt_batch_with_missing_expert(rng, model)
    present = sum(len(s) for s in streams)
    lengths = [len(s) + sum(f.shape[0] for f in s.values()) for s in streams]
    names = {id(t.data): n for n, t in model.named_parameters().items()}
    rows: dict[str, int] = {}
    stacked_matmul = ad.stacked_matmul

    def spy(x, w, *rest):
        name = names.get(id(w.data.base))
        if name is not None and name.startswith("block."):
            rows[name] = int(np.prod(x.shape[:-1]))
        return stacked_matmul(x, w, *rest)

    monkeypatch.setattr(ad, "stacked_matmul", spy)
    model.encode_audio(streams)
    for layer in ("wq", "wk", "wv", "wo", "ff1", "ff2"):
        assert rows[f"block.0.{layer}.w"] == sum(lengths)
        last = sum(lengths) if layer in ("wk", "wv") else present
        assert rows[f"block.1.{layer}.w"] == last


@pytest.mark.parametrize("layers", [0, 1, 3])
def test_mmt_encode_matches_full_sequence_reference(layers):
    """The pruned last block gives the aggregation states of the full
    plain-numpy forward, with a missing expert in the batch."""
    rng = np.random.default_rng(980 + layers)
    model = _mmt(rng, layers=layers)
    streams = _mmt_batch_with_missing_expert(rng, model)
    batch = model.encode_audio(streams)
    for b, item in enumerate(streams):
        want = ref_mmt_encode(model, item)
        for i, expert in enumerate(model.cfg.experts):
            assert batch.present[b, i] == (expert in item)
            got = batch.vectors.data[b, i]
            if expert in item:
                np.testing.assert_allclose(got, want[expert], rtol=0, atol=1e-12)
            else:
                np.testing.assert_array_equal(got, np.zeros_like(got))


def test_mmt_all_oov_caption_at_init_has_finite_gradients():
    """At init the text units' biases are zero, so an all-OOV caption's
    unit outputs are zero rows; no parameter gradient turns non-finite."""
    rng = np.random.default_rng(990)
    model = _mmt(rng)
    texts = [_text(rng, dim=5, caption_id="c0"),
             TextEmbedding("c1", np.zeros((1, 5)), np.zeros(1, dtype=bool))]
    clips = [AudioClip(f"a{j}", s)
             for j, s in enumerate(_mmt_batch_with_missing_expert(rng, model)[:2])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranking_loss(md.batch_scores(model, texts, clips), 0.2).backward()
    for name, param in model.named_parameters().items():
        assert np.isfinite(param.grad).all(), name


# -- stored configs ------------------------------------------------------

# per architecture: non-default overrides and the config_dict() a
# checkpoint stores for them (key order included), as written by every
# release with checkpoint version 1
_STORED_CONFIGS = {
    "moee": (dict(text_clusters=3, text_ghost=0, audio_clusters=2,
                  audio_ghost=1, joint_dim=6),
             {"experts": ["q", "p"], "expert_dims": {"q": 3, "p": 4},
              "word_dim": 5, "text_clusters": 3, "text_ghost": 0,
              "audio_clusters": 2, "audio_ghost": 1, "joint_dim": 6}),
    "ce": (dict(text_clusters=3, text_ghost=0, audio_clusters=2,
                audio_ghost=1, joint_dim=6, gate_width=7),
           {"experts": ["q", "p"], "expert_dims": {"q": 3, "p": 4},
            "word_dim": 5, "text_clusters": 3, "text_ghost": 0,
            "audio_clusters": 2, "audio_ghost": 1, "joint_dim": 6,
            "gate_width": 7}),
    "mmt": (dict(model_dim=8, layers=2, heads=2, ff_dim=12, max_frames=9),
            {"experts": ["q", "p"], "expert_dims": {"q": 3, "p": 4},
             "text_dim": 5, "model_dim": 8, "layers": 2, "heads": 2,
             "ff_dim": 12, "max_frames": 9}),
}


@pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
def test_config_dict_is_the_stored_format_and_rebuilds(arch):
    """config_dict() keeps the checkpoint's stored keys, order and plain
    ints (dims of unconfigured experts dropped), and model_from_config
    rebuilds a model with the same config and parameter shapes."""
    overrides, stored = _STORED_CONFIGS[arch]
    dims = {"p": np.int64(4), "q": 3, "r": 5}
    model = md.build_model(arch, ("q", "p"), dims, 5,
                           np.random.default_rng(0), overrides)
    got = model.config_dict()
    assert list(got.items()) == list(stored.items())
    assert all(type(d) is int for d in got["expert_dims"].values())
    back = md.model_from_config(arch, got, np.random.default_rng(1))
    assert type(back) is type(model)
    assert back.config_dict() == stored
    assert ({n: t.data.shape for n, t in back.named_parameters().items()}
            == {n: t.data.shape for n, t in model.named_parameters().items()})
