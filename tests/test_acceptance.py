"""Top-level acceptance checks, one per shipped guarantee.

Each test prints a visible `acceptance N: PASS/FAIL` line with the
measured values so a log of this file doubles as a sign-off sheet. The
last check exercises released full-scale features and only runs when
the data-root environment variables point at them.
"""

import os
import time

import numpy as np
import pytest

import audioret.bench as bn
import audioret.models as md
import audioret.training as tr
from audioret import autodiff as ad
from audioret.corpus import Corpus, SampleRecord, SplitSpec, assign_splits
from audioret.evaluation import (GroundTruth, MetricsReport, aggregate_seeds,
                                 compute_metrics)
from audioret.experts import AudioClip, TextEmbedding
from audioret.models.blocks import stream_rows
from audioret.models.similarity import SimilarityMatrix
from audioret.synthetic import make_synthetic_benchmark
from helpers import check_gradients

GRAD_INSTANCES = 20


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. ranking-loss hand values


def test_1_loss_hand_values(capsys):
    cases = [
        (np.array([[0.5, 0.6], [0.4, 0.3]]), 0.6),
        (np.array([[0.9, 0.1], [0.2, 0.8]]), 0.0),
        (np.full((2, 2), 0.7), 0.4),
    ]
    errs = [abs(tr.ranking_loss(s, 0.2).item() - want) for s, want in cases]
    ok = max(errs) < 1e-9
    _verdict(capsys, 1, ok,
             f"loss hand cases 0.6/0.0/0.4, max abs err {max(errs):.2e} "
             "(tolerance 1e-9)")


# ---------------------------------------------------------------------------
# 2. retrieval metrics against a brute-force ranker


def _oracle_rank(scores, ids, relevant):
    order = sorted(range(len(ids)), key=lambda j: (-scores[j], ids[j]))
    position = {j: r for r, j in enumerate(order, start=1)}
    return min(position[j] for j in range(len(ids)) if ids[j] in relevant)


def _oracle_report(ranks, pool_size):
    ranks = sorted(ranks)
    n = len(ranks)
    recalls = [100.0 * (sum(r <= k for r in ranks) / n)
               for k in (1, 5, 10, 50)]
    return MetricsReport(*recalls, float(ranks[(n - 1) // 2]),
                         float(sum(ranks)) / n, pool_size=pool_size,
                         query_count=n)


def test_2_metrics_match_brute_force(capsys):
    rng = np.random.default_rng(20_240_501)
    checked = 0
    for trial in range(200):
        if trial % 3 == 0:
            # multi-positive: 2–16 clips owning 1–3 captions each
            n_audio = int(rng.integers(2, 17))
            per_clip = [int(rng.integers(1, 4)) for _ in range(n_audio)]
        else:
            # square case, up to the full 50×50
            n_audio = int(rng.integers(2, 51))
            per_clip = [1] * n_audio
        audio_ids = [f"a{rng.integers(10_000):05d}-{j}" for j in range(n_audio)]
        caption_ids, owner = [], {}
        for j, aid in enumerate(audio_ids):
            for c in range(per_clip[j]):
                cid = f"c{rng.integers(10_000):05d}-{len(caption_ids)}"
                caption_ids.append(cid)
                owner[cid] = aid

        values = rng.uniform(-1.0, 1.0, size=(len(caption_ids), n_audio))
        if trial % 2 == 0:
            values = np.round(values * 4) / 4  # force score ties
        sim = SimilarityMatrix(values, list(caption_ids), list(audio_ids))

        t2a = GroundTruth("t2a", {c: frozenset([owner[c]])
                                  for c in caption_ids})
        a2t = GroundTruth("a2t", {a: frozenset(c for c in caption_ids
                                               if owner[c] == a)
                                  for a in audio_ids})

        got = compute_metrics(sim, t2a)
        ranks = [_oracle_rank(values[i], audio_ids, {owner[c]})
                 for i, c in enumerate(caption_ids)]
        assert got == _oracle_report(ranks, n_audio)

        gotT = compute_metrics(sim.transposed(), a2t)
        cols = values.T
        ranksT = [_oracle_rank(cols[j], caption_ids,
                               {c for c in caption_ids if owner[c] == aid})
                  for j, aid in enumerate(audio_ids)]
        assert gotT == _oracle_report(ranksT, len(caption_ids))
        checked += 1
    _verdict(capsys, 2, checked == 200,
             f"metrics equal an independent ranker on {checked}/200 random "
             "matrices, both directions, multi-positive included (exact)")


# ---------------------------------------------------------------------------
# 3. analytic gradients vs central finite differences


def _tiny_ce(rng):
    cfg = md.CeConfig(("p", "q"), {"p": 3, "q": 3}, word_dim=3,
                      text_clusters=2, text_ghost=1, audio_clusters=2,
                      audio_ghost=0, joint_dim=3, gate_width=5)
    return md.CeModel(cfg, rng)


def _tiny_moee(rng):
    cfg = md.MoeeConfig(("p", "q"), {"p": 3, "q": 3}, word_dim=3,
                        text_clusters=2, text_ghost=1, audio_clusters=2,
                        audio_ghost=0, joint_dim=3)
    return md.MoeeModel(cfg, rng)


def _tiny_mmt(rng):
    cfg = md.MmtConfig(("p", "q"), {"p": 3, "q": 2}, text_dim=4, model_dim=6,
                       layers=1, heads=2, ff_dim=8, max_frames=4)
    return md.MmtModel(cfg, rng)


def _text_clip(rng, dims, word_dim, frames=3):
    text = TextEmbedding("c", rng.standard_normal((3, word_dim)),
                         np.ones(3, dtype=bool))
    clip = AudioClip("a", {e: rng.standard_normal((frames, d))
                           for e, d in dims.items()})
    return text, clip


def _netvlad_instance(rng):
    block = md.NetVlad(3, 2, 1, rng)
    frames = rng.standard_normal((4, 3))
    probe = rng.standard_normal(block.output_dim)
    check_gradients(lambda: ad.dot(block([frames]), probe),
                    block.named_parameters())


def _gated_instance(rng):
    unit = md.GatedUnit(4, 3, rng)
    x = rng.standard_normal(4)
    probe = rng.standard_normal(3)
    check_gradients(lambda: ad.dot(unit(x), probe),
                    unit.named_parameters())


def _collab_instance(rng):
    model = _tiny_ce(rng)
    vectors = {e: rng.standard_normal(model.audio_vlad[e].output_dim)
               for e in ("p", "q")}
    probes = {e: rng.standard_normal(vectors[e].shape[0]) for e in vectors}
    gate_params = {n: p for n, p in model.named_parameters().items()
                   if any(s in n for s in ("gate_in", "gate_out", "pair_fc"))}

    def build():
        gated = model.collaborative_gate({e: v[None] for e, v in vectors.items()},
                                         np.ones((1, 2), dtype=bool))
        total = None
        for e in sorted(gated):
            term = ad.dot(gated[e], probes[e])
            total = term if total is None else ad.add(total, term)
        return total

    check_gradients(build, gate_params)


def _moee_instance(rng):
    model = _tiny_moee(rng)
    text, clip = _text_clip(rng, {"p": 3, "q": 3}, word_dim=3)
    check_gradients(lambda: md.batch_scores(model, [text], [clip])[0, 0],
                    model.named_parameters())


def _ce_instance(rng):
    model = _tiny_ce(rng)
    text, clip = _text_clip(rng, {"p": 3, "q": 3}, word_dim=3)
    check_gradients(lambda: md.batch_scores(model, [text], [clip])[0, 0],
                    model.named_parameters())


def _mmt_instance(rng):
    model = _tiny_mmt(rng)
    text, clip = _text_clip(rng, {"p": 3, "q": 2}, word_dim=4)
    check_gradients(lambda: md.batch_scores(model, [text], [clip])[0, 0],
                    model.named_parameters())


def _loss_instance(rng):
    margin = 0.2
    while True:
        s = rng.standard_normal((4, 4))
        gaps = margin + s - np.diag(s)[:, None]
        off = ~np.eye(4, dtype=bool)
        if (np.abs(gaps[off]) >= 1e-3).all() and \
           (np.abs(gaps.T[off]) >= 1e-3).all():
            break
    leaf = ad.Tensor(s, requires_grad=True)
    check_gradients(lambda: tr.ranking_loss(leaf, margin), {"scores": leaf})


GRAD_FAMILIES = [
    ("netvlad", _netvlad_instance),
    ("gated unit", _gated_instance),
    ("collaborative gate", _collab_instance),
    ("moee score", _moee_instance),
    ("ce score", _ce_instance),
    ("mmt score", _mmt_instance),
    ("ranking loss", _loss_instance),
]


def test_3_gradient_suite(capsys):
    start = time.time()
    for name, instance in GRAD_FAMILIES:
        for i in range(GRAD_INSTANCES):
            instance(np.random.default_rng(7000 + i))
    elapsed = time.time() - start
    _verdict(capsys, 3, True,
             f"{len(GRAD_FAMILIES)} gradient families × {GRAD_INSTANCES} "
             f"instances ≤ 1e-4 relative vs finite differences "
             f"({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 4. structural invariants


def test_4_structural_invariants(capsys):
    rng = np.random.default_rng(4)
    # order/padding invariance of the frame aggregator, bitwise
    block = md.NetVlad(4, 3, 1, rng)
    frames = rng.standard_normal((6, 4))
    base = block([frames]).data
    np.testing.assert_array_equal(block([frames[rng.permutation(6)]]).data, base)
    padded = np.vstack([frames, 1e6 * np.ones((2, 4))])
    mask = np.array([True] * 6 + [False] * 2)
    np.testing.assert_array_equal(block([stream_rows((padded, mask))]).data, base)

    # unit-norm gated outputs and convex mixture weights
    worst_norm = worst_sum = 0.0
    for _ in range(20):
        unit = md.GatedUnit(5, 4, rng)
        out = unit(rng.standard_normal(5)).data
        worst_norm = max(worst_norm, abs(np.linalg.norm(out) - 1.0))
        model = _tiny_moee(rng)
        caption = TextEmbedding("c", rng.standard_normal((4, 3)),
                                np.ones(4, dtype=bool))
        weights = model.encode_text([caption]).weights.data
        assert (weights >= 0).all()
        worst_sum = max(worst_sum, abs(weights.sum() - 1.0))
    assert worst_norm < 1e-6 and worst_sum < 1e-6

    # similarity entries stay inside [-1, 1]
    from audioret.models.similarity import similarity_matrix
    model = _tiny_moee(rng)
    texts = [_text_clip(rng, {"p": 3, "q": 3}, 3)[0] for _ in range(6)]
    clips = [_text_clip(rng, {"p": 3, "q": 3}, 3)[1] for _ in range(6)]
    sim = similarity_matrix(model, texts, clips)
    assert (sim.values >= -1.0).all() and (sim.values <= 1.0).all()

    # saturating every collaborative mask recovers the plain mixture score
    ce = _tiny_ce(rng)
    for e in ce.cfg.experts:
        ce.gate_out[e].w.data[:] = 0.0
        ce.gate_out[e].b.data[:] = 50.0
    from helpers import ref_moee_score
    text, clip = _text_clip(rng, {"p": 3, "q": 3}, 3)
    gap = abs(md.batch_scores(ce, [text], [clip])[0, 0].item()
              - ref_moee_score(ce, text.token_matrix, text.mask, clip.streams))
    assert gap < 1e-4
    _verdict(capsys, 4, True,
             "aggregation order/padding invariance bitwise; gated norm off by "
             f"{worst_norm:.1e}; weight sums off by {worst_sum:.1e}; "
             f"similarities within [-1,1]; saturated-gate reduction gap "
             f"{gap:.1e} (tolerances 1e-6/1e-6/exact/1e-4)")


# ---------------------------------------------------------------------------
# 5. split counts on the full-size manifest


def test_5_split_counts(capsys):
    samples = [SampleRecord(f"d{i:05d}", duration=1.0) for i in range(32_979)]
    corpus = assign_splits(Corpus("full", samples, []),
                           SplitSpec(ratios=(0.70, 0.15, 0.15), seed=0))
    counts = tuple(len(corpus.split_ids(s)) for s in ("train", "val", "test"))
    ok = counts == (23_085, 4_947, 4_947)
    _verdict(capsys, 5, ok,
             f"32,979 samples at 0.70/0.15/0.15 → {counts[0]:,}/{counts[1]:,}"
             f"/{counts[2]:,} (want 23,085/4,947/4,947)")


# ---------------------------------------------------------------------------
# 6. synthetic end-to-end learnability


def _train_ce_256(seed: int):
    bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=256)
    model = md.build_model("ce", ("ea", "eb"), dict(bench.expert_dims),
                           bench.word_table.dim, np.random.default_rng(seed),
                           dict(text_clusters=8, text_ghost=1,
                                audio_clusters=8, audio_ghost=0, joint_dim=64))
    cfg = tr.TrainConfig(architecture="ce", epochs=40, seed=seed)
    ckpt = tr.train(model, bench.corpus, bench.store, bench.text_source, cfg,
                    tr.LossConfig(margin=0.2, batch_size=128))
    bundle = bn.DataBundle(bench.corpus, bench.store, bench.text_source,
                           dict(bench.expert_dims), bench.word_table.dim)
    report = bn.evaluate_checkpoint(ckpt, bundle, split="train")
    return ckpt, report["t2a"].r1


def test_6_synthetic_end_to_end(capsys):
    start = time.time()
    first, r1 = _train_ce_256(seed=0)
    second, r1_again = _train_ce_256(seed=0)
    elapsed = time.time() - start
    identical = r1 == r1_again and \
        first.selection_score == second.selection_score and \
        all(np.array_equal(first.params[n], second.params[n])
            for n in first.params)
    ok = r1 >= 95.0 and identical and elapsed < 300.0
    _verdict(capsys, 6, ok,
             f"256-pair corpus, 40 of 200 allowed epochs: train-pool t2a R@1 "
             f"= {r1:.1f}% (≥ 95 required); repeat run byte-identical: "
             f"{identical}; {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 7. checkpoint selection rule


def _report_for(r1, r5, r10):
    return MetricsReport(r1, r5, r10, max(r10, 99.0), 2.0,
                         max(3.0, (r1 + r5 + r10) / 30.0),
                         pool_size=100, query_count=100)


def test_7_selection_rule(capsys):
    single = [(0, _report_for(5.0, 10.0, 20.0))]
    assert tr.select_best(single) == 0

    # (8·27·64)^(1/3) = 24 exactly beats (10·20·50)^(1/3) = 21.54…
    history = [(1, _report_for(8.0, 27.0, 64.0)),
               (2, _report_for(10.0, 20.0, 50.0))]
    assert tr.select_best(history) == 0
    assert tr.selection_score(history[0][1]) == 24.0

    tied = [(3, _report_for(8.0, 27.0, 64.0)),
            (7, _report_for(8.0, 27.0, 64.0))]
    assert tr.select_best(tied) == 0  # earliest wins ties
    worse_then_better = [(1, _report_for(2.0, 4.0, 8.0)),
                         (2, _report_for(8.0, 27.0, 64.0))]
    assert tr.select_best(worse_then_better) == 1
    _verdict(capsys, 7, True,
             "geometric-mean checkpoint selection: argmax, exact gm=24 case, "
             "and earliest-tie rule all hold")


# ---------------------------------------------------------------------------
# 8. aggregation across seeds


def test_8_seed_aggregation(capsys):
    reports = [_report_for(r1, 50.0, 75.0) for r1 in (23.0, 23.6, 24.2)]
    agg = aggregate_seeds(reports)
    mean_err = abs(agg.means["R@1"] - 23.6)
    std_err = abs(agg.stds["R@1"] - 0.6)
    ok = agg.cell("R@1") == "23.6±0.6" and mean_err < 1e-9 and std_err < 1e-9
    _verdict(capsys, 8, ok,
             f"{{23.0, 23.6, 24.2}} → {agg.cell('R@1')} (sample std; errors "
             f"{mean_err:.1e}/{std_err:.1e})")


# ---------------------------------------------------------------------------
# 9. extended full-scale reproduction (needs released feature archives)


def test_9_full_scale_reproduction(capsys):
    if not (os.environ.get(bn.DATA_ENV) and os.environ.get(bn.FEATURES_ENV)):
        with capsys.disabled():
            print(f"\nacceptance 9: SKIPPED — full-scale check needs "
                  f"{bn.DATA_ENV} and {bn.FEATURES_ENV} pointing at released "
                  "features (~1–2 h)")
        pytest.skip("released feature archives not configured")

    cfg = bn.ExperimentConfig(dataset="clotho", architecture="ce",
                              experts=("VGGish", "VGGSound"), seeds=(0, 1, 2),
                              out_dir="runs-acceptance")
    table = bn.run_benchmark(cfg)
    r1 = table.cell_mean("clotho/ce", "t2a", "R@1")
    ok = abs(r1 - 6.7) <= 1.5
    detail = f"clotho ce t2a R@1 = {r1:.1f} (target 6.7 ± 1.5)"

    features = os.environ.get(bn.FEATURES_ENV, "")
    if os.path.isdir(os.path.join(features, "audiocaps")):
        ac = bn.ExperimentConfig(dataset="audiocaps", architecture="ce",
                                 experts=("VGGish", "VGGSound"),
                                 seeds=(0, 1, 2), out_dir="runs-acceptance")
        ab = bn.run_ablation(ac, [("VGGish",), ("VGGSound",),
                                  ("VGGish", "VGGSound")])
        single_a = ab.cell_mean("VGGish", "t2a", "R@1")
        single_b = ab.cell_mean("VGGSound", "t2a", "R@1")
        both = ab.cell_mean("VGGish+VGGSound", "t2a", "R@1")
        ordered = single_a < single_b < both
        ok = ok and ordered
        detail += (f"; ablation ordering {single_a:.1f} < {single_b:.1f} "
                   f"< {both:.1f}: {ordered}")
    _verdict(capsys, 9, ok, detail)
