"""Output checks against references that share no code with the layer
under test: a brute-force ranker, a direct top-k over the evaluated
matrix, and counters on the study cache.
"""

from __future__ import annotations

import numpy as np

from tracer import Patcher

from audioret import bench, evaluation, training

RECALL_KS = (1, 5, 10, 50)


class CacheCounter(Patcher):
    """Counts RunDir cache hits and misses, and train() calls, into
    `counts` (the run's counters, which the traced run reports too)."""

    def __init__(self, counts):
        super().__init__()
        self.counts = counts

    def install(self) -> None:
        def on_load_seed(artifact, args):
            self.counts["cache_misses" if artifact is None
                        else "cache_hits"] += 1

        def on_train(ckpt, args):
            self.counts["train_calls"] += 1

        self.patch_method(bench.RunDir, "load_seed", after=on_load_seed)
        self.patch_function(training, "train", after=on_train)


class MatrixCapture(Patcher):
    """Keeps a reference to every matrix evaluate_checkpoint ranks."""

    def __init__(self):
        super().__init__()
        self.matrices = []

    def install(self) -> None:
        self.patch_function(evaluation, "compute_metrics",
                            after=lambda report, args:
                            self.matrices.append(args[0]))


def brute_force_ranks(values: np.ndarray, row_ids, col_ids,
                      relevance: dict[str, set[str]]) -> np.ndarray:
    """Best rank of any relevant column per row: 1 + #(higher scores) +
    #(equal scores with a smaller id)."""
    col_ids = list(col_ids)
    column = {cid: j for j, cid in enumerate(col_ids)}
    id_rank = np.empty(len(col_ids), dtype=np.int64)
    id_rank[sorted(range(len(col_ids)), key=col_ids.__getitem__)] = \
        np.arange(len(col_ids))
    ranks = np.empty(len(row_ids), dtype=np.int64)
    for i, query in enumerate(row_ids):
        row = values[i]
        best = len(col_ids)
        for item in relevance[query]:
            j = column[item]
            rank = 1 + np.count_nonzero(row > row[j]) + np.count_nonzero(
                (row == row[j]) & (id_rank < id_rank[j]))
            best = min(best, int(rank))
        ranks[i] = best
    return ranks


def _matches(report, ranks: np.ndarray) -> tuple[bool, str]:
    recalls = [100.0 * int(np.count_nonzero(ranks <= k)) / ranks.size
               for k in RECALL_KS]
    medr = float(np.sort(ranks)[(ranks.size - 1) // 2])  # lower middle
    meanr = float(ranks.sum()) / ranks.size
    got = [report.r1, report.r5, report.r10, report.r50]
    ok = (all(abs(a - b) <= 1e-9 for a, b in zip(got, recalls))
          and report.medr == medr and abs(report.meanr - meanr) <= 1e-9
          and report.query_count == ranks.size)
    return ok, (f"R@1/5/10/50 {got} vs {recalls}, medR {report.medr} vs "
                f"{medr}, meanR {report.meanr:.6f} vs {meanr:.6f}")


def check_retrieval(run, corpus, matrices, reports, results, top_k: int) -> None:
    """Eval metrics against the brute-force ranker; search against the
    evaluated matrix's rows."""
    caption_ids = sorted(c.caption_id for c in corpus.captions)
    clip_ids = sorted(s.sample_id for s in corpus.samples)
    t2a = [m for m in matrices if list(m.row_ids) == caption_ids
           and list(m.col_ids) == clip_ids]
    a2t = [m for m in matrices if list(m.row_ids) == clip_ids
           and list(m.col_ids) == caption_ids]
    run.check("eval_matrices_seen", len(t2a) == 1 and len(a2t) == 1,
              f"{len(matrices)} matrices ranked, shapes "
              f"{[m.values.shape for m in matrices]}")
    if len(t2a) != 1 or len(a2t) != 1:
        return
    values = t2a[0].values
    run.check("a2t_is_transpose", np.array_equal(a2t[0].values, values.T),
              "a2t matrix equals the transposed t2a matrix")

    owner = {c.caption_id: c.sample_id for c in corpus.captions}
    by_clip: dict[str, set[str]] = {}
    for cid, sid in owner.items():
        by_clip.setdefault(sid, set()).add(cid)
    t2a_ranks = brute_force_ranks(values, caption_ids, clip_ids,
                                  {c: {owner[c]} for c in caption_ids})
    a2t_ranks = brute_force_ranks(values.T, clip_ids, caption_ids, by_clip)
    for name, report, ranks in (("t2a", reports["t2a"], t2a_ranks),
                                ("a2t", reports["a2t"], a2t_ranks)):
        ok, info = _matches(report, ranks)
        run.check(f"{name}_metrics_brute_force", ok, info)

    row_of = {}  # caption text -> matrix row
    text_of = {c.caption_id: c.text for c in corpus.captions}
    for i, cid in enumerate(caption_ids):
        row_of.setdefault(text_of[cid], i)
    clips = np.asarray(clip_ids)
    k = min(top_k, len(clip_ids))
    pool_checked = pool_bad = free_checked = free_bad = 0
    worst = 0.0
    for query, hits in results:
        ids = [h[0] for h in hits]
        scores = np.asarray([h[1] for h in hits])
        if query in row_of:
            row = values[row_of[query]]
            order = np.lexsort((clips, -row))[:k]
            diff = (float(np.max(np.abs(scores - row[order])))
                    if len(hits) == k else np.inf)
            worst = max(worst, diff)
            pool_checked += 1
            pool_bad += ids != clips[order].tolist() or not diff <= 1e-9
        else:
            free_checked += 1
            free_bad += (len(hits) != k or not np.isfinite(scores).all()
                         or bool(np.any(np.diff(scores) > 0))
                         or not set(ids) <= set(clip_ids))
    run.check("search_matches_matrix", pool_checked > 0 and pool_bad == 0,
              f"{pool_checked - pool_bad}/{pool_checked} pool-caption queries "
              f"match the matrix row top-{k}; worst score gap {worst:.1e}")
    run.check("search_free_text", free_bad == 0,
              f"{free_checked - free_bad}/{free_checked} free-text queries "
              f"return {k} sorted finite pool hits")
