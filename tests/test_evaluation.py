"""Metric correctness against a brute-force re-sorting oracle."""

import numpy as np
import pytest

from audioret import evaluation as ev
from audioret.corpus import CaptionRecord, Corpus, SampleRecord
from audioret.models.similarity import SimilarityMatrix


def oracle_rank(scores, ids, relevant):
    """Independent rank: plain Python sort on (-score, id) tuples."""
    order = sorted(range(len(ids)), key=lambda j: (-scores[j], ids[j]))
    return min(order.index(j) + 1 for j in range(len(ids)) if ids[j] in relevant)


def oracle_metrics(ranks, pool_size):
    n = len(ranks)
    rec = [100.0 * (sum(1 for r in ranks if r <= k) / n) for k in (1, 5, 10, 50)]
    med = float(sorted(ranks)[(n - 1) // 2])
    return (*rec, med, sum(ranks) / n, pool_size, n)


def _random_case(rng, n_query, n_pool, quantize=False):
    ids = [f"x{j:03d}" for j in range(n_pool)]
    if quantize:
        values = rng.integers(0, 4, size=(n_query, n_pool)) / 3.0
    else:
        values = rng.standard_normal((n_query, n_pool))
    sim = SimilarityMatrix(values, [f"q{i:03d}" for i in range(n_query)], ids)
    rel = {}
    for q in sim.row_ids:
        k = int(rng.integers(1, 4))
        rel[q] = frozenset(rng.choice(ids, size=min(k, n_pool), replace=False))
    return sim, ev.GroundTruth("a2t", rel)


def rank_of_target(scores, ids, relevant):
    """One query's best rank, read as the medR of a one-query report."""
    sim = SimilarityMatrix(np.asarray([scores], dtype=np.float64), ["q"], ids)
    gt = ev.GroundTruth("t2a", {"q": frozenset(relevant)})
    return int(ev.compute_metrics(sim, gt).medr)


class TestRankOfTarget:
    def test_top_scorer_ranks_first(self):
        assert rank_of_target([0.9, 0.5, 0.1], ["a", "b", "c"], {"a"}) == 1

    def test_best_rank_over_multiple_relevant(self):
        scores = [0.9, 0.1, 0.5, 0.05, 0.7]
        ids = ["a", "b", "c", "d", "e"]
        # c sits at position 3, b at position 4 -> best is 3
        assert rank_of_target(scores, ids, {"b", "c"}) == 3

    def test_all_ties_resolve_by_id(self):
        ids = ["m", "a", "z", "k"]
        assert rank_of_target([1.0] * 4, ids, {"z"}) == 4
        assert rank_of_target([1.0] * 4, ids, {"a"}) == 1

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError, match="empty relevant"):
            rank_of_target([1.0], ["a"], set())

    def test_unknown_relevant_rejected(self):
        with pytest.raises(ValueError, match="missing from the pool"):
            rank_of_target([1.0], ["a"], {"zz"})

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            ids = [f"i{j}" for j in range(n)]
            scores = rng.integers(0, 3, size=n) / 2.0
            rel = set(rng.choice(ids, size=int(rng.integers(1, n + 1)),
                                 replace=False))
            assert rank_of_target(scores, ids, rel) == oracle_rank(
                list(scores), ids, rel)


class TestComputeMetrics:
    def test_diagonal_dominant(self):
        values = np.eye(3) + 0.01
        sim = SimilarityMatrix(values, ["q0", "q1", "q2"], ["q0", "q1", "q2"])
        gt = ev.GroundTruth("t2a", {q: frozenset([q]) for q in sim.row_ids})
        rep = ev.compute_metrics(sim, gt)
        assert rep.r1 == 100.0 and rep.medr == 1.0 and rep.meanr == 1.0

    def test_hand_rank_triple(self):
        rep = ev.metrics_from_ranks(np.array([1, 3, 20]), pool_size=30)
        assert abs(rep.r1 - 100.0 / 3) < 1e-12
        assert abs(rep.r5 - 200.0 / 3) < 1e-12
        assert abs(rep.r10 - 200.0 / 3) < 1e-12
        assert rep.medr == 3.0 and rep.meanr == 8.0

    def test_even_count_median_is_lower_middle(self):
        rep = ev.metrics_from_ranks(np.array([2, 9, 4, 7]), pool_size=10)
        assert rep.medr == 4.0

    def test_oracle_exact_on_random_matrices(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            n_q = int(rng.integers(1, 51))
            n_p = int(rng.integers(1, 51))
            sim, gt = _random_case(rng, n_q, n_p, quantize=trial % 2 == 0)
            rep = ev.compute_metrics(sim, gt)
            want = oracle_metrics(
                [oracle_rank(list(sim.values[i]), sim.col_ids, gt.relevance[q])
                 for i, q in enumerate(sim.row_ids)], n_p)
            got = (rep.r1, rep.r5, rep.r10, rep.r50, rep.medr, rep.meanr,
                   rep.pool_size, rep.query_count)
            assert got == want, f"trial {trial}"

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sim, gt = _random_case(rng, 8, 60)
            rep = ev.compute_metrics(sim, gt)
            assert rep.r1 <= rep.r5 <= rep.r10 <= rep.r50 <= 100.0

    def test_pool_permutation_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(3)
        sim, gt = _random_case(rng, 6, 20, quantize=True)
        rep = ev.compute_metrics(sim, gt)
        perm = rng.permutation(20)
        shuffled = SimilarityMatrix(sim.values[:, perm], sim.row_ids,
                                    [sim.col_ids[p] for p in perm])
        assert ev.compute_metrics(shuffled, gt) == rep

    def test_positive_scaling_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(4)
        sim, gt = _random_case(rng, 6, 20)
        rep = ev.compute_metrics(sim, gt)
        scaled = SimilarityMatrix(sim.values * 7.25, sim.row_ids, sim.col_ids)
        assert ev.compute_metrics(scaled, gt) == rep

    def test_query_without_ground_truth_rejected(self):
        sim = SimilarityMatrix(np.zeros((2, 2)), ["q0", "q1"], ["a", "b"])
        gt = ev.GroundTruth("t2a", {"q0": frozenset(["a"])})
        with pytest.raises(ValueError, match="dimension mismatch"):
            ev.compute_metrics(sim, gt)

    def test_relevant_outside_pool_rejected(self):
        sim = SimilarityMatrix(np.zeros((1, 2)), ["q0"], ["a", "b"])
        gt = ev.GroundTruth("t2a", {"q0": frozenset(["zz"])})
        with pytest.raises(ValueError, match="dimension mismatch"):
            ev.compute_metrics(sim, gt)


class TestGroundTruth:
    def _corpus(self):
        samples = [SampleRecord(f"s{i}", 10.0 * (i + 1)) for i in range(3)]
        caps = [CaptionRecord(f"c{i}{j}", f"s{i}", f"words {i} {j}")
                for i in range(3) for j in range(2)]
        return Corpus("demo", samples, caps)

    def test_t2a_one_target_per_caption(self):
        gt = ev.t2a_ground_truth(self._corpus())
        assert gt.direction == "t2a" and len(gt.relevance) == 6
        assert gt.relevance["c21"] == frozenset(["s2"])

    def test_a2t_collects_all_captions(self):
        gt = ev.a2t_ground_truth(self._corpus())
        assert gt.relevance["s0"] == frozenset(["c00", "c01"])

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(ValueError, match="empty relevant"):
            ev.GroundTruth("t2a", {"q": frozenset()})

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            ev.GroundTruth("sideways", {"q": frozenset(["a"])})


class TestAggregateSeeds:
    def _report(self, r1, pool=100):
        return ev.MetricsReport(r1, r1, r1, r1, 3.0, 5.0, pool_size=pool,
                                query_count=10)

    def test_symmetric_triple(self):
        agg = ev.aggregate_seeds([self._report(23.0), self._report(23.6),
                                  self._report(24.2)])
        assert abs(agg.means["R@1"] - 23.6) < 1e-12
        assert abs(agg.stds["R@1"] - 0.6) < 1e-12
        assert agg.cell("R@1") == "23.6±0.6"

    def test_identical_runs_have_zero_spread(self):
        agg = ev.aggregate_seeds([self._report(5.0)] * 3)
        assert agg.means["R@5"] == 5.0 and agg.stds["R@5"] == 0.0

    def test_single_run_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ev.aggregate_seeds([self._report(5.0)])

    def test_mixed_pools_rejected(self):
        with pytest.raises(ValueError, match="mixed pool"):
            ev.aggregate_seeds([self._report(5.0, pool=100),
                                self._report(5.0, pool=90)])


class TestBucketMetrics:
    def _setup(self, durations):
        samples = [SampleRecord(f"s{i}", d) for i, d in enumerate(durations)]
        caps = [CaptionRecord(f"c{i}", f"s{i}", f"text {i}")
                for i in range(len(durations))]
        corpus = Corpus("demo", samples, caps)
        rng = np.random.default_rng(0)
        ids = [s.sample_id for s in samples]
        sim = SimilarityMatrix(rng.standard_normal((len(caps), len(ids))),
                               [c.caption_id for c in caps], ids)
        return corpus, sim, ev.t2a_ground_truth(corpus)

    def test_default_labels(self):
        corpus, sim, gt = self._setup([10.0, 60.0, 200.0])
        buckets = ev.bucket_metrics(corpus, sim, gt)
        assert list(buckets) == ["≤30s", "30–120s", ">120s"]
        assert all(rep is not None for rep in buckets.values())

    def test_boundary_goes_to_lower_bucket(self):
        corpus, sim, gt = self._setup([30.0, 120.0])
        buckets = ev.bucket_metrics(corpus, sim, gt)
        assert buckets["≤30s"].query_count == 1
        assert buckets["30–120s"].query_count == 1
        assert buckets[">120s"] is None

    def test_single_bucket_equals_plain_metrics(self):
        corpus, sim, gt = self._setup([5.0, 12.0, 25.0, 29.0])
        buckets = ev.bucket_metrics(corpus, sim, gt)
        assert buckets["≤30s"] == ev.compute_metrics(sim, gt)
        assert buckets["30–120s"] is None and buckets[">120s"] is None

    def test_counts_partition_queries(self):
        rng = np.random.default_rng(5)
        corpus, sim, gt = self._setup(list(rng.uniform(1.0, 300.0, size=17)))
        buckets = ev.bucket_metrics(corpus, sim, gt)
        total = sum(rep.query_count for rep in buckets.values() if rep)
        assert total == 17

    def test_full_pool_retained_per_bucket(self):
        corpus, sim, gt = self._setup([10.0, 60.0, 200.0, 20.0])
        for rep in ev.bucket_metrics(corpus, sim, gt).values():
            if rep is not None:
                assert rep.pool_size == 4

    def test_audio_side_uses_query_duration(self):
        corpus, sim, gt = self._setup([10.0, 200.0])
        a2t = ev.a2t_ground_truth(corpus)
        flipped = sim.transposed()
        buckets = ev.bucket_metrics(corpus, flipped, a2t)
        assert buckets["≤30s"].query_count == 1
        assert buckets[">120s"].query_count == 1

    def test_unknown_duration_rejected(self):
        corpus, sim, gt = self._setup([10.0, 60.0])
        bad = Corpus("demo", [SampleRecord("s0", 10.0)],
                     [CaptionRecord("c0", "s0", "text")])
        with pytest.raises(ValueError, match="unknown duration"):
            ev.bucket_metrics(bad, sim, gt)

    def test_bad_edges_rejected(self):
        corpus, sim, gt = self._setup([10.0])
        with pytest.raises(ValueError, match="increasing"):
            ev.bucket_metrics(corpus, sim, gt, edges=(120.0, 30.0))


class TestRendering:
    def _rows(self):
        rep = ev.MetricsReport(23.3, 50.0, 60.0, 80.0, 5.0, 9.5,
                               pool_size=100, query_count=10)
        agg = ev.aggregate_seeds([rep, rep, rep])
        return [ev.ResultRow("ce", {"t2a": agg, "a2t": rep}),
                ev.ResultRow("moee", {"t2a": agg})]

    def test_text_table_layout(self):
        text = ev.render_table(self._rows())
        lines = text.splitlines()
        assert lines[0].startswith("model")
        assert "t2a R@1" in lines[0] and "a2t meanR" in lines[0]
        assert "23.3±0.0" in lines[1] and "23.3" in lines[1]
        assert lines[2].split()[-1] == "—"

    def test_csv_shape(self):
        csv = ev.render_csv(self._rows())
        lines = csv.strip().splitlines()
        assert len(lines) == 3
        assert all(len(line.split(",")) == 13 for line in lines)
