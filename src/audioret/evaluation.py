"""Retrieval metrics: ranking, recall/median summaries, seed aggregation,
and duration-bucketed slices.

Ranking convention
------------------
Candidates are ordered by descending score; exact score ties are broken by
ascending item id, which makes every rank deterministic across platforms.
When a query has several relevant items (an audio clip with five captions,
say), its rank is the best (minimum) rank among them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .models.similarity import SimilarityMatrix

METRIC_COLUMNS = ("R@1", "R@5", "R@10", "R@50", "medR", "meanR")

RECALL_KS = (1, 5, 10, 50)

DEFAULT_DURATION_EDGES = (30.0, 120.0)


# ---------------------------------------------------------------------------
# ground truth


@dataclass(frozen=True)
class GroundTruth:
    """Relevance judgments for one retrieval direction.

    direction is "t2a" (caption queries against an audio pool) or "a2t"
    (audio queries against a caption pool); relevance maps each query id to
    the non-empty set of item ids that count as correct for it.
    """

    direction: str
    relevance: dict[str, frozenset[str]]

    def __post_init__(self):
        if self.direction not in ("t2a", "a2t"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if not self.relevance:
            raise ValueError("ground truth has no queries")
        for query, items in self.relevance.items():
            if not items:
                raise ValueError(f"empty relevant set for query {query!r}")


def t2a_ground_truth(corpus: Corpus) -> GroundTruth:
    """Each caption is an independent query whose target is its source clip."""
    rel = {c.caption_id: frozenset([c.sample_id]) for c in corpus.captions}
    return GroundTruth("t2a", rel)


def a2t_ground_truth(corpus: Corpus) -> GroundTruth:
    """Each clip is a query; all of its captions are relevant."""
    rel: dict[str, set[str]] = {}
    for c in corpus.captions:
        rel.setdefault(c.sample_id, set()).add(c.caption_id)
    return GroundTruth("a2t", {k: frozenset(v) for k, v in rel.items()})


# ---------------------------------------------------------------------------
# ranking


def _id_order(ids) -> np.ndarray:
    """Position of each id in ascending id order (stable for duplicates)."""
    order = np.argsort(np.asarray(list(ids)), kind="stable")
    position = np.empty(order.size, dtype=np.int64)
    position[order] = np.arange(order.size)
    return position


# query-item pairs compared against their full rows at once in _best_ranks
RANK_CHUNK = 256


def _best_ranks(values: np.ndarray, id_order: np.ndarray, queries: np.ndarray,
                items: np.ndarray, n_queries: int) -> np.ndarray:
    """Per query, the best rank 1 + #{s > s_t} + #{s == s_t, id < id_t}
    over its relevant items t, for (query row, item column) pairs."""
    ranks = np.full(n_queries, np.iinfo(np.int64).max)
    for lo in range(0, queries.size, RANK_CHUNK):
        q, t = queries[lo: lo + RANK_CHUNK], items[lo: lo + RANK_CHUNK]
        rows = values[q]
        target = values[q, t][:, None]
        ahead = (rows > target) | ((rows == target)
                                   & (id_order[None, :] < id_order[t][:, None]))
        np.minimum.at(ranks, q, 1 + np.count_nonzero(ahead, axis=1))
    return ranks


# ---------------------------------------------------------------------------
# metric reports


@dataclass(frozen=True)
class MetricsReport:
    r1: float
    r5: float
    r10: float
    r50: float
    medr: float
    meanr: float
    pool_size: int
    query_count: int

    def __post_init__(self):
        vals = [self.r1, self.r5, self.r10, self.r50]
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])) or self.r50 > 100 + 1e-12:
            raise ValueError("recall values must be nondecreasing in k and ≤ 100")
        if not 1 <= self.medr <= self.pool_size:
            raise ValueError("median rank outside [1, pool size]")

    def by_column(self) -> dict[str, float]:
        return dict(zip(METRIC_COLUMNS,
                        (self.r1, self.r5, self.r10, self.r50, self.medr, self.meanr)))


def report_to_dict(rep: MetricsReport) -> dict:
    return rep.by_column() | {"pool_size": rep.pool_size,
                              "query_count": rep.query_count}


def report_from_dict(d: dict) -> MetricsReport:
    return MetricsReport(d["R@1"], d["R@5"], d["R@10"], d["R@50"], d["medR"],
                         d["meanR"], pool_size=int(d["pool_size"]),
                         query_count=int(d["query_count"]))


def _ranks(sim: SimilarityMatrix, gt: GroundTruth) -> np.ndarray:
    column = {cid: j for j, cid in enumerate(sim.col_ids)}
    queries, items = [], []
    for i, query in enumerate(sim.row_ids):
        if query not in gt.relevance:
            raise ValueError(f"dimension mismatch: query {query!r} has no ground truth")
        rel = gt.relevance[query]
        if not rel <= column.keys():
            raise ValueError(f"dimension mismatch: relevant items for {query!r} "
                             "missing from the pool")
        queries += [i] * len(rel)
        items += [column[item] for item in rel]
    return _best_ranks(sim.values, _id_order(sim.col_ids),
                       np.asarray(queries, dtype=np.intp),
                       np.asarray(items, dtype=np.intp), len(sim.row_ids))


def metrics_from_ranks(ranks: np.ndarray, pool_size: int) -> MetricsReport:
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size == 0:
        raise ValueError("no queries")
    recalls = [100.0 * float(np.mean(ranks <= k)) for k in RECALL_KS]
    med = float(np.sort(ranks)[(ranks.size - 1) // 2])  # lower-middle for even n
    return MetricsReport(*recalls, med, float(np.mean(ranks)),
                         pool_size=pool_size, query_count=int(ranks.size))


def compute_metrics(sim: SimilarityMatrix, gt: GroundTruth) -> MetricsReport:
    """Full-report retrieval metrics for the queries in sim's rows."""
    return metrics_from_ranks(_ranks(sim, gt), pool_size=len(sim.col_ids))


# ---------------------------------------------------------------------------
# seed aggregation


@dataclass(frozen=True)
class SeedAggregate:
    means: dict[str, float]
    stds: dict[str, float]
    runs: int
    pool_size: int

    def cell(self, column: str) -> str:
        return f"{self.means[column]:.1f}±{self.stds[column]:.1f}"


def aggregate_seeds(reports: list[MetricsReport]) -> SeedAggregate:
    """Mean and sample (n−1) standard deviation per metric across runs."""
    if len(reports) < 2:
        raise ValueError("need at least 2 runs to aggregate")
    pools = {r.pool_size for r in reports}
    if len(pools) != 1:
        raise ValueError(f"mixed pool sizes: {sorted(pools)}")
    columns = {c: np.array([r.by_column()[c] for r in reports]) for c in METRIC_COLUMNS}
    return SeedAggregate(
        means={c: float(v.mean()) for c, v in columns.items()},
        stds={c: float(v.std(ddof=1)) for c, v in columns.items()},
        runs=len(reports), pool_size=pools.pop())


# ---------------------------------------------------------------------------
# duration buckets


def _bucket_labels(edges) -> list[str]:
    def fmt(x):
        return f"{x:g}"

    labels = [f"≤{fmt(edges[0])}s"]
    labels += [f"{fmt(a)}–{fmt(b)}s" for a, b in zip(edges, edges[1:])]
    labels.append(f">{fmt(edges[-1])}s")
    return labels


def bucket_metrics(corpus: Corpus, sim: SimilarityMatrix, gt: GroundTruth,
                   edges=DEFAULT_DURATION_EDGES):
    """Metrics per audio-duration bucket, each against the full pool.

    Queries are grouped by the duration of their associated audio (the
    target clip for caption queries, the query clip itself otherwise);
    the candidate pool is never restricted, so numbers stay comparable
    across buckets. Empty buckets map to None.
    """
    edges = tuple(float(e) for e in edges)
    if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("duration edges must be strictly increasing")
    durations = {s.sample_id: s.duration for s in corpus.samples}

    def clip_for(query: str) -> str:
        if gt.direction == "a2t":
            return query
        rel = sorted(gt.relevance[query])
        return rel[0]

    ranks = _ranks(sim, gt)
    labels = _bucket_labels(edges)
    grouped: dict[str, list[int]] = {lab: [] for lab in labels}
    for i, query in enumerate(sim.row_ids):
        clip = clip_for(query)
        if clip not in durations:
            raise ValueError(f"unknown duration for {clip!r}")
        idx = int(np.searchsorted(np.array(edges), durations[clip], side="left"))
        grouped[labels[idx]].append(int(ranks[i]))
    return {lab: (metrics_from_ranks(np.array(rs), pool_size=len(sim.col_ids))
                  if rs else None)
            for lab, rs in grouped.items()}


# ---------------------------------------------------------------------------
# report rendering


@dataclass
class ResultRow:
    """One labeled line of a results table: per-direction metric cells."""

    label: str
    by_direction: dict[str, MetricsReport | SeedAggregate] = field(default_factory=dict)

    def cell(self, direction: str, column: str) -> str:
        entry = self.by_direction.get(direction)
        if entry is None:
            return "—"
        if isinstance(entry, SeedAggregate):
            return entry.cell(column)
        return f"{entry.by_column()[column]:.1f}"


def render_table(rows: list[ResultRow], directions=("t2a", "a2t")) -> str:
    """Aligned text table: one header block per direction, mean±std cells."""
    header = ["model"] + [f"{d} {c}" for d in directions for c in METRIC_COLUMNS]
    body = [[row.label] + [row.cell(d, c) for d in directions for c in METRIC_COLUMNS]
            for row in rows]
    widths = [max(len(line[j]) for line in [header] + body) for j in range(len(header))]
    lines = []
    for line in [header] + body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(rows: list[ResultRow], directions=("t2a", "a2t")) -> str:
    header = ["model"] + [f"{d} {c}" for d in directions for c in METRIC_COLUMNS]
    out = [",".join(header)]
    for row in rows:
        out.append(",".join([row.label] + [row.cell(d, c)
                                           for d in directions for c in METRIC_COLUMNS]))
    return "\n".join(out) + "\n"
