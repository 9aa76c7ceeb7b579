"""
The retrieval evaluation protocol, piece by piece
=================================================

Retrieval metrics hide several small decisions: how ties break, which
rank counts when a query has several relevant items, how runs across
seeds are summarized, and how results are laid out. This demo exercises
each piece directly on hand-built inputs, where every number can be
checked by eye.
"""

import numpy as np

from audioret.corpus import CaptionRecord, Corpus, SampleRecord
from audioret.evaluation import (GroundTruth, MetricsReport, ResultRow,
                                 aggregate_seeds, bucket_metrics,
                                 compute_metrics, render_table,
                                 t2a_ground_truth)
from audioret.models import SimilarityMatrix


def rank_of(scores, pool, relevant):
    """One query's rank, read as the median rank of a one-query report."""
    sim = SimilarityMatrix(np.array([scores]), ["q"], pool)
    gt = GroundTruth("t2a", {"q": frozenset(relevant)})
    return int(compute_metrics(sim, gt).medr)


# ties break deterministically: score descending, then item id ascending.
# "a" and "b" tie at 0.9, so "a" takes rank 1 and "b" lands at rank 2
rank = rank_of([0.9, 0.9, 0.1], ["b", "a", "c"], relevant={"b"})
print(f"rank of tied item 'b': {rank}")

# with several relevant items, the best-ranked one counts
rank = rank_of([0.3, 0.8, 0.5], ["x", "y", "z"], relevant={"x", "z"})
print(f"best rank over relevant {{x, z}}: {rank}")

# a corpus ties captions to clips; metrics come from a similarity matrix
# (rows: queries, columns: pool) plus that ground truth
samples = [SampleRecord("s0", 12.0, split="test"),
           SampleRecord("s1", 45.0, split="test"),
           SampleRecord("s2", 300.0, split="test")]
captions = [CaptionRecord(f"c{i}", f"s{i}", f"caption {i}")
            for i in range(3)]
corpus = Corpus("toy", samples, captions)
values = np.array([[0.9, 0.2, 0.1],    # c0 ranks its clip s0 first
                   [0.4, 0.3, 0.2],    # c1's clip s1 sits at rank 2
                   [0.1, 0.2, 0.7]])   # c2 ranks s2 first
sim = SimilarityMatrix(values, ["c0", "c1", "c2"], ["s0", "s1", "s2"])
report = compute_metrics(sim, t2a_ground_truth(corpus))
print(f"\nt2a over 3 queries: R@1 {report.r1:.1f}  R@5 {report.r5:.1f}  "
      f"medR {report.medr:.1f}  meanR {report.meanr:.2f}")

# the same ranks can be split by the target clip's duration; pools are
# never restricted, so bucket numbers stay comparable
buckets = bucket_metrics(corpus, sim, t2a_ground_truth(corpus))
print("\nper-duration buckets (R@1, query count):")
for label, rep in buckets.items():
    cell = f"{rep.r1:5.1f}  n={rep.query_count}" if rep else " (empty)"
    print(f"  {label:9s} {cell}")

# runs repeated across seeds are summarized as mean ± sample std
def report_for(r1):
    return MetricsReport(r1, min(r1 + 20, 100.0), min(r1 + 30, 100.0),
                         100.0, 2.0, 3.5, pool_size=100, query_count=100)

agg = aggregate_seeds([report_for(23.0), report_for(23.6), report_for(24.2)])
print(f"\n3-seed aggregate R@1 cell: {agg.cell('R@1')}")

# result rows render to an aligned text table; a row can hold a single
# run's report or a seed aggregate, and missing directions print as "—"
rows = [ResultRow("single run", {"t2a": report}),
        ResultRow("3 seeds", {"t2a": agg})]
print("\n" + render_table(rows, directions=("t2a",)))
