"""Joint text-audio embedding baselines and retrieval benchmark tooling.

Submodules:
  corpus      sample/caption records, split assignment, dataset statistics
  experts     precomputed feature streams, word tables, text sources
  autodiff    the small reverse-mode tape every model runs on
  models      MoEE / CE / MMT scoring architectures and similarity matrices
  training    ranking loss, optimizers, the training loop, checkpoints
  evaluation  retrieval metrics, duration buckets, seed aggregation, tables
  bench       config-driven experiment studies, run caching, text search
  synthetic   self-contained learnability benchmarks for fast validation
"""

from . import (autodiff, bench, checkpoint, corpus, evaluation, experts,
               models, synthetic, training)
from .bench import (ExperimentConfig, Searcher, experiment_from_file,
                    run_ablation, run_benchmark, run_scale_study,
                    run_transfer)
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (Corpus, SplitSpec, assign_splits,
                     build_sounddescs_manifest, corpus_stats, load_benchmark,
                     save_corpus)
from .evaluation import (aggregate_seeds, bucket_metrics, compute_metrics,
                         render_csv, render_table)
from .experts import (DEFAULT_REGISTRY, WordTable, gather_clip,
                      load_word_table, open_feature_store)
from .models import build_model
from .synthetic import make_synthetic_benchmark
from .training import (Checkpoint, LossConfig, TrainConfig, finetune,
                       ranking_loss, select_best, train)

__version__ = "0.1.0"
