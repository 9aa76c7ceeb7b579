"""Self-contained synthetic retrieval benchmarks.

Each sample's caption is a handful of random vocabulary words; its audio
streams are noisy linear images of the caption's mean word vector. With
small noise the caption↔clip correspondence is exactly recoverable, so a
model that can overfit drives retrieval to the ceiling — a learnability
oracle that needs no released features. Validation and test samples are
content mirrors of training samples (fresh ids, identical captions and
features), so their retrieval quality measures pure memorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CaptionRecord, Corpus, SampleRecord
from .experts import InMemoryFeatureStore, WordTable, WordTableTextSource

VOCAB = 64
# each sample's expert streams: width per expert, frames, noise scale
EXPERT_DIMS = {"ea": 12, "eb": 8}
FRAMES = 4
NOISE = 0.02


def make_word_table(rng: np.random.Generator, vocab: int = VOCAB,
                    dim: int = 10) -> WordTable:
    tokens = [f"w{i:03d}" for i in range(vocab)]
    return WordTable(tokens, rng.standard_normal((vocab, dim)))


@dataclass
class SyntheticBenchmark:
    corpus: Corpus
    store: InMemoryFeatureStore
    word_table: WordTable
    text_source: WordTableTextSource
    maps: dict[str, np.ndarray]       # expert -> (dim, word_dim) linear image
    expert_dims: dict[str, int]


def make_synthetic_benchmark(rng: np.random.Generator, n_pairs: int = 64,
                             word_table: WordTable | None = None,
                             maps: dict[str, np.ndarray] | None = None,
                             n_test: int = 0) -> SyntheticBenchmark:
    """Build a paired corpus + feature store of n_pairs train samples.

    Passing the same word_table and maps to a second call yields an
    overlapping-distribution corpus (fresh samples, same generative
    link) for transfer experiments.
    """
    if n_pairs < 2:
        raise ValueError("need at least 2 pairs")
    expert_dims = dict(EXPERT_DIMS)
    table = word_table or make_word_table(rng)
    maps = dict(maps or {e: rng.standard_normal((d, table.dim))
                         for e, d in expert_dims.items()})
    for e, d in expert_dims.items():
        if maps[e].shape != (d, table.dim):
            raise ValueError(f"map for {e} has shape {maps[e].shape}, "
                             f"want {(d, table.dim)}")

    tokens = sorted(table.index)
    store = InMemoryFeatureStore()
    samples: list[SampleRecord] = []
    captions: list[CaptionRecord] = []

    def emit(base: str, split: str, text: str, streams: dict[str, np.ndarray],
             duration: float) -> None:
        samples.append(SampleRecord(f"{base}", duration, split=split))
        captions.append(CaptionRecord(f"c-{base}", base, text))
        for e, matrix in streams.items():
            store.add(e, base, matrix)

    originals = []
    for i in range(n_pairs):
        k = int(rng.integers(4, 8))
        words = [tokens[j] for j in rng.choice(len(tokens), size=k, replace=False)]
        text = " ".join(words)
        mu = table.vectors[[table.index[w] for w in words]].mean(axis=0)
        streams = {}
        for e, d in expert_dims.items():
            clean = maps[e] @ mu
            streams[e] = clean[None, :] + NOISE * rng.standard_normal((FRAMES, d))
        duration = float(rng.uniform(5.0, 240.0))
        originals.append((text, streams, duration))
        emit(f"t{i:04d}", "train", text, streams, duration)

    for i, (text, streams, duration) in enumerate(originals):
        emit(f"v{i:04d}", "val", text,
             {e: m.copy() for e, m in streams.items()}, duration)
    for i in range(n_test):
        text, streams, duration = originals[i % n_pairs]
        emit(f"s{i:04d}", "test", text,
             {e: m.copy() for e, m in streams.items()}, duration)

    corpus = Corpus("synthetic", samples, captions)
    return SyntheticBenchmark(corpus, store, table, WordTableTextSource(table),
                              maps, expert_dims)
