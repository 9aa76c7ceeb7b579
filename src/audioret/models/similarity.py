"""Batched cross-modal scoring shared by training, evaluation and search.

Each side is encoded as a batch (B x E x D expert vectors); entry (i, j)
is the weighted sum of per-expert cosines between text i and audio j,
with text i's softmax mixture weights renormalized over the experts
present for audio j. Every layer computes an item's values independently
of its batchmates (autodiff.stacked_matmul gives each row the bits of a
padded 32-row block, by one GEMM over the batch's rows where it has checked
that this gives them), so chunked evaluation agrees exactly with one big
batch.
A batch of one item runs row by row (autodiff.rowwise): a search query
agrees exactly with a one-caption matrix, and with a larger batch's row
to rounding.

Evaluation and search pools are encoded in chunks of at most ENCODE_CHUNK
items, each on one pinned OpenBLAS thread (blas.run_pinned), so their bits
do not depend on the BLAS thread count. A large model's chunks, at least
one per BLAS thread, run as wide as that count: the caller runs the first
and the process's one worker pool the rest. A small model's run in the
caller. A pool is any sequence whose slices are lists of items: a list,
or a lazy view that loads a slice's items when it is taken
(training.SplitView). Each chunk task takes its own slice, so a lazily
viewed pool is loaded chunk by chunk, inside the tasks that encode it,
and only the chunks in flight are ever held at once.

A search query (query_scores) runs each expert's branch as a pinned task
on the same pool, the caller running the first. Its scores are bitwise a
one-caption matrix's either way. The autodiff flags are per thread, and
each task sees those of the caller that handed it out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from .. import blas
from ..experts import AudioClip, TextEmbedding
from .blocks import AudioBatch, TextBatch

# most items per encoder call when encoding an evaluation or search pool.
# A chunk's rows run as one GEMM per product where autodiff has checked
# that this gives its padded blocks' bits, so larger chunks are faster;
# two chunks are in flight at 2 BLAS threads, and memory bounds the size:
# on a 200-clip CE pool, chunks of 50 clips raised peak RSS by about
# 2.5 %, and chunks of 100 by about 9 %
ENCODE_CHUNK = 64


@dataclass
class SimilarityMatrix:
    """values[i, j]: text row i against audio column j, in [-1, 1]."""

    values: np.ndarray
    row_ids: list[str]
    col_ids: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.row_ids), len(self.col_ids)):
            raise ValueError("similarity values do not match id lists")

    def transposed(self) -> "SimilarityMatrix":
        return SimilarityMatrix(self.values.T.copy(), list(self.col_ids),
                                list(self.row_ids))


def mix_experts(weights, present: np.ndarray, cosines) -> ad.Tensor:
    """Bt x Ba scores from Bt x Ba x E per-expert cosines: text i's mixture
    weights (Bt x E), renormalized over the experts present for audio j
    (Ba x E), weight its cosines."""
    rows, experts = weights.shape
    mass = ad.mul(ad.reshape(weights, (rows, 1, experts)),
                  present[None].astype(np.float64))
    return ad.div(ad.tsum(ad.mul(mass, cosines), axis=2), ad.tsum(mass, axis=2))


def combine_scores(text: TextBatch, audio: AudioBatch) -> ad.Tensor:
    """Bt x Ba tensor of pairwise scores from two encoded batches."""
    return mix_experts(text.weights, audio.present,
                       ad.pairwise_inner(ad.row_normalize(text.vectors),
                                         audio.unit, audio.unit_tiles))


def query_scores(model, caption: TextEmbedding,
                 audio: AudioBatch) -> np.ndarray:
    """One caption's scores against an encoded pool, clipped into [-1, 1]:
    bitwise its row of a one-caption similarity_matrix.

    Each expert's branch (its gated unit on the pooled caption, the row
    normalization and the score tiles against the pool) is a pinned task
    (blas.run_pinned): the caller runs the first, and a pool as wide as
    the BLAS thread count the rest when a text unit's input matrix has at
    least blas.POOL_MIN_WEIGHTS entries. Pooling, the mixture head and the
    mixing run in the caller."""
    experts, tiles = model.cfg.experts, audio.unit_tiles
    # sized by the text units' input matrices, not the largest parameter:
    # MMT's 512 x 512 w2 reaches the cut-off, and MMT queries measured
    # slower fanned out (BENCH_pr14.json mmt_cutoff)
    largest = max(model.text_units[e].w1.data.size for e in experts)
    with blas.one_thread(), ad.no_grad(), ad.rowwise():
        pooled = model.pool_text([caption])

        def branch(e: int) -> np.ndarray:  # 1 x Ba x 1 cosines
            unit = ad.row_normalize(model.text_units[experts[e]](pooled))
            return ad.pairwise_inner(ad.reshape(unit, (1, 1, -1)),
                                     audio.unit[:, e:e + 1],
                                     tiles[e:e + 1]).data

        cosines = blas.run_pinned(
            [functools.partial(branch, e) for e in range(len(experts))],
            blas.width(largest))
        scores = mix_experts(ad.softmax(model.weight_head(pooled)),
                             audio.present, np.concatenate(cosines, axis=2))
    return np.clip(scores.data[0], -1.0, 1.0)


def batch_scores(model, texts: list[TextEmbedding],
                 clips: list[AudioClip]) -> ad.Tensor:
    """Encode both sides as one batch each and combine; rows texts,
    columns clips."""
    if not texts or not clips:
        raise ValueError("empty batch")
    return combine_scores(model.encode_text(list(texts)),
                          model.encode_audio([c.streams for c in clips]))


def _chunks(count: int, least: int = 1) -> list[slice]:
    """Near-equal consecutive slices of at most ENCODE_CHUNK items, and at
    least `least` of them as far as two items a slice allow: a batch of
    one runs row by row, so no slice holds one item unless count is 1.
    Their number is a multiple of `least` where two items a slice allow,
    so `least` workers get the same number of slices."""
    pieces = max(-(-count // ENCODE_CHUNK), min(least, count // 2))
    balanced = -(-pieces // least) * least
    if balanced <= count // 2:
        pieces = balanced
    bounds = [count * i // pieces for i in range(pieces + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _encode_chunks(model, encode, items) -> list:
    """encode(items[p]) for each _chunks slice p of items, in chunk order,
    each on one pinned BLAS thread (blas.run_pinned). The slice is taken
    inside the chunk's task, so a lazy view loads it there. A large model
    (blas.width) splits the items into at least one chunk per BLAS thread
    and runs them that wide; an item's bits do not depend on its chunk.
    The caller holds no_grad() around it, and this returns once every
    chunk is done."""
    width = blas.width(max(p.data.size
                           for p in model.named_parameters().values()))

    def task(part: slice):
        return encode(items[part])

    return blas.run_pinned([functools.partial(task, p)
                            for p in _chunks(len(items), width)], width)


def _encode_pool(model, clips) -> tuple[list[str], AudioBatch]:
    """The sample ids of a clip pool, as its loaded clips give them, and
    the pool's inference-mode encoding, ENCODE_CHUNK clips per call."""
    if not len(clips):
        raise ValueError("empty batch")

    def encode(chunk: list[AudioClip]):
        return ([c.sample_id for c in chunk],
                model.encode_audio([c.streams for c in chunk]))

    with ad.no_grad():
        parts = _encode_chunks(model, encode, clips)
    return ([sid for ids, _ in parts for sid in ids],
            AudioBatch(ad.Tensor(np.concatenate([p.vectors.data for _, p in parts])),
                       np.concatenate([p.present for _, p in parts])))


def encode_clips(model, clips) -> AudioBatch:
    """Inference-mode encoding of a clip pool (a list or a lazy view), at
    most ENCODE_CHUNK clips per call."""
    return _encode_pool(model, clips)[1]


def similarity_matrix(model, texts, clips) -> SimilarityMatrix:
    """Evaluation-side matrix with values clipped into [-1, 1]. Both sides
    (lists or lazy views of TextEmbeddings and AudioClips) are encoded
    ENCODE_CHUNK items per call, and the row and column ids are those of
    the items loaded."""
    if not len(texts) or not len(clips):
        raise ValueError("empty batch")
    col_ids, audio = _encode_pool(model, clips)

    def score(chunk: list[TextEmbedding]):
        return ([t.caption_id for t in chunk],
                combine_scores(model.encode_text(chunk), audio).data)

    with ad.no_grad():
        audio.unit_tiles  # once, before the text chunks share it
        rows = _encode_chunks(model, score, texts)
    values = np.clip(np.concatenate([r for _, r in rows]), -1.0, 1.0)
    return SimilarityMatrix(values, [cid for ids, _ in rows for cid in ids],
                            col_ids)
