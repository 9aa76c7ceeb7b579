"""Batched cross-modal scoring shared by training, evaluation and search.

Each side is encoded as a batch (B x E x D expert vectors); entry (i, j)
is the weighted sum of per-expert cosines between text i and audio j,
with text i's softmax mixture weights renormalized over the experts
present for audio j. Every layer computes an item's values independently
of its batchmates, so chunked evaluation agrees exactly with one big batch.
A batch of one item runs row by row (autodiff.rowwise): a search query
agrees exactly with a one-caption matrix, and with a larger batch's row
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..experts import AudioClip, TextEmbedding
from .blocks import AudioBatch, TextBatch

# items per encoder call when encoding an evaluation or search pool
ENCODE_CHUNK = 32


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


def combine_scores(text: TextBatch, audio: AudioBatch) -> ad.Tensor:
    """Bt x Ba tensor of pairwise scores from two encoded batches."""
    cosines = ad.pairwise_inner(ad.row_normalize(text.vectors), audio.unit,
                                audio.unit_tiles)  # Bt x Ba x E
    rows, experts = text.weights.shape
    mass = ad.mul(ad.reshape(text.weights, (rows, 1, experts)),
                  audio.present[None].astype(np.float64))
    return ad.div(ad.tsum(ad.mul(mass, cosines), axis=2), ad.tsum(mass, axis=2))


def batch_scores(model, texts: list[TextEmbedding],
                 clips: list[AudioClip]) -> ad.Tensor:
    """Encode both sides as one batch each and combine; rows texts,
    columns clips."""
    if not texts or not clips:
        raise ValueError("empty batch")
    return combine_scores(model.encode_text(list(texts)),
                          model.encode_audio([c.streams for c in clips]))


def _chunks(count: int) -> list[slice]:
    """Consecutive ENCODE_CHUNK-item slices; a one-item remainder joins
    the slice before it, since a batch of one runs row by row."""
    starts = list(range(0, count, ENCODE_CHUNK))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def encode_clips(model, clips: list[AudioClip]) -> AudioBatch:
    """Inference-mode encoding of a clip pool, ENCODE_CHUNK clips per call."""
    with ad.no_grad():
        parts = [model.encode_audio([c.streams for c in clips[part]])
                 for part in _chunks(len(clips))]
    return AudioBatch(ad.Tensor(np.concatenate([p.vectors.data for p in parts])),
                      np.concatenate([p.present for p in parts]))


def similarity_matrix(model, texts: list[TextEmbedding],
                      clips: list[AudioClip]) -> SimilarityMatrix:
    """Evaluation-side matrix with values clipped into [-1, 1]; both sides
    are encoded ENCODE_CHUNK items per call."""
    if not texts or not clips:
        raise ValueError("empty batch")
    audio = encode_clips(model, clips)
    with ad.no_grad():
        rows = [combine_scores(model.encode_text(list(texts[part])), audio).data
                for part in _chunks(len(texts))]
    values = np.clip(np.concatenate(rows), -1.0, 1.0)
    return SimilarityMatrix(values, [t.caption_id for t in texts],
                            [c.sample_id for c in clips])

