"""Shared encoder blocks: soft-assignment pooling and gated projections.

All blocks build autodiff graphs over float64 Tensors, take a whole
batch, and expose their trainable leaves through named_parameters().
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .. import autodiff as ad


# -- encoder outputs ---------------------------------------------------


@dataclass
class TextBatch:
    """Encoded captions: B x E x D expert vectors and B x E softmax mixture
    weights, experts in the configured order."""

    vectors: ad.Tensor
    weights: ad.Tensor


@dataclass
class AudioBatch:
    """Encoded clips: B x E x D expert vectors (zero rows for absent
    experts) and the B x E expert-presence mask."""

    vectors: ad.Tensor
    present: np.ndarray

    @cached_property
    def unit(self) -> ad.Tensor:
        """The expert vectors at unit length, computed once per batch."""
        return ad.row_normalize(self.vectors)

    @cached_property
    def unit_tiles(self) -> np.ndarray:
        """`unit` laid out for pairwise_inner, once per batch."""
        return ad.score_tiles(self.unit.data)


def encode_captions(model, captions: list) -> TextBatch:
    """Every model's encode_text: model.pool_text's B pooled caption
    vectors through the per-expert gated units (model.text_units) and the
    softmax mixture head (model.weight_head). A batch of one caption runs
    row by row."""
    with ad.rowwise(len(captions) == 1):
        pooled = model.pool_text(captions)
        vectors = ad.stack([model.text_units[e](pooled)
                            for e in model.cfg.experts], axis=1)
        return TextBatch(vectors, ad.softmax(model.weight_head(pooled)))


# -- configuration and batch assembly ------------------------------------


def check_experts(experts: tuple[str, ...], expert_dims: dict[str, int]) -> None:
    """Reject an empty or repeated expert list and experts without a
    recorded feature dimension."""
    if not experts:
        raise ValueError("expert list is empty")
    if len(set(experts)) != len(experts):
        raise ValueError("duplicate expert in config")
    missing = [e for e in experts if e not in expert_dims]
    if missing:
        raise ValueError(f"no dimension recorded for experts: {missing}")


def config_dict(cfg) -> dict:
    """A model config as a checkpoint stores it: its fields in order, the
    experts as a list and dims for the configured experts only."""
    return asdict(cfg) | {"experts": list(cfg.experts),
                          "expert_dims": {e: int(cfg.expert_dims[e])
                                          for e in cfg.experts}}


def stream_rows(value) -> np.ndarray:
    """Valid frames of a bare T x D matrix or of a (matrix, mask) pair, in
    the matrix's own dtype: the encoders upcast a batch once
    (canonical_rows, stacked_matmul), not each item."""
    if isinstance(value, tuple):
        matrix, mask = value
        return np.asarray(matrix)[np.asarray(mask, dtype=bool)]
    return np.asarray(value)


def gather_streams(experts: tuple[str, ...], batch: list
                   ) -> tuple[np.ndarray, dict[str, list[np.ndarray]]]:
    """The B x E presence mask of a batch of stream mappings and, per
    expert, the valid frames of the items that have it, in batch order."""
    present = np.zeros((len(batch), len(experts)), dtype=bool)
    rows: dict[str, list[np.ndarray]] = {e: [] for e in experts}
    for b, streams in enumerate(batch):
        unknown = [e for e in streams if e not in experts]
        if unknown:
            raise KeyError(f"streams for unconfigured experts: {unknown}")
        if not streams:
            raise ValueError("no experts present for this sample")
        for i, expert in enumerate(experts):
            if expert in streams:
                present[b, i] = True
                rows[expert].append(stream_rows(streams[expert]))
    return present, rows


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                 fan_in: int) -> np.ndarray:
    """Symmetric uniform draw scaled by 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def affine(x, w: ad.Tensor, b: ad.Tensor, offsets=None) -> ad.Tensor:
    """x W^T + b for a vector or for every row of a stack of them, one
    GEMM per row segment when `offsets` are given (see stacked_matmul)."""
    return ad.stacked_matmul(x, ad.transpose(w), offsets, b)


class Linear:
    """y = x W^T + b; accepts a vector or a stack of row vectors.

    With `offsets`, each row segment offsets[i]:offsets[i + 1] is one GEMM
    over its own rows, so its output depends on those rows only. W's
    gradient comes back row-major, like W."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = ad.parameter(uniform_init(rng, (out_dim, in_dim), in_dim))
        self.b = ad.parameter(np.zeros(out_dim))

    def __call__(self, x, offsets=None) -> ad.Tensor:
        return affine(x, self.w, self.b, offsets)

    def named_parameters(self) -> dict[str, ad.Tensor]:
        return {"w": self.w, "b": self.b}


def canonical_rows(streams: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate frame matrices, each with its rows sorted
    lexicographically, and return them as float64 with the item row
    offsets.

    Pooling frames in this order makes a descriptor exactly order-free, not
    just order-free up to float round-off. One sort orders every item's rows
    by their first column; an item with ties there takes the full lexsort.
    Widening float32 to float64 is exact and keeps the order, so float32
    frames sort and pool bitwise like their float64 upcast. Each item's
    rows are gathered straight into the float64 output, the batch's one
    copy of its frames.
    """
    lengths = [f.shape[0] for f in streams]
    offsets = np.cumsum([0] + lengths)
    first = np.concatenate([f[:, 0] for f in streams])
    item = np.repeat(np.arange(len(streams)), lengths)
    order = np.lexsort((first, item))
    unresolved = ~(np.diff(first[order]) > 0) & (np.diff(item) == 0)
    for b in np.unique(item[1:][unresolved]):
        lo, hi = offsets[b], offsets[b + 1]
        order[lo:hi] = lo + np.lexsort(streams[b].T[::-1])
    x = np.empty((offsets[-1], streams[0].shape[1]))
    for frames, lo, hi in zip(streams, offsets[:-1], offsets[1:]):
        if frames.dtype == x.dtype:
            # mode="clip" writes straight into x; the default buffers a copy
            np.take(frames, order[lo:hi] - lo, axis=0, out=x[lo:hi], mode="clip")
        else:  # np.take's out takes only its own dtype
            x[lo:hi] = frames[order[lo:hi] - lo]
    return x, offsets


class NetVlad:
    """Soft-assignment pooling with optional ghost clusters.

    Frames are soft-assigned over K+G clusters by a softmax of linear
    scores; residuals against the first K centers are accumulated,
    intra-normalized per cluster, flattened, and globally L2-normalized.
    Ghost clusters take part in the assignment softmax only.

    A batch is pooled at once: every item's valid frames are
    lexicographically sorted, the batch's rows are soft-assigned together,
    and each item's residuals are summed over its own rows only. So an
    item's descriptor is bit-identical under frame permutation, padding,
    and any change of batchmates.
    """

    def __init__(self, input_dim: int, clusters: int, ghost: int,
                 rng: np.random.Generator):
        if clusters < 1 or ghost < 0:
            raise ValueError("need clusters >= 1 and ghost >= 0")
        self.input_dim = input_dim
        self.clusters = clusters
        self.ghost = ghost
        total = clusters + ghost
        self.centers = ad.parameter(uniform_init(rng, (total, input_dim), input_dim))
        self.assign_w = ad.parameter(uniform_init(rng, (input_dim, total), input_dim))
        self.assign_b = ad.parameter(np.zeros(total))

    @property
    def output_dim(self) -> int:
        return self.clusters * self.input_dim

    def __call__(self, streams: list) -> ad.Tensor:
        """Pool a list of valid-frame matrices (float32 or float64) into
        B x K*D. Frames are data: no gradient flows back to them."""
        streams = [np.asarray(f) for f in streams]
        for frames in streams:
            if frames.ndim != 2 or frames.shape[1] != self.input_dim:
                raise ValueError(
                    f"expected frames of width {self.input_dim}, got {frames.shape}")
            if frames.shape[0] == 0:
                raise ValueError("all frames masked: nothing to aggregate")
        x, offsets = canonical_rows(streams)
        batch, k = len(streams), self.clusters

        logits = ad.stacked_matmul(x, self.assign_w, None, self.assign_b)
        assign = ad.softmax(logits, axis=1)[:, :k]
        mass = ad.segment_sum(assign, offsets)  # per-cluster assignment mass
        pooled = ad.segment_matmul(assign, x, offsets)
        del x  # the sorted frame copy; a recording tape keeps its own reference
        vlad = ad.sub(pooled,
                      ad.mul(ad.reshape(mass, (batch, k, 1)), self.centers[:k]))
        vlad = ad.row_normalize(vlad)
        return ad.row_normalize(ad.reshape(vlad, (batch, self.output_dim)))

    def named_parameters(self) -> dict[str, ad.Tensor]:
        return {"centers": self.centers, "assign_w": self.assign_w,
                "assign_b": self.assign_b}


class GatedUnit:
    """Self-gated linear map with L2-normalized output, for a vector or
    for every row of a matrix.

    y1 = W1 x + b1;  y = y1 * sigmoid(W2 y1 + b2);  output y / max(|y|, eps).
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w1 = ad.parameter(uniform_init(rng, (out_dim, in_dim), in_dim))
        self.b1 = ad.parameter(np.zeros(out_dim))
        self.w2 = ad.parameter(uniform_init(rng, (out_dim, out_dim), out_dim))
        self.b2 = ad.parameter(np.zeros(out_dim))

    def __call__(self, x) -> ad.Tensor:
        y1 = affine(x, self.w1, self.b1)
        gate = ad.sigmoid(affine(y1, self.w2, self.b2))
        return ad.row_normalize(ad.mul(y1, gate))

    def named_parameters(self) -> dict[str, ad.Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def collect(prefix: str, block) -> dict[str, ad.Tensor]:
    """Flatten a block's named parameters under a dotted prefix."""
    return {f"{prefix}.{name}": tensor
            for name, tensor in block.named_parameters().items()}
