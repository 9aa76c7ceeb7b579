"""Multi-modal transformer encoder over concatenated expert sequences.

Audio side: each expert's frames are projected to the model width and
tagged with expert-type and temporal-position embeddings; a learned
aggregation token per expert is prepended to its segment. The joined
sequence runs through L pre-norm self-attention blocks, and the final
state at each aggregation token is that expert's audio embedding.
Only unmasked frames enter the sequence, so padding cannot influence
the outputs at all. With L=0 the aggregation states pass through
untouched. The last block computes keys and values over every row, but
the rest only at the aggregation rows, the only rows read; each matches
the full block's row to rounding.

Text side: masked mean over provider token embeddings, then per-expert
gated units and a softmax mixture head, mirroring the other models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..experts import TextEmbedding
from .blocks import (AudioBatch, GatedUnit, Linear, check_experts, collect,
                     config_dict, encode_captions, gather_streams, uniform_init)

LN_EPS = 1e-5


@dataclass
class MmtConfig:
    experts: tuple[str, ...]
    expert_dims: dict[str, int]
    text_dim: int
    model_dim: int = 512
    layers: int = 4
    heads: int = 4
    ff_dim: int = 2048
    max_frames: int = 512

    def __post_init__(self):
        self.experts = tuple(self.experts)
        check_experts(self.experts, self.expert_dims)
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")


class _Block:
    """One pre-norm residual block: attention then feed-forward."""

    def __init__(self, dim: int, heads: int, ff_dim: int, rng: np.random.Generator):
        self.dim = dim
        self.heads = heads
        self.ln1_g = ad.parameter(np.ones(dim))
        self.ln1_b = ad.parameter(np.zeros(dim))
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)
        self.ln2_g = ad.parameter(np.ones(dim))
        self.ln2_b = ad.parameter(np.zeros(dim))
        self.ff1 = Linear(dim, ff_dim, rng)
        self.ff2 = Linear(ff_dim, dim, rng)

    def __call__(self, x: ad.Tensor, offsets, keep=None) -> ad.Tensor:
        """x stacks every item's sequence; attention stays inside each
        item's rows offsets[i]:offsets[i + 1], and every dense layer runs
        one GEMM per item. With keep = (rows, keep_offsets), only those
        rows of x are computed past the keys and values, item i's being
        keep_offsets[i]:keep_offsets[i + 1] of the output."""
        h = ad.layernorm(x, self.ln1_g, self.ln1_b, LN_EPS)
        k, v = self.wk(h, offsets), self.wv(h, offsets)
        q_offsets = offsets
        if keep is not None:
            rows, q_offsets = keep
            x, h = ad.take_rows(x, rows), ad.take_rows(h, rows)
        context = ad.segment_attention(self.wq(h, q_offsets), k, v, offsets,
                                       self.heads, q_offsets)
        x = ad.add(x, self.wo(context, q_offsets))
        h = ad.layernorm(x, self.ln2_g, self.ln2_b, LN_EPS)
        return ad.add(x, self.ff2(ad.relu(self.ff1(h, q_offsets)), q_offsets))

    def named_parameters(self) -> dict[str, ad.Tensor]:
        params = {"ln1_g": self.ln1_g, "ln1_b": self.ln1_b,
                  "ln2_g": self.ln2_g, "ln2_b": self.ln2_b}
        for name, sub in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv),
                          ("wo", self.wo), ("ff1", self.ff1), ("ff2", self.ff2)):
            for pname, tensor in sub.named_parameters().items():
                params[f"{name}.{pname}"] = tensor
        return params


class MmtModel:
    arch = "mmt"

    def __init__(self, cfg: MmtConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.model_dim
        self.proj: dict[str, Linear] = {}
        self.type_emb: dict[str, ad.Tensor] = {}
        self.agg: dict[str, ad.Tensor] = {}
        for expert in cfg.experts:
            self.proj[expert] = Linear(cfg.expert_dims[expert], d, rng)
            self.type_emb[expert] = ad.parameter(uniform_init(rng, (d,), d))
            self.agg[expert] = ad.parameter(uniform_init(rng, (d,), d))
        self.pos = ad.parameter(uniform_init(rng, (cfg.max_frames, d), d))
        self.blocks = [_Block(d, cfg.heads, cfg.ff_dim, rng)
                       for _ in range(cfg.layers)]
        self.text_units = {e: GatedUnit(cfg.text_dim, d, rng) for e in cfg.experts}
        self.weight_head = Linear(cfg.text_dim, len(cfg.experts), rng)

    # -- audio side ----------------------------------------------------

    def encode_audio(self, streams: list):
        """Encode a list of stream mappings into an AudioBatch of final
        aggregation-token states.

        Projections, LayerNorm and feed-forward layers run once over all
        items' concatenated valid frames; the last block computes only the
        aggregation rows past its keys and values: each item's present
        experts attend over its whole sequence.
        """
        experts = self.cfg.experts
        present, rows = gather_streams(experts, streams)
        parts = [ad.stack([self.agg[e] for e in experts])]
        spans = {}  # expert -> (first source row, frame count) per item
        cursor = len(experts)
        for expert in experts:
            lengths = [f.shape[0] for f in rows[expert]]
            if 0 in lengths:
                raise ValueError(f"all frames masked for expert {expert}")
            if max(lengths, default=0) > self.cfg.max_frames:
                raise ValueError(
                    f"{max(lengths)} frames exceed the position table "
                    f"({self.cfg.max_frames}); cap the stream first")
            if not lengths:
                continue
            positions = np.concatenate([np.arange(n) for n in lengths])
            parts.append(ad.add(ad.add(self.proj[expert](np.concatenate(rows[expert])),
                                       self.type_emb[expert]),
                                ad.take_rows(self.pos, positions)))
            starts = cursor + np.cumsum([0] + lengths[:-1])
            spans[expert] = iter(zip(starts.tolist(), lengths))
            cursor += positions.size

        # each item's sequence: per present expert, its aggregation token
        # then its frames
        order, agg_rows, offsets = [], [], [0]
        for b in range(present.shape[0]):
            for i in np.flatnonzero(present[b]):
                lo, count = next(spans[experts[i]])
                agg_rows.append(len(order))
                order += [i] + list(range(lo, lo + count))
            offsets.append(len(order))
        x = ad.take_rows(ad.concat(parts, axis=0), order)
        for block in self.blocks[:-1]:
            x = block(x, offsets)
        kept = np.cumsum([0] + present.sum(axis=1).tolist())  # kept-row offsets
        x = (self.blocks[-1](x, offsets, (agg_rows, kept))
             if self.blocks else ad.take_rows(x, agg_rows))
        vectors = ad.place_rows(x, np.nonzero(present),
                                present.shape + (self.cfg.model_dim,))
        return AudioBatch(vectors, present)

    # -- text side -----------------------------------------------------

    encode_text = encode_captions

    def pool_text(self, captions: list[TextEmbedding]) -> np.ndarray:
        """The mean of each caption's valid token rows, or zero when it has
        none, B x text_dim."""
        return np.stack([t.token_matrix[t.mask].mean(axis=0) if t.mask.any()
                         else np.zeros(t.token_matrix.shape[1]) for t in captions])

    # -- parameters ----------------------------------------------------

    def named_parameters(self) -> dict[str, ad.Tensor]:
        params: dict[str, ad.Tensor] = {}
        for expert in self.cfg.experts:
            params.update(collect(f"proj.{expert}", self.proj[expert]))
            params[f"type_emb.{expert}"] = self.type_emb[expert]
            params[f"agg.{expert}"] = self.agg[expert]
        params["pos"] = self.pos
        for i, block in enumerate(self.blocks):
            for name, tensor in block.named_parameters().items():
                params[f"block.{i}.{name}"] = tensor
        for expert in self.cfg.experts:
            params.update(collect(f"text_unit.{expert}", self.text_units[expert]))
        params.update(collect("weight_head", self.weight_head))
        return params

    def config_dict(self) -> dict:
        return config_dict(self.cfg)
