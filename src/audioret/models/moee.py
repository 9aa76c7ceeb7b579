"""Mixture-of-embedding-experts model.

Text: word vectors -> NetVLAD -> one gated unit per expert, plus a
linear head whose softmax gives the expert mixture weights.
Audio: per expert, NetVLAD over the feature stream -> gated unit.
Score: weighted sum of per-expert cosines, weights renormalized over
the experts present for the audio sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..experts import TextEmbedding
from .blocks import (AudioBatch, GatedUnit, Linear, NetVlad, check_experts,
                     collect, config_dict, encode_captions, gather_streams)


@dataclass
class MoeeConfig:
    experts: tuple[str, ...]
    expert_dims: dict[str, int]
    word_dim: int
    text_clusters: int = 20
    text_ghost: int = 1
    audio_clusters: int = 16
    audio_ghost: int = 0
    joint_dim: int = 512

    def __post_init__(self):
        self.experts = tuple(self.experts)
        check_experts(self.experts, self.expert_dims)


class MoeeModel:
    arch = "moee"

    def __init__(self, cfg: MoeeConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.text_vlad = NetVlad(cfg.word_dim, cfg.text_clusters, cfg.text_ghost, rng)
        text_dim = self.text_vlad.output_dim
        self.audio_vlad: dict[str, NetVlad] = {}
        self.text_units: dict[str, GatedUnit] = {}
        self.audio_units: dict[str, GatedUnit] = {}
        for expert in cfg.experts:
            self.audio_vlad[expert] = NetVlad(
                cfg.expert_dims[expert], cfg.audio_clusters, cfg.audio_ghost, rng)
            self.text_units[expert] = GatedUnit(text_dim, cfg.joint_dim, rng)
            self.audio_units[expert] = GatedUnit(
                self.audio_vlad[expert].output_dim, cfg.joint_dim, rng)
        self.weight_head = Linear(text_dim, len(cfg.experts), rng)

    # -- encoding ------------------------------------------------------

    encode_text = encode_captions

    def pool_text(self, captions: list[TextEmbedding]) -> ad.Tensor:
        """NetVLAD over each caption's valid token rows, B x K*D; an all-OOV
        caption aggregates its zero rows themselves."""
        return self.text_vlad([t.token_matrix[t.mask] if t.mask.any()
                               else t.token_matrix for t in captions])

    def encode_audio(self, streams: list):
        """Encode a list of stream mappings into an AudioBatch."""
        return self._encode_audio(streams, gate=None)

    def _encode_audio(self, streams, gate):
        experts = self.cfg.experts
        present, rows = gather_streams(experts, streams)
        with ad.rowwise(len(streams) == 1):
            pooled = {e: self.audio_vlad[e](rows[e]) for e in experts if rows[e]}
            if gate is not None:
                pooled = gate(pooled, present)
            outputs = [self.audio_units[e](pooled[e]) for e in experts if e in pooled]
        # the outputs stack (expert, item) rows in expert-major order
        vectors = ad.place_rows(ad.concat(outputs), np.nonzero(present.T)[::-1],
                                present.shape + (self.cfg.joint_dim,))
        return AudioBatch(vectors, present)

    # -- parameters ----------------------------------------------------

    def named_parameters(self) -> dict[str, ad.Tensor]:
        params = collect("text_vlad", self.text_vlad)
        for expert in self.cfg.experts:
            params.update(collect(f"audio_vlad.{expert}", self.audio_vlad[expert]))
            params.update(collect(f"text_unit.{expert}", self.text_units[expert]))
            params.update(collect(f"audio_unit.{expert}", self.audio_units[expert]))
        params.update(collect("weight_head", self.weight_head))
        return params

    def config_dict(self) -> dict:
        return config_dict(self.cfg)
