"""Embedding architectures and their public scoring operations."""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..experts import TextEmbedding
from .blocks import (AudioBatch, GatedUnit, Linear, NetVlad, TextBatch,
                     TextSide, uniform_init)
from .ce import CeConfig, CeModel
from .mmt import MmtConfig, MmtModel
from .moee import MoeeConfig, MoeeModel
from .similarity import (AudioClip, SimilarityMatrix, batch_scores,
                         combine_scores, encode_clips, score_pair,
                         similarity_matrix)

ARCHITECTURES = ("moee", "ce", "mmt")


def netvlad_aggregate(frames, params: NetVlad,
                      mask: np.ndarray | None = None) -> ad.Tensor:
    """Pool a T x D stream into a K*D unit descriptor (order-free)."""
    return params(frames, mask)


def gated_embed(x, params: GatedUnit) -> ad.Tensor:
    """Self-gated projection of a vector to the unit sphere."""
    return params(x)


def collaborative_gate(expert_vectors: dict[str, ad.Tensor],
                       params: CeModel) -> dict[str, ad.Tensor]:
    """Apply the pairwise expert mask of a CE model to pooled vectors."""
    tensors = {e: ad.as_tensor(v) for e, v in expert_vectors.items()}
    return params.collaborative_gate(tensors)


def _check_arch(model, arch: str, op: str) -> None:
    if model.arch != arch:
        raise TypeError(f"{op} requires a {arch} parameter set, got {model.arch}")


def moee_score(text: TextEmbedding, audio_experts, params: MoeeModel) -> ad.Tensor:
    _check_arch(params, "moee", "moee_score")
    return score_pair(params, text, audio_experts)


def ce_score(text: TextEmbedding, audio_experts, params: CeModel) -> ad.Tensor:
    _check_arch(params, "ce", "ce_score")
    return score_pair(params, text, audio_experts)


def mmt_encode(audio_experts, params: MmtModel,
               attn_sink: list | None = None) -> dict[str, ad.Tensor]:
    """Final aggregation-token states, one vector per present expert."""
    _check_arch(params, "mmt", "mmt_encode")
    return params.encode_audio(audio_experts, attn_sink=attn_sink)


def mmt_score(text: TextEmbedding, audio_experts, params: MmtModel) -> ad.Tensor:
    _check_arch(params, "mmt", "mmt_score")
    return score_pair(params, text, audio_experts)


def build_model(arch: str, experts: tuple[str, ...], expert_dims: dict[str, int],
                text_dim: int, rng: np.random.Generator,
                overrides: dict | None = None):
    """Construct a model of the named architecture with config overrides."""
    overrides = dict(overrides or {})
    if arch == "moee":
        cfg = MoeeConfig(experts, expert_dims, word_dim=text_dim, **overrides)
        return MoeeModel(cfg, rng)
    if arch == "ce":
        cfg = CeConfig(experts, expert_dims, word_dim=text_dim, **overrides)
        return CeModel(cfg, rng)
    if arch == "mmt":
        cfg = MmtConfig(experts, expert_dims, text_dim=text_dim, **overrides)
        return MmtModel(cfg, rng)
    raise ValueError(f"unknown architecture {arch!r} (known: {ARCHITECTURES})")


def model_from_config(arch: str, config: dict, rng: np.random.Generator):
    """Rebuild a model from a stored config_dict()."""
    config = dict(config)
    experts = tuple(config.pop("experts"))
    dims = {e: int(d) for e, d in config.pop("expert_dims").items()}
    text_dim = config.pop("word_dim", None)
    if text_dim is None:
        text_dim = config.pop("text_dim")
    return build_model(arch, experts, dims, int(text_dim), rng, config)


__all__ = [
    "ARCHITECTURES", "AudioBatch", "AudioClip", "CeConfig", "CeModel",
    "GatedUnit", "Linear", "MmtConfig", "MmtModel", "MoeeConfig", "MoeeModel",
    "NetVlad", "SimilarityMatrix", "TextBatch", "TextSide", "batch_scores",
    "build_model", "ce_score", "collaborative_gate", "combine_scores",
    "encode_clips", "gated_embed", "mmt_encode",
    "mmt_score", "model_from_config", "moee_score", "netvlad_aggregate",
    "score_pair", "similarity_matrix", "uniform_init",
]
