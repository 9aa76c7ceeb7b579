"""Embedding architectures and the batched scoring they share."""

from __future__ import annotations

import numpy as np

from .blocks import (AudioBatch, GatedUnit, Linear, NetVlad, TextBatch,
                     uniform_init)
from .ce import CeConfig, CeModel
from .mmt import MmtConfig, MmtModel
from .moee import MoeeConfig, MoeeModel
from .similarity import (AudioClip, SimilarityMatrix, batch_scores,
                         combine_scores, encode_clips, similarity_matrix)

ARCHITECTURES = ("moee", "ce", "mmt")


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
    "NetVlad", "SimilarityMatrix", "TextBatch", "batch_scores", "build_model",
    "combine_scores", "encode_clips", "model_from_config", "similarity_matrix",
    "uniform_init",
]
