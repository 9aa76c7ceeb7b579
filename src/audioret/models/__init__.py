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

# architecture name -> (config class, model class); every config's first
# three fields are experts, expert_dims and the text input width
ARCHITECTURES = {"moee": (MoeeConfig, MoeeModel), "ce": (CeConfig, CeModel),
                 "mmt": (MmtConfig, MmtModel)}


def build_model(arch: str, experts: tuple[str, ...], expert_dims: dict[str, int],
                text_dim: int, rng: np.random.Generator,
                overrides: dict | None = None):
    """Construct a model of the named architecture with config overrides."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r} "
                         f"(known: {', '.join(ARCHITECTURES)})")
    config_class, model = ARCHITECTURES[arch]
    return model(config_class(experts, expert_dims, text_dim, **(overrides or {})),
                 rng)


def model_from_config(arch: str, config: dict, rng: np.random.Generator):
    """Rebuild a model from a stored config_dict()."""
    config_class, model = ARCHITECTURES[arch]
    return model(config_class(**config), rng)


__all__ = [
    "ARCHITECTURES", "AudioBatch", "AudioClip", "CeConfig", "CeModel",
    "GatedUnit", "Linear", "MmtConfig", "MmtModel", "MoeeConfig", "MoeeModel",
    "NetVlad", "SimilarityMatrix", "TextBatch", "batch_scores", "build_model",
    "combine_scores", "encode_clips", "model_from_config", "similarity_matrix",
    "uniform_init",
]
