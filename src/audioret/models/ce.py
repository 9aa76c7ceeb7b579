"""Collaborative-experts model: MoEE plus pairwise expert gating.

Before the audio gated units, each expert's pooled descriptor is
modulated by an elementwise (0,1) mask computed from all ordered pairs
of present experts: pairs are projected into a shared width, combined
by a two-layer MLP, summed, and projected back per expert through a
sigmoid. A single present expert is combined with itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from .blocks import Linear, collect
from .moee import MoeeConfig, MoeeModel


@dataclass
class CeConfig(MoeeConfig):
    gate_width: int = 128


class CeModel(MoeeModel):
    arch = "ce"

    def __init__(self, cfg: CeConfig, rng: np.random.Generator):
        super().__init__(cfg, rng)
        width = cfg.gate_width
        self.gate_in: dict[str, Linear] = {}
        self.gate_out: dict[str, Linear] = {}
        for expert in cfg.experts:
            vlad_dim = self.audio_vlad[expert].output_dim
            self.gate_in[expert] = Linear(vlad_dim, width, rng)
            self.gate_out[expert] = Linear(width, vlad_dim, rng)
        self.pair_fc1 = Linear(2 * width, width, rng)
        self.pair_fc2 = Linear(width, width, rng)

    def collaborative_gate(self, expert_vectors: dict,
                           present: np.ndarray) -> dict:
        """Mask and modulate pooled expert vectors using pairwise context.

        expert_vectors[e] stacks one row per item that has expert e, in
        batch order, as the B x E presence mask `present` says; every
        ordered pair of an item's present experts goes through the pair
        MLP as one batch.
        """
        if not expert_vectors:
            raise ValueError("no expert vectors to gate")
        experts = self.cfg.experts
        source = ad.concat([self.gate_in[e](expert_vectors[e])
                            for e in experts if e in expert_vectors])
        # index[b, e]: source row of (item b, expert e); rows run expert-major
        index = np.zeros(present.shape, dtype=np.intp)
        index.T[present.T] = np.arange(np.count_nonzero(present))
        # (expert, item, partner) triples in that order of priority: every
        # present partner, a lone expert paired with itself
        lone = present.sum(axis=1) == 1
        same = np.eye(len(experts), dtype=bool)[:, None, :]
        active = (present.T[:, :, None] & present[None, :, :]
                  & (~same | lone[None, :, None]))
        expert, item, partner = np.nonzero(active)
        left, right = index[item, expert], index[item, partner]
        offsets = np.concatenate([[0], np.cumsum(active.sum(axis=2)[present.T])])
        pair = ad.concat([ad.take_rows(source, left),
                          ad.take_rows(source, right)], axis=1)
        messages = ad.segment_sum(self.pair_fc2(ad.relu(self.pair_fc1(pair))),
                                  offsets)
        gated, cursor = {}, 0
        for expert in experts:
            if expert in expert_vectors:
                vectors = ad.as_tensor(expert_vectors[expert])
                rows = messages[cursor: cursor + vectors.shape[0]]
                cursor += vectors.shape[0]
                gated[expert] = ad.mul(vectors, ad.sigmoid(self.gate_out[expert](rows)))
        return gated

    def encode_audio(self, streams):
        """As MoeeModel.encode_audio, with the collaborative gate between
        pooling and the gated units."""
        return self._encode_audio(streams, gate=self.collaborative_gate)

    def named_parameters(self) -> dict[str, ad.Tensor]:
        params = super().named_parameters()
        for expert in self.cfg.experts:
            params.update(collect(f"gate_in.{expert}", self.gate_in[expert]))
            params.update(collect(f"gate_out.{expert}", self.gate_out[expert]))
        params.update(collect("pair_fc1", self.pair_fc1))
        params.update(collect("pair_fc2", self.pair_fc2))
        return params
