"""
Three architectures, one scoring contract
=========================================

Every model maps a caption and a bag of audio expert streams to a single
cosine-style score. This demo builds a tiny instance of each
architecture, scores the same caption/clip pair with all three, and then
pokes at the properties that make the shared contract work: order-free
pooling, unit-norm embeddings, convex mixture weights, bounded
similarity matrices, and end-to-end gradients.
"""

import numpy as np

from audioret import autodiff as ad
from audioret.experts import TextEmbedding
from audioret.models import (AudioClip, NetVlad, batch_scores, build_model,
                             similarity_matrix)

rng = np.random.default_rng(0)

# one caption (4 word vectors) and one clip with two expert streams
EXPERTS = ("timbre", "rhythm")
DIMS = {"timbre": 6, "rhythm": 4}
text = TextEmbedding("c0", rng.standard_normal((4, 5)), np.ones(4, dtype=bool))
clip = AudioClip("a0", {e: rng.standard_normal((7, DIMS[e])) for e in EXPERTS})

# the same pair scored by all three architectures; each build_model call
# gets small overrides so the demo stays instant
tiny = dict(text_clusters=2, text_ghost=1, audio_clusters=2, audio_ghost=0,
            joint_dim=8)
print("score of the same caption/clip pair:")
for arch, over in (("moee", tiny), ("ce", dict(tiny, gate_width=8)),
                   ("mmt", dict(model_dim=8, layers=1, heads=2, ff_dim=16,
                                max_frames=8))):
    model = build_model(arch, EXPERTS, DIMS, text_dim=5,
                        rng=np.random.default_rng(1), overrides=over)
    # every entry point takes batches: one pair is a batch of one each
    s = batch_scores(model, [text], [clip])[0, 0]
    print(f"  {arch:4s} -> {float(s.data):+.4f}")

# NetVLAD pooling is a soft assignment of frames to clusters followed by
# residual aggregation, so shuffling the frames changes nothing at all
vlad = NetVlad(6, 3, 1, rng)
frames = rng.standard_normal((10, 6))
perm = rng.permutation(10)
a = vlad([frames]).data[0]
b = vlad([frames[perm]]).data[0]
print(f"\nNetVLAD descriptor dim {a.shape[0]}, "
      f"permuted frames give identical output: {np.array_equal(a, b)}")
print(f"descriptor norm (always 1): {np.linalg.norm(a):.12f}")

# the mixture model weights experts per caption through a softmax, so
# the weights are nonnegative and sum to one
moee = build_model("moee", EXPERTS, DIMS, text_dim=5,
                   rng=np.random.default_rng(1), overrides=tiny)
w = moee.encode_text([text]).weights.data[0]
print(f"\nmixture weights {np.round(w, 4)}, sum = {w.sum():.12f}")

# a retrieval pool is just lists of captions and clips; the similarity
# matrix is rows-by-captions, columns-by-clips, clipped into [-1, 1] —
# and a clip missing one expert still scores, because the caption's
# weights renormalize over the experts that are present
texts = [TextEmbedding(f"c{i}", rng.standard_normal((3, 5)),
                       np.ones(3, dtype=bool)) for i in range(3)]
clips = [AudioClip("full", {e: rng.standard_normal((5, DIMS[e]))
                            for e in EXPERTS}),
         AudioClip("timbre-only", {"timbre": rng.standard_normal((5, 6))})]
sim = similarity_matrix(moee, texts, clips)
print(f"\nsimilarity matrix {sim.values.shape}, "
      f"range [{sim.values.min():+.3f}, {sim.values.max():+.3f}]")
for i, cid in enumerate(sim.row_ids):
    row = "  ".join(f"{v:+.3f}" for v in sim.values[i])
    print(f"  {cid}: {row}")

# scores are differentiable end to end: backprop from a single score
# reaches every parameter tensor in the model
loss = batch_scores(moee, [text], [clip])[0, 0]
loss.backward()
grads = {n: p.grad for n, p in moee.named_parameters().items()}
nonzero = sum(1 for g in grads.values() if g is not None and np.abs(g).max() > 0)
print(f"\nbackward pass touched {nonzero}/{len(grads)} parameter tensors")
name = "weight_head.w"
print(f"|grad| of {name}: {np.abs(grads[name]).max():.3e}")
