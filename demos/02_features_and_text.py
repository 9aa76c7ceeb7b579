"""
Precomputed features: stores, word tables, and clip staging
===========================================================

Models never see raw audio or raw text. Audio arrives as precomputed
expert features — one matrix of frame vectors per (clip, expert) — and
captions arrive as word-embedding matrices looked up from a table. This
demo writes features in the on-disk matrix format, reads them through a
feature store, and stages a capped clip the way training would.
"""

import tempfile
from pathlib import Path

import numpy as np

from audioret.corpus import CaptionRecord
from audioret.experts import (DEFAULT_REGISTRY, FeatureStoreBuilder,
                              InMemoryFeatureStore, WordTable,
                              WordTableTextSource, gather_clip,
                              open_feature_store, read_matrix, write_matrix)

work = Path(tempfile.mkdtemp(prefix="features-demo-"))
rng = np.random.default_rng(0)

# the registry names the experts a dataset can provide and their widths
print("expert registry:")
for name in DEFAULT_REGISTRY.names:
    print(f"  {name:9s} dim={DEFAULT_REGISTRY.dim(name):4d} "
          f"kind={DEFAULT_REGISTRY.kind(name)}")

# matrices live in a simple binary container: magic, shape, float32 data
path = work / "clip0.bin"
frames = rng.standard_normal((9, 128))
write_matrix(path, frames)
back = read_matrix(path)
print(f"\nwrote {frames.shape} matrix, read back {back.shape}, "
      f"max abs round-trip error {np.abs(back - frames).max():.2e}")

# a feature store maps (sample_id, expert) to such matrices; the in-memory
# variant backs synthetic corpora and tests
store = InMemoryFeatureStore()
store.add("VGGish", "clip0", rng.standard_normal((9, 128)))
store.add("VGGSound", "clip0", rng.standard_normal((14, 512)))
print(f"store has VGGish for clip0: {store.has('clip0', 'VGGish')}")

# on-disk stores keep one directory per expert under a dataset root plus
# an index.txt declaring each expert's width and file count; the builder
# writes both, and open_feature_store validates the index against the
# registry before serving any fetch
builder = FeatureStoreBuilder(work / "mydata")
for expert, n, d in (("VGGish", 9, 128), ("VGGSound", 14, 512)):
    builder.add(expert, "clip0", rng.standard_normal((n, d)))
root = builder.finalize()
disk_store = open_feature_store(root)
print(f"disk store fetch: {disk_store.fetch('clip0', 'VGGish').matrix.shape}")

# captions become matrices of word vectors through a table lookup;
# unknown words are skipped
table = WordTable(["rain", "on", "a", "tin", "roof"],
                  rng.standard_normal((5, 16)))
source = WordTableTextSource(table)
emb = source.tokens_for(CaptionRecord("c0", "clip0", "rain on a tin roof"))
print(f"\ncaption -> token matrix {emb.token_matrix.shape}, "
      f"mask {emb.mask.astype(int)}")

# gather_clip assembles every expert stream of one sample, applying
# per-expert frame caps; the models take these variable-length streams
# as they are, with no padding
clip = gather_clip(store, "clip0", ("VGGish", "VGGSound"),
                   frame_caps={"VGGish": 6, "VGGSound": 20})
for expert, stream in clip.streams.items():
    print(f"capped stream {expert}: {stream.shape}")
