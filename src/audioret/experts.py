"""Precomputed feature streams, caption token embeddings, and the text
source that embeds a caption's tokens through a word-embedding table.

Feature store layout on disk::

    <root>/index.txt          lines "expert<TAB>dim<TAB>count[<TAB>meta]"
    <root>/<expert>/<sample_id>.mat

Each `.mat` file is little-endian: 6-byte magic ``XFEAT1``, two uint32
(T, D), then T*D float32 values row-major.

Word-embedding tables are text: a header line "V Dw" followed by V lines
of "token v1 ... vDw".
"""

from __future__ import annotations

import string
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"XFEAT1"

# -- registry ----------------------------------------------------------


@dataclass(frozen=True)
class ExpertInfo:
    dim: int
    kind: str  # "audio" or "visual"


class ExpertRegistry:
    """Known experts and their fixed feature dimensions."""

    def __init__(self, entries: dict[str, ExpertInfo]):
        for name, info in entries.items():
            if info.dim <= 0:
                raise ValueError(f"expert {name}: dim must be positive")
            if info.kind not in ("audio", "visual"):
                raise ValueError(f"expert {name}: kind must be audio or visual")
        self._entries = dict(entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def dim(self, name: str) -> int:
        if name not in self._entries:
            raise KeyError(f"unregistered expert: {name}")
        return self._entries[name].dim

    def kind(self, name: str) -> str:
        if name not in self._entries:
            raise KeyError(f"unregistered expert: {name}")
        return self._entries[name].kind


DEFAULT_REGISTRY = ExpertRegistry({
    "VGGish": ExpertInfo(128, "audio"),
    "VGGSound": ExpertInfo(512, "audio"),
    "Inst": ExpertInfo(2048, "visual"),
    "Scene": ExpertInfo(2208, "visual"),
    "R2P1D": ExpertInfo(512, "visual"),
})


# -- stream / embedding containers ------------------------------------


@dataclass
class FeatureStream:
    """One expert's T x D time-major feature matrix for one sample, kept in
    the store's dtype: float32 from an on-disk store, float64 from an
    in-memory one. Any other dtype is cast to float64. The encoders upcast
    each batch's frames once (blocks.canonical_rows, stacked_matmul)."""

    sample_id: str
    expert: str
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if self.matrix.dtype != np.float32:
            self.matrix = self.matrix.astype(np.float64, copy=False)
        if self.matrix.ndim != 2 or self.matrix.shape[0] < 1:
            raise ValueError(
                f"feature stream for {self.sample_id}/{self.expert}: "
                "matrix must be 2-D with at least one row")
        if not np.isfinite(self.matrix).all():
            raise ValueError(
                f"corrupt record (non-finite values): sample {self.sample_id}, "
                f"expert {self.expert}")


@dataclass
class TextEmbedding:
    """Per-token embeddings for one caption; masked rows are all zero."""

    caption_id: str
    token_matrix: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.token_matrix = np.asarray(self.token_matrix, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.token_matrix.shape[0] != self.mask.shape[0]:
            raise ValueError("token matrix and mask lengths differ")


@dataclass
class AudioClip:
    """All of one sample's expert streams, already capped for a model."""

    sample_id: str
    streams: dict[str, np.ndarray] = field(default_factory=dict)


# -- matrix file format ------------------------------------------------


def write_matrix(path: Path | str, matrix: np.ndarray) -> None:
    """Write a T x D matrix in the store's binary format (float32)."""
    m = np.ascontiguousarray(matrix, dtype="<f4")
    if m.ndim != 2:
        raise ValueError("only 2-D matrices are stored")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(MAGIC + struct.pack("<II", *m.shape) + m.tobytes())


def read_matrix(path: Path | str) -> np.ndarray:
    """Read a matrix written by write_matrix; returns float32 T x D."""
    blob = Path(path).read_bytes()
    if blob[:6] != MAGIC:
        raise ValueError(f"bad magic in {path}")
    rows, cols = struct.unpack("<II", blob[6:14])
    if len(blob) != 14 + rows * cols * 4:
        raise ValueError(f"truncated matrix in {path}")
    # the blob outlives the copy, and the view is of a copy of the
    # payload: with either one changed, evaluating a 200-clip store twice
    # peaked 10 MB higher in RSS (heap fragmentation)
    return np.frombuffer(blob[14:], dtype="<f4").reshape(rows, cols).copy()


# -- feature stores ----------------------------------------------------


def _check_id(sample_id: str) -> str:
    if not sample_id or "/" in sample_id or "\\" in sample_id or ".." in sample_id:
        raise ValueError(f"invalid sample id: {sample_id!r}")
    return sample_id


class FeatureStore:
    """Read-only handle over an on-disk feature store."""

    def __init__(self, root: Path, dims: dict[str, int]):
        self.root = root
        self._dims = dims

    def has(self, sample_id: str, expert: str) -> bool:
        if expert not in self._dims:
            return False
        return (self.root / expert / f"{sample_id}.mat").exists()

    def fetch(self, sample_id: str, expert: str) -> FeatureStream:
        _check_id(sample_id)
        if expert not in self._dims:
            raise KeyError(f"expert not in store: {expert}")
        path = self.root / expert / f"{sample_id}.mat"
        if not path.exists():
            raise FileNotFoundError(f"sample not found: {sample_id} ({expert})")
        matrix = read_matrix(path)
        if matrix.shape[1] != self._dims[expert]:
            raise ValueError(
                f"dimension mismatch for {sample_id}/{expert}: "
                f"got {matrix.shape[1]}, store declares {self._dims[expert]}")
        return FeatureStream(sample_id, expert, matrix)


def open_feature_store(root: Path | str,
                       registry: ExpertRegistry = DEFAULT_REGISTRY) -> FeatureStore:
    """Open `root`, validating declared dimensions against the registry."""
    root = Path(root)
    index = root / "index.txt"
    if not index.exists():
        raise FileNotFoundError(f"no index file at {index}")
    dims: dict[str, int] = {}
    for lineno, line in enumerate(index.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise ValueError(f"{index}:{lineno}: expected expert<TAB>dim<TAB>count")
        name, dim = parts[0], int(parts[1])
        int(parts[2])  # the sample count is checked, not kept
        if name not in registry:
            raise ValueError(f"{index}:{lineno}: unregistered expert {name!r}")
        expected = registry.dim(name)
        if dim != expected:
            raise ValueError(
                f"dimension mismatch (expected {expected}) for expert {name}: "
                f"store declares {dim}")
        dims[name] = dim
    if not dims:
        raise ValueError(f"index file {index} lists no experts")
    return FeatureStore(root, dims)


class FeatureStoreBuilder:
    """Writes a feature store directory, then its index."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._dims: dict[str, int] = {}
        self._counts: dict[str, int] = {}

    def add(self, expert: str, sample_id: str, matrix: np.ndarray) -> None:
        _check_id(sample_id)
        matrix = np.asarray(matrix)
        dim = matrix.shape[1]
        if expert in self._dims and self._dims[expert] != dim:
            raise ValueError(f"inconsistent dims for expert {expert}")
        write_matrix(self.root / expert / f"{sample_id}.mat", matrix)
        self._dims[expert] = dim
        self._counts[expert] = self._counts.get(expert, 0) + 1

    def finalize(self) -> Path:
        lines = [f"{name}\t{self._dims[name]}\t{self._counts[name]}"
                 for name in sorted(self._dims)]
        index = self.root / "index.txt"
        index.parent.mkdir(parents=True, exist_ok=True)
        index.write_text("\n".join(lines) + "\n")
        return self.root


class InMemoryFeatureStore:
    """Dict-backed store with the same fetch interface (tests, synthetic)."""

    def __init__(self):
        self._data: dict[tuple[str, str], np.ndarray] = {}

    def add(self, expert: str, sample_id: str, matrix: np.ndarray) -> None:
        self._data[(sample_id, expert)] = np.asarray(matrix, dtype=np.float64)

    def has(self, sample_id: str, expert: str) -> bool:
        return (sample_id, expert) in self._data

    def fetch(self, sample_id: str, expert: str) -> FeatureStream:
        key = (sample_id, expert)
        if key not in self._data:
            raise FileNotFoundError(f"sample not found: {sample_id} ({expert})")
        return FeatureStream(sample_id, expert, self._data[key])


# -- word embeddings ---------------------------------------------------

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def tokenize(text: str) -> list[str]:
    """Lowercase, treat punctuation as separators, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


class WordTable:
    """In-memory word-embedding table: token -> fixed-width vector."""

    def __init__(self, tokens: list[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(tokens) != vectors.shape[0]:
            raise ValueError("token list and vector matrix disagree")
        self.vectors = vectors
        self.index = {tok: i for i, tok in enumerate(tokens)}
        if len(self.index) != len(tokens):
            raise ValueError("duplicate token in table")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def save(self, path: Path | str) -> None:
        tokens = sorted(self.index, key=self.index.get)
        with open(path, "w") as handle:
            handle.write(f"{len(tokens)} {self.dim}\n")
            for tok, row in zip(tokens, self.vectors):
                values = " ".join(repr(float(v)) for v in row)
                handle.write(f"{tok} {values}\n")


def load_word_table(path: Path | str) -> WordTable:
    """Load the text format: header "V Dw", then "token v1 ... vDw"."""
    with open(path) as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise ValueError(f"bad word-table header in {path}")
        vocab, dim = int(header[0]), int(header[1])
        tokens: list[str] = []
        rows = np.empty((vocab, dim), dtype=np.float64)
        for i in range(vocab):
            parts = handle.readline().split()
            if len(parts) != dim + 1:
                raise ValueError(f"bad word-table row {i} in {path}")
            tokens.append(parts[0])
            rows[i] = [float(v) for v in parts[1:]]
    return WordTable(tokens, rows)


def embed_tokens(text: str, table: WordTable,
                 caption_id: str = "") -> TextEmbedding:
    """Map a caption to its in-vocabulary token vectors.

    Out-of-vocabulary tokens are dropped; a caption with no known tokens
    degrades to a single zero row with mask=false rather than erroring.
    """
    if not text or not text.strip():
        raise ValueError("empty caption text")
    hits = [table.index[tok] for tok in tokenize(text) if tok in table]
    if not hits:
        return TextEmbedding(caption_id, np.zeros((1, table.dim)),
                             np.zeros(1, dtype=bool))
    matrix = table.vectors[np.asarray(hits, dtype=np.intp)].copy()
    return TextEmbedding(caption_id, matrix, np.ones(len(hits), dtype=bool))


class WordTableTextSource:
    """Text provider backed by a static word-embedding table."""

    def __init__(self, table: WordTable):
        self.table = table
        self.dim = table.dim

    def tokens_for(self, caption) -> TextEmbedding:
        return embed_tokens(caption.text, self.table, caption.caption_id)


def gather_clip(store, sample_id: str, experts: tuple[str, ...],
                frame_caps: dict[str, int] | None = None) -> AudioClip:
    """Fetch and cap one sample's streams for the configured experts; a
    missing stream is a hard error naming the sample.

    Streams keep the store's dtype (see FeatureStream). A stream longer
    than its cap is capped by a copy, so the clip does not keep the
    uncapped matrix alive."""
    clip = AudioClip(sample_id)
    for expert in experts:
        try:
            stream = store.fetch(sample_id, expert)
        except FileNotFoundError as exc:
            raise FileNotFoundError(
                f"missing features for sample {sample_id} "
                f"(expert {expert})") from exc
        matrix = stream.matrix
        cap = (frame_caps or {}).get(expert, matrix.shape[0])
        clip.streams[expert] = matrix[:cap].copy() if cap < matrix.shape[0] else matrix
    if not clip.streams:
        raise ValueError(f"no experts present for sample {sample_id}")
    return clip
