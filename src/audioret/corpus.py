"""Paired audio/text corpora: construction, splits, loading, statistics.

On-disk corpus layout (written by the builder, read by load_benchmark)::

    <root>/index.tsv          "sample_id<TAB>duration<TAB>cat1,cat2,..."
    <root>/captions.tsv       "caption_id<TAB>sample_id<TAB>text"
    <root>/splits/train.txt   one sample_id per line (same for val/test)
    <root>/excluded_ids.txt   optional; ids dropped at load time

Raw manifest inputs for the sound-archive builder are line-delimited
text in the same "id<TAB>field..." style (see build_sounddescs_manifest).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SPLITS = ("train", "val", "test")

DATASET_NAMES = ("sounddescs", "audiocaps", "clotho", "activitynet", "queryd")

REMARC_NOTICE = (
    "The source audio and descriptions originate from the BBC Sound Effects "
    "archive and are covered by the RemArc Licence: free for personal, "
    "educational, and research use; commercial use requires a separate "
    "licence from the BBC.")


@dataclass
class SampleRecord:
    sample_id: str
    duration: float
    categories: frozenset[str] = frozenset()
    split: str = "unassigned"

    def __post_init__(self):
        if not self.sample_id:
            raise ValueError("empty sample_id")
        if not math.isfinite(self.duration) or self.duration < 0:
            raise ValueError(f"sample {self.sample_id}: bad duration {self.duration}")
        if self.split not in SPLITS + ("unassigned",):
            raise ValueError(f"sample {self.sample_id}: bad split {self.split!r}")
        self.categories = frozenset(self.categories)


@dataclass
class CaptionRecord:
    caption_id: str
    sample_id: str
    text: str

    def __post_init__(self):
        if not self.caption_id:
            raise ValueError("empty caption_id")
        if not self.text or not self.text.strip():
            raise ValueError(f"caption {self.caption_id}: empty text")


@dataclass
class Corpus:
    name: str
    samples: list[SampleRecord]
    captions: list[CaptionRecord]
    split_seed: int | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        ids = [s.sample_id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError(f"corpus {self.name}: duplicate sample ids")
        known = set(ids)
        cap_ids = [c.caption_id for c in self.captions]
        if len(set(cap_ids)) != len(cap_ids):
            raise ValueError(f"corpus {self.name}: duplicate caption ids")
        for cap in self.captions:
            if cap.sample_id not in known:
                raise ValueError(
                    f"corpus {self.name}: caption {cap.caption_id} references "
                    f"unknown sample {cap.sample_id}")

    def __len__(self) -> int:
        return len(self.samples)

    def split_ids(self, split: str) -> list[str]:
        return sorted(s.sample_id for s in self.samples if s.split == split)

    def captions_for_split(self, split: str) -> list[CaptionRecord]:
        members = {s.sample_id for s in self.samples if s.split == split}
        return sorted((c for c in self.captions if c.sample_id in members),
                      key=lambda c: c.caption_id)

    def of_split(self, split: str) -> Corpus:
        """The split's samples and captions alone, e.g. for its ground truth."""
        return Corpus(self.name, [s for s in self.samples if s.split == split],
                      self.captions_for_split(split))


@dataclass
class SplitSpec:
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3 or any(not (0.0 < r < 1.0) for r in self.ratios):
            raise ValueError("each split ratio must lie in (0, 1)")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"split ratios sum to {sum(self.ratios)}, not 1")


@dataclass
class BuildReport:
    input_entries: int
    kept: int
    dropped_no_description: int
    notice: str = REMARC_NOTICE


# -- manifest building -------------------------------------------------


def _read_tsv(path: Path, min_fields: int, what: str) -> list[list[str]]:
    if not path.exists():
        raise FileNotFoundError(f"unreadable {what} file: {path}")
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < min_fields:
            raise ValueError(f"{path}:{lineno}: expected >= {min_fields} tab fields")
        rows.append(parts)
    return rows


def build_sounddescs_manifest(index_path: Path | str,
                              descriptions_path: Path | str
                              ) -> tuple[Corpus, BuildReport]:
    """Join the raw archive index with its description table.

    Index lines: "id<TAB>duration[<TAB>cat1,cat2,...]"; description
    lines: "id<TAB>text". Only entries with a non-empty description
    survive; the report counts the drops and carries the license notice.
    """
    index_rows = _read_tsv(Path(index_path), 2, "index")
    desc_rows = _read_tsv(Path(descriptions_path), 1, "descriptions")
    descriptions: dict[str, str] = {}
    for parts in desc_rows:
        sample_id = parts[0]
        if sample_id in descriptions:
            raise ValueError(f"duplicate description for id {sample_id}")
        descriptions[sample_id] = parts[1].strip() if len(parts) > 1 else ""

    samples: list[SampleRecord] = []
    captions: list[CaptionRecord] = []
    dropped = 0
    for parts in index_rows:
        sample_id = parts[0]
        text = descriptions.get(sample_id, "")
        if not text:
            dropped += 1
            continue
        tags = frozenset(t for t in parts[2].split(",") if t) if len(parts) > 2 else frozenset()
        samples.append(SampleRecord(sample_id, float(parts[1]), tags))
        captions.append(CaptionRecord(sample_id, sample_id, text))
    if not samples:
        raise ValueError("zero valid entries: no indexed sample has a description")
    corpus = Corpus("sounddescs", samples, captions)
    report = BuildReport(len(index_rows), len(samples), dropped)
    return corpus, report


# -- splitting ---------------------------------------------------------


def _split_counts(total: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    # val/test round half-up; train takes the remainder
    n_val = int(math.floor(ratios[1] * total + 0.5))
    n_test = int(math.floor(ratios[2] * total + 0.5))
    n_train = total - n_val - n_test
    if n_train < 0:
        raise ValueError("split ratios leave no room for the training split")
    return n_train, n_val, n_test


def assign_splits(corpus: Corpus, spec: SplitSpec) -> Corpus:
    """Partition an unassigned corpus by a seeded shuffle of sorted ids."""
    if any(s.split != "unassigned" for s in corpus.samples):
        raise ValueError(f"corpus {corpus.name} already split")
    ids = sorted(s.sample_id for s in corpus.samples)
    rng = np.random.default_rng(spec.seed)
    for i in range(len(ids) - 1, 0, -1):  # Fisher-Yates over sorted ids
        j = int(rng.integers(0, i + 1))
        ids[i], ids[j] = ids[j], ids[i]
    n_train, n_val, _ = _split_counts(len(ids), spec.ratios)
    assignment: dict[str, str] = {}
    for pos, sample_id in enumerate(ids):
        if pos < n_train:
            assignment[sample_id] = "train"
        elif pos < n_train + n_val:
            assignment[sample_id] = "val"
        else:
            assignment[sample_id] = "test"
    samples = [replace(s, split=assignment[s.sample_id]) for s in corpus.samples]
    return Corpus(corpus.name, samples, list(corpus.captions), split_seed=spec.seed)


# -- persistence and canonical loading ---------------------------------


def save_corpus(corpus: Corpus, root: Path | str) -> Path:
    """Write the corpus layout consumed by load_benchmark."""
    root = Path(root)
    (root / "splits").mkdir(parents=True, exist_ok=True)
    with open(root / "index.tsv", "w") as handle:
        for s in sorted(corpus.samples, key=lambda r: r.sample_id):
            tags = ",".join(sorted(s.categories))
            handle.write(f"{s.sample_id}\t{float(s.duration)!r}\t{tags}\n")
    with open(root / "captions.tsv", "w") as handle:
        for c in sorted(corpus.captions, key=lambda r: r.caption_id):
            text = " ".join(c.text.split())  # keep records single-line
            handle.write(f"{c.caption_id}\t{c.sample_id}\t{text}\n")
    for split in SPLITS:
        ids = corpus.split_ids(split)
        (root / "splits" / f"{split}.txt").write_text(
            "".join(f"{i}\n" for i in ids))
    return root


def load_benchmark(name: str, root: Path | str) -> Corpus:
    """Load a named dataset from its canonical directory layout."""
    if name not in DATASET_NAMES:
        raise ValueError(f"unknown dataset {name!r} (known: {', '.join(DATASET_NAMES)})")
    root = Path(root)
    excluded: set[str] = set()
    exc_path = root / "excluded_ids.txt"
    if exc_path.exists():
        excluded = {line.strip() for line in exc_path.read_text().splitlines()
                    if line.strip()}

    samples: dict[str, SampleRecord] = {}
    for parts in _read_tsv(root / "index.tsv", 2, "index"):
        sample_id = parts[0]
        if sample_id in excluded:
            continue
        if sample_id in samples:
            raise ValueError(f"duplicate sample id {sample_id} in {root}")
        tags = frozenset(t for t in parts[2].split(",") if t) if len(parts) > 2 else frozenset()
        samples[sample_id] = SampleRecord(sample_id, float(parts[1]), tags)

    captions: list[CaptionRecord] = []
    for parts in _read_tsv(root / "captions.tsv", 3, "captions"):
        if parts[1] in excluded:
            continue
        captions.append(CaptionRecord(parts[0], parts[1], parts[2]))

    for split in SPLITS:
        path = root / "splits" / f"{split}.txt"
        if not path.exists():
            raise FileNotFoundError(f"split list missing: {path}")
        for line in path.read_text().splitlines():
            sample_id = line.strip()
            if not sample_id or sample_id in excluded:
                continue
            if sample_id not in samples:
                raise ValueError(f"split list {path} names unknown sample {sample_id}")
            if samples[sample_id].split != "unassigned":
                raise ValueError(f"sample {sample_id} appears in two split lists")
            samples[sample_id].split = split

    return Corpus(name, list(samples.values()), captions)


# -- statistics --------------------------------------------------------


@dataclass
class StatsReport:
    name: str
    sample_count: int
    caption_count: int
    split_counts: dict[str, int]
    total_duration: float
    mean_duration: float
    max_duration: float
    mean_words: float
    max_words: int
    category_counts: dict[str, int]

    def to_text(self) -> str:
        lines = [
            f"corpus\t{self.name}",
            f"samples\t{self.sample_count}",
            f"captions\t{self.caption_count}",
        ]
        for split in SPLITS + ("unassigned",):
            if self.split_counts.get(split):
                lines.append(f"split.{split}\t{self.split_counts[split]}")
        lines += [
            f"duration.total_s\t{self.total_duration:.2f}",
            f"duration.mean_s\t{self.mean_duration:.2f}",
            f"duration.max_s\t{self.max_duration:.2f}",
            f"words.mean\t{self.mean_words:.2f}",
            f"words.max\t{self.max_words}",
        ]
        for tag, count in sorted(self.category_counts.items(),
                                 key=lambda kv: (-kv[1], kv[0]))[:20]:
            lines.append(f"category.{tag}\t{count}")
        return "\n".join(lines) + "\n"


def corpus_stats(corpus: Corpus) -> StatsReport:
    """Counts, duration/word-length summaries, and category frequencies.

    Word counts use plain whitespace tokenization (punctuation attached).
    Multi-tag samples contribute one count per tag.
    """
    if not corpus.samples:
        raise ValueError("empty corpus")
    durations = np.array([s.duration for s in corpus.samples])
    word_counts = np.array([len(c.text.split()) for c in corpus.captions],
                           dtype=np.intp)
    categories = Counter(tag for s in corpus.samples for tag in s.categories)
    split_counts = Counter(s.split for s in corpus.samples)
    return StatsReport(
        name=corpus.name,
        sample_count=len(corpus.samples),
        caption_count=len(corpus.captions),
        split_counts=dict(split_counts),
        total_duration=float(durations.sum()),
        mean_duration=float(durations.mean()),
        max_duration=float(durations.max()),
        mean_words=float(word_counts.mean()) if word_counts.size else 0.0,
        max_words=int(word_counts.max()) if word_counts.size else 0,
        category_counts=dict(categories),
    )
