"""Experiment orchestration: seeded benchmark runs, ablations over expert
subsets, pretrain→finetune transfer, training-scale curves, and ad-hoc
text search against a checkpoint.

Every run persists per-seed metric artifacts under a directory named by
a hash of the exact configuration, so results are cached by content:
rerunning the same config reuses the stored reports bit-for-bit, and a
changed config can never silently pick up stale artifacts. Tables are
assembled only from those stored reports.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import blas
from . import models as md
from . import training as tr
from .corpus import DATASET_NAMES, CaptionRecord, Corpus, load_benchmark
from .evaluation import (MetricsReport, ResultRow, SeedAggregate,
                         a2t_ground_truth, aggregate_seeds, compute_metrics,
                         render_csv, render_table, report_from_dict,
                         report_to_dict, t2a_ground_truth)
from .experts import (DEFAULT_REGISTRY, WordTableTextSource, load_word_table,
                      open_feature_store)
# combine_scores is reached through this module too (perfbench hooks it)
from .models.similarity import (combine_scores, encode_clips, query_scores,
                                similarity_matrix)
from .synthetic import make_synthetic_benchmark
from .training import Checkpoint, LossConfig, TrainConfig

FEATURES_ENV = "AUDIORET_FEATURES"
DATA_ENV = "AUDIORET_DATA_ROOT"

# Bumped whenever a change alters the floats training produces, so cached
# run artifacts from earlier numerics are never served for a new run.
# 6: a batch of one item multiplies its rows by GEMV, not einsum.
# 7: validation encodes every chunk on one pinned BLAS thread.
# 8: train() drops train captions with no in-vocabulary token.
# 9: a study's unset caps take their dataset defaults key by key.
NUMERICS_VERSION = 9

DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_FRACTIONS = (0.125, 0.25, 0.5, 1.0)
SUBSAMPLE_SEED = 0  # the scale study's subsamples; its run keys name it
# the one entry each study's config section holds
STUDY_ENTRIES = {"ablate": "subsets", "transfer": "source", "scale": "fractions"}
# keys an older config may still carry, and what took their place
REMOVED_KEYS = {("train", "lr_decay"):
                f"the decay factor is fixed at training.LR_DECAY = {tr.LR_DECAY}"}

# per-architecture schedule defaults
ARCH_DEFAULTS = {
    "moee": dict(epochs=20, lr=0.01, weight_decay=0.001,
                 optimizer="lookahead_radam", margin=0.2, batch_size=128),
    "ce": dict(epochs=20, lr=0.01, weight_decay=0.001,
               optimizer="lookahead_radam", margin=0.2, batch_size=128),
    "mmt": dict(steps=50_000, lr=5e-5, weight_decay=0.0, optimizer="adam",
                decay_every_steps=1000, val_every_steps=1000,
                margin=0.05, batch_size=32),
}


# ---------------------------------------------------------------------------
# flat config files


def parse_config(text: str) -> dict[str, dict[str, str]]:
    """Parse `section.key=value` lines; '#' starts a comment."""
    sections: dict[str, dict[str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ValueError(f"config line {lineno}: key must be section.name")
        section, name = key.split(".", 1)
        bucket = sections.setdefault(section, {})
        if name in bucket:
            raise ValueError(f"config line {lineno}: duplicate key {key}")
        bucket[name] = value
    return sections


def _parse_list(value: str, cast):
    return tuple(cast(part.strip()) for part in value.split(",") if part.strip())


def _coerce(value: str):
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", ""):
        return None
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _parse_caps(value: str) -> dict[str, int]:
    caps = {}
    for part in value.split(","):
        if not part.strip():
            continue
        expert, _, cap = part.partition(":")
        caps[expert.strip()] = int(cap)
    return caps


@dataclass
class ExperimentConfig:
    dataset: str
    architecture: str
    experts: tuple[str, ...]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    train: dict = field(default_factory=dict)
    loss: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    out_dir: str = "runs"
    extras: dict[str, dict[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        self.experts = tuple(self.experts)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.experts:
            raise ValueError("expert subset must be non-empty")
        if len(set(self.experts)) != len(self.experts):
            raise ValueError("duplicate expert in subset")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.architecture not in md.ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.dataset not in DATASET_NAMES + ("synthetic",):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        for section, entry in STUDY_ENTRIES.items():
            unknown = sorted(set(self.extras.get(section, {})) - {entry})
            if unknown:
                raise ValueError(f"unknown {section} key {unknown[0]!r}")
        # the study entries, parsed once
        raw = {section: self.extras.get(section, {}).get(entry) or ""
               for section, entry in STUDY_ENTRIES.items()}
        self.subsets = tuple(_parse_list(group, str)
                             for group in raw["ablate"].split(";") if group.strip())
        self.source = raw["transfer"] or None
        self.fractions = _parse_list(raw["scale"], float) or DEFAULT_FRACTIONS

    def canonical_lines(self, extra: dict | None = None) -> list[str]:
        """The key's entries; they name the BLAS and its thread count, as
        training's bits depend on both, so call it outside any pin."""
        blas_info = blas.describe()
        entries = {
            "dataset": self.dataset,
            "arch": self.architecture,
            "experts": ",".join(self.experts),
            "numerics": repr(NUMERICS_VERSION),
            "blas.library": repr(blas_info["library"]),
            "blas.threads": repr(blas_info["threads"]),
        }
        for section, table in (("train", self.train), ("loss", self.loss),
                               ("model", self.model)):
            for key, value in table.items():
                entries[f"{section}.{key}"] = repr(value)
        for key, value in (extra or {}).items():
            entries[key] = repr(value)
        return [f"{k}={entries[k]}" for k in sorted(entries)]

    def run_key(self, extra: dict | None = None) -> str:
        digest = hashlib.sha256(
            "\n".join(self.canonical_lines(extra)).encode()).hexdigest()
        return digest[:16]


def experiment_from_sections(sections: dict[str, dict[str, str]],
                             **overrides) -> ExperimentConfig:
    exp = dict(sections.get("experiment", {}))
    kwargs = {
        "dataset": exp.pop("dataset", None),
        "architecture": exp.pop("arch", None),
        "experts": _parse_list(exp.pop("experts", ""), str),
        "out_dir": exp.pop("out", "runs"),
    }
    if "seeds" in exp:
        kwargs["seeds"] = _parse_list(exp.pop("seeds"), int)
    if exp:
        raise ValueError(f"unknown experiment key {sorted(exp)[0]!r}")
    kwargs["train"] = {k: (_parse_caps(v) if k == "frame_caps" else _coerce(v))
                       for k, v in sections.get("train", {}).items()}
    kwargs["loss"] = {k: _coerce(v) for k, v in sections.get("loss", {}).items()}
    kwargs["model"] = {k: _coerce(v) for k, v in sections.get("model", {}).items()}
    unknown = sorted(set(sections) - {"experiment", "train", "loss", "model",
                                      *STUDY_ENTRIES})
    if unknown:
        raise ValueError(f"unknown config section {unknown[0]!r}")
    kwargs["extras"] = {name: dict(table) for name, table in sections.items()
                        if name in STUDY_ENTRIES}
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    for key, name in (("dataset", "dataset"), ("arch", "architecture")):
        if not kwargs.get(name):
            raise ValueError(f"config is missing experiment.{key}")
    return ExperimentConfig(**kwargs)


def experiment_from_file(path: Path | str, **overrides) -> ExperimentConfig:
    return experiment_from_sections(parse_config(Path(path).read_text()),
                                    **overrides)


# ---------------------------------------------------------------------------
# data plumbing


@dataclass
class DataBundle:
    corpus: Corpus
    store: object
    text_source: object
    expert_dims: dict[str, int]
    text_dim: int


def synthetic_bundle(seed: int = 1234, n_pairs: int = 48,
                     n_test: int = 16) -> DataBundle:
    bench = make_synthetic_benchmark(np.random.default_rng(seed),
                                     n_pairs=n_pairs, n_test=n_test)
    return DataBundle(bench.corpus, bench.store, bench.text_source,
                      dict(bench.expert_dims), bench.word_table.dim)


def load_data(cfg: ExperimentConfig) -> DataBundle:
    """Resolve the corpus, feature store, and text embeddings for a config.

    The synthetic dataset is generated in memory; real datasets read the
    corpus root and feature root from environment variables, each holding
    one subdirectory per dataset.
    """
    if cfg.dataset == "synthetic":
        return synthetic_bundle()
    data_root = os.environ.get(DATA_ENV)
    feature_root = os.environ.get(FEATURES_ENV)
    if not data_root or not feature_root:
        raise RuntimeError(
            f"dataset {cfg.dataset!r} needs {DATA_ENV} (corpus root) and "
            f"{FEATURES_ENV} (feature root) set")
    corpus = load_benchmark(cfg.dataset, Path(data_root) / cfg.dataset)
    store = open_feature_store(Path(feature_root) / cfg.dataset)
    table = load_word_table(Path(feature_root) / "word_table.txt")
    dims = {name: DEFAULT_REGISTRY.dim(name) for name in DEFAULT_REGISTRY.names}
    return DataBundle(corpus, store, WordTableTextSource(table), dims,
                      table.dim)


# ---------------------------------------------------------------------------
# single seeded run


def _build_configs(cfg: ExperimentConfig, seed: int) -> tuple[TrainConfig, LossConfig]:
    defaults = dict(ARCH_DEFAULTS[cfg.architecture])
    margin = defaults.pop("margin")
    batch = defaults.pop("batch_size")
    train_kw = defaults | dict(cfg.train)
    if "steps" in cfg.train and "epochs" not in cfg.train:
        train_kw.pop("epochs", None)  # config switched the budget type
    if "epochs" in cfg.train and "steps" not in cfg.train:
        train_kw.pop("steps", None)
    if cfg.dataset in tr.DATASET_CAPS:  # each cap left unset: its default
        words, frames = tr.default_caps(cfg.dataset, cfg.architecture)
        train_kw.setdefault("word_cap", words)
        train_kw["frame_caps"] = {e: c for e, c in frames.items()
                                  if e in cfg.experts} | train_kw.get(
                                      "frame_caps", {})
    train_cfg = TrainConfig(architecture=cfg.architecture, seed=seed, **train_kw)
    loss_kw = dict(margin=margin, batch_size=batch) | dict(cfg.loss)
    return train_cfg, LossConfig(**loss_kw)


def _check_config(cfg: ExperimentConfig, bundle: DataBundle) -> None:
    """Reject train./loss./model. keys no config takes and experts the
    bundle lacks, before anything trains."""
    model_cfg = md.ARCHITECTURES[cfg.architecture][0]
    # a run sets the architecture and seed, a model its experts and widths
    for section, known in (("train", fields(TrainConfig)),
                           ("loss", fields(LossConfig)),
                           ("model", fields(model_cfg)[3:])):
        names = {f.name for f in known} - {"architecture", "seed"}
        unknown = sorted(set(getattr(cfg, section)) - names)
        if unknown:
            note = REMOVED_KEYS.get((section, unknown[0]))
            raise ValueError(f"unknown {section} key {unknown[0]!r}"
                             + (f": {note}" if note else ""))
    missing = [e for e in cfg.experts if e not in bundle.expert_dims]
    if missing:
        raise ValueError(f"expert not available for {cfg.dataset}: {missing[0]!r}")


def _build_model(cfg: ExperimentConfig, bundle: DataBundle, rng):
    """The run's model drawn from `rng`; training._Undrawn() draws none."""
    _check_config(cfg, bundle)
    dims = {e: bundle.expert_dims[e] for e in cfg.experts}
    return md.build_model(cfg.architecture, cfg.experts, dims, bundle.text_dim,
                          rng, dict(cfg.model))


def evaluate_checkpoint(ckpt: Checkpoint, bundle: DataBundle,
                        split: str = "test") -> dict[str, MetricsReport]:
    """Both-direction metrics of a checkpoint on one corpus split.

    The split's captions and clips are loaded through lazy views
    (training.split_texts, training.split_clips) inside the chunk tasks
    that encode them, so only the chunks in flight are held at once; the
    matrix is bitwise that of the split staged whole. An empty split
    raises before any task starts, and a missing feature file raises
    FileNotFoundError naming the sample from the task that loads it."""
    model = ckpt.rebuild()
    cfg = ckpt.train_config
    sim = similarity_matrix(
        model, tr.split_texts(bundle.corpus, split, bundle.text_source, cfg),
        tr.split_clips(bundle.corpus, split, bundle.store,
                       tuple(model.cfg.experts), cfg))
    split_corpus = bundle.corpus.of_split(split)
    return {"t2a": compute_metrics(sim, t2a_ground_truth(split_corpus)),
            "a2t": compute_metrics(sim.transposed(),
                                   a2t_ground_truth(split_corpus))}


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


class RunDir:
    """Content-addressed artifact directory for one configuration."""

    def __init__(self, cfg: ExperimentConfig, extra: dict | None = None):
        self.path = Path(cfg.out_dir) / cfg.run_key(extra)
        self.path.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.path / "config.txt",
                      "\n".join(cfg.canonical_lines(extra)) + "\n")

    def seed_artifact(self, seed: int) -> Path:
        return self.path / f"seed{seed}.json"

    def load_seed(self, seed: int) -> dict | None:
        path = self.seed_artifact(seed)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def store_seed(self, seed: int, payload: dict) -> None:
        _atomic_write(self.seed_artifact(seed), json.dumps(payload, indent=1,
                                                           sort_keys=True))


def _train_new(cfg: ExperimentConfig, data: DataBundle, seed: int) -> Checkpoint:
    train_cfg, loss_cfg = _build_configs(cfg, seed)
    return tr.train(_build_model(cfg, data, np.random.default_rng(seed)),
                    data.corpus, data.store, data.text_source, train_cfg,
                    loss_cfg)


def run_single(cfg: ExperimentConfig, bundle: DataBundle, seed: int,
               run_dir: RunDir, train_bundle: DataBundle | None = None,
               source: tuple[ExperimentConfig, DataBundle] | None = None) -> dict:
    """Train (or reuse a cached artifact) for one seed; return the artifact.

    A `source` (config, bundle) pair is trained on first, and its
    checkpoint fine-tuned on the train bundle; the cache is probed once."""
    cached = run_dir.load_seed(seed)
    if cached is not None:
        return cached
    data = train_bundle or bundle
    if source is None:
        ckpt = _train_new(cfg, data, seed)
    else:
        train_cfg, loss_cfg = _build_configs(cfg, seed)
        ckpt = tr.finetune(_train_new(*source, seed), data.corpus, data.store,
                           data.text_source, train_cfg, loss_cfg)
    reports = evaluate_checkpoint(ckpt, bundle)
    payload = {
        "seed": seed,
        "numerics": NUMERICS_VERSION,
        "blas": blas.describe(),
        "selection_score": ckpt.selection_score,
        "best_step": ckpt.best_step,
        "t2a": report_to_dict(reports["t2a"]),
        "a2t": report_to_dict(reports["a2t"]),
        "log": ckpt.log_lines,
    }
    run_dir.store_seed(seed, payload)
    return payload


# ---------------------------------------------------------------------------
# result tables


@dataclass
class ResultTable:
    rows: list[ResultRow]

    def to_text(self) -> str:
        return render_table(self.rows)

    def to_csv(self) -> str:
        return render_csv(self.rows)

    def save(self, directory: Path | str) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(directory / "table.txt", self.to_text())
        _atomic_write(directory / "table.csv", self.to_csv())

    def cell_mean(self, label: str, direction: str, column: str) -> float:
        for row in self.rows:
            if row.label == label:
                entry = row.by_direction[direction]
                if isinstance(entry, SeedAggregate):
                    return entry.means[column]
                return entry.by_column()[column]
        raise KeyError(label)


# ---------------------------------------------------------------------------
# studies


@dataclass
class _Row:
    """A table row; `source` is a (config, bundle) pair to pretrain on."""
    label: str
    cfg: ExperimentConfig
    extra: dict | None = None
    train_data: DataBundle | None = None
    source: tuple[ExperimentConfig, DataBundle] | None = None


def _run_study(cfg: ExperimentConfig, bundle: DataBundle, rows: list[_Row],
               extra: dict | None = None) -> ResultTable:
    """Every row's seeds through run_single, evaluated on `bundle`; the
    table is saved once, under cfg.run_key(extra). Before any RunDir is
    written, every row and its source are checked: keys, experts, model
    values (the model is built, drawing nothing), TrainConfig and
    LossConfig values, and that a source has the train data's widths."""
    for row in rows:
        data = row.train_data or bundle
        source = [row.source] if row.source else []
        for run_cfg, run_data in [(row.cfg, data)] + source:
            _build_model(run_cfg, run_data, tr._Undrawn())
            for seed in run_cfg.seeds[:1]:
                _build_configs(run_cfg, seed)
        for _, src in source:  # finetune continues the source's own model
            for name, got, want in [("text", src.text_dim, data.text_dim)] + [
                    (f"expert {e!r}", src.expert_dims[e], data.expert_dims[e])
                    for e in row.cfg.experts]:
                if got != want:
                    raise ValueError(f"transfer width mismatch for {name}: "
                                     f"source {got}, target {want}")
    table, row_dirs = ResultTable([]), set()
    for row in rows:
        run_dir = RunDir(row.cfg, row.extra)
        row_dirs.add(run_dir.path)
        artifacts = [run_single(row.cfg, bundle, seed, run_dir,
                                row.train_data, row.source)
                     for seed in row.cfg.seeds]
        reports = {d: [report_from_dict(a[d]) for a in artifacts]
                   for d in ("t2a", "a2t")}
        table.rows.append(ResultRow(row.label, {
            d: r[0] if len(r) == 1 else aggregate_seeds(r)
            for d, r in reports.items()}))
    # a benchmark's or transfer's key is also a row's: that RunDir is open
    path = Path(cfg.out_dir) / cfg.run_key(extra)
    table.save(path if path in row_dirs else RunDir(cfg, extra).path)
    return table


def run_benchmark(cfg: ExperimentConfig,
                  data: DataBundle | None = None) -> ResultTable:
    """Train/evaluate cfg across its seeds; one aggregated table row."""
    bundle = data or load_data(cfg)
    return _run_study(cfg, bundle, [_Row(f"{cfg.dataset}/{cfg.architecture}",
                                         cfg)])


def run_ablation(cfg: ExperimentConfig, subsets: list[tuple[str, ...]],
                 data: DataBundle | None = None) -> ResultTable:
    """One benchmark per expert subset, rows in the configured order."""
    if not subsets:
        raise ValueError("no expert subsets configured")
    bundle = data or load_data(cfg)
    rows = [_Row("+".join(s), replace(cfg, experts=tuple(s))) for s in subsets]
    return _run_study(cfg, bundle, rows, {"study": "ablation",
                                          "subsets": [list(s) for s in subsets]})


def run_transfer(cfg: ExperimentConfig, source_dataset: str,
                 data: DataBundle | None = None,
                 source_data: DataBundle | None = None) -> ResultTable:
    """Contrast from-scratch target training against pretrain→finetune."""
    bundle = data or load_data(cfg)
    if source_dataset == cfg.dataset:
        warnings.warn("transfer source equals target; this is just longer "
                      "training on the same data")
    source_cfg = replace(cfg, dataset=source_dataset)
    source = (source_cfg, source_data or load_data(source_cfg))
    extra = {"study": "transfer", "source": source_dataset}
    return _run_study(cfg, bundle, [
        _Row(f"{cfg.dataset}/scratch", cfg),
        _Row(f"{source_dataset}→{cfg.dataset}", cfg, extra, source=source)],
        extra)


def subsample_train(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    """Keep ⌊fraction·N⌋ training samples by a seeded membership filter.

    Filters nest: a smaller fraction keeps a subset of a larger one, and
    fraction 1.0 keeps the corpus identical (same sample order, no
    rebuild noise), because membership never reorders the sample list.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    train_ids = sorted(s.sample_id for s in corpus.samples if s.split == "train")
    keep_count = int(fraction * len(train_ids))
    order = np.random.default_rng(seed).permutation(len(train_ids))
    kept = {train_ids[i] for i in order[:keep_count]}
    samples = [s for s in corpus.samples
               if s.split != "train" or s.sample_id in kept]
    ids = {s.sample_id for s in samples}
    captions = [c for c in corpus.captions if c.sample_id in ids]
    return Corpus(corpus.name, samples, captions, corpus.split_seed)


def run_scale_study(cfg: ExperimentConfig, fractions=DEFAULT_FRACTIONS,
                    data: DataBundle | None = None) -> ResultTable:
    """Metric-vs-training-fraction curve over nested seeded subsamples."""
    fractions = tuple(float(f) for f in fractions)
    bundle = data or load_data(cfg)
    rows = []
    for f in fractions:
        sub = replace(bundle, corpus=subsample_train(bundle.corpus, f,
                                                     SUBSAMPLE_SEED))
        extra = {"fraction": f, "subsample_seed": SUBSAMPLE_SEED}
        rows.append(_Row(f"frac={f:g} (n={len(sub.corpus.split_ids('train'))})",
                         cfg, None if f == 1.0 else extra, sub))
    return _run_study(cfg, bundle, rows, {"study": "scale",
                                          "fractions": list(fractions),
                                          "subsample_seed": SUBSAMPLE_SEED})


# ---------------------------------------------------------------------------
# search


class Searcher:
    """Session object answering free-text queries against one checkpoint.

    Audio-side embeddings for the pool are computed once at construction
    and reused for every query; ranking uses the evaluation tie-break
    (score descending, then sample id ascending). The pool's clips are
    loaded chunk by chunk inside the tasks that encode them
    (training.split_clips), so the Searcher keeps no clip. A large model's
    query runs its expert branches on the pinned worker pool that
    evaluation shares (similarity.query_scores); the Searcher holds no
    thread.
    """

    def __init__(self, ckpt: Checkpoint, corpus: Corpus, store, text_source,
                 split: str = "test"):
        self.model = ckpt.rebuild()
        self.text_source = text_source
        self.word_cap = ckpt.train_config.word_cap
        clips = tr.split_clips(corpus, split, store,
                               tuple(self.model.cfg.experts), ckpt.train_config)
        self.pool_ids = clips.keys
        self._ids = np.asarray(self.pool_ids)
        self.pool = encode_clips(self.model, clips)

    def search(self, query: str, top_k: int = 10) -> list[tuple[str, float]]:
        if not query or not query.strip():
            raise ValueError("empty query")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        # capped like every staged caption, so a pool caption scores as its
        # row of the evaluated matrix
        emb = tr.capped_text(self.text_source.tokens_for(
            CaptionRecord("query", "query", query)), self.word_cap)
        values = query_scores(self.model, emb, self.pool)
        order = np.lexsort((self._ids, -values))[:top_k]
        return [(self.pool_ids[i], float(values[i])) for i in order]
