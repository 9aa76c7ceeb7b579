"""Mini-batch optimization of the bidirectional ranking objective.

The loop is deliberately plain: seeded shuffling, greedy batch assembly
that never places two captions of the same clip in one batch (they would
be false negatives for each other), a non-iterative decayed learning
rate, periodic validation, and best-checkpoint selection by the
geometric mean of R@1/R@5/R@10.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import blas
from . import models as md
from . import optim
from .corpus import Corpus
from .evaluation import MetricsReport, compute_metrics, t2a_ground_truth
from .experts import AudioClip, TextEmbedding, gather_clip
from .models.similarity import batch_scores, similarity_matrix

LR_DECAY = 0.95  # the learning rate's factor per epoch or decay_every_steps

# word cap and per-expert frame caps, keyed by dataset name
DATASET_CAPS = {
    "audiocaps": (52, {"VGGish": 10, "VGGSound": 32}),
    "clotho": (21, {"VGGish": 31, "VGGSound": 95}),
    "sounddescs": (46, {"VGGish": 400, "VGGSound": 400}),
}


def default_caps(dataset: str, architecture: str) -> tuple[int, dict[str, int]]:
    """Per-dataset word/frame maxima; the attention model reads the full
    95 frames from both audio experts on clotho."""
    if dataset not in DATASET_CAPS:
        raise ValueError(f"no default caps for dataset {dataset!r}")
    words, frames = DATASET_CAPS[dataset]
    frames = dict(frames)
    if dataset == "clotho" and architecture == "mmt":
        frames["VGGish"] = 95
    return words, frames


@dataclass(frozen=True)
class LossConfig:
    margin: float = 0.2
    batch_size: int = 128

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2 (the loss needs negatives)")


@dataclass(frozen=True)
class TrainConfig:
    architecture: str
    epochs: int | None = None
    steps: int | None = None
    lr: float = 0.01
    weight_decay: float = 0.001
    decay_every_steps: int | None = None  # None: decay once per epoch
    val_every_steps: int | None = None    # None: validate once per epoch
    optimizer: str = "lookahead_radam"
    seed: int = 0
    word_cap: int | None = None
    frame_caps: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.architecture not in md.ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if (self.epochs is None) == (self.steps is None):
            raise ValueError("set exactly one of epochs/steps")
        budget = self.epochs if self.epochs is not None else self.steps
        if budget < 0:
            raise ValueError("schedule budget must be >= 0")
        # a cap below 1 would drop a stream's last entries or empty it
        if self.word_cap is not None and self.word_cap < 1:
            raise ValueError(f"word cap must be >= 1, got {self.word_cap}")
        for expert, cap in self.frame_caps.items():
            if cap < 1:
                raise ValueError(f"frame cap for {expert!r} must be >= 1, "
                                 f"got {cap}")


def scheduled_lr(lr0: float, decay: float, periods: int) -> float:
    """Learning rate after a number of completed decay periods."""
    return lr0 * decay ** periods


# ---------------------------------------------------------------------------
# loss


def ranking_loss(scores, margin: float) -> ad.Tensor:
    """Bidirectional max-margin loss over a square in-batch score matrix.

    L = (1/B) Σ_{i, j≠i} [m + s_ij − s_ii]_+ + [m + s_ji − s_ii]_+
    with the positive pairs on the diagonal.
    """
    if not isinstance(scores, ad.Tensor):
        scores = ad.Tensor(np.asarray(scores, dtype=np.float64))
    if scores.data.ndim != 2 or scores.data.shape[0] != scores.data.shape[1]:
        raise ValueError("score matrix must be square")
    b = scores.data.shape[0]
    if b < 2:
        raise ValueError("need at least 2 pairs for in-batch negatives")
    eye = np.eye(b)
    diag = ad.reshape(ad.tsum(ad.mul(scores, eye), axis=1), (b, 1))
    t2a = ad.relu(ad.add(ad.sub(scores, diag), margin))
    a2t = ad.relu(ad.add(ad.sub(ad.transpose(scores), diag), margin))
    off = ad.mul(ad.add(t2a, a2t), 1.0 - eye)
    return ad.div(ad.tsum(off), float(b))


# ---------------------------------------------------------------------------
# batch assembly


def assemble_batches(pairs: list[tuple[str, str]], batch_size: int,
                     rng: np.random.Generator) -> list[list[tuple[str, str]]]:
    """Shuffle (caption, clip) pairs into full batches of distinct clips.

    Greedy scan with carryover: a pair whose clip already sits in the
    batch under assembly is skipped and reconsidered for later batches.
    The final short batch is dropped.
    """
    remaining = [pairs[i] for i in rng.permutation(len(pairs))]
    batches = []
    while True:
        batch, used, leftover = [], set(), []
        for pair in remaining:
            if len(batch) < batch_size and pair[1] not in used:
                batch.append(pair)
                used.add(pair[1])
            else:
                leftover.append(pair)
        if len(batch) < batch_size:
            return batches
        batches.append(batch)
        remaining = leftover


# ---------------------------------------------------------------------------
# checkpoints and selection


class _Undrawn:
    """Stands in for a random generator when building a model whose every
    tensor is about to be replaced, or that is built only to run its
    constructor's checks: `uniform` draws nothing and returns a
    zero-strided view of one zero, which allocates nothing."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


@dataclass
class Checkpoint:
    architecture: str
    model_config: dict
    params: dict[str, np.ndarray]
    train_config: TrainConfig
    history: list[tuple[int, MetricsReport]]
    selection_score: float
    best_step: int
    log_lines: list[str] = field(default_factory=list)
    # blas.describe() where training ran; None for archives saved without it
    blas: dict | None = None

    def rebuild(self) -> object:
        """Instantiate the architecture on this checkpoint's weights.

        Every parameter is a read-only float64 view of the checkpoint's
        array, not a copy, so an optimizer step on the model raises instead
        of editing the checkpoint (finetune copies them). The model is
        built without drawing any random numbers."""
        model = md.model_from_config(self.architecture, self.model_config,
                                     _Undrawn())
        target = model.named_parameters()
        if set(target) != set(self.params):
            raise ValueError("checkpoint parameter names do not match architecture")
        for name, arr in self.params.items():
            if target[name].data.shape != arr.shape:
                raise ValueError(f"checkpoint tensor {name} has wrong shape")
            view = np.asarray(arr, dtype=np.float64).view()
            view.flags.writeable = False
            target[name].data = view
        return model


def selection_score(report: MetricsReport) -> float:
    """Geometric mean of R@1, R@5, R@10."""
    return float(np.cbrt(report.r1 * report.r5 * report.r10))


def select_best(history: list[tuple[int, MetricsReport]]) -> int:
    """Index of the history entry with the best selection score, earliest
    entry winning ties."""
    if not history:
        raise ValueError("empty history")
    scores = [selection_score(rep) for _, rep in history]
    best = 0
    for i, s in enumerate(scores):
        if s > scores[best]:
            best = i
    return best


# ---------------------------------------------------------------------------
# data staging


def capped_text(emb: TextEmbedding, cap: int | None) -> TextEmbedding:
    """The caption's first `cap` tokens; a `cap` of None keeps them all."""
    if cap is None or emb.token_matrix.shape[0] <= cap:
        return emb
    return TextEmbedding(emb.caption_id, emb.token_matrix[:cap], emb.mask[:cap])


@dataclass(frozen=True)
class SplitView:
    """A split's captions or clips, each loaded only when a slice of the
    view is taken: `view[a:b]` is the list load(key) for keys[a:b]. An
    evaluation or search pool encoded through it is loaded chunk by chunk
    (similarity._encode_chunks), never staged whole."""

    keys: list
    load: Callable

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, part: slice) -> list:
        return [self.load(key) for key in self.keys[part]]


def split_texts(corpus: Corpus, split: str, text_source,
                cfg: TrainConfig) -> SplitView:
    """A lazy view of a split's caption embeddings, capped at the word cap,
    in caption-id order."""
    captions = corpus.captions_for_split(split)
    if not captions:
        raise ValueError(f"corpus has no captions in split {split!r}")
    return SplitView(captions, lambda c: capped_text(text_source.tokens_for(c),
                                                     cfg.word_cap))


def split_clips(corpus: Corpus, split: str, store, experts: tuple[str, ...],
                cfg: TrainConfig) -> SplitView:
    """A lazy view of a split's clips, capped at the frame caps, in
    sample-id order."""
    ids = corpus.split_ids(split)
    if not ids:
        raise ValueError(f"corpus has no clips in split {split!r}")
    return SplitView(ids, lambda sid: gather_clip(store, sid, experts,
                                                  cfg.frame_caps or None))


def stage_split(corpus: Corpus, split: str, store, text_source,
                experts: tuple[str, ...], cfg: TrainConfig):
    """Fetch every caption embedding and clip of a split once, capped: the
    split's views (split_texts, split_clips) loaded whole, keyed by id."""
    texts = split_texts(corpus, split, text_source, cfg)
    clips = split_clips(corpus, split, store, experts, cfg)
    pairs = [(c.caption_id, c.sample_id) for c in texts.keys]
    return (pairs, {t.caption_id: t for t in texts[:]},
            {c.sample_id: c for c in clips[:]})


def _validate(model, texts: dict[str, TextEmbedding],
              clips: dict[str, AudioClip], gt) -> MetricsReport:
    sim = similarity_matrix(model, list(texts.values()), list(clips.values()))
    return compute_metrics(sim, gt)


def _log_line(step: int, split: str, loss: float, rep: MetricsReport) -> str:
    return (f"{step},{split},{loss:.6f},{rep.r1:.2f},{rep.r5:.2f},"
            f"{rep.r10:.2f},{rep.medr:.1f},{rep.meanr:.2f}")


# ---------------------------------------------------------------------------
# the loop


def train(model, corpus: Corpus, store, text_source, cfg: TrainConfig,
          loss_cfg: LossConfig) -> Checkpoint:
    """Optimize model on corpus's train split, selecting by val metrics.

    Deterministic given the model's initial parameters, cfg.seed, and the
    staged data; aborts on a non-finite loss rather than skipping steps.
    A train caption with no in-vocabulary token is dropped, with one
    warning, since its all-masked input can blow up a gradient (MMT's
    text-unit biases); validation keeps such captions as queries.

    A step's gradients live from its backward pass until the next step's
    backward pass or the next validation, whichever comes first: every
    validation starts by releasing them, so the best-parameters copy and
    the validation's encodings can reuse their memory. Every schedule ends
    with a validation, so the model leaves train() holding no gradient.
    """
    rng = np.random.default_rng(cfg.seed)
    experts = tuple(model.cfg.experts)
    pairs, train_texts, train_clips = stage_split(
        corpus, "train", store, text_source, experts, cfg)
    empty = [cid for cid, t in train_texts.items() if not t.mask.any()]
    if empty:
        warnings.warn(f"dropping {len(empty)} train captions with no "
                      f"in-vocabulary token (e.g. {empty[0]})")
        for cid in empty:
            del train_texts[cid]
        pairs = [pair for pair in pairs if pair[0] in train_texts]
    _, val_texts, val_clips = stage_split(
        corpus, "val", store, text_source, experts, cfg)
    val_gt = t2a_ground_truth(corpus.of_split("val"))

    params = model.named_parameters()
    opt = optim.build_optimizer(cfg.optimizer, params, cfg.lr,
                                weight_decay=cfg.weight_decay)

    by_epoch = cfg.epochs is not None
    budget = cfg.epochs if by_epoch else cfg.steps
    decay_every = cfg.decay_every_steps or 1000
    val_every = cfg.val_every_steps or 1000

    history: list[tuple[int, MetricsReport]] = []
    log_lines: list[str] = []
    best_params: dict[str, np.ndarray] = {}
    step = 0
    window: list[float] = []

    def run_validation() -> None:
        opt.zero_grad()  # the step that made them has been applied
        report = _validate(model, val_texts, val_clips, val_gt)
        mean_loss = float(np.mean(window)) if window else float("nan")
        window.clear()
        history.append((step, report))
        log_lines.append(_log_line(step, "val", mean_loss, report))
        if select_best(history) == len(history) - 1:
            best_params.update((k, p.data.copy()) for k, p in params.items())

    def full_batches() -> list[list[tuple[str, str]]]:
        batches = assemble_batches(pairs, loss_cfg.batch_size, rng)
        if not batches:
            raise ValueError("train split too small for one full batch")
        return batches

    def run_batch(batch, validate: bool) -> None:
        nonlocal step
        texts = [train_texts[cid] for cid, _ in batch]
        clips = [train_clips[sid] for _, sid in batch]
        if not by_epoch:
            opt.lr = scheduled_lr(cfg.lr, LR_DECAY, step // decay_every)
        loss = ranking_loss(batch_scores(model, texts, clips), loss_cfg.margin)
        value = loss.item()
        if not np.isfinite(value):
            raise RuntimeError(f"training diverged: loss {value} at step {step}")
        opt.zero_grad()
        loss.backward()
        del loss  # free the tape before a validation
        # a step that fans out parks OpenBLAS's spinning workers (blas.park);
        # the pin holds through the step and any due validation, so nothing
        # starts them again before the next forward
        with blas.one_thread():
            opt.step()
            window.append(value)
            step += 1
            if validate or (not by_epoch and (step % val_every == 0
                                              or step == budget)):
                run_validation()

    if budget == 0:
        run_validation()
    elif by_epoch:
        for epoch in range(budget):
            opt.lr = scheduled_lr(cfg.lr, LR_DECAY, epoch)
            batches = full_batches()
            for i, batch in enumerate(batches):
                run_batch(batch, i == len(batches) - 1)
    else:
        while step < budget:
            for batch in full_batches():
                run_batch(batch, False)
                if step >= budget:
                    break

    best_step, report = history[select_best(history)]
    return Checkpoint(cfg.architecture, model.config_dict(), best_params,
                      cfg, history, selection_score(report), best_step,
                      log_lines, blas=blas.describe())


def finetune(ckpt: Checkpoint, corpus: Corpus, store, text_source,
             cfg: TrainConfig, loss_cfg: LossConfig) -> Checkpoint:
    """Continue training the checkpoint's own model (rebuild): its experts,
    widths and weights. Each parameter trains a writable copy of its
    read-only view, so the checkpoint's arrays keep their values. A study
    refuses a source with other widths before it writes (bench._run_study)."""
    if cfg.architecture != ckpt.architecture:
        raise ValueError(f"architecture mismatch: checkpoint is "
                         f"{ckpt.architecture}, config says {cfg.architecture}")
    model = ckpt.rebuild()
    for p in model.named_parameters().values():
        p.data = p.data.copy()
    return train(model, corpus, store, text_source, cfg, loss_cfg)
