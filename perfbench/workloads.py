"""The benchmark's three workloads, driven through the program's public
entry points only.

Each workload generates its inputs in-process from the workload seed,
times the program's set-up and its timed section separately, checks the
outputs against references in `reference.py`, and fills a `Run` record.
All load is closed-loop with one client.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from tracer import Patcher, Tracer

from audioret import bench, checkpoint, optim, training
from audioret.corpus import CaptionRecord, Corpus, SampleRecord
from audioret.experts import (FeatureStoreBuilder, InMemoryFeatureStore,
                              WordTable, WordTableTextSource,
                              open_feature_store)
from audioret.models import build_model

PAPER_EXPERTS = ("VGGish", "VGGSound")
PAPER_DIMS = {"VGGish": 128, "VGGSound": 512}
ARCHS = ("moee", "ce", "mmt")

# Sizes per scale. "full" is the benchmark; "tiny" is the self-check.
# Each workload repeats a unit of work until the run's --seconds have
# passed: paper_step a round of train() calls, synthetic_fit a cold study,
# retrieve_clotho its query stream (after a fixed number of evaluations).
SCALES = {
    "full": {
        "setup_reps": 3,
        # paper_step: Clotho caps (21 words x 300-d, VGGish 31x128 or 95x128
        # for mmt, VGGSound 95x512), default model configs; a round is one
        # train(steps=steps_per_call) call per architecture
        "paper": dict(batch={"moee": 8, "ce": 8, "mmt": 2}, steps_per_call=3,
                      train_clips=16, val_clips=4, vocab=2000, word_dim=300,
                      words=21, vggish_frames=95, vggsound_frames=95,
                      overrides={}),
        # synthetic_fit: acceptance-6 shape
        "synth": dict(pairs=256, seeds=(0, 1), epochs=4, lr=0.006,
                      optimizer="adam", batch=128,
                      model=dict(text_clusters=8, text_ghost=1,
                                 audio_clusters=8, audio_ghost=0,
                                 joint_dim=64)),
        # retrieve_clotho: on-disk pool, default CE config at paper dims;
        # each round is one evaluation and round_queries queries
        "retrieve": dict(clips=200, captions=5, vocab=2000, word_dim=300,
                         words=21, vggish_frames=31, vggsound_frames=95,
                         rounds=2, round_queries=200, top_k=10,
                         free_text_share=0.2, overrides={}),
    },
    "tiny": {
        "setup_reps": 2,
        "paper": dict(batch={"moee": 4, "ce": 4, "mmt": 2}, steps_per_call=3,
                      train_clips=4, val_clips=2, vocab=50, word_dim=12,
                      words=5, vggish_frames=6, vggsound_frames=5,
                      overrides={"moee": dict(text_clusters=2, audio_clusters=2,
                                              joint_dim=8),
                                 "ce": dict(text_clusters=2, audio_clusters=2,
                                            joint_dim=8, gate_width=8),
                                 "mmt": dict(model_dim=8, layers=1, heads=2,
                                             ff_dim=16)}),
        "synth": dict(pairs=16, seeds=(0, 1), epochs=30, lr=0.01,
                      optimizer="adam", batch=8,
                      model=dict(text_clusters=4, text_ghost=1,
                                 audio_clusters=4, audio_ghost=0,
                                 joint_dim=16)),
        "retrieve": dict(clips=12, captions=5, vocab=50, word_dim=12,
                         words=5, vggish_frames=4, vggsound_frames=5,
                         rounds=2, round_queries=10, top_k=5,
                         free_text_share=0.2,
                         overrides=dict(text_clusters=2, audio_clusters=2,
                                        joint_dim=8, gate_width=8)),
    },
}


@dataclass
class Run:
    """Everything one workload run measures, checks and counts."""

    seed: int
    seconds: float
    scale: dict
    artifacts: Path
    import_s: float
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    checks: dict[str, str] = field(default_factory=dict)
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    phases: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0  # set-up plus timed sections, data generation excluded

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time a set-up or timed section (and trace it as a root span)."""
        span = (self.tracer.span(f"workload.{name}") if self.tracer
                else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with span:
                yield
        finally:
            seconds = time.perf_counter() - start
            self.phases[name] = self.phases.get(name, 0.0) + seconds
            self.wall_s += seconds

    def again(self, timed_s: float, units: int) -> bool:
        """Whether to run another unit of a repeated timed section. An
        untraced run repeats it until it has lasted `seconds`; a traced run
        does one unit, so that its counts are fixed work."""
        return units == 0 or (self.tracer is None and timed_s < self.seconds)

    def check(self, name: str, ok: bool, info: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks[name] = ("ok: " if ok else "FAILED: ") + info

    def fail(self, what: str, exc: BaseException) -> None:
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def report(self, name: str, value: float, unit: str) -> None:
        self.detail[name] = (float(value), unit)


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _digest(array: np.ndarray) -> bytes:
    return hashlib.sha1(np.ascontiguousarray(array)).digest()


def timed_setup(run: Run, build) -> tuple[float, object]:
    """Run the set-up callable setup_reps times; median seconds, last result."""
    times, result = [], None
    for rep in range(run.scale["setup_reps"]):
        with run.phase(f"setup.{rep}"):
            start = time.perf_counter()
            result = build()
            times.append(time.perf_counter() - start)
    return _median(times), result


class StepClock(Patcher):
    """Timestamps each step of the optimizer train() builds (the outer one
    when an optimizer wraps another)."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []
        self._outer = None

    def install(self) -> None:
        def on_build(opt, args):
            self._outer = weakref.ref(opt)

        def on_step(result, args):
            if self._outer is not None and args[0] is self._outer():
                self.stamps.append(time.perf_counter())

        self.patch_function(optim, "build_optimizer", after=on_build)
        for cls in (optim.Adam, optim.RAdam, optim.Lookahead):
            self.patch_method(cls, "step", after=on_step)


# ---------------------------------------------------------------------------
# input generation (harness side; never timed)


def _word_table(rng, vocab: int, dim: int) -> WordTable:
    return WordTable([f"w{i:04d}" for i in range(vocab)],
                     rng.standard_normal((vocab, dim)))


def _caption(rng, vocab: int, words: int) -> str:
    return " ".join(f"w{j:04d}" for j in rng.integers(0, vocab, words))


def paper_inputs(rng, sc: dict):
    """Tiny train/val corpus at Clotho paper dimensions, in memory."""
    table = _word_table(rng, sc["vocab"], sc["word_dim"])
    store = InMemoryFeatureStore()
    samples, captions = [], []
    for split, count in (("train", sc["train_clips"]), ("val", sc["val_clips"])):
        for i in range(count):
            sid = f"{split}{i:05d}"
            samples.append(SampleRecord(sid, 30.0, split=split))
            captions.append(CaptionRecord(f"{sid}-0", sid,
                                          _caption(rng, sc["vocab"], sc["words"])))
            for expert, frames in (("VGGish", sc["vggish_frames"]),
                                   ("VGGSound", sc["vggsound_frames"])):
                store.add(expert, sid,
                          rng.standard_normal((frames, PAPER_DIMS[expert])))
    return Corpus("clotho", samples, captions), store, WordTableTextSource(table)


def synthetic_inputs(rng, sc: dict) -> bench.DataBundle:
    """Acceptance-6-shaped learnable corpus: captions are random words,
    audio streams noisy linear images of the mean word vector; val and
    test mirror the train pool, so test R@1 is train-pool R@1."""
    word_dim, frames, noise = 10, 4, 0.02
    dims = {"ea": 12, "eb": 8}
    table = _word_table(rng, 64, word_dim)
    maps = {e: rng.standard_normal((d, word_dim)) for e, d in dims.items()}
    store = InMemoryFeatureStore()
    samples, captions = [], []
    for i in range(sc["pairs"]):
        picks = rng.choice(64, size=int(rng.integers(4, 8)), replace=False)
        text = " ".join(f"w{j:04d}" for j in picks)
        mean = table.vectors[picks].mean(axis=0)
        streams = {e: (maps[e] @ mean)[None, :]
                   + noise * rng.standard_normal((frames, d))
                   for e, d in dims.items()}
        for prefix, split in (("t", "train"), ("v", "val"), ("s", "test")):
            sid = f"{prefix}{i:04d}"
            samples.append(SampleRecord(sid, 60.0, split=split))
            captions.append(CaptionRecord(f"c-{sid}", sid, text))
            for e, matrix in streams.items():
                store.add(e, sid, matrix)
    return bench.DataBundle(Corpus("synthetic", samples, captions), store,
                            WordTableTextSource(table), dims, word_dim)


def retrieve_inputs(rng, sc: dict, root: Path):
    """Test-split pool written as an on-disk feature store."""
    table = _word_table(rng, sc["vocab"], sc["word_dim"])
    builder = FeatureStoreBuilder(root)
    samples, captions = [], []
    for i in range(sc["clips"]):
        sid = f"clip{i:05d}"
        samples.append(SampleRecord(sid, 30.0, split="test"))
        for k in range(sc["captions"]):
            captions.append(CaptionRecord(f"{sid}-{k}", sid,
                                          _caption(rng, sc["vocab"], sc["words"])))
        for expert, frames in (("VGGish", sc["vggish_frames"]),
                               ("VGGSound", sc["vggsound_frames"])):
            builder.add(expert, sid,
                        rng.standard_normal((frames, PAPER_DIMS[expert])))
    builder.finalize()
    return Corpus("clotho", samples, captions), WordTableTextSource(table)


# ---------------------------------------------------------------------------
# workloads


def paper_step(run: Run) -> None:
    """training.train by steps at Clotho paper dimensions, in rounds of one
    call per architecture."""
    sc = run.scale["paper"]
    corpus, store, text_source = paper_inputs(np.random.default_rng(run.seed), sc)

    def build_all():
        return {arch: build_model(arch, PAPER_EXPERTS, PAPER_DIMS, sc["word_dim"],
                                  np.random.default_rng(run.seed),
                                  sc["overrides"].get(arch))
                for arch in ARCHS}

    setup_s, models = timed_setup(run, build_all)
    before = {arch: {k: _digest(p.data) for k, p in m.named_parameters().items()}
              for arch, m in models.items()}
    configs = {}
    for arch in ARCHS:
        defaults = bench.ARCH_DEFAULTS[arch]
        words, frames = training.default_caps("clotho", arch)
        configs[arch] = (
            training.TrainConfig(
                architecture=arch, steps=sc["steps_per_call"], seed=run.seed,
                lr=defaults["lr"], weight_decay=defaults["weight_decay"],
                optimizer=defaults["optimizer"], word_cap=words,
                frame_caps=frames),
            training.LossConfig(margin=defaults["margin"],
                                batch_size=sc["batch"][arch]))

    step_times = {arch: [] for arch in ARCHS}
    losses = {arch: [] for arch in ARCHS}
    params_seen = {}  # arch -> (tensors changed, tensors, all finite)
    pairs, train_wall, rounds = 0, 0.0, 0
    with StepClock() as clock:
        while run.again(train_wall, rounds):
            for arch in ARCHS:
                if run.tracer:
                    run.tracer.tag = arch
                clock.stamps.clear()
                run.attempted += sc["steps_per_call"]
                start = time.perf_counter()
                with run.phase(f"train.{rounds}.{arch}"):
                    try:
                        ckpt = training.train(models[arch], corpus, store,
                                              text_source, *configs[arch])
                    except Exception as exc:  # a raised step is a failed operation
                        run.failed += sc["steps_per_call"] - len(clock.stamps)
                        run.fail(f"train {arch}", exc)
                        ckpt = None
                train_wall += time.perf_counter() - start
                # each call's first step (staging plus step 1) is its warm-up
                step_times[arch] += np.diff(clock.stamps).tolist()
                pairs += len(clock.stamps) * sc["batch"][arch]
                if ckpt is None:
                    params_seen.pop(arch, None)
                    continue
                losses[arch] += [float(line.split(",")[2])
                                 for line in ckpt.log_lines]
                params_seen[arch] = (
                    sum(before[arch][k] != _digest(v)
                        for k, v in ckpt.params.items()),
                    len(ckpt.params),
                    all(np.isfinite(v).all() for v in ckpt.params.values()))
            rounds += 1

    for arch in ARCHS:
        if step_times[arch]:
            run.report(f"step_s.{arch}", _median(step_times[arch]), "s")
        if arch not in params_seen:
            continue
        run.check(f"{arch}.losses_finite",
                  bool(losses[arch]) and all(np.isfinite(losses[arch])),
                  f"window mean losses {losses[arch]}")
        changed, total, finite = params_seen[arch]
        run.check(f"{arch}.params_changed", changed > 0 and finite,
                  f"{changed}/{total} tensors changed, all finite: {finite}")

    pairs_per_s = pairs / train_wall if train_wall else float("nan")
    work_s = sum(_median(t) if t else float("nan") for t in step_times.values())
    run.report("setup_s", run.import_s + setup_s, "s")
    run.report("train_pairs_per_s", pairs_per_s, "1/s")
    run.report("rounds", rounds, "count")
    run.report("timed_steps", sum(map(len, step_times.values())), "count")
    for arch in ARCHS:
        run.report(f"batch.{arch}", sc["batch"][arch], "pairs")
    run.end_to_end = {"setup_s": run.import_s + setup_s, "work_s": work_s,
                      "items_per_s": pairs_per_s}


def synthetic_fit(run: Run) -> None:
    """bench.run_benchmark for CE over several seeds: cold studies in fresh
    output directories, then a cached repeat of the last one."""
    sc = run.scale["synth"]
    bundle = synthetic_inputs(np.random.default_rng(run.seed), sc)

    def configure(out_dir: Path):
        return bench.ExperimentConfig(
            "synthetic", "ce", ("ea", "eb"), seeds=sc["seeds"],
            train=dict(epochs=sc["epochs"], lr=sc["lr"],
                       optimizer=sc["optimizer"]),
            loss=dict(batch_size=sc["batch"]), model=dict(sc["model"]),
            out_dir=str(out_dir))

    setup_s, cfg = timed_setup(run, lambda: configure(run.artifacts / "runs0"))
    if run.tracer:
        run.tracer.tag = "ce"
    seeds = len(sc["seeds"])
    fit_times, tables = [], []
    with reference.CacheCounter(run.counts), StepClock() as clock:
        while run.again(sum(fit_times), len(fit_times)):
            study = len(fit_times)
            cfg = configure(run.artifacts / f"runs{study}")
            run.attempted += seeds
            start = time.perf_counter()
            with run.phase(f"fit.{study}"):
                try:
                    tables.append(bench.run_benchmark(cfg, data=bundle))
                except Exception as exc:
                    run.failed += seeds
                    run.fail("cold run_benchmark", exc)
            fit_times.append(time.perf_counter() - start)
            if len(tables) < len(fit_times):
                break
    pairs = len(clock.stamps) * sc["batch"]
    fit_s = _median(fit_times)
    run.report("setup_s", run.import_s + setup_s, "s")
    run.report("fit_s", fit_s, "s")
    run.report("cold_studies", len(fit_times), "count")
    run.report("train_pairs_per_s", pairs / sum(fit_times), "1/s")
    run.end_to_end = {"setup_s": run.import_s + setup_s, "work_s": fit_s,
                      "items_per_s": pairs / sum(fit_times)}
    if len(tables) < len(fit_times):
        return
    table = tables[0]
    r1 = table.cell_mean("synthetic/ce", "t2a", "R@1")
    run.check("train_pool_t2a_r1", r1 >= 95.0, f"t2a R@1 = {r1:.2f} (>= 95)")
    run.check("cold_studies_agree",
              all(t.to_text() == table.to_text() for t in tables),
              f"{len(tables)} cold studies return identical tables")

    # untimed repeat of the last study: served from the cache alone
    cold = Counter(run.counts)
    run.attempted += 1
    with reference.CacheCounter(run.counts):
        try:
            again = bench.run_benchmark(cfg, data=bundle)
        except Exception as exc:
            run.failed += 1
            run.fail("cached run_benchmark", exc)
            return
    hits, misses, trained = (run.counts[k] - cold[k] for k in
                             ("cache_hits", "cache_misses", "train_calls"))
    run.check("cached_call",
              again.to_text() == table.to_text() and hits == seeds
              and misses == 0 and trained == 0,
              f"identical table: {again.to_text() == table.to_text()}, "
              f"hits {hits}/{seeds}, misses {misses}, train calls {trained}")


def retrieve_clotho(run: Run) -> None:
    """Checkpoint round trip, then rounds of evaluate_checkpoint and
    Searcher queries."""
    sc = run.scale["retrieve"]
    rng = np.random.default_rng(run.seed)
    store_root = run.artifacts / "store"
    corpus, text_source = retrieve_inputs(rng, sc, store_root)
    words, frames = training.default_caps("clotho", "ce")

    def load():
        model = build_model("ce", PAPER_EXPERTS, PAPER_DIMS, sc["word_dim"],
                            np.random.default_rng(run.seed), sc["overrides"])
        cfg = training.TrainConfig(architecture="ce", steps=0, seed=run.seed,
                                   word_cap=words, frame_caps=frames)
        params = {k: p.data.copy() for k, p in model.named_parameters().items()}
        ckpt = training.Checkpoint("ce", model.config_dict(), params, cfg,
                                   [], 0.0, 0)
        path = checkpoint.save_checkpoint(ckpt, run.artifacts / "ce.ckpt")
        return checkpoint.load_checkpoint(path), open_feature_store(store_root)

    setup_s, (ckpt, store) = timed_setup(run, load)
    with run.phase("searcher_init"):
        start = time.perf_counter()
        searcher = bench.Searcher(ckpt, corpus, store, text_source)
        init_s = time.perf_counter() - start
    bundle = bench.DataBundle(corpus, store, text_source, dict(PAPER_DIMS),
                              sc["word_dim"])

    # rounds of (evaluate, then round_queries queries), so that the medians
    # cover the whole run rather than one stretch of it; the last round's
    # query stream goes on until the timed sections have lasted --seconds
    texts = [c.text for c in corpus.captions]
    rounds = sc["rounds"] if run.tracer is None else 1
    eval_times, reports, captures = [], [], []
    latencies, results, rates = [], [], []
    timed = 0.0
    for r in range(rounds):
        run.attempted += 1
        with reference.MatrixCapture() as capture, run.phase(f"evaluate.{r}"):
            start = time.perf_counter()
            try:
                reports.append(bench.evaluate_checkpoint(ckpt, bundle, split="test"))
            except Exception as exc:
                run.failed += 1
                run.fail("evaluate_checkpoint", exc)
            eval_times.append(time.perf_counter() - start)
        timed += eval_times[-1]
        captures.append(capture.matrices)
        with run.phase(f"search.{r}"):
            start, count = time.perf_counter(), 0
            while count < sc["round_queries"] or (
                    r == rounds - 1
                    and run.again(timed + time.perf_counter() - start, 1)):
                count += 1
                if rng.random() < sc["free_text_share"]:
                    query = _caption(rng, sc["vocab"],
                                     int(rng.integers(3, sc["words"] + 1)))
                else:
                    query = texts[int(rng.integers(len(texts)))]
                run.attempted += 1
                sent = time.perf_counter()
                try:
                    hits = searcher.search(query, top_k=sc["top_k"])
                except Exception as exc:
                    run.failed += 1
                    run.fail("search", exc)
                    continue
                latencies.append(time.perf_counter() - sent)
                results.append((query, hits))
            rates.append(count / (time.perf_counter() - start))
            timed += time.perf_counter() - start
    eval_s, queries_per_s = _median(eval_times), _median(rates)

    lat = np.sort(np.asarray(latencies))
    p95_index = int(np.ceil(0.95 * lat.size)) - 1
    run.report("setup_s", run.import_s + setup_s + init_s, "s")
    run.report("eval_s", eval_s, "s")
    for r, seconds in enumerate(eval_times):
        run.report(f"eval_s.round{r}", seconds, "s")
    run.report("queries_per_s", queries_per_s, "1/s")
    run.report("search_p50_ms", 1e3 * _median(lat), "ms")
    run.report("search_p95_ms", 1e3 * lat[p95_index], "ms")
    run.report("search_samples", lat.size, "count")
    run.report("search_beyond_p95", lat.size - 1 - p95_index, "count")
    run.report("pool_clips", sc["clips"], "count")
    run.report("pool_captions", len(texts), "count")
    # one client's query rate at its p95 latency: the per-process median
    # latency is bimodal on a shared host, its p95 is not
    run.end_to_end = {"setup_s": run.import_s + setup_s + init_s,
                      "work_s": eval_s, "items_per_s": 1.0 / lat[p95_index]}
    if len(reports) != rounds:
        return
    run.check("evaluations_agree", all(rep == reports[0] for rep in reports),
              f"{rounds} evaluate_checkpoint calls return identical reports")
    reference.check_retrieval(run, corpus, captures[0], reports[0], results,
                              sc["top_k"])


WORKLOADS = {"paper_step": paper_step, "synthetic_fit": synthetic_fit,
             "retrieve_clotho": retrieve_clotho}
