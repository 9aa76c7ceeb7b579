"""Per-layer instrumentation for the traced run.

`install` wraps each layer's public callables in spans (plus counters
at the same boundaries, kept in the run's counters, where the workloads'
own cache counters are too); `per_layer_metrics` turns the recorded
spans and counters into the per-layer metrics BENCHMARK.json names. Every metric is
reported on every workload; a layer a workload never enters reads 0.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer

from audioret import autodiff, bench, checkpoint, evaluation, experts, optim, training
from audioret.models import blocks, ce, mmt, moee, similarity

# metric name -> span name whose summed self seconds it reports
SELF_TIME_METRICS = {
    "autodiff.backward_s": "autodiff.backward",
    "models.encode_text_s": "models.encode_text",
    "models.encode_audio_s": "models.encode_audio",
    "models.netvlad_s": "models.netvlad",
    "models.gated_unit_s": "models.gated_unit",
    "models.ce_gate_s": "models.ce_gate",
    "models.mmt_encode_s": "models.mmt_encode",
    "models.combine_scores_s": "models.combine_scores",
    "training.ranking_loss_s": "training.ranking_loss",
    "training.validate_s": "training.validate",
    "training.stage_split_s": "training.stage_split",
    "optim.step_s": "optim.step",
    "evaluation.rank_s": "evaluation.rank",
    "experts.fetch_s": "experts.fetch",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "bench.searcher_init_s": "bench.searcher_init",
    "bench.search_self_s": "bench.search",
}


def tape_nodes(root) -> int:
    """Nodes a backward pass from root visits (the tape's own walk)."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(tracer: Tracer, counts) -> None:
    def on_loss(loss, args):
        with tracer.span("trace.bookkeeping"):
            tracer.sample(f"nodes.{tracer.tag}", tape_nodes(loss))

    def on_fetch(stream, args):
        counts["fetch_count"] += 1
        if isinstance(args[0], experts.FeatureStore):  # 14-byte header + f32
            counts["bytes_read"] += 14 + 4 * stream.matrix.size

    def on_stage(staged, args):
        _, texts, clips = staged
        counts["staged_bytes"] += sum(t.token_matrix.nbytes + t.mask.nbytes
                                      for t in texts.values())
        counts["staged_bytes"] += sum(m.nbytes for c in clips.values()
                                      for m in c.streams.values())

    def on_batches(batches, args):
        counts["pairs_offered"] += len(args[0])
        counts["pairs_batched"] += sum(len(b) for b in batches)

    def on_save(path, args):
        counts["checkpoint_bytes"] = path.stat().st_size  # one archive

    tracer.patch_method(autodiff.Tensor, "backward", "autodiff.backward")
    tracer.patch_method(moee.MoeeModel, "encode_text", "models.encode_text")
    tracer.patch_method(moee.MoeeModel, "encode_audio", "models.encode_audio")
    tracer.patch_method(ce.CeModel, "encode_audio", "models.encode_audio")
    tracer.patch_method(ce.CeModel, "collaborative_gate", "models.ce_gate")
    tracer.patch_method(mmt.MmtModel, "encode_text", "models.encode_text")
    tracer.patch_method(mmt.MmtModel, "encode_audio", "models.mmt_encode")
    tracer.patch_method(blocks.NetVlad, "__call__", "models.netvlad")
    tracer.patch_method(blocks.GatedUnit, "__call__", "models.gated_unit")
    tracer.patch_function(similarity, "combine_scores", "models.combine_scores")
    tracer.patch_function(training, "ranking_loss", "training.ranking_loss",
                          on_loss)
    tracer.patch_function(training, "_validate", "training.validate")
    tracer.patch_function(training, "stage_split", "training.stage_split",
                          on_stage)
    tracer.patch_function(training, "assemble_batches",
                          "training.assemble_batches", on_batches)
    tracer.patch_function(training, "train", "training.train")
    for cls in (optim.Adam, optim.RAdam, optim.Lookahead):
        tracer.patch_method(cls, "step", "optim.step")
    tracer.patch_function(evaluation, "compute_metrics", "evaluation.rank")
    for cls in (experts.FeatureStore, experts.InMemoryFeatureStore):
        tracer.patch_method(cls, "fetch", "experts.fetch", on_fetch)
    tracer.patch_function(checkpoint, "save_checkpoint", "checkpoint.save",
                          on_save)
    tracer.patch_function(checkpoint, "load_checkpoint", "checkpoint.load")
    tracer.patch_method(bench.Searcher, "__init__", "bench.searcher_init")
    tracer.patch_method(bench.Searcher, "search", "bench.search")
    tracer.patch_function(bench, "run_benchmark", "bench.run_benchmark")
    tracer.patch_function(bench, "evaluate_checkpoint", "bench.evaluate_checkpoint")


def per_layer_metrics(tracer: Tracer, counts) -> dict[str, tuple[float, str]]:
    selfs = tracer.self_times()
    out = {name: (selfs.get(span, 0.0), "s")
           for name, span in SELF_TIME_METRICS.items()}
    nodes = [float(np.median(v)) for k, v in sorted(tracer.samples.items())
             if k.startswith("nodes.")]
    offered = counts["pairs_offered"]
    out["autodiff.nodes_per_step"] = (sum(nodes), "count")
    out["training.batch_fill"] = (counts["pairs_batched"] / offered
                                  if offered else 0.0, "ratio")
    out["experts.fetch_count"] = (counts["fetch_count"], "count")
    out["experts.bytes_read"] = (counts["bytes_read"], "bytes")
    out["experts.staged_bytes"] = (counts["staged_bytes"], "bytes")
    out["checkpoint.bytes"] = (counts["checkpoint_bytes"], "bytes")
    out["bench.cache_hits"] = (counts["cache_hits"], "count")
    out["bench.cache_misses"] = (counts["cache_misses"], "count")
    out["trace.spans"] = (len(tracer.names), "count")
    return out
