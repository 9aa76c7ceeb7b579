"""Command-line entry points for corpus building, stats, experiment
studies, and ad-hoc retrieval queries."""

from __future__ import annotations

import argparse
import os
import sys

from . import bench
from . import models as md
from .bench import (DATA_ENV, FEATURES_ENV, ExperimentConfig,
                    experiment_from_file, experiment_from_sections)
from .checkpoint import load_checkpoint
from .corpus import (SplitSpec, assign_splits, build_sounddescs_manifest,
                     corpus_stats, load_benchmark, save_corpus)


def _experiment(args) -> ExperimentConfig:
    overrides = {
        "dataset": args.dataset,
        "architecture": args.arch,
        "experts": tuple(args.experts.split(",")) if args.experts else None,
        "seeds": tuple(int(s) for s in args.seeds.split(",")) if args.seeds else None,
        "out_dir": args.out,
    }
    if args.config:
        return experiment_from_file(args.config, **overrides)
    return experiment_from_sections({}, **overrides)


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat section.key=value config file")
    parser.add_argument("--dataset", help="dataset name")
    parser.add_argument("--arch", choices=tuple(md.ARCHITECTURES))
    parser.add_argument("--experts", help="comma-separated expert names")
    parser.add_argument("--seeds", help="comma-separated integer seeds")
    parser.add_argument("--out", help="artifact output directory")


def _cmd_build_sounddescs(args) -> int:
    corpus, report = build_sounddescs_manifest(args.index, args.descriptions)
    corpus = assign_splits(corpus, SplitSpec(seed=args.seed))
    root = save_corpus(corpus, args.out)
    print(f"kept {report.kept} of {report.input_entries} entries "
          f"({report.dropped_no_description} without descriptions)")
    for split in ("train", "val", "test"):
        print(f"  {split}: {len(corpus.split_ids(split))}")
    print(f"written to {root}")
    print(report.notice)
    return 0


def _cmd_stats(args) -> int:
    root = args.root or os.path.join(os.environ.get(DATA_ENV, "."), args.dataset)
    corpus = load_benchmark(args.dataset, root)
    print(corpus_stats(corpus).to_text())
    return 0


def _cmd_benchmark(args) -> int:
    cfg = _experiment(args)
    table = bench.run_benchmark(cfg)
    print(table.to_text(), end="")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _experiment(args)
    raw = cfg.extras.get("ablate", {}).get("subsets")
    if not raw:
        print("ablate needs an `ablate.subsets=` config entry "
              "(semicolon-separated subsets, e.g. VGGish;VGGSound;VGGish,VGGSound)",
              file=sys.stderr)
        return 2
    subsets = [tuple(p.strip() for p in group.split(",") if p.strip())
               for group in raw.split(";") if group.strip()]
    table = bench.run_ablation(cfg, subsets)
    print(table.to_text(), end="")
    return 0


def _cmd_transfer(args) -> int:
    cfg = _experiment(args)
    source = cfg.extras.get("transfer", {}).get("source")
    if not source:
        print("transfer needs a `transfer.source=` config entry "
              "(the pretraining dataset name)", file=sys.stderr)
        return 2
    table = bench.run_transfer(cfg, source)
    print(table.to_text(), end="")
    return 0


def _cmd_scale(args) -> int:
    cfg = _experiment(args)
    raw = cfg.extras.get("scale", {}).get("fractions")
    fractions = (tuple(float(f) for f in raw.split(","))
                 if raw else bench.DEFAULT_FRACTIONS)
    table = bench.run_scale_study(cfg, fractions)
    print(table.to_text(), end="")
    return 0


def _cmd_search(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if args.dataset == "synthetic":
        bundle = bench.synthetic_bundle()
    else:
        cfg = ExperimentConfig(args.dataset, ckpt.architecture,
                               tuple(ckpt.model_config["experts"]))
        bundle = bench.load_data(cfg)
    searcher = bench.Searcher(ckpt, bundle.corpus, bundle.store,
                              bundle.text_source, split=args.split)
    for query in args.query:
        print(f"query: {query}")
        for rank, (sample_id, score) in enumerate(
                searcher.search(query, args.top_k), start=1):
            print(f"  {rank:2d}. {sample_id}  {score:+.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="audioret",
        description="text-audio retrieval benchmark toolkit "
                    f"(feature root from ${FEATURES_ENV}, corpora from ${DATA_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-sounddescs",
                       help="join a raw archive index with its descriptions")
    p.add_argument("index", help="TSV: id, duration[, categories]")
    p.add_argument("descriptions", help="TSV: id, description text")
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--seed", type=int, default=0, help="split shuffle seed")
    p.set_defaults(func=_cmd_build_sounddescs)

    p = sub.add_parser("stats", help="corpus summary statistics")
    p.add_argument("--dataset", required=True)
    p.add_argument("--root", help="dataset directory "
                                  f"(default ${DATA_ENV}/<dataset>)")
    p.set_defaults(func=_cmd_stats)

    for name, func, blurb in (
            ("benchmark", _cmd_benchmark, "train and evaluate across seeds"),
            ("ablate", _cmd_ablate, "benchmark each configured expert subset"),
            ("transfer", _cmd_transfer, "pretrain, finetune, and compare"),
            ("scale", _cmd_scale, "training-set fraction study")):
        p = sub.add_parser(name, help=blurb)
        _add_experiment_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("search", help="rank pool audio for text queries")
    p.add_argument("query", nargs="+", help="free-text queries")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--top-k", type=int, default=10)
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, FileNotFoundError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
