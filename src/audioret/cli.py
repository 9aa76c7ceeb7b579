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


# command: (help, study of a parsed config, the parsed entry it needs and
# the message printed when that entry is missing)
STUDIES = {
    "benchmark": ("train and evaluate across seeds", bench.run_benchmark, None),
    "ablate": ("benchmark each configured expert subset",
               lambda cfg: bench.run_ablation(cfg, cfg.subsets),
               ("subsets", "ablate needs an `ablate.subsets=` config entry "
                "(semicolon-separated subsets, e.g. "
                "VGGish;VGGSound;VGGish,VGGSound)")),
    "transfer": ("pretrain, finetune, and compare",
                 lambda cfg: bench.run_transfer(cfg, cfg.source),
                 ("source", "transfer needs a `transfer.source=` config entry "
                  "(the pretraining dataset name)")),
    "scale": ("training-set fraction study",
              lambda cfg: bench.run_scale_study(cfg, cfg.fractions), None),
}


def _cmd_study(args) -> int:
    overrides = {
        "dataset": args.dataset,
        "architecture": args.arch,
        "experts": tuple(args.experts.split(",")) if args.experts else None,
        "seeds": tuple(int(s) for s in args.seeds.split(",")) if args.seeds else None,
        "out_dir": args.out,
    }
    cfg = (experiment_from_file(args.config, **overrides) if args.config
           else experiment_from_sections({}, **overrides))
    _, study, needs = STUDIES[args.command]
    if needs and not getattr(cfg, needs[0]):
        print(needs[1], file=sys.stderr)
        return 2
    print(study(cfg).to_text(), end="")
    return 0


def _cmd_search(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    bundle = bench.load_data(ExperimentConfig(
        args.dataset, ckpt.architecture, tuple(ckpt.model_config["experts"])))
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

    for name, (blurb, _, _) in STUDIES.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="flat section.key=value config file")
        p.add_argument("--dataset", help="dataset name")
        p.add_argument("--arch", choices=tuple(md.ARCHITECTURES))
        p.add_argument("--experts", help="comma-separated expert names")
        p.add_argument("--seeds", help="comma-separated integer seeds")
        p.add_argument("--out", help="artifact output directory")
        p.set_defaults(func=_cmd_study)

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
    except (ValueError, RuntimeError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
