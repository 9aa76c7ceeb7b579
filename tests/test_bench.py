"""Experiment orchestration: config parsing, content-addressed run
caching, study tables, text search, and the command-line surface."""

import importlib
import json
import shutil
import threading
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import audioret.autodiff as ad
import audioret.bench as bn
import audioret.blas as blas
import audioret.models as md
import audioret.training as tr
from audioret.checkpoint import save_checkpoint
from audioret.cli import main as cli_main
from audioret.corpus import CaptionRecord, Corpus, SampleRecord
from audioret.evaluation import MetricsReport, SeedAggregate, compute_metrics
from audioret.experts import (ExpertInfo, ExpertRegistry, FeatureStoreBuilder,
                              WordTableTextSource, open_feature_store)
from audioret.models import similarity
from audioret.models.similarity import encode_clips, similarity_matrix
from audioret.synthetic import make_synthetic_benchmark, make_word_table
from helpers import drop_pools, needs_openblas

TINY_MODEL = dict(text_clusters=2, text_ghost=1, audio_clusters=2,
                  audio_ghost=0, joint_dim=8)
TINY_TRAIN = {"epochs": 2}
TINY_LOSS = {"batch_size": 8}

DIRECTIONS = ("t2a", "a2t")
COLUMNS = ("R@1", "R@5", "R@10", "R@50", "medR", "meanR")


def tiny_config(out_dir, seeds=(0, 1), experts=("ea", "eb"), **over):
    kw = dict(dataset="synthetic", architecture="moee", experts=experts,
              seeds=seeds, train=dict(TINY_TRAIN), loss=dict(TINY_LOSS),
              model=dict(TINY_MODEL), out_dir=str(out_dir))
    kw.update(over)
    return bn.ExperimentConfig(**kw)


@pytest.fixture(scope="module")
def bundle():
    return bn.synthetic_bundle()


@pytest.fixture(scope="module")
def rig(tmp_path_factory, bundle):
    """One benchmark over two seeds whose artifacts later tests reuse."""
    out = tmp_path_factory.mktemp("runs")
    cfg = tiny_config(out)
    table = bn.run_benchmark(cfg, data=bundle)
    return cfg, table


@pytest.fixture(scope="module")
def frozen_ckpt(bundle):
    """An untrained (zero-epoch) checkpoint for search/evaluation tests."""
    cfg = tiny_config("unused-dir", seeds=(0,), train={"epochs": 0})
    train_cfg, loss_cfg = bn._build_configs(cfg, 0)
    model = bn._build_model(cfg, bundle, np.random.default_rng(0))
    return tr.train(model, bundle.corpus, bundle.store, bundle.text_source,
                    train_cfg, loss_cfg)


# ---------------------------------------------------------------------------
# flat config files


def test_parse_config_sections_comments_blanks():
    text = """
# leading comment
experiment.dataset = synthetic
experiment.arch = moee   # trailing comment

train.epochs = 4
loss.margin = 0.1
"""
    sections = bn.parse_config(text)
    assert sections == {
        "experiment": {"dataset": "synthetic", "arch": "moee"},
        "train": {"epochs": "4"},
        "loss": {"margin": "0.1"},
    }


def test_parse_config_rejects_missing_equals():
    with pytest.raises(ValueError, match="line 2.*key=value"):
        bn.parse_config("a.b = 1\njust words\n")


def test_parse_config_rejects_undotted_key():
    with pytest.raises(ValueError, match="line 1.*section.name"):
        bn.parse_config("epochs = 4\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ValueError, match="line 3.*duplicate key train.epochs"):
        bn.parse_config("train.epochs = 1\ntrain.lr = 0.1\ntrain.epochs = 2\n")


def test_experiment_from_sections_round_trip():
    sections = bn.parse_config("""
experiment.dataset = audiocaps
experiment.arch = ce
experiment.experts = VGGish,VGGSound
experiment.seeds = 3,5
experiment.out = artifacts
train.epochs = 7
train.lr = 0.05
train.frame_caps = VGGish:10,VGGSound:32
loss.margin = 0.3
loss.batch_size = 16
model.joint_dim = 32
ablate.subsets = VGGish;VGGSound
""")
    cfg = bn.experiment_from_sections(sections)
    assert cfg.dataset == "audiocaps"
    assert cfg.architecture == "ce"
    assert cfg.experts == ("VGGish", "VGGSound")
    assert cfg.seeds == (3, 5)
    assert cfg.out_dir == "artifacts"
    assert cfg.train == {"epochs": 7, "lr": 0.05,
                         "frame_caps": {"VGGish": 10, "VGGSound": 32}}
    assert cfg.loss == {"margin": 0.3, "batch_size": 16}
    assert cfg.model == {"joint_dim": 32}
    assert cfg.extras == {"ablate": {"subsets": "VGGish;VGGSound"}}


def test_experiment_value_coercion():
    sections = bn.parse_config("""
experiment.dataset = synthetic
experiment.arch = moee
experiment.experts = ea
train.flag = true
train.other = False
train.nothing = none
train.count = 12
train.rate = 0.5
train.name = adam
""")
    cfg = bn.experiment_from_sections(sections)
    assert cfg.train == {"flag": True, "other": False, "nothing": None,
                         "count": 12, "rate": 0.5, "name": "adam"}


def test_experiment_rejects_unknown_key():
    sections = bn.parse_config(
        "experiment.dataset = synthetic\nexperiment.arch = moee\n"
        "experiment.experts = ea\nexperiment.bogus = 1\n")
    with pytest.raises(ValueError, match="unknown experiment key 'bogus'"):
        bn.experiment_from_sections(sections)


def test_experiment_requires_dataset_and_arch():
    with pytest.raises(ValueError, match="missing experiment.dataset"):
        bn.experiment_from_sections({"experiment": {"arch": "moee",
                                                    "experts": "ea"}})
    with pytest.raises(ValueError, match="missing experiment.arch$"):
        bn.experiment_from_sections({"experiment": {"dataset": "synthetic",
                                                    "experts": "ea"}})


def test_experiment_overrides_win():
    sections = bn.parse_config(
        "experiment.dataset = synthetic\nexperiment.arch = moee\n"
        "experiment.experts = ea\nexperiment.seeds = 0,1\n")
    cfg = bn.experiment_from_sections(sections, seeds=(7,), architecture="ce",
                                      dataset=None)
    assert cfg.dataset == "synthetic"  # None override is ignored
    assert cfg.architecture == "ce"
    assert cfg.seeds == (7,)


def test_experiment_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("experiment.dataset = synthetic\nexperiment.arch = moee\n"
                    "experiment.experts = ea,eb\n")
    cfg = bn.experiment_from_file(path)
    assert cfg.experts == ("ea", "eb")


# ---------------------------------------------------------------------------
# experiment configs and run keys


def test_config_validation_errors():
    with pytest.raises(ValueError, match="non-empty"):
        tiny_config("runs", experts=())
    with pytest.raises(ValueError, match="duplicate expert"):
        tiny_config("runs", experts=("ea", "ea"))
    with pytest.raises(ValueError, match="seeds must be distinct"):
        tiny_config("runs", seeds=(0, 0))
    with pytest.raises(ValueError, match="unknown architecture"):
        tiny_config("runs", architecture="transformer")
    with pytest.raises(ValueError, match="unknown dataset"):
        tiny_config("runs", dataset="esc50")


def test_run_key_stable_and_sensitive():
    a = tiny_config("runs")
    b = tiny_config("runs")
    assert a.run_key() == b.run_key()
    assert len(a.run_key()) == 16
    assert set(a.run_key()) <= set("0123456789abcdef")
    assert a.run_key() != tiny_config("runs", train={"epochs": 3}).run_key()
    assert a.run_key() != tiny_config("runs", experts=("ea",)).run_key()
    assert a.run_key() != a.run_key({"fraction": 0.5})


def test_run_key_ignores_seeds_and_out_dir():
    base = tiny_config("runs")
    assert base.run_key() == tiny_config("elsewhere").run_key()
    assert base.run_key() == tiny_config("runs", seeds=(5,)).run_key()


def test_canonical_lines_sorted_and_complete():
    lines = tiny_config("runs").canonical_lines()
    assert lines == sorted(lines)
    assert "dataset=synthetic" in lines
    assert "experts=ea,eb" in lines
    assert "train.epochs=2" in lines
    assert f"numerics={bn.NUMERICS_VERSION}" in lines


def test_run_key_changes_with_numerics_version(monkeypatch):
    """Artifacts cached under older numerics are never served again."""
    cfg = tiny_config("runs")
    before = cfg.run_key()
    monkeypatch.setattr(bn, "NUMERICS_VERSION", bn.NUMERICS_VERSION + 1)
    assert cfg.run_key() != before


# ---------------------------------------------------------------------------
# data bundles


def test_synthetic_bundle_shape(bundle):
    assert len(bundle.corpus.split_ids("train")) == 48
    assert len(bundle.corpus.split_ids("val")) == 48
    assert len(bundle.corpus.split_ids("test")) == 16
    assert bundle.expert_dims == {"ea": 12, "eb": 8}
    assert bundle.text_dim == 10
    assert bundle.store.has("t0000", "ea")


def test_synthetic_mirrors_share_content(bundle):
    corpus, store = bundle.corpus, bundle.store
    texts = {c.caption_id: c.text for c in corpus.captions}
    assert texts["c-v0007"] == texts["c-t0007"]
    assert texts["c-s0003"] == texts["c-t0003"]
    np.testing.assert_array_equal(store.fetch("v0007", "ea").matrix,
                                  store.fetch("t0007", "ea").matrix)
    np.testing.assert_array_equal(store.fetch("s0003", "eb").matrix,
                                  store.fetch("t0003", "eb").matrix)


def test_synthetic_reuses_supplied_generative_link():
    rng = np.random.default_rng(0)
    table = make_word_table(rng)
    first = make_synthetic_benchmark(rng, n_pairs=4, word_table=table)
    second = make_synthetic_benchmark(np.random.default_rng(1), n_pairs=4,
                                      word_table=table, maps=first.maps)
    assert second.word_table is table
    for name in first.maps:
        np.testing.assert_array_equal(second.maps[name], first.maps[name])
    with pytest.raises(ValueError, match="at least 2 pairs"):
        make_synthetic_benchmark(np.random.default_rng(0), n_pairs=1)


def test_load_data_synthetic_ignores_environment(monkeypatch):
    monkeypatch.delenv(bn.DATA_ENV, raising=False)
    monkeypatch.delenv(bn.FEATURES_ENV, raising=False)
    data = bn.load_data(tiny_config("runs"))
    assert len(data.corpus.split_ids("train")) == 48


def test_load_data_real_dataset_needs_roots(monkeypatch):
    monkeypatch.delenv(bn.DATA_ENV, raising=False)
    monkeypatch.delenv(bn.FEATURES_ENV, raising=False)
    cfg = tiny_config("runs", dataset="audiocaps", experts=("VGGish",))
    with pytest.raises(RuntimeError, match="AUDIORET_DATA_ROOT"):
        bn.load_data(cfg)


# ---------------------------------------------------------------------------
# per-seed config assembly


def test_build_configs_architecture_defaults():
    train_cfg, loss_cfg = bn._build_configs(
        tiny_config("runs", train={}, loss={}), seed=4)
    assert (train_cfg.epochs, train_cfg.steps) == (20, None)
    assert train_cfg.optimizer == "lookahead_radam"
    assert (train_cfg.lr, train_cfg.weight_decay) == (0.01, 0.001)
    assert train_cfg.seed == 4
    assert (loss_cfg.margin, loss_cfg.batch_size) == (0.2, 128)

    train_cfg, loss_cfg = bn._build_configs(
        tiny_config("runs", architecture="mmt", train={}, loss={}), seed=0)
    assert (train_cfg.epochs, train_cfg.steps) == (None, 50_000)
    assert train_cfg.optimizer == "adam"
    assert train_cfg.lr == 5e-5
    assert train_cfg.decay_every_steps == 1000
    assert (loss_cfg.margin, loss_cfg.batch_size) == (0.05, 32)


def test_build_configs_budget_type_switch():
    train_cfg, _ = bn._build_configs(
        tiny_config("runs", train={"steps": 10}), seed=0)
    assert (train_cfg.epochs, train_cfg.steps) == (None, 10)
    train_cfg, _ = bn._build_configs(
        tiny_config("runs", architecture="mmt", train={"epochs": 1}), seed=0)
    assert (train_cfg.epochs, train_cfg.steps) == (1, None)


def test_build_configs_fills_dataset_caps():
    cfg = tiny_config("runs", dataset="audiocaps", experts=("VGGish",),
                      train={"epochs": 1})
    train_cfg, _ = bn._build_configs(cfg, seed=0)
    assert train_cfg.word_cap == 52
    assert train_cfg.frame_caps == {"VGGish": 10}  # other experts filtered out

    train_cfg, _ = bn._build_configs(tiny_config("runs"), seed=0)
    assert train_cfg.word_cap is None and train_cfg.frame_caps == {}


def test_unset_caps_take_their_dataset_defaults():
    """A config that sets one frame cap keeps the dataset's word cap and
    its cap for every other expert."""
    cfg = tiny_config("runs", dataset="clotho", experts=("VGGish", "VGGSound"),
                      train={"epochs": 1, "frame_caps": {"VGGish": 10}})
    train_cfg, _ = bn._build_configs(cfg, seed=0)
    assert train_cfg.word_cap == 21
    assert train_cfg.frame_caps == {"VGGish": 10, "VGGSound": 95}


def test_build_model_rejects_unavailable_expert(bundle):
    cfg = tiny_config("runs", experts=("ea", "zz"))
    with pytest.raises(ValueError, match="expert not available .* 'zz'"):
        bn._build_model(cfg, bundle, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# run directories and tables


def test_run_dir_writes_canonical_config(tmp_path):
    cfg = tiny_config(tmp_path)
    run_dir = bn.RunDir(cfg, {"fraction": 0.5})
    text = (run_dir.path / "config.txt").read_text()
    assert text == "\n".join(cfg.canonical_lines({"fraction": 0.5})) + "\n"
    assert run_dir.path.name == cfg.run_key({"fraction": 0.5})


def test_run_dir_seed_round_trip(tmp_path):
    run_dir = bn.RunDir(tiny_config(tmp_path))
    assert run_dir.load_seed(0) is None
    run_dir.store_seed(0, {"seed": 0, "value": 1.5})
    assert run_dir.load_seed(0) == {"seed": 0, "value": 1.5}
    assert not list(run_dir.path.glob("*.tmp"))


def test_cell_mean_unknown_label(rig):
    _, table = rig
    with pytest.raises(KeyError):
        table.cell_mean("nonexistent", "t2a", "R@1")


# ---------------------------------------------------------------------------
# benchmark runs


def test_benchmark_row_and_artifacts(rig):
    cfg, table = rig
    assert [row.label for row in table.rows] == ["synthetic/moee"]
    entry = table.rows[0].by_direction["t2a"]
    assert isinstance(entry, SeedAggregate) and entry.runs == 2
    run_path = Path(cfg.out_dir) / cfg.run_key()
    for name in ("config.txt", "seed0.json", "seed1.json",
                 "table.txt", "table.csv"):
        assert (run_path / name).exists()
    payload = json.loads((run_path / "seed0.json").read_text())
    assert payload["seed"] == 0
    assert payload["numerics"] == bn.NUMERICS_VERSION
    assert set(payload) == {"seed", "numerics", "blas", "selection_score",
                            "best_step", "t2a", "a2t", "log"}
    assert payload["blas"] == blas.describe()
    assert (run_path / "table.txt").read_text() == table.to_text()
    assert (run_path / "table.csv").read_text() == table.to_csv()


def test_benchmark_rerun_hits_cache_bitwise(rig, bundle):
    cfg, table = rig
    again = bn.run_benchmark(cfg, data=bundle)
    assert again.to_csv() == table.to_csv()
    assert again.to_text() == table.to_text()


def test_run_key_names_the_blas_thread_count(rig, bundle, monkeypatch):
    """Training's bits depend on the BLAS thread count, so a seed cached at
    one count is not served at another; at the same count it is."""
    cfg, table = rig
    before = cfg.run_key()
    monkeypatch.setattr(tr, "train", lambda *a, **kw: pytest.fail("trained"))
    assert bn.run_benchmark(cfg, data=bundle).to_csv() == table.to_csv()
    info = blas.describe()
    monkeypatch.setattr(blas, "describe",
                        lambda: info | {"threads": (info["threads"] or 1) + 1})
    assert cfg.run_key() != before
    with pytest.raises(pytest.fail.Exception, match="trained"):
        bn.run_benchmark(cfg, data=bundle)


def test_study_rejects_train_log_path_before_writing(bundle, tmp_path,
                                                     monkeypatch):
    """train.log_path is retired: a study fails on it as on any unknown
    train key, before anything is written."""
    monkeypatch.setattr(tr, "train", lambda *a, **kw: pytest.fail("trained"))
    cfg = tiny_config(tmp_path / "runs",
                      train=TINY_TRAIN | {"log_path": str(tmp_path / "t.log")})
    with pytest.raises(ValueError, match="unknown train key 'log_path'"):
        bn.run_benchmark(cfg, data=bundle)
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "t.log").exists()


def test_benchmark_table_is_built_from_stored_artifacts(rig, bundle, tmp_path):
    cfg, _ = rig
    src = Path(cfg.out_dir) / cfg.run_key()
    shutil.copytree(src, tmp_path / cfg.run_key())
    moved = replace(cfg, out_dir=str(tmp_path))

    artifact = tmp_path / cfg.run_key() / "seed0.json"
    payload = json.loads(artifact.read_text())
    payload["t2a"]["R@1"] = 7.0  # stays below R@5, so the report is valid
    artifact.write_text(json.dumps(payload))

    table = bn.run_benchmark(moved, data=bundle)
    seed1 = json.loads((tmp_path / cfg.run_key() / "seed1.json").read_text())
    expected = (7.0 + seed1["t2a"]["R@1"]) / 2.0
    assert table.cell_mean("synthetic/moee", "t2a", "R@1") == pytest.approx(expected)


def test_table_from_artifacts_without_blas_is_unchanged(rig, bundle, tmp_path):
    """Artifacts written before the BLAS was recorded still load, and give
    the same table bytes."""
    cfg, table = rig
    moved = replace(cfg, out_dir=str(tmp_path))
    shutil.copytree(Path(cfg.out_dir) / cfg.run_key(), tmp_path / cfg.run_key())
    for artifact in (tmp_path / cfg.run_key()).glob("seed*.json"):
        payload = json.loads(artifact.read_text())
        del payload["blas"]
        artifact.write_text(json.dumps(payload, indent=1, sort_keys=True))
    again = bn.run_benchmark(moved, data=bundle)
    assert again.to_text() == table.to_text()
    assert again.to_csv() == table.to_csv()


def test_benchmark_single_seed_row_is_plain_report(bundle, tmp_path, rig):
    cfg, _ = rig
    solo = replace(cfg, seeds=(0,), out_dir=str(tmp_path))
    shutil.copytree(Path(cfg.out_dir) / cfg.run_key(), tmp_path / cfg.run_key())
    table = bn.run_benchmark(solo, data=bundle)
    entry = table.rows[0].by_direction["t2a"]
    assert isinstance(entry, MetricsReport)
    cached = json.loads((tmp_path / cfg.run_key() / "seed0.json").read_text())
    assert entry.r1 == cached["t2a"]["R@1"]


def test_evaluate_checkpoint_reports_both_directions(frozen_ckpt, bundle):
    reports = bn.evaluate_checkpoint(frozen_ckpt, bundle)
    assert set(reports) == {"t2a", "a2t"}
    for rep in reports.values():
        assert rep.pool_size == 16 and rep.query_count == 16
        assert 0.0 <= rep.r1 <= rep.r5 <= 100.0


# ---------------------------------------------------------------------------
# studies


def test_ablation_rows_reuse_benchmark_artifacts(rig, bundle):
    cfg, table = rig
    ab = bn.run_ablation(cfg, [("ea",), ("eb",), ("ea", "eb")], data=bundle)
    assert [row.label for row in ab.rows] == ["ea", "eb", "ea+eb"]
    # the full subset shares its run directory with the plain benchmark,
    # so its row must be identical, not merely close
    assert ab.rows[2].by_direction == table.rows[0].by_direction
    study_dir = Path(cfg.out_dir) / cfg.run_key(
        {"study": "ablation", "subsets": [["ea"], ["eb"], ["ea", "eb"]]})
    assert (study_dir / "table.txt").exists()


def test_study_configs_keep_every_field(rig, bundle, monkeypatch):
    """An ablation's subset configs and a transfer's source config differ
    from the study's config in the one field they vary, extras included."""
    cfg = replace(rig[0], extras={"note": {"tag": "x"}})
    artifact = bn.RunDir(rig[0]).load_seed(0)
    seen = []
    monkeypatch.setattr(bn, "run_single",
                        lambda c, *a, **kw: seen.append(c) or artifact)
    bn.run_ablation(cfg, [("ea",)], data=bundle)
    assert seen == [replace(cfg, experts=("ea",))] * len(cfg.seeds)

    def load_data(c):
        seen.append(c)
        raise LookupError("stop before training")

    monkeypatch.setattr(bn, "load_data", load_data)
    with pytest.raises(LookupError, match="stop before training"):
        bn.run_transfer(cfg, "clotho", data=bundle)
    assert seen[-1] == replace(cfg, dataset="clotho")


def test_ablation_requires_subsets(rig, bundle):
    cfg, _ = rig
    with pytest.raises(ValueError, match="no expert subsets"):
        bn.run_ablation(cfg, [], data=bundle)


def test_ablation_unknown_expert(rig, bundle):
    cfg, _ = rig
    with pytest.raises(ValueError, match="expert not available"):
        bn.run_ablation(cfg, [("zz",)], data=bundle)


def test_transfer_rows_and_scratch_cache(rig, bundle):
    cfg, _ = rig
    solo = replace(cfg, seeds=(0,))
    source = bn.synthetic_bundle(seed=4321)
    with pytest.warns(UserWarning, match="source equals target"):
        table = bn.run_transfer(solo, "synthetic", data=bundle,
                                source_data=source)
    assert [row.label for row in table.rows] == ["synthetic/scratch",
                                                 "synthetic→synthetic"]
    cached = json.loads((Path(cfg.out_dir) / cfg.run_key() /
                         "seed0.json").read_text())
    for column in COLUMNS:
        assert table.cell_mean("synthetic/scratch", "t2a", column) == \
            cached["t2a"][column]
    assert np.isfinite(table.cell_mean("synthetic→synthetic", "t2a", "R@1"))


def test_scale_full_fraction_shares_benchmark_run(rig, bundle):
    cfg, _ = rig
    solo = replace(cfg, seeds=(0,))
    table = bn.run_scale_study(solo, fractions=(0.5, 1.0), data=bundle)
    assert [row.label for row in table.rows] == ["frac=0.5 (n=24)",
                                                 "frac=1 (n=48)"]
    cached = json.loads((Path(cfg.out_dir) / cfg.run_key() /
                         "seed0.json").read_text())
    for column in COLUMNS:
        assert table.cell_mean("frac=1 (n=48)", "t2a", column) == \
            cached["t2a"][column]


def test_scale_rejects_bad_fraction(rig, bundle):
    cfg, _ = rig
    with pytest.raises(ValueError, match="fraction"):
        bn.run_scale_study(cfg, fractions=(0.0,), data=bundle)


def test_ablation_keeps_the_benchmark_table(bundle, tmp_path):
    """The full subset shares the benchmark's run directory; the ablation
    writes its table under its own key only."""
    cfg = tiny_config(tmp_path, seeds=(0,))
    table = bn.run_benchmark(cfg, data=bundle)
    bn.run_ablation(cfg, [("ea",), ("ea", "eb")], data=bundle)
    bench_dir = tmp_path / cfg.run_key()
    assert (bench_dir / "table.txt").read_text() == table.to_text()
    assert (bench_dir / "table.csv").read_text() == table.to_csv()


def test_study_entries_parsed_once():
    cfg = bn.experiment_from_sections(bn.parse_config(
        "experiment.dataset = synthetic\nexperiment.arch = moee\n"
        "experiment.experts = ea,eb\n"
        "ablate.subsets = ea; eb ;ea, eb;\n"
        "transfer.source = clotho\nscale.fractions = 0.5, 1\n"))
    assert cfg.subsets == (("ea",), ("eb",), ("ea", "eb"))
    assert cfg.source == "clotho"
    assert cfg.fractions == (0.5, 1.0)
    plain = tiny_config("runs")
    assert (plain.subsets, plain.source) == ((), None)
    assert plain.fractions == bn.DEFAULT_FRACTIONS


@pytest.mark.parametrize("section, key", [("ablate", "subset"),
                                          ("transfer", "sources"),
                                          ("scale", "fraction")])
def test_study_section_typo_rejected(section, key):
    sections = bn.parse_config(
        "experiment.dataset = synthetic\nexperiment.arch = moee\n"
        f"experiment.experts = ea\n{section}.{key} = 0.5\n")
    with pytest.raises(ValueError, match=f"unknown {section} key '{key}'"):
        bn.experiment_from_sections(sections)


@pytest.mark.parametrize("section", ["sacle", "trian", "note"])
def test_unknown_config_section_rejected(section):
    """A section that is neither the experiment's nor a study's fails,
    rather than running the study's defaults."""
    sections = bn.parse_config(
        "experiment.dataset = synthetic\nexperiment.arch = moee\n"
        f"experiment.experts = ea\n{section}.fractions = 0.5\n")
    with pytest.raises(ValueError,
                       match=f"unknown config section '{section}'"):
        bn.experiment_from_sections(sections)


@pytest.mark.parametrize("section, key", [("train", "epoch"),
                                          ("train", "seed"),
                                          ("loss", "margn"),
                                          ("model", "joint_dimm"),
                                          ("model", "experts")])
def test_unknown_run_key_fails_before_any_run_dir(bundle, tmp_path, section,
                                                  key):
    cfg = tiny_config(tmp_path / "runs")
    getattr(cfg, section)[key] = 2
    with pytest.raises(ValueError, match=f"unknown {section} key '{key}'"):
        bn.run_benchmark(cfg, data=bundle)
    assert not (tmp_path / "runs").exists()


def test_removed_run_key_names_what_replaced_it(bundle, tmp_path):
    """A key an older config may carry fails as unknown and says where its
    value now comes from."""
    cfg = tiny_config(tmp_path / "runs")
    cfg.train["lr_decay"] = 0.9
    with pytest.raises(ValueError, match="unknown train key 'lr_decay': "
                       r"the decay factor is fixed at training\.LR_DECAY"):
        bn.run_benchmark(cfg, data=bundle)
    assert not (tmp_path / "runs").exists()


def test_every_row_checked_before_the_first_trains(bundle, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(tr, "train", lambda *a, **kw: pytest.fail("trained"))
    cfg = tiny_config(tmp_path / "runs")
    with pytest.raises(ValueError, match="expert not available .* 'zz'"):
        bn.run_ablation(cfg, [("ea",), ("eb",), ("ea", "zz")], data=bundle)
    source = replace(bundle, expert_dims={"ea": bundle.expert_dims["ea"]})
    with pytest.raises(ValueError, match="expert not available .* 'eb'"):
        bn.run_transfer(cfg, "clotho", data=bundle, source_data=source)
    assert not (tmp_path / "runs").exists()


# the architecture, and its model section, that a model value is tried in
_MODEL_VALUE_ARCH = {"heads": ("mmt", {}), "text_clusters": ("ce", TINY_MODEL)}


@pytest.mark.parametrize("section, key, value, match", [
    ("train", "word_cap", -1, "word cap must be >= 1"),
    ("train", "word_cap", 0, "word cap must be >= 1"),
    ("train", "frame_caps", {"ea": 4, "eb": -2}, "frame cap for 'eb'"),
    ("train", "lr_decay", 1.5, "decay factor"),
    ("loss", "margin", 0.0, "margin must be positive"),
    ("model", "heads", 3, "model_dim must be divisible by heads"),
    ("model", "text_clusters", 0, "need clusters >= 1"),
    ("transfer", "text", 7, "width mismatch for text: source 7"),
    ("transfer", "eb", 5, "width mismatch for expert 'eb': source 5")])
def test_rejected_value_fails_before_any_run_dir(bundle, tmp_path, monkeypatch,
                                                 section, key, value, match):
    """A value TrainConfig, LossConfig or a model's constructor rejects, or
    a transfer source whose text or expert width (`value`) is not the
    target's, fails the study before any row trains or writes a RunDir,
    in the study's last row too."""
    monkeypatch.setattr(tr, "train", lambda *a, **kw: pytest.fail("trained"))
    good = tiny_config(tmp_path / "runs")
    if section == "transfer":
        source = (replace(bundle, text_dim=value) if key == "text" else
                  replace(bundle, expert_dims=bundle.expert_dims | {key: value}))
        with pytest.raises(ValueError, match=match):
            bn.run_transfer(good, "clotho", data=bundle, source_data=source)
        bad = bn._Row("bad", good, source=(good, source))
    else:
        arch, model = _MODEL_VALUE_ARCH.get(key, ("moee", TINY_MODEL))
        cfg = tiny_config(tmp_path / "runs", architecture=arch,
                          model=dict(model))
        getattr(cfg, section)[key] = value
        with pytest.raises(ValueError, match=match):
            bn.run_benchmark(cfg, data=bundle)
        bad = bn._Row("bad", cfg)
    with pytest.raises(ValueError, match=match):
        bn._run_study(good, bundle, [bn._Row("ok", good), bad])
    assert not (tmp_path / "runs").exists()


def _study_layouts(cfg):
    """Each study's runner and the (config, run-key extra) of every
    directory it writes, with the files each directory holds."""
    seeds = {"config.txt", "seed0.json", "seed1.json"}
    tables = {"table.csv", "table.txt"}
    subsets = [("ea",), ("eb",), ("ea", "eb")]
    ablation = {"study": "ablation", "subsets": [["ea"], ["eb"], ["ea", "eb"]]}
    transfer = {"study": "transfer", "source": "synthetic"}
    scale = {"study": "scale", "fractions": [0.5, 1.0], "subsample_seed": 0}
    half = {"fraction": 0.5, "subsample_seed": 0}
    source = bn.synthetic_bundle(seed=4321)
    return {
        "benchmark": (lambda data: bn.run_benchmark(cfg, data=data),
                      [(cfg, None, seeds | tables)]),
        "ablation": (lambda data: bn.run_ablation(cfg, subsets, data=data),
                     [(replace(cfg, experts=("ea",)), None, seeds),
                      (replace(cfg, experts=("eb",)), None, seeds),
                      (cfg, None, seeds),
                      (cfg, ablation, {"config.txt"} | tables)]),
        "transfer": (lambda data: bn.run_transfer(cfg, "synthetic", data=data,
                                                  source_data=source),
                     [(cfg, None, seeds), (cfg, transfer, seeds | tables)]),
        "scale": (lambda data: bn.run_scale_study(cfg, (0.5, 1.0), data=data),
                  [(cfg, half, seeds), (cfg, None, seeds),
                   (cfg, scale, {"config.txt"} | tables)]),
    }


@pytest.mark.parametrize("study", ["benchmark", "ablation", "transfer",
                                   "scale"])
def test_study_layout_and_one_probe_per_row_seed(study, bundle, tmp_path,
                                                 monkeypatch):
    """A study writes exactly these directories, each config.txt names its
    key, its table lives only under its own key, and every (row, seed)
    probes the cache once, cold or cached."""
    cfg = tiny_config(tmp_path)
    run, layout = _study_layouts(cfg)[study]
    rows = sum("seed0.json" in files for _, _, files in layout)
    probes, trained = [], []
    load_seed, train = bn.RunDir.load_seed, tr.train
    monkeypatch.setattr(bn.RunDir, "load_seed",
                        lambda self, seed: probes.append(seed) or
                        load_seed(self, seed))
    monkeypatch.setattr(tr, "train",
                        lambda *a, **kw: trained.append(1) or train(*a, **kw))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = run(bundle)
        assert len(probes) == rows * len(cfg.seeds)
        written = {p.name: {f.name for f in p.iterdir()}
                   for p in tmp_path.iterdir()}
        assert written == {c.run_key(extra): files
                           for c, extra, files in layout}
        for c, extra, _ in layout:
            assert (tmp_path / c.run_key(extra) / "config.txt").read_text() \
                == "\n".join(c.canonical_lines(extra)) + "\n"
        study_dir = tmp_path / layout[-1][0].run_key(layout[-1][1])
        assert (study_dir / "table.txt").read_text() == table.to_text()
        probes.clear()
        trained.clear()
        again = run(bundle)
    assert again.to_text() == table.to_text()
    assert len(probes) == rows * len(cfg.seeds) and trained == []


# ---------------------------------------------------------------------------
# training-set subsampling


def test_subsample_full_fraction_is_identity(bundle):
    sub = bn.subsample_train(bundle.corpus, 1.0, seed=0)
    assert [s.sample_id for s in sub.samples] == \
        [s.sample_id for s in bundle.corpus.samples]
    assert [c.caption_id for c in sub.captions] == \
        [c.caption_id for c in bundle.corpus.captions]


def test_subsample_counts_and_nesting(bundle):
    kept = {}
    for fraction in (0.25, 0.5, 1.0):
        sub = bn.subsample_train(bundle.corpus, fraction, seed=9)
        ids = set(sub.split_ids("train"))
        assert len(ids) == int(fraction * 48)
        kept[fraction] = ids
    assert kept[0.25] <= kept[0.5] <= kept[1.0]


def test_subsample_preserves_other_splits_and_captions(bundle):
    sub = bn.subsample_train(bundle.corpus, 0.25, seed=9)
    assert sub.split_ids("val") == bundle.corpus.split_ids("val")
    assert sub.split_ids("test") == bundle.corpus.split_ids("test")
    surviving = {s.sample_id for s in sub.samples}
    assert all(c.sample_id in surviving for c in sub.captions)
    # dropped training samples lose their captions too
    dropped = set(bundle.corpus.split_ids("train")) - set(sub.split_ids("train"))
    assert dropped
    assert not any(c.sample_id in dropped for c in sub.captions)


def test_subsample_is_seed_deterministic(bundle):
    first = bn.subsample_train(bundle.corpus, 0.5, seed=3)
    second = bn.subsample_train(bundle.corpus, 0.5, seed=3)
    assert first.split_ids("train") == second.split_ids("train")
    other = bn.subsample_train(bundle.corpus, 0.5, seed=4)
    assert first.split_ids("train") != other.split_ids("train")


def test_subsample_rejects_bad_fraction(bundle):
    for fraction in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="fraction"):
            bn.subsample_train(bundle.corpus, fraction, seed=0)


# ---------------------------------------------------------------------------
# search


def test_search_returns_ordered_pool_permutation(frozen_ckpt, bundle):
    searcher = bn.Searcher(frozen_ckpt, bundle.corpus, bundle.store,
                           bundle.text_source)
    hits = searcher.search("w001 w002 w003", top_k=1000)
    assert sorted(sid for sid, _ in hits) == sorted(searcher.pool_ids)
    for (id1, s1), (id2, s2) in zip(hits, hits[1:]):
        assert s1 > s2 or (s1 == s2 and id1 < id2)
    assert all(-1.0 <= s <= 1.0 for _, s in hits)


def test_search_repeat_is_identical(frozen_ckpt, bundle):
    searcher = bn.Searcher(frozen_ckpt, bundle.corpus, bundle.store,
                           bundle.text_source)
    assert searcher.search("w005 w009", top_k=5) == \
        searcher.search("w005 w009", top_k=5)


def test_search_truncates_to_top_k(frozen_ckpt, bundle):
    searcher = bn.Searcher(frozen_ckpt, bundle.corpus, bundle.store,
                           bundle.text_source)
    full = searcher.search("w001", top_k=16)
    assert searcher.search("w001", top_k=3) == full[:3]


def test_search_rejects_bad_input(frozen_ckpt, bundle):
    searcher = bn.Searcher(frozen_ckpt, bundle.corpus, bundle.store,
                           bundle.text_source)
    with pytest.raises(ValueError, match="empty query"):
        searcher.search("   ")
    with pytest.raises(ValueError, match="top_k"):
        searcher.search("w001", top_k=0)


def test_search_scores_match_similarity_matrix(frozen_ckpt, bundle):
    searcher = bn.Searcher(frozen_ckpt, bundle.corpus, bundle.store,
                           bundle.text_source)
    model = frozen_ckpt.rebuild()
    _, texts, clips = tr.stage_split(bundle.corpus, "test", bundle.store,
                                     bundle.text_source, ("ea", "eb"),
                                     frozen_ckpt.train_config)
    pool = sorted(clips)
    caption = next(c for c in bundle.corpus.captions
                   if c.caption_id == "c-s0000")
    sim = similarity_matrix(model, [texts["c-s0000"]],
                            [clips[sid] for sid in pool])
    by_id = dict(searcher.search(caption.text, top_k=len(pool)))
    for j, sid in enumerate(pool):
        assert by_id[sid] == sim.values[0, j]


def test_search_caps_the_query_at_the_checkpoint_word_cap(frozen_ckpt, bundle):
    """A caption longer than the training word cap is searched capped, as
    staging caps it, so its scores are its row of the evaluated matrix."""
    ckpt = replace(frozen_ckpt,
                   train_config=replace(frozen_ckpt.train_config, word_cap=4))
    searcher = bn.Searcher(ckpt, bundle.corpus, bundle.store,
                           bundle.text_source)
    _, texts, clips = tr.stage_split(bundle.corpus, "test", bundle.store,
                                     bundle.text_source, ("ea", "eb"),
                                     ckpt.train_config)
    pool = sorted(clips)
    sim = similarity_matrix(ckpt.rebuild(), list(texts.values()),
                            [clips[sid] for sid in pool])
    caption = next(c for c in bundle.corpus.captions_for_split("test")
                   if len(c.text.split()) > 6)
    by_id = dict(searcher.search(caption.text, top_k=len(pool)))
    np.testing.assert_allclose([by_id[sid] for sid in pool],
                               sim.values[list(texts).index(caption.caption_id)],
                               rtol=0, atol=1e-12)


def test_search_leaves_the_blas_thread_count(frozen_ckpt, bundle):
    searcher = bn.Searcher(frozen_ckpt, bundle.corpus, bundle.store,
                           bundle.text_source)
    before = blas.describe()
    searcher.search("w001 w005 w009", top_k=3)
    assert blas.describe() == before


def test_searcher_stages_clips_only(frozen_ckpt, bundle, monkeypatch):
    """Building a Searcher embeds no caption, and its pool is the encoding
    of the split's staged clips."""
    calls = []
    tokens_for = type(bundle.text_source).tokens_for
    monkeypatch.setattr(type(bundle.text_source), "tokens_for",
                        lambda self, c: calls.append(c) or tokens_for(self, c))
    searcher = bn.Searcher(frozen_ckpt, bundle.corpus, bundle.store,
                           bundle.text_source)
    assert calls == []
    _, _, clips = tr.stage_split(bundle.corpus, "test", bundle.store,
                                 bundle.text_source, ("ea", "eb"),
                                 frozen_ckpt.train_config)
    assert searcher.pool_ids == sorted(clips)
    pool = encode_clips(frozen_ckpt.rebuild(),
                        [clips[sid] for sid in searcher.pool_ids])
    np.testing.assert_array_equal(searcher.pool.vectors.data, pool.vectors.data)
    np.testing.assert_array_equal(searcher.pool.present, pool.present)


def test_searcher_rejects_a_split_without_clips(frozen_ckpt, bundle):
    with pytest.raises(ValueError, match="no clips in split 'nowhere'"):
        bn.Searcher(frozen_ckpt, bundle.corpus, bundle.store,
                    bundle.text_source, split="nowhere")


@needs_openblas
def test_searcher_init_leaves_the_blas_thread_count(frozen_ckpt, bundle,
                                                    two_threads):
    bn.Searcher(frozen_ckpt, bundle.corpus, bundle.store, bundle.text_source)
    assert blas.describe()["threads"] == 2


def test_search_normalizes_the_pool_once(frozen_ckpt, bundle, monkeypatch):
    """The encoded pool is brought to unit length once, not per query."""
    searcher = bn.Searcher(frozen_ckpt, bundle.corpus, bundle.store,
                           bundle.text_source)
    pool_calls = []
    normalize = ad.row_normalize

    def spy(a, *args, **kwargs):
        pool_calls.append(a is searcher.pool.vectors)
        return normalize(a, *args, **kwargs)

    monkeypatch.setattr(ad, "row_normalize", spy)
    for query in ("w001", "w005 w009", "w010 w011"):
        searcher.search(query, top_k=3)
    assert sum(pool_calls) == 1


def _checkpoint(arch, data, train=None, **model):
    """An untrained checkpoint of `arch` on data's experts, built from the
    model overrides, with the train config (word cap 21 by default)."""
    dims = dict(data.expert_dims)
    built = md.build_model(arch, tuple(dims), dims, data.text_source.dim,
                           np.random.default_rng(7), model)
    params = {k: p.data.copy() for k, p in built.named_parameters().items()}
    return tr.Checkpoint(arch, built.config_dict(), params,
                         train or tr.TrainConfig(arch, steps=0, word_cap=21),
                         [], 0.0, 0)


def _searcher(arch, data, **model):
    """A Searcher on an untrained checkpoint of `arch` over data's test
    split, built from the model overrides."""
    return bn.Searcher(_checkpoint(arch, data, **model), data.corpus,
                       data.store, data.text_source)


SMALL = {"moee": TINY_MODEL, "ce": TINY_MODEL,
         "mmt": dict(model_dim=8, layers=1, heads=2, ff_dim=8, max_frames=8)}
QUERIES = ("w001 w002 w003", "w005 w009", "unknown words only", "w010")


@pytest.fixture(scope="module")
def paper_text():
    """Synthetic data with 300-d word vectors, Clotho's text width."""
    rng = np.random.default_rng(8)
    return make_synthetic_benchmark(rng, n_pairs=8, n_test=8,
                                    word_table=make_word_table(rng, dim=300))


@needs_openblas
@pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
def test_search_branches_on_workers_keep_hits_and_scores(arch, bundle,
                                                         two_threads,
                                                         monkeypatch):
    """Handing the expert branches to the worker pool and keeping them in
    the caller give the same hits with bitwise the same scores."""
    runs, widths = [], []
    run_pinned = blas.run_pinned
    monkeypatch.setattr(blas, "run_pinned",
                        lambda tasks, width: widths.append(width)
                        or run_pinned(tasks, width))
    for cutoff in (0, 1 << 62):
        monkeypatch.setattr(blas, "POOL_MIN_WEIGHTS", cutoff)
        searcher = _searcher(arch, bundle, **SMALL[arch])
        widths.clear()
        runs.append([searcher.search(q, top_k=16) for q in QUERIES])
        assert widths == [1 if cutoff else 2] * len(QUERIES)
    assert runs[0] == runs[1]


PAPER_CE = dict(text_clusters=20, text_ghost=1, audio_clusters=2,
                audio_ghost=0, joint_dim=512)


@needs_openblas
def test_paper_width_searcher_keeps_one_worker(paper_text, two_threads,
                                               thread_starts):
    """A CE text unit of 6000 x 512 fans out: from no pool, its Searcher's
    init and first query start the pool's one worker, and the next
    thousand queries start no thread."""
    searcher = _searcher("ce", paper_text, **PAPER_CE)
    assert searcher.model.text_units["ea"].w1.data.shape == (512, 6000)
    first = searcher.search("w001 w002 w003", top_k=4)
    assert thread_starts == list(blas._pool(1)._threads)
    assert len(thread_starts) == 1
    for i in range(1000):
        searcher.search(f"w{i % 50:03d} w{(7 * i) % 50:03d}", top_k=4)
    assert len(thread_starts) == 1
    assert searcher.search("w001 w002 w003", top_k=4) == first


@needs_openblas
def test_searcher_and_evaluation_share_one_worker(paper_text, two_threads,
                                                  thread_starts):
    """At paper-width CE, a Searcher's init, two similarity matrices and a
    hundred queries all fan out on one pool and start one thread in all."""
    searcher = _searcher("ce", paper_text, **PAPER_CE)
    cfg = tr.TrainConfig("ce", steps=0, word_cap=21)
    _, texts, clips = tr.stage_split(paper_text.corpus, "test",
                                     paper_text.store, paper_text.text_source,
                                     ("ea", "eb"), cfg)
    for _ in range(2):
        similarity_matrix(searcher.model, list(texts.values()),
                          list(clips.values()))
    for i in range(100):
        searcher.search(f"w{i % 50:03d} w{(3 * i) % 50:03d}", top_k=4)
    assert len(thread_starts) == 1


@needs_openblas
@pytest.mark.parametrize("arch", ["ce", "mmt"])
def test_small_text_unit_searcher_starts_no_thread(arch, bundle, paper_text,
                                                   two_threads, thread_starts):
    """A synthetic-size model and MMT, whose text unit at paper width is
    300 x 512, search in the caller and start no thread, even with no pool
    left to reuse."""
    if arch == "mmt":
        searcher = _searcher("mmt", paper_text, layers=1, ff_dim=64,
                             max_frames=8)
        assert searcher.model.text_units["ea"].w1.data.shape == (512, 300)
        drop_pools()  # its audio side is large enough for the pool
        thread_starts.clear()
    else:
        searcher = _searcher("ce", bundle, **TINY_MODEL)
    for query in QUERIES:
        searcher.search(query, top_k=3)
    assert thread_starts == []


# ---------------------------------------------------------------------------
# streamed pools

DISK_REGISTRY = ExpertRegistry({"ea": ExpertInfo(12, "audio"),
                                "eb": ExpertInfo(8, "audio")})
DISK_CLIPS = 13  # more than two chunks of DISK_CHUNK
DISK_CHUNK = 4


@pytest.fixture(scope="module")
def disk_bundle(tmp_path_factory):
    """A test split of DISK_CLIPS clips of 2 to 11 float32 frames in an
    on-disk store, two captions each."""
    rng = np.random.default_rng(21)
    table = make_word_table(rng)
    builder = FeatureStoreBuilder(tmp_path_factory.mktemp("disk") / "store")
    samples, captions = [], []
    for i in range(DISK_CLIPS):
        sid = f"d{i:02d}"
        samples.append(SampleRecord(sid, 10.0, split="test"))
        for k in range(2):
            words = rng.choice(sorted(table.index), size=5, replace=False)
            captions.append(CaptionRecord(f"{sid}-{k}", sid, " ".join(words)))
        for expert in ("ea", "eb"):
            builder.add(expert, sid, rng.standard_normal(
                (int(rng.integers(2, 12)), DISK_REGISTRY.dim(expert))))
    store = open_feature_store(builder.finalize(), DISK_REGISTRY)
    return bn.DataBundle(Corpus("synthetic", samples, captions), store,
                         WordTableTextSource(table), {"ea": 12, "eb": 8},
                         table.dim)


def _disk_checkpoint(arch, data):
    """An untrained checkpoint whose caps cut some clips' streams."""
    return _checkpoint(arch, data, tr.TrainConfig(
        arch, steps=0, word_cap=4, frame_caps={"ea": 5, "eb": 8}), **SMALL[arch])


# the two entry points that encode a split's pool
ENTRIES = {
    "evaluate": lambda ckpt, data, split="test":
        bn.evaluate_checkpoint(ckpt, data, split),
    "searcher": lambda ckpt, data, split="test":
        bn.Searcher(ckpt, data.corpus, data.store, data.text_source, split),
}


@pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
def test_evaluation_streams_bitwise_the_staged_matrix(arch, disk_bundle,
                                                      monkeypatch):
    """evaluate_checkpoint loads its pool chunk by chunk, yet ranks bitwise
    the matrix of the split staged whole in one list per side, with the
    same row and column ids."""
    ckpt = _disk_checkpoint(arch, disk_bundle)
    _, texts, clips = tr.stage_split(disk_bundle.corpus, "test",
                                     disk_bundle.store, disk_bundle.text_source,
                                     ("ea", "eb"), ckpt.train_config)
    want = similarity_matrix(ckpt.rebuild(), list(texts.values()),
                             list(clips.values()))
    ranked = []
    monkeypatch.setattr(similarity, "ENCODE_CHUNK", DISK_CHUNK)
    monkeypatch.setattr(bn, "compute_metrics",
                        lambda sim, gt: ranked.append(sim) or
                        compute_metrics(sim, gt))
    bn.evaluate_checkpoint(ckpt, disk_bundle)
    got = ranked[0]
    np.testing.assert_array_equal(got.values, want.values)
    assert (got.row_ids, got.col_ids) == (want.row_ids, want.col_ids)
    assert len(got.col_ids) == DISK_CLIPS


@needs_openblas
@pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_pools_hold_only_the_clips_of_the_chunks_in_flight(
        arch, entry, disk_bundle, two_threads, monkeypatch):
    """At 2 BLAS threads two chunks run at once, so evaluate_checkpoint and
    Searcher.__init__ hold at most two chunks' clips alive at any time,
    counted through weak references, and load each clip once."""
    monkeypatch.setattr(similarity, "ENCODE_CHUNK", DISK_CHUNK)
    monkeypatch.setattr(blas, "POOL_MIN_WEIGHTS", 0)
    refs, counts, lock = [], [], threading.Lock()
    gather = tr.gather_clip

    def counted(*args, **kwargs):
        clip = gather(*args, **kwargs)
        with lock:
            refs.append(weakref.ref(clip))
            counts.append(sum(ref() is not None for ref in refs))
        return clip

    monkeypatch.setattr(tr, "gather_clip", counted)
    ENTRIES[entry](_disk_checkpoint(arch, disk_bundle), disk_bundle)
    assert len(counts) == DISK_CLIPS
    assert max(counts) <= 2 * DISK_CHUNK


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_missing_feature_file_names_its_sample(entry, disk_bundle,
                                                 tmp_path, monkeypatch):
    """A clip loaded inside a chunk task still raises FileNotFoundError
    naming the sample whose features are missing."""
    root = tmp_path / "store"
    shutil.copytree(disk_bundle.store.root, root)
    (root / "eb" / "d11.mat").unlink()
    data = replace(disk_bundle,
                   store=open_feature_store(root, DISK_REGISTRY))
    monkeypatch.setattr(similarity, "ENCODE_CHUNK", DISK_CHUNK)
    with pytest.raises(FileNotFoundError, match="sample d11 "):
        ENTRIES[entry](_disk_checkpoint("moee", data), data)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_an_empty_split_raises_before_any_task(entry, disk_bundle,
                                               monkeypatch):
    tasks = []
    monkeypatch.setattr(blas, "run_pinned",
                        lambda batch, width: tasks.append(batch))
    with pytest.raises(ValueError, match="no (captions|clips) in split 'none'"):
        ENTRIES[entry](_disk_checkpoint("moee", disk_bundle), disk_bundle,
                       "none")
    assert tasks == []


# ---------------------------------------------------------------------------
# command line


def _write_experiment_cfg(path, out_dir, seeds="0,1", extra=""):
    path.write_text(
        "experiment.dataset = synthetic\n"
        "experiment.arch = moee\n"
        "experiment.experts = ea,eb\n"
        f"experiment.seeds = {seeds}\n"
        f"experiment.out = {out_dir}\n"
        "train.epochs = 2\n"
        "loss.batch_size = 8\n"
        "model.text_clusters = 2\n"
        "model.text_ghost = 1\n"
        "model.audio_clusters = 2\n"
        "model.audio_ghost = 0\n"
        "model.joint_dim = 8\n"
        + extra)


def test_cli_benchmark_from_config_reuses_cache(rig, tmp_path, capsys):
    cfg, table = rig
    cfg_path = tmp_path / "exp.cfg"
    _write_experiment_cfg(cfg_path, cfg.out_dir)
    assert cli_main(["benchmark", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == table.to_text()


def test_cli_seed_flag_overrides_config(rig, tmp_path, capsys):
    cfg, _ = rig
    cfg_path = tmp_path / "exp.cfg"
    _write_experiment_cfg(cfg_path, cfg.out_dir)
    assert cli_main(["benchmark", "--config", str(cfg_path),
                     "--seeds", "0"]) == 0
    out = capsys.readouterr().out
    assert "synthetic/moee" in out
    assert "±" not in out  # a single seed renders plain values


def test_cli_scale_from_config(rig, tmp_path, capsys):
    cfg, _ = rig
    cfg_path = tmp_path / "exp.cfg"
    _write_experiment_cfg(cfg_path, cfg.out_dir, seeds="0",
                          extra="scale.fractions = 1.0\n")
    assert cli_main(["scale", "--config", str(cfg_path)]) == 0
    assert "frac=1 (n=48)" in capsys.readouterr().out


def test_cli_ablate_needs_subsets(rig, tmp_path, capsys):
    cfg, _ = rig
    cfg_path = tmp_path / "exp.cfg"
    _write_experiment_cfg(cfg_path, cfg.out_dir)
    assert cli_main(["ablate", "--config", str(cfg_path)]) == 2
    assert "ablate.subsets" in capsys.readouterr().err


def test_cli_transfer_needs_source(rig, tmp_path, capsys):
    cfg, _ = rig
    cfg_path = tmp_path / "exp.cfg"
    _write_experiment_cfg(cfg_path, cfg.out_dir)
    assert cli_main(["transfer", "--config", str(cfg_path)]) == 2
    assert "transfer.source" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ("scale.fraction = 0.5\n", "unknown scale key 'fraction'"),
    ("train.epoch = 2\n", "unknown train key 'epoch'"),
    ("model.joint_dimm = 8\n", "unknown model key 'joint_dimm'"),
    ("sacle.fractions = 0.5\n", "unknown config section 'sacle'"),
    ("train.log_path = t.log\n", "unknown train key 'log_path'")],
    ids=["scale", "train", "model", "section", "log_path"])
def test_cli_config_typo_exits_one_before_writing(tmp_path, capsys, extra,
                                                  message):
    cfg_path = tmp_path / "exp.cfg"
    _write_experiment_cfg(cfg_path, tmp_path / "runs", extra=extra)
    assert cli_main(["scale", "--config", str(cfg_path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key", ["architecture", "out_dir"])
def test_cli_long_experiment_key_exits_one_before_writing(tmp_path, capsys,
                                                         key):
    """`arch` and `out` are the experiment keys' only spellings."""
    other = tmp_path / "elsewhere"
    value = "ce" if key == "architecture" else other
    cfg_path = tmp_path / "exp.cfg"
    _write_experiment_cfg(cfg_path, tmp_path / "runs",
                          extra=f"experiment.{key} = {value}\n")
    assert cli_main(["benchmark", "--config", str(cfg_path)]) == 1
    assert f"error: unknown experiment key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists() and not other.exists()


def test_cli_reports_errors_with_exit_one(capsys):
    rc = cli_main(["benchmark", "--dataset", "esc50", "--arch", "moee",
                   "--experts", "ea"])
    assert rc == 1
    assert "error: unknown dataset" in capsys.readouterr().err


def test_cli_search_reports_unreadable_checkpoint(tmp_path, capsys):
    """A checkpoint path that cannot be opened as a file is an error
    message and exit 1, not a traceback."""
    for path in (tmp_path, tmp_path / "missing.ckpt"):
        rc = cli_main(["search", "rain", "--checkpoint", str(path),
                       "--dataset", "synthetic"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_search_prints_ranked_hits(frozen_ckpt, tmp_path, capsys):
    ckpt_path = tmp_path / "model.zip"
    save_checkpoint(frozen_ckpt, ckpt_path)
    rc = cli_main(["search", "w001 w004", "quiet rain", "--checkpoint",
                   str(ckpt_path), "--dataset", "synthetic", "--top-k", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("query:") == 2
    hit_lines = [line for line in out.splitlines()
                 if line.strip().startswith(("1.", "2.", "3."))]
    assert len(hit_lines) == 6
    assert all(" s" in line for line in hit_lines)  # synthetic test pool ids


def test_cli_build_sounddescs_and_stats(tmp_path, capsys, monkeypatch):
    index = tmp_path / "index.tsv"
    index.write_text("".join(f"clip{i:03d}\t{10.0 + i}\ttag{i % 3}\n"
                             for i in range(30)))
    desc = tmp_path / "desc.tsv"
    desc.write_text("".join(f"clip{i:03d}\ta recording of machine {i}\n"
                            for i in range(28)))
    out_root = tmp_path / "data" / "sounddescs"
    rc = cli_main(["build-sounddescs", str(index), str(desc),
                   "--out", str(out_root), "--seed", "3"])
    assert rc == 0
    built = capsys.readouterr().out
    assert "kept 28 of 30" in built
    assert (out_root / "index.tsv").exists()
    assert (out_root / "splits" / "train.txt").exists()

    rc = cli_main(["stats", "--dataset", "sounddescs", "--root", str(out_root)])
    assert rc == 0
    stats_out = capsys.readouterr().out
    assert "sounddescs" in stats_out
    assert "28" in stats_out

    # the environment root is the default parent directory
    monkeypatch.setenv(bn.DATA_ENV, str(tmp_path / "data"))
    rc = cli_main(["stats", "--dataset", "sounddescs"])
    assert rc == 0
    assert capsys.readouterr().out == stats_out


# methods the benchmark's tracer wraps, each defined on its class itself
BENCHMARK_METHODS = [
    ("audioret.autodiff", "Tensor", "backward"),
    ("audioret.models.moee", "MoeeModel", "encode_text"),
    ("audioret.models.moee", "MoeeModel", "encode_audio"),
    ("audioret.models.ce", "CeModel", "encode_audio"),
    ("audioret.models.ce", "CeModel", "collaborative_gate"),
    ("audioret.models.mmt", "MmtModel", "encode_text"),
    ("audioret.models.mmt", "MmtModel", "encode_audio"),
    ("audioret.models.blocks", "NetVlad", "__call__"),
    ("audioret.models.blocks", "GatedUnit", "__call__"),
    ("audioret.optim", "Adam", "step"),
    ("audioret.optim", "RAdam", "step"),
    ("audioret.optim", "Lookahead", "step"),
    ("audioret.experts", "FeatureStore", "fetch"),
    ("audioret.experts", "InMemoryFeatureStore", "fetch"),
    ("audioret.bench", "Searcher", "__init__"),
    ("audioret.bench", "Searcher", "search"),
]
# module functions the benchmark wraps or calls
BENCHMARK_FUNCTIONS = [
    ("audioret.optim", "build_optimizer"),
    ("audioret.models.similarity", "combine_scores"),
    ("audioret.training", "train"),
    ("audioret.training", "ranking_loss"),
    ("audioret.training", "_validate"),
    ("audioret.training", "stage_split"),
    ("audioret.training", "assemble_batches"),
    ("audioret.evaluation", "compute_metrics"),
    ("audioret.checkpoint", "save_checkpoint"),
    ("audioret.checkpoint", "load_checkpoint"),
    ("audioret.bench", "run_benchmark"),
    ("audioret.bench", "evaluate_checkpoint"),
]
# names the benchmark calls or reads without wrapping them
BENCHMARK_USES = [
    ("audioret.models", "build_model"),
    ("audioret.models.ce", "CeModel.config_dict"),
    ("audioret.bench", "ResultTable.cell_mean"),
    ("audioret.bench", "combine_scores"),
    ("audioret.bench", "ARCH_DEFAULTS"),
    ("audioret.training", "default_caps"),
    ("audioret.experts", "FeatureStoreBuilder"),
    ("audioret.experts", "InMemoryFeatureStore"),
]


def test_benchmark_hooks_exist():
    """The benchmark's tracer wraps these names: a method renamed, or
    inherited instead of defined on its class, would break its spans. The
    names it only calls or reads must exist too, or a run fails."""
    missing = [f"{cls}.{attr}" for module, cls, attr in BENCHMARK_METHODS
               if not callable(vars(getattr(importlib.import_module(module), cls))
                               .get(attr))]
    missing += [f"{module}.{attr}" for module, attr in BENCHMARK_FUNCTIONS
                if not callable(getattr(importlib.import_module(module), attr, None))]
    for module, path in BENCHMARK_USES:
        target = importlib.import_module(module)
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if target is None:
            missing.append(f"{module}.{path}")
    assert missing == []
    assert set(bn.ARCH_DEFAULTS) == {"moee", "ce", "mmt"}
