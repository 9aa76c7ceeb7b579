"""Corpus construction, splitting, loading, and statistics."""

import numpy as np
import pytest

from audioret import corpus as cp


def _manifest_files(tmp_path, entries, descriptions):
    index = tmp_path / "index.tsv"
    index.write_text("".join(f"{i}\t{d}\t{c}\n" for i, d, c in entries))
    desc = tmp_path / "desc.tsv"
    desc.write_text("".join(f"{i}\t{t}\n" for i, t in descriptions))
    return index, desc


class TestManifestBuilder:
    def test_drop_rule(self, tmp_path):
        """Kept plus dropped entries account for every index line."""
        index, desc = _manifest_files(
            tmp_path,
            [("a", 3.0, "dogs"), ("b", 4.0, ""), ("c", 5.5, "x,y")],
            [("a", "a dog barks"), ("b", "   "), ("c", "wind")])
        corpus, report = cp.build_sounddescs_manifest(index, desc)
        assert len(corpus) == 2
        assert report.dropped_no_description == 1
        assert report.kept + report.dropped_no_description == report.input_entries
        assert "RemArc" in report.notice

    def test_zero_valid_entries(self, tmp_path):
        index, desc = _manifest_files(tmp_path, [("a", 1.0, "")], [("a", "")])
        with pytest.raises(ValueError, match="zero valid entries"):
            cp.build_sounddescs_manifest(index, desc)

    def test_unreadable_input(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cp.build_sounddescs_manifest(tmp_path / "nope.tsv", tmp_path / "d.tsv")

    def test_categories_parsed(self, tmp_path):
        index, desc = _manifest_files(tmp_path, [("a", 1.0, "x,y")], [("a", "t")])
        corpus, _ = cp.build_sounddescs_manifest(index, desc)
        assert corpus.samples[0].categories == frozenset({"x", "y"})


def _unassigned(n, name="toy"):
    samples = [cp.SampleRecord(f"s{i:06d}", float(i % 50) + 1.0) for i in range(n)]
    captions = [cp.CaptionRecord(f"s{i:06d}", f"s{i:06d}", f"clip number {i}")
                for i in range(n)]
    return cp.Corpus(name, samples, captions)


class TestSplits:
    def test_archive_scale_counts(self):
        corpus = _unassigned(32979)
        out = cp.assign_splits(corpus, cp.SplitSpec((0.70, 0.15, 0.15), seed=0))
        counts = {s: len(out.split_ids(s)) for s in ("train", "val", "test")}
        assert counts == {"train": 23085, "val": 4947, "test": 4947}

    def test_small_rounding(self):
        out = cp.assign_splits(_unassigned(10), cp.SplitSpec((0.8, 0.1, 0.1), seed=1))
        counts = [len(out.split_ids(s)) for s in ("train", "val", "test")]
        assert counts == [8, 1, 1]

    def test_determinism(self):
        corpus = _unassigned(500)
        spec = cp.SplitSpec((0.70, 0.15, 0.15), seed=7)
        first = cp.assign_splits(corpus, spec)
        second = cp.assign_splits(corpus, spec)
        for split in ("train", "val", "test"):
            assert first.split_ids(split) == second.split_ids(split)

    def test_partition_property(self):
        """Random sizes and ratios always yield a disjoint full cover."""
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 1000))
            a, b = sorted(rng.random(2) * 0.8 + 0.1)
            ratios = (1.0 - a, a - b * a, b * a)
            ratios = tuple(r / sum(ratios) for r in ratios)
            if any(not (0 < r < 1) for r in ratios):
                continue
            out = cp.assign_splits(_unassigned(n), cp.SplitSpec(ratios, seed=int(rng.integers(1 << 30))))
            parts = [set(out.split_ids(s)) for s in ("train", "val", "test")]
            assert sum(len(p) for p in parts) == n
            assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def test_already_split_rejected(self):
        corpus = cp.assign_splits(_unassigned(10), cp.SplitSpec(seed=0))
        with pytest.raises(ValueError, match="already split"):
            cp.assign_splits(corpus, cp.SplitSpec(seed=0))

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            cp.SplitSpec((0.5, 0.2, 0.2))
        with pytest.raises(ValueError, match="ratio"):
            cp.SplitSpec((1.0, 0.0, 0.0))


class TestLoadBenchmark:
    def _round_trip(self, tmp_path, name="clotho"):
        corpus = cp.assign_splits(_unassigned(40, name=name), cp.SplitSpec(seed=3))
        root = cp.save_corpus(corpus, tmp_path / name)
        return corpus, root

    def test_round_trip(self, tmp_path):
        corpus, root = self._round_trip(tmp_path)
        back = cp.load_benchmark("clotho", root)
        assert {s.sample_id: s.split for s in back.samples} == \
            {s.sample_id: s.split for s in corpus.samples}
        assert len(back.captions) == len(corpus.captions)

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(ValueError, match="unknown dataset"):
            cp.load_benchmark("msrvtt", tmp_path)

    def test_missing_split_list(self, tmp_path):
        _, root = self._round_trip(tmp_path)
        (root / "splits" / "val.txt").unlink()
        with pytest.raises(FileNotFoundError, match="split list missing"):
            cp.load_benchmark("clotho", root)

    def test_exclusions_applied(self, tmp_path):
        corpus, root = self._round_trip(tmp_path, name="audiocaps")
        victim = corpus.samples[0].sample_id
        (root / "excluded_ids.txt").write_text(f"{victim}\n")
        back = cp.load_benchmark("audiocaps", root)
        assert victim not in {s.sample_id for s in back.samples}
        assert all(c.sample_id != victim for c in back.captions)

    def test_duration_round_trip_exact(self, tmp_path):
        samples = [cp.SampleRecord("x", 115.7512340001)]
        captions = [cp.CaptionRecord("x", "x", "hello")]
        corpus = cp.assign_splits(cp.Corpus("clotho", samples, captions),
                                  cp.SplitSpec((0.4, 0.3, 0.3), seed=0))
        root = cp.save_corpus(corpus, tmp_path / "c")
        back = cp.load_benchmark("clotho", root)
        assert back.samples[0].duration == 115.7512340001


class TestStats:
    def test_single_sample(self):
        corpus = cp.Corpus("toy", [cp.SampleRecord("a", 7.0)],
                           [cp.CaptionRecord("a", "a", "a dog barks")])
        report = cp.corpus_stats(corpus)
        assert report.mean_duration == 7.0
        assert report.mean_words == 3.0
        assert report.max_words == 3

    def test_mean_times_count_is_total(self):
        rng = np.random.default_rng(17)
        samples = [cp.SampleRecord(f"s{i}", float(rng.random() * 300))
                   for i in range(137)]
        captions = [cp.CaptionRecord(f"s{i}", f"s{i}", "word " * int(rng.integers(1, 30)))
                    for i in range(137)]
        report = cp.corpus_stats(cp.Corpus("toy", samples, captions))
        assert abs(report.mean_duration * report.sample_count - report.total_duration) \
            <= 1e-6 * max(report.total_duration, 1.0)

    def test_category_bag_of_words(self):
        samples = [cp.SampleRecord("a", 1.0, frozenset({"x", "y"})),
                   cp.SampleRecord("b", 2.0, frozenset({"x"}))]
        captions = [cp.CaptionRecord("a", "a", "t"), cp.CaptionRecord("b", "b", "t")]
        report = cp.corpus_stats(cp.Corpus("toy", samples, captions))
        assert report.category_counts == {"x": 2, "y": 1}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            cp.corpus_stats(cp.Corpus("toy", [], []))

    def test_report_serialization(self):
        corpus = _unassigned(25)
        report = cp.corpus_stats(corpus)
        text = report.to_text()
        assert "samples\t25" in text


class TestRecordValidation:
    def test_duplicate_sample_ids(self):
        with pytest.raises(ValueError, match="duplicate sample"):
            cp.Corpus("t", [cp.SampleRecord("a", 1.0), cp.SampleRecord("a", 2.0)], [])

    def test_caption_must_reference_sample(self):
        with pytest.raises(ValueError, match="unknown sample"):
            cp.Corpus("t", [cp.SampleRecord("a", 1.0)],
                      [cp.CaptionRecord("c", "zz", "text")])

    def test_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            cp.SampleRecord("a", -1.0)

    def test_empty_caption_text(self):
        with pytest.raises(ValueError, match="empty text"):
            cp.CaptionRecord("c", "a", "   ")


class TestSplitCorpus:
    def test_of_split_keeps_the_split_alone(self):
        samples = [cp.SampleRecord("a", 1.0, split="train"),
                   cp.SampleRecord("b", 2.0, split="val"),
                   cp.SampleRecord("c", 3.0, split="val")]
        captions = [cp.CaptionRecord("c2", "c", "rain"),
                    cp.CaptionRecord("a1", "a", "dog"),
                    cp.CaptionRecord("b1", "b", "wind"),
                    cp.CaptionRecord("c1", "c", "rain falls")]
        val = cp.Corpus("toy", samples, captions).of_split("val")
        assert val.name == "toy"
        assert val.samples == samples[1:]
        assert [c.caption_id for c in val.captions] == ["b1", "c1", "c2"]
        assert val.captions_for_split("val") == val.captions
