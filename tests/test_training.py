"""Loss, optimizers, batch assembly, and the training loop."""

import tracemalloc

import numpy as np
import pytest

from audioret import autodiff as ad
from audioret import bench as bn
from audioret import blas
from audioret import models as md
from audioret import optim
from audioret import training as tr
from audioret.checkpoint import load_checkpoint, save_checkpoint
from audioret.corpus import CaptionRecord, Corpus
from audioret.evaluation import MetricsReport
from audioret.models import blocks, mmt
from audioret.synthetic import make_synthetic_benchmark
from helpers import needs_openblas


def tiny_model(arch, bench, seed=0, **extra):
    rng = np.random.default_rng(seed)
    if arch == "mmt":
        overrides = dict(model_dim=8, layers=1, heads=2, ff_dim=16, max_frames=8)
    else:
        overrides = dict(text_clusters=2, text_ghost=1, audio_clusters=2,
                         audio_ghost=0, joint_dim=8)
    overrides.update(extra)
    return md.build_model(arch, tuple(bench.expert_dims), dict(bench.expert_dims),
                          bench.word_table.dim, rng, overrides)


class TestRankingLoss:
    def test_hand_case(self):
        s = np.array([[0.5, 0.6], [0.4, 0.3]])
        assert abs(tr.ranking_loss(s, 0.2).item() - 0.6) < 1e-12

    def test_satisfied_margins_give_zero(self):
        s = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert tr.ranking_loss(s, 0.2).item() == 0.0

    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_constant_matrix_closed_form(self, b):
        s = np.full((b, b), 0.37)
        want = 2 * 0.2 * (b - 1)
        assert abs(tr.ranking_loss(s, 0.2).item() - want) < 1e-12

    def test_nonnegative_and_transpose_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = rng.standard_normal((4, 4))
            a = tr.ranking_loss(s, 0.2).item()
            b = tr.ranking_loss(s.T, 0.2).item()
            assert a >= 0.0 and abs(a - b) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            tr.ranking_loss(np.zeros((2, 3)), 0.2)
        with pytest.raises(ValueError, match="at least 2"):
            tr.ranking_loss(np.zeros((1, 1)), 0.2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        m = 0.2
        kept = 0
        while kept < 5:
            s = rng.standard_normal((4, 4))
            margins = m + s - np.diag(s)[:, None]
            if np.min(np.abs(margins[~np.eye(4, dtype=bool)])) < 1e-3:
                continue  # too close to a hinge kink for finite differences
            kept += 1
            leaf = ad.Tensor(s.copy(), requires_grad=True)
            tr.ranking_loss(leaf, m).backward()
            numeric = np.zeros_like(s)
            h = 1e-6
            for i in range(4):
                for j in range(4):
                    for sign in (1.0, -1.0):
                        probe = s.copy()
                        probe[i, j] += sign * h
                        numeric[i, j] += sign * tr.ranking_loss(probe, m).item()
            numeric /= 2 * h
            err = np.linalg.norm(leaf.grad - numeric) / np.linalg.norm(numeric)
            assert err < 1e-4


def adam_oracle(x0, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    x, m, v = x0.copy(), np.zeros_like(x0), np.zeros_like(x0)
    for t, g in enumerate(grads, start=1):
        g = g + wd * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return x


def radam_oracle(x0, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    x, m, v = x0.copy(), np.zeros_like(x0), np.zeros_like(x0)
    rho_inf = 2 / (1 - b2) - 1
    for t, g in enumerate(grads, start=1):
        g = g + wd * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        rho = rho_inf - 2 * t * b2 ** t / (1 - b2 ** t)
        if rho > 4:
            r = np.sqrt(((rho - 4) * (rho - 2) * rho_inf)
                        / ((rho_inf - 4) * (rho_inf - 2) * rho))
            x = x - lr * r * mh / (np.sqrt(v / (1 - b2 ** t)) + eps)
        else:
            x = x - lr * mh
    return x


def _drive(opt, leaf, grads):
    for g in grads:
        leaf.grad = g.copy()
        opt.step()


class TestOptimizers:
    def test_adam_matches_oracle(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(6)
        grads = [rng.standard_normal(6) for _ in range(10)]
        leaf = ad.Tensor(x0.copy(), requires_grad=True)
        _drive(optim.Adam({"x": leaf}, lr=0.01, weight_decay=0.001), leaf, grads)
        np.testing.assert_allclose(leaf.data,
                                   adam_oracle(x0, grads, 0.01, wd=0.001),
                                   atol=1e-14)

    def test_radam_matches_oracle_through_both_branches(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(6)
        grads = [rng.standard_normal(6) for _ in range(12)]
        leaf = ad.Tensor(x0.copy(), requires_grad=True)
        _drive(optim.RAdam({"x": leaf}, lr=0.01, weight_decay=0.001), leaf, grads)
        np.testing.assert_allclose(leaf.data,
                                   radam_oracle(x0, grads, 0.01, wd=0.001),
                                   atol=1e-14)

    def test_radam_early_steps_are_momentum_sgd(self):
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(4)
        g = rng.standard_normal(4)
        leaf = ad.Tensor(x0.copy(), requires_grad=True)
        _drive(optim.RAdam({"x": leaf}, lr=0.1), leaf, [g])
        # t=1: the variance estimate is untrusted, so the step is lr * mhat = lr * g
        np.testing.assert_allclose(leaf.data, x0 - 0.1 * g, atol=1e-14)

    def test_lookahead_interpolates_every_k(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(optim.LOOKAHEAD_K)]
        fast = ad.Tensor(x0.copy(), requires_grad=True)
        _drive(optim.RAdam({"x": fast}, lr=0.1), fast, grads)
        inner_after_k = fast.data.copy()
        leaf = ad.Tensor(x0.copy(), requires_grad=True)
        opt = optim.Lookahead(optim.RAdam({"x": leaf}, lr=0.1))
        _drive(opt, leaf, grads)
        np.testing.assert_allclose(
            leaf.data, x0 + optim.LOOKAHEAD_ALPHA * (inner_after_k - x0),
            atol=1e-14)

    def test_lookahead_between_syncs_tracks_inner(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(optim.LOOKAHEAD_K - 1)]
        plain = ad.Tensor(x0.copy(), requires_grad=True)
        _drive(optim.RAdam({"x": plain}, lr=0.1), plain, grads)
        wrapped = ad.Tensor(x0.copy(), requires_grad=True)
        opt = optim.Lookahead(optim.RAdam({"x": wrapped}, lr=0.1))
        _drive(opt, wrapped, grads)
        np.testing.assert_array_equal(wrapped.data, plain.data)

    @pytest.mark.parametrize("kind", ["adam", "radam", "lookahead_radam"])
    def test_quadratic_convergence(self, kind):
        rng = np.random.default_rng(5)
        target = rng.standard_normal(5)
        leaf = ad.Tensor(np.zeros(5), requires_grad=True)
        opt = optim.build_optimizer(kind, {"x": leaf}, lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            diff = ad.sub(leaf, target)
            ad.tsum(ad.square(diff)).backward()
            opt.step()
        assert np.max(np.abs(leaf.data - target)) < 1e-2

    def test_lr_setter_reaches_inner(self):
        leaf = ad.Tensor(np.zeros(2), requires_grad=True)
        opt = optim.build_optimizer("lookahead_radam", {"x": leaf}, lr=0.01)
        opt.lr = 0.005
        assert opt.inner.lr == 0.005

    def test_schedule_is_exact_power(self):
        for k in range(40):
            assert tr.scheduled_lr(0.01, 0.95, k) == 0.01 * 0.95 ** k

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            optim.build_optimizer("sgd", {}, lr=0.1)


def _gradients(rng, shape, layout, steps):
    """Gradients as the tape may hand them over: row-major, a transposed
    view (column-major, like a weight gradient), or missing."""
    grads = []
    for t in range(steps):
        if layout == "none" and t % 3 == 1:
            grads.append(None)
        elif layout == "transposed":
            grads.append(rng.standard_normal(shape[::-1]).transpose())
        else:
            grads.append(rng.standard_normal(shape))
    return grads


def _drive_as_given(opt, leaf, grads):
    for g in grads:
        leaf.grad = g
        opt.step()


# (shape, gradient layout); the first three span several update chunks
_CASES = [((2 * optim.CHUNK + 5,), "row"),
          ((130, 300), "transposed"),
          ((3, optim.CHUNK // 2), "none"),
          ((3, 5, 4), "transposed"),
          ((7,), "row")]


class TestInPlaceUpdate:
    """The chunked in-place updates give exactly the textbook formulas' bits."""

    @pytest.mark.parametrize("shape,layout", _CASES)
    @pytest.mark.parametrize("wd", [0.0, 0.01])
    @pytest.mark.parametrize("kind,oracle,steps", [("adam", adam_oracle, 4),
                                                   ("radam", radam_oracle, 8)])
    def test_bitwise_equal_to_oracle(self, kind, oracle, steps, wd, shape, layout):
        # radam's 8 steps cross from the momentum branch to the rectified one
        rng = np.random.default_rng(len(shape) + steps)
        x0 = rng.standard_normal(shape)
        grads = _gradients(rng, shape, layout, steps)
        kept = [None if g is None else g.copy() for g in grads]
        leaf = ad.Tensor(x0.copy(), requires_grad=True)
        _drive_as_given(optim.build_optimizer(kind, {"x": leaf}, lr=0.01,
                                              weight_decay=wd), leaf, grads)
        dense = [np.zeros(shape) if g is None else g for g in grads]
        np.testing.assert_array_equal(leaf.data, oracle(x0, dense, 0.01, wd=wd))
        for g, copy in zip(grads, kept):
            np.testing.assert_array_equal(g, copy)  # gradients are only read

    @pytest.mark.parametrize("shape,layout", _CASES[:2])
    def test_lookahead_two_syncs_bitwise(self, shape, layout):
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal(shape)
        k = optim.LOOKAHEAD_K
        grads = _gradients(rng, shape, layout, 2 * k)
        leaf = ad.Tensor(x0.copy(), requires_grad=True)
        _drive_as_given(optim.Lookahead(optim.RAdam({"x": leaf}, lr=0.01,
                                                    weight_decay=0.01)),
                        leaf, grads)
        fast = ad.Tensor(x0.copy(), requires_grad=True)
        inner = optim.RAdam({"x": fast}, lr=0.01, weight_decay=0.01)
        slow = x0.copy()
        for t, g in enumerate(grads, start=1):
            fast.grad = g
            inner.step()
            if t % k == 0:
                slow = slow + optim.LOOKAHEAD_ALPHA * (fast.data - slow)
                fast.data[...] = slow
        np.testing.assert_array_equal(leaf.data, fast.data)

    @pytest.mark.parametrize("kind", ["adam", "radam", "lookahead_radam"])
    def test_step_allocates_no_full_size_temporary(self, kind):
        rng = np.random.default_rng(12)
        leaf = ad.Tensor(rng.standard_normal((1024, 1024)), requires_grad=True)
        opt = optim.build_optimizer(kind, {"w": leaf}, lr=0.01,
                                    weight_decay=0.001)
        leaf.grad = rng.standard_normal((1024, 1024))
        tracemalloc.start()
        try:
            # both radam branches and two lookahead syncs
            for _ in range(2 * optim.LOOKAHEAD_K):
                opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < leaf.data.nbytes / 8

    def test_scratch_fits_the_longest_slice_the_model_can_take(self):
        """A model below the fan-out cut-off always steps serially, so its
        scratch is at most CHUNK long; a larger one keeps WIDE_CHUNK for
        its shares."""
        for size, length in ((7, 7), (2 * optim.CHUNK + 5, optim.CHUNK),
                             (blas.POOL_MIN_WEIGHTS, optim.WIDE_CHUNK)):
            leaf = ad.Tensor(np.zeros(size), requires_grad=True)
            for opt in (optim.Adam({"x": leaf}, lr=0.01),
                        optim.Lookahead(optim.Adam({"x": leaf}, lr=0.01))):
                assert {s.shape[1] for s in opt._scratch} == {length}

    def test_rejects_non_contiguous_parameter(self):
        leaf = ad.Tensor(np.zeros((3, 4)).T, requires_grad=True)
        with pytest.raises(ValueError, match="C-contiguous"):
            optim.Adam({"w": leaf}, lr=0.01)


# (shape, gradient layout) of a model whose update is shared out: the
# 600 x 300 weight's transposed gradient straddles the two shares' cut, and
# the 3 x 5 x 4 one, in the first share, is copied in the same step
_FAN_OUT_MODEL = [((7,), "row"), ((3, 5, 4), "transposed"),
                  ((600, 300), "transposed"), ((3, optim.CHUNK // 2), "none"),
                  ((2 * optim.CHUNK + 5,), "row")]


def _fan_out_run(kind, wd, steps, cutoff, monkeypatch, only=None):
    """The optimizer after `steps` steps with the fan-out cut-off at
    `cutoff`, over _FAN_OUT_MODEL's parameters or only parameter `only`,
    and the widths blas.run_pinned was called with."""
    monkeypatch.undo()  # an earlier run's spy and cut-off
    monkeypatch.setattr(blas, "POOL_MIN_WEIGHTS", cutoff)
    widths, run_pinned = [], blas.run_pinned
    monkeypatch.setattr(blas, "run_pinned", lambda tasks, width: widths.append(
        width) or run_pinned(tasks, width))
    rng = np.random.default_rng(17)
    leaves = {f"p{i}": ad.Tensor(rng.standard_normal(shape), requires_grad=True)
              for i, (shape, _) in enumerate(_FAN_OUT_MODEL)}
    opt = optim.build_optimizer(
        kind, leaves if only is None else {only: leaves[only]}, lr=0.01,
        weight_decay=wd)
    for _ in range(steps):
        for leaf, (shape, layout) in zip(leaves.values(), _FAN_OUT_MODEL):
            leaf.grad = (None if layout == "none" else
                         rng.standard_normal(shape[::-1]).T
                         if layout == "transposed" else
                         rng.standard_normal(shape))
        opt.step()
    return opt, widths


def _state(opt, name) -> list[bytes]:
    """A parameter's value, moments and slow weights, as bytes."""
    inner = getattr(opt, "inner", opt)
    return [opt.params[name].data.tobytes(), inner.m[name].tobytes(),
            inner.v[name].tobytes()] + (
        [opt.slow[name].tobytes()] if hasattr(opt, "slow") else [])


@needs_openblas
class TestFanOutUpdate:
    """A step shared out over two BLAS threads gives each parameter the
    bits of a serial step, of the whole model or of that parameter alone."""

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    @pytest.mark.parametrize("kind,steps", [("adam", 4), ("radam", 8),
                                            ("lookahead_radam", 9)])
    def test_shares_match_the_serial_step_bytewise(self, kind, steps, wd,
                                                   two_threads, monkeypatch):
        # radam's 8 steps cross into its rectified branch; lookahead syncs
        # at step 5 and steps on from the synced weights
        serial, narrow = _fan_out_run(kind, wd, steps, 1 << 62, monkeypatch)
        shared, wide = _fan_out_run(kind, wd, steps, 0, monkeypatch)
        assert narrow == [] and set(wide) == {2}
        for name in serial.params:
            alone, _ = _fan_out_run(kind, wd, steps, 1 << 62, monkeypatch, name)
            assert _state(shared, name) == _state(serial, name)
            assert _state(shared, name) == _state(alone, name)

    def test_shares_cover_every_slice_once_in_order(self):
        sizes = [7, 60, 180000, 3 * optim.CHUNK // 2, 2 * optim.WIDE_CHUNK + 5]
        for width in (1, 2, 3, 8):
            length = optim.CHUNK if width == 1 else optim.WIDE_CHUNK
            slices = [(k, start, min(start + length, size))
                      for k, size in enumerate(sizes)
                      for start in range(0, size, length)]
            shares = optim._shares(sizes, width)
            assert len(shares) == width
            assert [run for share in shares for run in share] == slices
            for share in shares:
                count = sum(end - start for _, start, end in share)
                assert abs(count - sum(sizes) / width) <= length

    def test_synthetic_training_starts_no_thread_and_never_parks(
            self, two_threads, thread_starts, monkeypatch):
        parks = []
        monkeypatch.setattr(blas, "park", lambda: parks.append(1))
        bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=8)
        tr.train(tiny_model("moee", bench), bench.corpus, bench.store,
                 bench.text_source,
                 _train_cfg(epochs=None, steps=optim.LOOKAHEAD_K,
                            val_every_steps=2, optimizer="lookahead_radam"),
                 tr.LossConfig(batch_size=4))
        assert thread_starts == [] and parks == []

    def test_large_model_update_and_validation_start_one_thread(
            self, two_threads, thread_starts, monkeypatch):
        """A 512 x 512 weight (2^18 entries) fans the updates and the
        validations out on the one pool worker."""
        park, parked = blas.park, []
        monkeypatch.setattr(blas, "park", lambda: parked.append(
            blas.describe()["threads"]) or park())
        validate, validated = tr._validate, []
        monkeypatch.setattr(tr, "_validate", lambda *a: validated.append(
            blas.describe()["threads"]) or validate(*a))
        bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=8)
        k = optim.LOOKAHEAD_K
        ckpt = tr.train(tiny_model("moee", bench, joint_dim=512), bench.corpus,
                        bench.store, bench.text_source,
                        _train_cfg(epochs=None, steps=k, val_every_steps=k - 1,
                                   optimizer="lookahead_radam"),
                        tr.LossConfig(batch_size=4))
        assert [entry[0] for entry in ckpt.history] == [k - 1, k]
        # k updates and one lookahead sync park, and both validations run,
        # under the pin train holds from each backward's end
        assert parked == [1] * (k + 1) and validated == [1, 1]
        assert len(thread_starts) == 1
        assert thread_starts[0].name.startswith("audioret-pinned")
        assert blas.describe()["threads"] == 2


@pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
def test_optimizer_sees_row_major_gradients(arch, monkeypatch):
    """After a training step every parameter gradient reaches the optimizer
    C-contiguous, so no step copies one to row-major."""
    bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=8)
    seen = {}
    flat_grad = optim.Adam._flat_grad

    def spy(self, p):
        seen[id(p)] = p.grad is not None and p.grad.flags.c_contiguous
        return flat_grad(self, p)

    monkeypatch.setattr(optim.Adam, "_flat_grad", spy)
    model = tiny_model(arch, bench)
    tr.train(model, bench.corpus, bench.store, bench.text_source,
             _train_cfg(architecture=arch, epochs=None, steps=1,
                        optimizer="lookahead_radam"),
             tr.LossConfig(batch_size=4))
    params = model.named_parameters()
    assert len(seen) == len(params)
    assert [n for n, p in params.items() if not seen[id(p)]] == []


class TestBatchAssembly:
    def _pairs(self, n_audio, caps_per):
        return [(f"c{i}-{j}", f"a{i}") for i in range(n_audio)
                for j in range(caps_per)]

    def test_no_duplicate_clip_within_batch(self):
        rng = np.random.default_rng(0)
        batches = tr.assemble_batches(self._pairs(10, 5), 8, rng)
        assert batches
        for batch in batches:
            clips = [sid for _, sid in batch]
            assert len(set(clips)) == len(clips) == 8

    def test_short_remainder_dropped(self):
        rng = np.random.default_rng(1)
        batches = tr.assemble_batches(self._pairs(10, 1), 4, rng)
        assert len(batches) == 2
        assert all(len(b) == 4 for b in batches)

    def test_carryover_eventually_schedules_duplicates(self):
        rng = np.random.default_rng(2)
        pairs = self._pairs(4, 4)  # 16 pairs, only 4 distinct clips
        batches = tr.assemble_batches(pairs, 4, rng)
        assert len(batches) == 4
        scheduled = sorted(cid for batch in batches for cid, _ in batch)
        assert scheduled == sorted(cid for cid, _ in pairs)

    def test_deterministic_given_seed(self):
        pairs = self._pairs(12, 2)
        a = tr.assemble_batches(pairs, 6, np.random.default_rng(7))
        b = tr.assemble_batches(pairs, 6, np.random.default_rng(7))
        assert a == b

    def test_impossible_full_batch_yields_nothing(self):
        rng = np.random.default_rng(3)
        assert tr.assemble_batches(self._pairs(3, 2), 4, rng) == []


def _report(r1, r5, r10):
    return MetricsReport(r1, r5, r10, max(r10, 50.0), 3.0, 5.0,
                         pool_size=100, query_count=10)


class TestSelection:
    def test_single_entry(self):
        assert tr.select_best([(0, _report(10, 20, 30))]) == 0

    def test_exact_geometric_mean(self):
        first = _report(8.0, 27.0, 64.0)     # gm exactly 24
        second = _report(10.0, 20.0, 50.0)   # gm ~ 21.5
        assert tr.selection_score(first) == 24.0
        assert tr.select_best([(1, first), (2, second)]) == 0
        assert tr.select_best([(1, second), (2, first)]) == 1

    def test_ties_resolve_to_earliest(self):
        rep = _report(10, 20, 30)
        assert tr.select_best([(3, rep), (7, rep)]) == 0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty history"):
            tr.select_best([])


class TestConfigs:
    def test_loss_config_validation(self):
        with pytest.raises(ValueError, match="margin"):
            tr.LossConfig(margin=0.0)
        with pytest.raises(ValueError, match="batch size"):
            tr.LossConfig(batch_size=1)

    def test_exactly_one_budget(self):
        with pytest.raises(ValueError, match="exactly one"):
            tr.TrainConfig("moee")
        with pytest.raises(ValueError, match="exactly one"):
            tr.TrainConfig("moee", epochs=2, steps=100)

    @pytest.mark.parametrize("caps, match", [
        (dict(word_cap=-1), "word cap must be >= 1, got -1"),
        (dict(word_cap=0), "word cap must be >= 1, got 0"),
        (dict(frame_caps={"VGGish": -2}), "frame cap for 'VGGish'"),
        (dict(frame_caps={"VGGish": 31, "VGGSound": 0}),
         "frame cap for 'VGGSound' must be >= 1, got 0")])
    def test_caps_below_one_rejected(self, caps, match):
        """A cap below 1 would silently drop a stream's last entries (a
        negative slice end) or empty it."""
        with pytest.raises(ValueError, match=match):
            tr.TrainConfig("moee", epochs=1, **caps)
        tr.TrainConfig("moee", epochs=1, word_cap=1, frame_caps={"VGGish": 1})

    def test_default_caps_table(self):
        words, frames = tr.default_caps("audiocaps", "ce")
        assert words == 52 and frames == {"VGGish": 10, "VGGSound": 32}
        words, frames = tr.default_caps("clotho", "ce")
        assert words == 21 and frames == {"VGGish": 31, "VGGSound": 95}
        _, frames = tr.default_caps("clotho", "mmt")
        assert frames == {"VGGish": 95, "VGGSound": 95}
        words, frames = tr.default_caps("sounddescs", "moee")
        assert words == 46 and frames == {"VGGish": 400, "VGGSound": 400}

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="no default caps"):
            tr.default_caps("mystery", "ce")


def _train_cfg(**kw):
    defaults = dict(architecture="moee", epochs=2, lr=0.01, seed=0)
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


class TestTrainLoop:
    def _bench(self, n=12, seed=0):
        return make_synthetic_benchmark(np.random.default_rng(seed), n_pairs=n)

    def test_runs_and_validates_each_epoch(self):
        bench = self._bench()
        model = tiny_model("moee", bench)
        ckpt = tr.train(model, bench.corpus, bench.store, bench.text_source,
                        _train_cfg(epochs=2), tr.LossConfig(batch_size=4))
        assert [step for step, _ in ckpt.history] == [3, 6]
        assert ckpt.selection_score == max(
            tr.selection_score(r) for _, r in ckpt.history)
        assert len(ckpt.log_lines) == 2
        assert ckpt.log_lines[0].split(",")[1] == "val"

    def test_best_params_copied_not_aliased(self):
        bench = self._bench()
        model = tiny_model("moee", bench)
        ckpt = tr.train(model, bench.corpus, bench.store, bench.text_source,
                        _train_cfg(epochs=1), tr.LossConfig(batch_size=4))
        live = model.named_parameters()
        for name, arr in ckpt.params.items():
            assert arr is not live[name].data

    def test_deterministic_across_runs(self):
        bench = self._bench()
        outs = []
        for _ in range(2):
            model = tiny_model("ce", bench, seed=3)
            outs.append(tr.train(model, bench.corpus, bench.store,
                                 bench.text_source, _train_cfg(
                                     architecture="ce", epochs=2, seed=11),
                                 tr.LossConfig(batch_size=4)))
        assert outs[0].selection_score == outs[1].selection_score
        for name in outs[0].params:
            np.testing.assert_array_equal(outs[0].params[name],
                                          outs[1].params[name])

    def test_step_mode_validates_on_cadence(self):
        bench = self._bench(n=8)
        model = tiny_model("mmt", bench)
        cfg = _train_cfg(architecture="mmt", epochs=None, steps=5,
                         optimizer="adam", lr=5e-5, val_every_steps=2,
                         decay_every_steps=2)
        ckpt = tr.train(model, bench.corpus, bench.store, bench.text_source,
                        cfg, tr.LossConfig(margin=0.05, batch_size=4))
        assert [step for step, _ in ckpt.history] == [2, 4, 5]

    def test_zero_epochs_validates_once(self):
        bench = self._bench(n=4)
        model = tiny_model("moee", bench)
        ckpt = tr.train(model, bench.corpus, bench.store, bench.text_source,
                        _train_cfg(epochs=0), tr.LossConfig(batch_size=2))
        assert len(ckpt.history) == 1 and ckpt.history[0][0] == 0

    @pytest.mark.parametrize("budget", [dict(epochs=3),
                                        dict(epochs=None, steps=3)])
    def test_split_below_one_batch_is_refused(self, budget):
        """Either budget type refuses a train split with fewer distinct
        clips than one batch instead of returning the initial weights."""
        bench = self._bench(n=4)
        model = tiny_model("moee", bench)
        with pytest.raises(ValueError, match="too small for one full batch"):
            tr.train(model, bench.corpus, bench.store, bench.text_source,
                     _train_cfg(**budget), tr.LossConfig(batch_size=8))

    def test_divergence_aborts_with_step(self):
        bench = self._bench(n=4)
        model = tiny_model("moee", bench)
        model.weight_head.w.data[0, 0] = np.nan
        with pytest.raises(RuntimeError, match="diverged.*step 0"):
            tr.train(model, bench.corpus, bench.store, bench.text_source,
                     _train_cfg(epochs=1), tr.LossConfig(batch_size=2))

    def test_missing_feature_names_sample(self):
        bench = self._bench(n=4)
        del bench.store._data[("t0002", "eb")]
        model = tiny_model("moee", bench)
        with pytest.raises(FileNotFoundError, match="t0002"):
            tr.train(model, bench.corpus, bench.store, bench.text_source,
                     _train_cfg(epochs=1), tr.LossConfig(batch_size=2))

    def test_learning_moves_metrics_up(self):
        bench = self._bench(n=16, seed=1)
        model = tiny_model("ce", bench, seed=2)
        start = tr.train(tiny_model("ce", bench, seed=2), bench.corpus,
                         bench.store, bench.text_source,
                         _train_cfg(architecture="ce", epochs=0),
                         tr.LossConfig(batch_size=8))
        ckpt = tr.train(model, bench.corpus, bench.store, bench.text_source,
                        _train_cfg(architecture="ce", epochs=15),
                        tr.LossConfig(batch_size=8))
        assert ckpt.selection_score > start.selection_score


def _paper_cfgs(arch, **kw):
    """A short step schedule under the architecture's own optimizer, lr,
    weight decay and margin (bench.ARCH_DEFAULTS), validating every 2
    steps, at batch 4."""
    defaults = bn.ARCH_DEFAULTS[arch]
    return (tr.TrainConfig(architecture=arch, steps=4, val_every_steps=2,
                           lr=defaults["lr"], optimizer=defaults["optimizer"],
                           weight_decay=defaults["weight_decay"], **kw),
            tr.LossConfig(margin=defaults["margin"], batch_size=4))


ARCHS = ("moee", "ce", "mmt")


class TestGradientLifetime:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_no_gradient_during_validation_or_after_train(self, arch,
                                                          monkeypatch):
        """Every validation, mid-run and last, starts with every gradient
        released, and train() returns a model that holds none."""
        bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=8)
        model = tiny_model(arch, bench)
        params = model.named_parameters()
        held, validate = [], tr._validate

        def spy(*args):
            held.append(sorted(k for k, p in params.items()
                               if p.grad is not None))
            return validate(*args)

        monkeypatch.setattr(tr, "_validate", spy)
        ckpt = tr.train(model, bench.corpus, bench.store, bench.text_source,
                        *_paper_cfgs(arch))
        assert [step for step, _ in ckpt.history] == [2, 4]
        assert held == [[], []]
        assert [k for k, p in params.items() if p.grad is not None] == []

    def test_finetune_leaves_no_gradient(self, monkeypatch):
        bench = make_synthetic_benchmark(np.random.default_rng(1), n_pairs=8)
        ckpt = tr.train(tiny_model("moee", bench), bench.corpus, bench.store,
                        bench.text_source, _train_cfg(epochs=1),
                        tr.LossConfig(batch_size=4))
        built, build = [], md.model_from_config
        monkeypatch.setattr(md, "model_from_config",
                            lambda *a: built.append(build(*a)) or built[-1])
        tr.finetune(ckpt, bench.corpus, bench.store, bench.text_source,
                    _train_cfg(epochs=2), tr.LossConfig(batch_size=4))
        assert all(p.grad is None for p in built[0].named_parameters().values())


class TestCaptionsWithoutKnownWords:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_train_caption_dropped_with_one_warning(self, arch, recwarn):
        """A train caption whose tokens are all out of vocabulary is dropped
        before batching: one warning, and parameters, history and log
        bitwise those of a run on the corpus without it. A val caption like
        it stays a query in both runs."""
        bench = make_synthetic_benchmark(np.random.default_rng(2), n_pairs=8)
        val_oov = CaptionRecord("c-v0003-oov", "v0003", "qqq zzz")
        runs = {}
        for name, extra in (("clean", ()), ("oov", (CaptionRecord(
                "c-t0001-oov", "t0001", "xyzzy plugh"),))):
            corpus = Corpus(bench.corpus.name, bench.corpus.samples,
                            bench.corpus.captions + [val_oov, *extra])
            runs[name] = tr.train(tiny_model(arch, bench, seed=5), corpus,
                                  bench.store, bench.text_source,
                                  *_paper_cfgs(arch, seed=3))
        messages = [str(w.message) for w in recwarn]
        assert messages == ["dropping 1 train captions with no in-vocabulary "
                            "token (e.g. c-t0001-oov)"]
        clean, oov = runs["clean"], runs["oov"]
        assert oov.log_lines == clean.log_lines
        assert [rep.query_count for _, rep in oov.history] == [9, 9]
        for name, arr in clean.params.items():
            assert arr.tobytes() == oov.params[name].tobytes(), name


class TestCheckpointRebuild:
    def test_roundtrip_parameters(self):
        bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=4)
        model = tiny_model("moee", bench)
        ckpt = tr.train(model, bench.corpus, bench.store, bench.text_source,
                        _train_cfg(epochs=0), tr.LossConfig(batch_size=2))
        clone = ckpt.rebuild()
        for name, p in clone.named_parameters().items():
            np.testing.assert_array_equal(p.data, ckpt.params[name])

    def test_shape_mismatch_rejected(self):
        bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=4)
        model = tiny_model("moee", bench)
        ckpt = tr.train(model, bench.corpus, bench.store, bench.text_source,
                        _train_cfg(epochs=0), tr.LossConfig(batch_size=2))
        ckpt.params["weight_head.w"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="wrong shape"):
            ckpt.rebuild()

    @pytest.mark.parametrize("arch", ["moee", "ce", "mmt"])
    def test_rebuild_draws_nothing(self, arch, tmp_path, monkeypatch):
        """Rebuilding a saved checkpoint draws no random numbers, and every
        tensor is bitwise the archive's array as float64."""
        bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=4)
        ckpt = tr.train(tiny_model(arch, bench), bench.corpus, bench.store,
                        bench.text_source, _train_cfg(architecture=arch, epochs=0),
                        tr.LossConfig(batch_size=2))
        back = load_checkpoint(save_checkpoint(ckpt, tmp_path / "m.ckpt"))
        draws = []
        uniform_init = blocks.uniform_init

        def spy(rng, shape, fan_in):
            if isinstance(rng, np.random.Generator):
                draws.append(shape)
            return uniform_init(rng, shape, fan_in)

        monkeypatch.setattr(blocks, "uniform_init", spy)
        monkeypatch.setattr(mmt, "uniform_init", spy)
        clone = back.rebuild()
        assert draws == []
        params = clone.named_parameters()
        assert set(params) == set(back.params)
        for name, arr in back.params.items():
            assert params[name].data.dtype == np.float64
            np.testing.assert_array_equal(params[name].data,
                                          arr.astype(np.float64))

    def test_rebuild_adopts_read_only_views(self):
        """Rebuilt parameters share the checkpoint's memory, are read-only,
        and an optimizer step on them raises without editing it."""
        bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=4)
        ckpt = tr.train(tiny_model("ce", bench), bench.corpus, bench.store,
                        bench.text_source, _train_cfg(architecture="ce", epochs=0),
                        tr.LossConfig(batch_size=2))
        before = {k: v.copy() for k, v in ckpt.params.items()}
        params = ckpt.rebuild().named_parameters()
        for name, p in params.items():
            assert np.shares_memory(p.data, ckpt.params[name])
            assert not p.data.flags.writeable
        opt = optim.Adam(params, lr=0.01)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        with pytest.raises(ValueError, match="read-only"):
            opt.step()
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(arr, before[name])


class TestFinetune:
    def _pretrained(self, bench, arch="moee", epochs=1):
        model = tiny_model(arch, bench)
        return tr.train(model, bench.corpus, bench.store, bench.text_source,
                        _train_cfg(architecture=arch, epochs=epochs),
                        tr.LossConfig(batch_size=4))

    def test_zero_schedule_is_identity(self):
        bench = make_synthetic_benchmark(np.random.default_rng(0), n_pairs=8)
        ckpt = self._pretrained(bench)
        out = tr.finetune(ckpt, bench.corpus, bench.store, bench.text_source,
                          _train_cfg(epochs=0), tr.LossConfig(batch_size=4))
        assert sorted(out.params) == sorted(ckpt.params)
        for name in ckpt.params:
            np.testing.assert_array_equal(out.params[name], ckpt.params[name])

    def test_architecture_mismatch_rejected(self):
        bench = make_synthetic_benchmark(np.random.default_rng(2), n_pairs=8)
        ckpt = self._pretrained(bench)
        with pytest.raises(ValueError, match="architecture mismatch"):
            tr.finetune(ckpt, bench.corpus, bench.store, bench.text_source,
                        _train_cfg(architecture="ce", epochs=0),
                        tr.LossConfig(batch_size=4))

    def test_transfer_continues_training(self):
        rng = np.random.default_rng(4)
        source = make_synthetic_benchmark(rng, n_pairs=8)
        target = make_synthetic_benchmark(rng, n_pairs=8,
                                          word_table=source.word_table,
                                          maps=source.maps)
        ckpt = self._pretrained(source, epochs=2)
        out = tr.finetune(ckpt, target.corpus, target.store,
                          target.text_source, _train_cfg(epochs=1, seed=5),
                          tr.LossConfig(batch_size=4))
        assert sorted(out.params) == sorted(ckpt.params)
        assert len(out.history) == 1

    def test_loaded_checkpoint_trains_and_keeps_its_arrays(self, tmp_path):
        """A loaded checkpoint's tensors are read-only views of its mapped
        file: finetune trains copies of them, so the run's parameters move
        and the checkpoint's arrays keep their bytes."""
        bench = make_synthetic_benchmark(np.random.default_rng(5), n_pairs=8)
        back = load_checkpoint(save_checkpoint(self._pretrained(bench),
                                               tmp_path / "m.ckpt"))
        assert not any(arr.flags.writeable for arr in back.params.values())
        before = {name: arr.tobytes() for name, arr in back.params.items()}
        out = tr.finetune(back, bench.corpus, bench.store, bench.text_source,
                          _train_cfg(epochs=1, seed=6),
                          tr.LossConfig(batch_size=4))
        assert len(out.history) == 1
        assert any(out.params[name].tobytes() != before[name]
                   for name in before)
        assert {name: arr.tobytes()
                for name, arr in back.params.items()} == before
