"""Gradient checks for the reverse-mode tape against finite differences."""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from audioret import autodiff as ad
from audioret import blas
from helpers import (check_gradients, finite_difference, needs_openblas,
                     relative_grad_error)


def _leaf(rng, *shape):
    return ad.parameter(rng.standard_normal(shape))


class TestPrimitives:
    @pytest.mark.parametrize("seed", range(5))
    def test_arithmetic_chain(self, seed):
        rng = np.random.default_rng(seed)
        a = _leaf(rng, 4, 3)
        b = _leaf(rng, 4, 3)
        c = _leaf(rng, 3)

        def build():
            out = (a * b + c) / (ad.square(b) + 2.0) - a
            return ad.tsum(ad.sigmoid(out))

        check_gradients(build, {"a": a, "b": b, "c": c})

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_variants(self, seed):
        rng = np.random.default_rng(seed)
        w = _leaf(rng, 4, 6)
        m = _leaf(rng, 6, 3)
        v = _leaf(rng, 6, 1)

        def build():
            mat = ad.stacked_matmul(w, m)          # (4, 3)
            col = ad.stacked_matmul(w, v)          # (4, 1)
            row = ad.stacked_matmul(ad.transpose(v), ad.transpose(w))  # (1, 4)
            return ad.tsum(ad.sigmoid(mat)) + ad.dot(col, ad.transpose(row))

        check_gradients(build, {"w": w, "m": m, "v": v})

    @pytest.mark.parametrize("seed", range(5))
    def test_reductions_and_reshape(self, seed):
        rng = np.random.default_rng(seed)
        x = _leaf(rng, 3, 4)

        def build():
            s = ad.tsum(x, axis=0)
            m = ad.tsum(x, axis=1, keepdims=True) * 0.25
            flat = ad.reshape(x - m, (12,))
            return ad.tsum(ad.square(s)) + ad.tsum(ad.sigmoid(flat * 0.1))

        check_gradients(build, {"x": x})

    @pytest.mark.parametrize("seed", range(5))
    def test_gather_concat_stack(self, seed):
        rng = np.random.default_rng(seed)
        x = _leaf(rng, 5, 3)
        y = _leaf(rng, 2, 3)
        rows = np.array([0, 2, 2, 4])

        def build():
            g = ad.take_rows(x, rows)
            cat = ad.concat([g, y], axis=0)
            stacked = ad.stack([cat[i] for i in range(6)])
            return ad.tsum(ad.relu(stacked))

        check_gradients(build, {"x": x, "y": y})

    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_masked(self, seed):
        """Positions masked by a large negative logit offset get weight
        exactly 0 and pass no gradient; the rest stay a distribution."""
        rng = np.random.default_rng(seed)
        x = _leaf(rng, 4, 6)
        mask = rng.random((4, 6)) > 0.3
        mask[:, 0] = True  # keep every row alive
        offset = np.where(mask, 0.0, -1e9)
        probs = ad.softmax(x + offset, axis=1).data
        assert (probs[~mask] == 0.0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)

        def build():
            probs = ad.softmax(x + offset, axis=1)
            return ad.tsum(ad.square(probs - 0.1))

        check_gradients(build, {"x": x})

    @pytest.mark.parametrize("seed", range(5))
    def test_normalize_and_cosine(self, seed):
        rng = np.random.default_rng(seed)
        u = _leaf(rng, 7)
        v = _leaf(rng, 7)
        m = _leaf(rng, 3, 5)

        def build():
            cosine = ad.dot(ad.row_normalize(u), ad.row_normalize(v))
            return cosine + ad.tsum(ad.row_normalize(m)) \
                + ad.tsum(ad.row_normalize(u + v))

        check_gradients(build, {"u": u, "v": v, "m": m})

    def test_zero_row_normalizes_with_a_finite_gradient(self):
        """A zero row comes out as a / eps, and its gradient is g / eps, with
        no invalid-value warning on the way."""
        rng = np.random.default_rng(0)
        a = ad.parameter(np.zeros((2, 5)))
        a.data[1] = rng.standard_normal(5)
        g = rng.standard_normal((2, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.row_normalize(a)
            ad.tsum(ad.mul(out, g)).backward()
        _assert_bits_equal(out.data[0], np.zeros(5))
        _assert_bits_equal(a.grad[0], g[0] / ad.EPS)

    @pytest.mark.parametrize("seed", range(3))
    def test_place_rows(self, seed):
        rng = np.random.default_rng(seed)
        present = rng.random((5, 3)) < 0.5
        present[:, 0] = True
        rows = _leaf(rng, int(present.sum()), 4)
        w = rng.standard_normal(present.shape + (4,))

        def build():
            out = ad.place_rows(rows, np.nonzero(present), present.shape + (4,))
            return ad.tsum(ad.sigmoid(ad.mul(out, w)))

        check_gradients(build, {"rows": rows})

    @pytest.mark.parametrize("seed", range(5))
    def test_pairwise_inner(self, seed):
        rng = np.random.default_rng(seed)
        a = _leaf(rng, 4, 2, 6)
        b = _leaf(rng, 5, 2, 6)

        def build():
            s = ad.pairwise_inner(a, b)
            return ad.tsum(ad.sigmoid(s))

        check_gradients(build, {"a": a, "b": b})

    def test_pairwise_inner_matches_matmul(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 2, 9))
        b = rng.standard_normal((7, 2, 9))
        got = ad.pairwise_inner(ad.Tensor(a), ad.Tensor(b)).data
        for e in range(2):
            np.testing.assert_allclose(got[:, :, e], a[:, e] @ b[:, e].T,
                                       rtol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_clip_min_gradient(self, seed):
        rng = np.random.default_rng(seed)
        x = ad.parameter(rng.standard_normal(20) * 2.0)

        def build():
            return ad.tsum(ad.square(ad.clip_min(x, 0.5)))

        # keep probes away from the kink
        x.data[np.abs(x.data - 0.5) < 1e-3] += 0.01
        check_gradients(build, {"x": x})


class TestBatchOps:
    """The stacked and segment ops the batched encoders are built from."""

    @pytest.mark.parametrize("seed", range(5))
    def test_stacked_matmul(self, seed):
        rng = np.random.default_rng(seed)
        x = _leaf(rng, 2, 3, 4)
        v = _leaf(rng, 4)
        w = _leaf(rng, 4, 5)

        def build():
            rows = ad.stacked_matmul(x, w)                 # (2, 3, 5)
            vec = ad.stacked_matmul(v, w)                  # (5,)
            return ad.tsum(ad.sigmoid(rows)) + ad.tsum(ad.sigmoid(vec))

        check_gradients(build, {"x": x, "v": v, "w": w})

    def test_stacked_matmul_rows_ignore_batchmates(self):
        """A row's result is bitwise the same in any batch, at any place."""
        rng = np.random.default_rng(0)
        for k, n in ((300, 21), (128, 16), (512, 512), (7, 3)):
            w = np.ascontiguousarray(rng.standard_normal((n, k))).T
            x = rng.standard_normal((5, k))
            base = ad.stacked_matmul(x, w).data
            for count in (1, 2, 9, ad.ROW_BLOCK + 3):
                others = rng.standard_normal((count, k))
                mixed = np.vstack([others, x[::-1]])
                got = ad.stacked_matmul(mixed, w).data[count:][::-1]
                np.testing.assert_array_equal(got, base)
            np.testing.assert_allclose(base, x @ w, rtol=1e-12)

    def test_stacked_matmul_segments_match_alone(self):
        """With offsets, a segment's rows are bitwise the segment
        multiplied alone, for a row-major weight and a transposed view."""
        rng = np.random.default_rng(2)
        lengths = [1, 2, 3, 33, 70]
        offsets = np.cumsum([0] + lengths)
        for k, n in ((300, 512), (512, 2048), (7, 3)):
            x = rng.standard_normal((offsets[-1], k))
            row_major = rng.standard_normal((k, n))
            view = np.ascontiguousarray(rng.standard_normal((n, k))).T
            for w in (row_major, view):
                out = ad.stacked_matmul(x, w, offsets).data
                for lo, hi in zip(offsets[:-1], offsets[1:]):
                    np.testing.assert_array_equal(out[lo:hi], x[lo:hi] @ w)

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_matmul_segments_gradient(self, seed):
        """Gradients with offsets and a transposed-view weight match finite
        differences, and the weight's gradient is row-major like it."""
        rng = np.random.default_rng(seed)
        x = _leaf(rng, 6, 4)
        w = _leaf(rng, 5, 4)
        offsets = [0, 1, 1, 4, 6]  # one empty segment

        def build():
            out = ad.stacked_matmul(x, ad.transpose(w), offsets)
            return ad.tsum(ad.sigmoid(out))

        check_gradients(build, {"x": x, "w": w})
        build().backward()
        assert w.grad.flags.c_contiguous

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_matmul_rowwise(self, seed):
        rng = np.random.default_rng(seed)
        x = _leaf(rng, 2, 3, 4)
        w = _leaf(rng, 4, 5)

        def build():
            with ad.rowwise():
                return ad.tsum(ad.sigmoid(ad.stacked_matmul(x, w)))

        check_gradients(build, {"x": x, "w": w})

    def test_rowwise_rows_ignore_batchmates_and_match_blocks(self):
        """Row by row, a row's result is bitwise the same in any batch and
        agrees with the block GEMM to rounding."""
        rng = np.random.default_rng(1)
        for k, n in ((300, 21), (512, 512), (7, 3)):
            w = np.ascontiguousarray(rng.standard_normal((n, k))).T
            x = rng.standard_normal((3, k))
            with ad.rowwise():
                base = ad.stacked_matmul(x, w).data
                for count in (1, 4):
                    mixed = np.vstack([rng.standard_normal((count, k)), x[::-1]])
                    got = ad.stacked_matmul(mixed, w).data[count:][::-1]
                    np.testing.assert_array_equal(got, base)
            with ad.rowwise(False):
                blocks = ad.stacked_matmul(x, w).data
            np.testing.assert_allclose(base, blocks, rtol=1e-12, atol=1e-12)

    def test_tape_flags_belong_to_the_thread_that_sets_them(self,
                                                           monkeypatch):
        """While thread A holds no_grad() and rowwise() open, this thread
        builds a graph whose parameters get gradients, and its
        stacked_matmul runs one ROW_BLOCK-row GEMM, not a GEMV per row;
        A still sees both of its flags afterwards."""
        rng = np.random.default_rng(2)
        x = _leaf(rng, ad.ROW_BLOCK, 6)
        w = _leaf(rng, 6, 4)
        held, release, calls, seen = (threading.Event(), threading.Event(),
                                      [], {})
        matmul = np.matmul

        def spy(a, b, **kwargs):
            calls.append((threading.get_ident(), np.ndim(a)))
            return matmul(a, b, **kwargs)

        def hold():
            with ad.no_grad(), ad.rowwise():
                held.set()
                assert release.wait(5)
                out = ad.stacked_matmul(x[:2], w)
                seen["a"] = (threading.get_ident(), out.requires_grad)

        monkeypatch.setattr(np, "matmul", spy)
        other = threading.Thread(target=hold)
        other.start()
        try:
            assert held.wait(5)
            ad.tsum(ad.stacked_matmul(x, w)).backward()
        finally:
            release.set()
            other.join(5)
        here = threading.get_ident()
        assert [ndim for ident, ndim in calls if ident == here] == [2]
        np.testing.assert_allclose(w.grad, x.data.T @ np.ones((ad.ROW_BLOCK, 4)))
        assert x.grad is not None
        assert seen == {"a": (other.ident, False)}
        assert [ndim for ident, ndim in calls if ident == other.ident] == [1, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_segment_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a = _leaf(rng, 7, 3)
        x = _leaf(rng, 7, 4)
        offsets = [0, 3, 3, 7]  # the middle segment is empty

        def build():
            out = ad.segment_matmul(a, x, offsets)       # (3, 3, 4)
            return ad.tsum(ad.square(ad.sigmoid(out)))

        check_gradients(build, {"a": a, "x": x})
        out = ad.segment_matmul(a, x, offsets).data
        np.testing.assert_allclose(out[0], a.data[:3].T @ x.data[:3], rtol=1e-12)
        np.testing.assert_array_equal(out[1], np.zeros((3, 4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_segment_sum(self, seed):
        rng = np.random.default_rng(seed)
        a = _leaf(rng, 6, 3)
        offsets = [0, 2, 2, 6]

        def build():
            return ad.tsum(ad.sigmoid(ad.segment_sum(a, offsets)))

        check_gradients(build, {"a": a})
        out = ad.segment_sum(a, offsets).data
        rows = a.data
        np.testing.assert_array_equal(out[2], rows[2] + rows[3] + rows[4] + rows[5])
        np.testing.assert_array_equal(out[1], np.zeros(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_segment_attention(self, seed):
        rng = np.random.default_rng(seed)
        q, k, v = (_leaf(rng, 7, 4) for _ in range(3))
        offsets = [0, 3, 7]
        probe = rng.standard_normal((7, 4))

        def build():
            out = ad.segment_attention(q, k, v, offsets, heads=2)
            return ad.tsum(ad.mul(out, probe))

        check_gradients(build, {"q": q, "k": k, "v": v})

    def test_segment_attention_stays_inside_segments(self):
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((5, 4)) for _ in range(3))
        both = ad.segment_attention(q, k, v, [0, 2, 5], heads=2).data
        alone = ad.segment_attention(q[2:], k[2:], v[2:], [0, 3], heads=2).data
        np.testing.assert_array_equal(both[2:], alone)

    @pytest.mark.parametrize("seed", range(5))
    def test_stack_and_batched_pairwise_inner(self, seed):
        rng = np.random.default_rng(seed)
        a = _leaf(rng, 3, 4)
        b = _leaf(rng, 3, 4)
        c = _leaf(rng, 2, 2, 4)

        def build():
            stacked = ad.stack([a, b], axis=1)           # (3, 2, 4)
            s = ad.pairwise_inner(ad.row_normalize(stacked), c)  # (3, 2, 2)
            return ad.tsum(ad.sigmoid(s))

        check_gradients(build, {"a": a, "b": b, "c": c})

    @pytest.mark.parametrize("seed", range(3))
    def test_layernorm_matches_finite_differences_and_composed_ops(self, seed):
        rng = np.random.default_rng(seed)
        x = ad.parameter(rng.standard_normal((5, 6)) * 3.0 + 1.0)
        gain, bias = _leaf(rng, 6), _leaf(rng, 6)
        probe = rng.standard_normal((5, 6))
        params = {"x": x, "gain": gain, "bias": bias}

        def fused():
            return ad.tsum(ad.mul(ad.layernorm(x, gain, bias, 1e-5), probe))

        def composed():
            mean = ad.tsum(x, axis=1, keepdims=True) * (1.0 / 6)
            centered = ad.sub(x, mean)
            var = ad.tsum(ad.square(centered), axis=1, keepdims=True) * (1.0 / 6)
            normed = ad.div(centered, ad.sqrt(ad.add(var, 1e-5)))
            return ad.tsum(ad.mul(ad.add(ad.mul(normed, gain), bias), probe))

        def value_and_grads(build):
            loss = build()
            loss.backward()
            grads = {n: p.grad for n, p in params.items()}
            for p in params.values():
                p.grad = None
            return loss.item(), grads

        check_gradients(fused, params)
        want_value, want = value_and_grads(composed)
        got_value, got = value_and_grads(fused)
        assert abs(got_value - want_value) <= 1e-12
        for name in params:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("path", ["blocks", "offsets", "rowwise"])
    def test_stacked_matmul_bias_is_bitwise_a_separate_add(self, path):
        """The fused bias gives the forward values and all three gradients
        of stacked_matmul followed by add, bit for bit."""
        rng = np.random.default_rng(7)
        x = _leaf(rng, 40, 9)
        w = _leaf(rng, 7, 9)
        b = _leaf(rng, 7)
        probe = rng.standard_normal((40, 7))
        offsets = [0, 3, 3, 17, 40] if path == "offsets" else None
        results = []
        for fused in (False, True):
            with ad.rowwise(path == "rowwise"):
                if fused:
                    out = ad.stacked_matmul(x, ad.transpose(w), offsets, b)
                else:
                    out = ad.add(ad.stacked_matmul(x, ad.transpose(w), offsets), b)
            ad.tsum(ad.mul(ad.sigmoid(out), probe)).backward()
            results.append([out.data] + [p.grad for p in (x, w, b)])
            x.grad = w.grad = b.grad = None
        for want, got in zip(*results):
            np.testing.assert_array_equal(got, want)

def _segment_matmul_loop(a, x, offsets, g):
    """The per-segment loop segment_matmul replaced: its forward values and
    both gradients for upstream gradient g."""
    bounds = list(zip(offsets[:-1], offsets[1:]))
    data = np.zeros((len(bounds), a.shape[1], x.shape[1]))
    ga, gx = np.empty_like(a), np.empty_like(x)
    for s, (lo, hi) in enumerate(bounds):
        data[s] = a[lo:hi].T @ x[lo:hi]
        ga[lo:hi] = x[lo:hi] @ g[s].T
        gx[lo:hi] = a[lo:hi] @ g[s]
    return data, ga, gx


def _assert_bits_equal(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestBitPreservingKernels:
    """segment_matmul, segment_sum, place_rows and the gather backward keep
    the bits of the code they replaced."""

    LENGTHS = {"ragged": [0, 1, 3, 1, 0, 5, 3, 8, 2, 1, 40, 3, 0],
               "equal": [6] * 9}

    @pytest.mark.parametrize("lengths", LENGTHS.values(), ids=LENGTHS.keys())
    @pytest.mark.parametrize("k, d", [(3, 4), (8, 128), (20, 300)])
    def test_segment_matmul_is_bitwise_the_segment_loop(self, k, d, lengths):
        rng = np.random.default_rng(k)
        offsets = np.cumsum([0] + lengths)
        n = offsets[-1]
        # NetVLAD's assignment columns: a column slice of a wider matrix
        a = ad.parameter(rng.standard_normal((n, k + 2)))[:, :k]
        x = ad.parameter(rng.standard_normal((n, d)))
        g = rng.standard_normal((len(lengths), k, d))
        out = ad.segment_matmul(a, x, offsets)
        ga, gx = out._backward(g)
        want = _segment_matmul_loop(a.data, x.data, offsets, g)
        for got, ref in zip((out.data, ga, gx), want):
            _assert_bits_equal(got, ref)

    @pytest.mark.parametrize("lengths", LENGTHS.values(), ids=LENGTHS.keys())
    @pytest.mark.parametrize("tail", [(), (1,), (3,)])
    def test_segment_sum_is_bitwise_the_step_loop(self, tail, lengths):
        """Row t of every segment added at step t, starting from zeros."""
        rng = np.random.default_rng(len(tail))
        lengths = np.array(lengths)
        offsets = np.cumsum(np.r_[0, lengths])
        a = rng.standard_normal((offsets[-1],) + tail)
        a *= 10.0 ** rng.integers(-8, 8, size=a.shape)
        a[rng.random(a.shape) < 0.3] = -0.0
        want = np.zeros((lengths.size,) + tail)
        for step in range(lengths.max()):
            live = lengths > step
            want[live] += a[offsets[:-1][live] + step]
        _assert_bits_equal(ad.segment_sum(a, offsets).data, want)

    @pytest.mark.parametrize("tail", [(), (1,), (3,), (4, 5)])
    @pytest.mark.parametrize("index", [
        [0, 2, 2, 4, -1, 2, -5, 2, 0],          # duplicates, negatives
        [[1, -2, 1], [3, 1, 0]],                  # a 2-D index array
        [0] * 40 + [1, 2, 3, 4],                  # one row hit 40 times
        [4, 3, 2, 1, 0],                          # a permutation
    ], ids=["dups", "2d", "heavy", "perm"])
    def test_gather_backward_is_bitwise_add_at(self, index, tail):
        rng = np.random.default_rng(len(index))
        index = np.asarray(index, dtype=np.intp)
        a = _leaf(rng, 5, *tail)
        g = rng.standard_normal(index.shape + tail)
        g *= 10.0 ** rng.integers(-8, 8, size=g.shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        want = np.zeros(a.shape)
        np.add.at(want, index, g)
        (got,) = ad.take_rows(a, index)._backward(g)
        _assert_bits_equal(got, want)

    @pytest.mark.parametrize("tail", [(1,), (3,)])
    @pytest.mark.parametrize("expert_major", [True, False])
    def test_place_rows_is_bitwise_the_zero_row_gather(self, expert_major, tail):
        """Values and gradient of concat([zero row, rows]) + take_rows, the
        composition place_rows replaced, in either row order."""
        rng = np.random.default_rng(len(tail))
        present = rng.random((9, 3)) < 0.6
        present[0] = True
        index = np.nonzero(present.T)[::-1] if expert_major else np.nonzero(present)
        rows = _leaf(rng, int(present.sum()), *tail)
        g = rng.standard_normal(present.shape + tail)
        g *= 10.0 ** rng.integers(-8, 8, size=g.shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        gather = np.zeros(present.shape, dtype=np.intp)
        gather[index] = 1 + np.arange(rows.shape[0])
        grads = []
        for out in (ad.take_rows(ad.concat([np.zeros((1,) + tail), rows]), gather),
                    ad.place_rows(rows, index, present.shape + tail)):
            ad.tsum(ad.mul(out, g)).backward()
            grads.append((out.data, rows.grad))
            rows.grad = None
        for got, want in zip(grads[1], grads[0]):
            _assert_bits_equal(got, want)

    @pytest.mark.parametrize("key", [
        slice(1, 4), (slice(None), slice(0, 2)), 3, (slice(None, None, 2), 1),
    ], ids=["rows", "columns", "int", "strided"])
    def test_slice_backward_is_bitwise_add_at(self, key):
        rng = np.random.default_rng(5)
        a = _leaf(rng, 5, 3)
        g = rng.standard_normal(a.data[key].shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        want = np.zeros(a.shape)
        np.add.at(want, key, g)
        (got,) = a[key]._backward(g)
        _assert_bits_equal(got, want)


class TestScoreTiles:
    """pairwise_inner's tiled forward pass: an entry's bits depend on its
    own text and audio rows only."""

    SIZES = (1, 31, 32, 33, 64, 65)

    @pytest.mark.parametrize("dim", [7, 64])
    def test_rows_and_columns_ignore_batch_sizes(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((65, 3, dim))
        b = rng.standard_normal((65, 3, dim))
        full = ad.pairwise_inner(a, b).data
        np.testing.assert_allclose(
            full, np.einsum("ied,jed->ije", a, b), rtol=0, atol=1e-12)
        for rows in self.SIZES:
            for cols in self.SIZES:
                got = ad.pairwise_inner(a[:rows], b[:cols]).data
                np.testing.assert_array_equal(got, full[:rows, :cols])

    def test_subset_and_shuffled_pool_permute_columns(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((40, 2, 16))
        b = rng.standard_normal((70, 2, 16))
        full = ad.pairwise_inner(a, b, ad.score_tiles(b)).data
        for cols in (rng.permutation(70), rng.choice(70, 33, replace=False),
                     rng.choice(70, 5, replace=False)):
            rows = rng.permutation(40)[:int(rng.integers(2, 40))]
            pool = b[cols]
            for tiles in (None, ad.score_tiles(pool)):
                got = ad.pairwise_inner(a[rows], pool, tiles).data
                np.testing.assert_array_equal(got, full[rows][:, cols])


_TILE_DIGEST = """
import hashlib, sys
import numpy as np
from audioret import autodiff as ad
dim = int(sys.argv[1])
rng = np.random.default_rng(dim)
a, b = rng.standard_normal((40, 2, dim)), rng.standard_normal((70, 2, dim))
print(hashlib.sha256(ad.pairwise_inner(a, b).data.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("dim", [64, 512])
def test_score_tiles_ignore_blas_thread_count(dim):
    """The 32 x 32 score tile gives the same bits with one BLAS thread and
    with two."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", _TILE_DIGEST, str(dim)],
                                env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        digests.append(result.stdout.strip())
    assert digests[0] == digests[1]


_BATCH_GEMM_BITS = """
import contextlib, json
import numpy as np
from audioret import autodiff as ad, blas
from audioret.experts import TextEmbedding
from audioret.models import build_model, similarity

DIMS = {"VGGish": 128, "VGGSound": 512}
FRAMES = {"moee": (31, 95), "ce": (31, 95), "mmt": (95, 95)}
rng = np.random.default_rng(18)
per_item = {}  # (K, N, layout) -> rows per item in a batch of two
record = ad._batch_gemm

def spy(rows, w, out):
    layout = "C" if w.flags.c_contiguous else "F"
    per_item.setdefault((*w.shape, layout), set()).add(len(rows) // 2)
    record(rows, w, out)

ad._batch_gemm = spy
for arch in ("moee", "ce", "mmt"):
    model = build_model(arch, tuple(DIMS), DIMS, 300, rng)
    captions = [TextEmbedding(f"c{i}", rng.standard_normal((21, 300)),
                              np.ones(21, bool)) for i in range(2)]
    streams = [{e: rng.standard_normal((n, DIMS[e]))
                for e, n in zip(DIMS, FRAMES[arch])} for _ in range(2)]
    model.encode_text(captions), model.encode_audio(streams)
    del model
ad._batch_gemm = record
# items a row-count comes from: training batches (8 for moee and ce, 2 for
# mmt, also a validation chunk), the chunks of a 200-clip x 1000-caption
# pool, and the largest chunk
items = {2, 8, similarity.ENCODE_CHUNK}
for count in (200, 1000):
    items |= {p.stop - p.start for p in similarity._chunks(count, 2)}
ad.CHECKS_PER_SHAPE = 1 << 20  # check every row count, not only a shape's first
failed = []
for threads in ("threaded", "pinned"):
    ad._ONE_GEMM.clear(), ad._CHECKED.clear()
    with blas.one_thread() if threads == "pinned" else contextlib.nullcontext():
        for (k, n, layout), spans in sorted(per_item.items()):
            w = rng.standard_normal((k, n) if layout == "C" else (n, k))
            w = w if layout == "C" else w.T
            for m in sorted({2, 3} | {r * i for r in spans for i in items}):
                for _ in range(2):  # the check, then its kept verdict
                    x = rng.standard_normal((m, k))
                    want = np.empty((m, n))
                    ad._blocks(x, w, want)
                    got = ad.stacked_matmul(x, w).data
                    if not np.array_equal(got.view(np.uint64),
                                          want.view(np.uint64)):
                        failed.append([threads, k, n, layout, m])
print(json.dumps({"shapes": len(per_item), "failed": failed}))
"""


@needs_openblas
def test_paper_width_products_keep_the_padded_blocks_bits():
    """Every weight shape and layout the three paper-width default models
    pass to stacked_matmul gives the padded blocks' bits, threaded and
    pinned at 2 BLAS threads, at the row counts that training batches and
    evaluation chunks make and at 2 and 3 rows: at the first use of each
    row count, which checks it, and at the second, which keeps its
    verdict."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2",
               OMP_NUM_THREADS="2")
    result = subprocess.run([sys.executable, "-c", _BATCH_GEMM_BITS],
                            env=env, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["shapes"] >= 17
    assert report["failed"] == []


def _fresh_verdicts(monkeypatch) -> None:
    monkeypatch.setattr(ad, "_ONE_GEMM", {})
    monkeypatch.setattr(ad, "_CHECKED", {})


def _blocks_of(x, w):
    out = np.empty((len(x), w.shape[1]))
    ad._blocks(x, w, out)
    return out


def test_failed_check_keeps_the_blocks_and_its_verdict(monkeypatch):
    """A check that finds unequal rows returns the blocks' bits and keeps
    that verdict: the next call of the same key takes the blocks without a
    check, a call of another row count is checked anew."""
    _fresh_verdicts(monkeypatch)
    rng = np.random.default_rng(180)
    w = np.ascontiguousarray(rng.standard_normal((64, 300))).T
    compared, blocks = [], []
    monkeypatch.setattr(ad, "_same_bits", lambda a, b: compared.append(1) or False)
    real_blocks = ad._blocks
    monkeypatch.setattr(ad, "_blocks",
                        lambda *args: blocks.append(1) or real_blocks(*args))
    for rows, checked in ((40, True), (40, False), (41, True)):
        x = rng.standard_normal((rows, 300))
        want = _blocks_of(x, w)
        compared.clear(), blocks.clear()
        got = ad.stacked_matmul(x, w).data
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert bool(compared) == checked and blocks
    key = (300, 64, "F", blas.threads())
    assert ad._ONE_GEMM == {key + (40,): False, key + (41,): False}
    assert ad._CHECKED == {key: 2}


def test_row_counts_past_the_limit_keep_the_blocks(monkeypatch):
    """A weight shape is checked at CHECKS_PER_SHAPE row counts at most;
    the others take the blocks unchecked."""
    _fresh_verdicts(monkeypatch)
    rng = np.random.default_rng(181)
    w = rng.standard_normal((20, ad.CHECK_MIN_WIDTH))
    for rows in range(2, 2 + ad.CHECKS_PER_SHAPE + 3):
        x = rng.standard_normal((rows, 20))
        np.testing.assert_array_equal(ad.stacked_matmul(x, w).data,
                                      _blocks_of(x, w))
    assert len(ad._ONE_GEMM) == ad.CHECKS_PER_SHAPE
    assert list(ad._CHECKED.values()) == [ad.CHECKS_PER_SHAPE]


def test_two_first_uses_of_one_key_agree(monkeypatch):
    """Two threads that reach an unchecked key at once end with one
    verdict: one checks, and the other takes the blocks meanwhile without
    waiting for it. Both get the blocks' bits."""
    _fresh_verdicts(monkeypatch)
    rng = np.random.default_rng(182)
    w = np.ascontiguousarray(rng.standard_normal((96, 200))).T
    xs = [rng.standard_normal((12, 200)) for _ in range(2)]
    start, got, waited = threading.Barrier(2), {}, []
    same_bits = ad._same_bits

    def watching_same_bits(a, b):
        # the other thread must finish while this one holds the check
        other = next(t for t in threads if t is not threading.current_thread())
        other.join(5)
        waited.append(other.is_alive())
        return same_bits(a, b)

    def use(i):
        start.wait(5)
        got[i] = ad.stacked_matmul(xs[i], w).data

    monkeypatch.setattr(ad, "_same_bits", watching_same_bits)
    threads = [threading.Thread(target=use, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert len(got) == 2 and waited == [False]
    for i in range(2):
        np.testing.assert_array_equal(got[i], _blocks_of(xs[i], w))
    assert list(ad._ONE_GEMM) == [(200, 96, "F", blas.threads(), 12)]
    assert ad._CHECKED == {(200, 96, "F", blas.threads()): 1}


def test_many_threads_check_each_row_count_once(monkeypatch):
    """Six threads, more than the cores, with a short switch interval,
    multiply rows of every count from 2 to 13 against one weight: each
    row count is checked at most once, the shape's check count equals its
    kept verdicts, and every product has the blocks' bits."""
    _fresh_verdicts(monkeypatch)
    monkeypatch.setattr(ad, "CHECKS_PER_SHAPE", 100)
    checked, check = [], ad._check
    monkeypatch.setattr(ad, "_check", lambda rows, w, out:
                        checked.append(len(rows)) or check(rows, w, out))
    rng = np.random.default_rng(183)
    w = rng.standard_normal((40, 64))
    xs = [rng.standard_normal((rows, 40)) for rows in range(2, 14)]
    wants = [_blocks_of(x, w) for x in xs]
    wrong = []

    def work():
        for _ in range(20):
            for x, want in zip(xs, wants):
                if not np.array_equal(ad.stacked_matmul(x, w).data, want):
                    wrong.append(len(x))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [] and checked
    assert len(checked) == len(set(checked)) == len(ad._ONE_GEMM)
    assert ad._CHECKED == {(40, 64, "C", blas.threads()): len(checked)}


class TestEngine:
    def test_grad_accumulates_over_reuse(self):
        """A leaf used twice receives the sum of both paths' gradients."""
        x = ad.parameter([2.0, 3.0])
        loss = ad.tsum(x * x + x)
        loss.backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)

    def test_no_grad_blocks_graph(self):
        x = ad.parameter([1.0])
        with ad.no_grad():
            y = ad.square(x)
        assert y._backward is None and not y.requires_grad

    def test_backward_requires_scalar(self):
        x = ad.parameter([1.0, 2.0])
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_constants_stay_out_of_graph(self):
        x = ad.Tensor([1.0, 2.0])
        y = ad.tsum(ad.square(x))
        assert not y.requires_grad

    def test_finite_difference_sanity(self):
        """The checker itself recovers the gradient of a known quadratic."""
        x = np.array([1.0, -2.0, 0.5])
        grad = finite_difference(lambda: float((x ** 2).sum()), x)
        assert relative_grad_error(grad, 2.0 * x) < 1e-8

    @staticmethod
    def _grads_by_plain_sums(root, leaves):
        """Leaf gradients from a backward pass that sums every node's
        contributions as a + b into a new array, in the tape's order."""
        grads = {id(root): np.ones_like(root.data)}
        for node in reversed(ad._toposort(root)):
            grad = grads.pop(id(node), None)
            if grad is None or node._backward is None:
                grads[id(node)] = grad
                continue
            for parent, pgrad in zip(node._parents, node._backward(grad)):
                if pgrad is not None and parent.requires_grad:
                    key = id(parent)
                    grads[key] = grads[key] + pgrad if key in grads else pgrad
        return [grads[id(leaf)] for leaf in leaves]

    def test_node_with_three_consumers_sums_like_plain_adds(self):
        """In-place accumulation gives bitwise the a + b rule's gradient."""
        rng = np.random.default_rng(3)
        x, c = _leaf(rng, 6, 5), _leaf(rng, 5)
        probes = [rng.standard_normal((6, 5)) * 10.0 ** k for k in range(3)]

        def build():
            y = ad.sigmoid(x * c)
            return ad.tsum(ad.mul(ad.sigmoid(y), probes[0])) \
                + ad.tsum(ad.mul(ad.sqrt(y), probes[1])) \
                + ad.tsum(ad.mul(y, probes[2]))

        want = self._grads_by_plain_sums(build(), [x, c])
        build().backward()
        np.testing.assert_array_equal(x.grad, want[0])
        np.testing.assert_array_equal(c.grad, want[1])

    def test_buffer_shared_by_two_parents_is_not_summed_into(self):
        """add hands one array to both parents; each parent's further
        contributions must not write into it."""
        rng = np.random.default_rng(4)
        a, b = _leaf(rng, 4, 3), _leaf(rng, 4, 3)
        probe = rng.standard_normal((4, 3))

        def build():
            u, v = ad.sigmoid(a), ad.sigmoid(b)
            s = ad.add(u, v)
            extra = ad.tsum(ad.mul(u, probe)) + ad.tsum(ad.mul(v, probe))
            return ad.tsum(ad.mul(s, probe)) + extra + ad.tsum(ad.square(u))

        check_gradients(build, {"a": a, "b": b})
        want = self._grads_by_plain_sums(build(), [a, b])
        build().backward()
        np.testing.assert_array_equal(a.grad, want[0])
        np.testing.assert_array_equal(b.grad, want[1])

    def test_unbroadcast_restores_shapes(self):
        rng = np.random.default_rng(1)
        col = ad.parameter(rng.standard_normal((4, 1)))
        row = ad.parameter(rng.standard_normal(5))
        loss = ad.tsum(ad.square(col * row))
        loss.backward()
        assert col.grad.shape == (4, 1)
        assert row.grad.shape == (5,)
