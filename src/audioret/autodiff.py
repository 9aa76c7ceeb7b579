"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: every operation produces a `Tensor` that remembers its
parents and a closure mapping the upstream gradient to parent gradients.
All data is float64. Gradients are exact (analytic) for every op; the
test suite checks them against central finite differences.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from collections.abc import Sequence

import numpy as np

from . import blas

# per thread: a context's flags are seen by the tasks it hands to
# blas.run_pinned, which run in a copy of it, and by no other thread
_GRAD_MODE = contextvars.ContextVar("grad_mode", default=True)
_ROW_MODE = contextvars.ContextVar("row_mode", default=False)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode), in
    the calling thread only."""
    token = _GRAD_MODE.set(False)
    try:
        yield
    finally:
        _GRAD_MODE.reset(token)


@contextlib.contextmanager
def rowwise(enabled: bool = True):
    """With `enabled`, stacked_matmul's forward pass inside the block
    multiplies each row on its own, one BLAS GEMV per row, instead of in
    GEMMs over the batch (zero-padded ROW_BLOCK-row blocks, or one checked
    GEMM), and the block's BLAS calls run on one pinned OpenBLAS thread
    (`blas.one_thread`). A single item then costs one pass over each
    weight rather than a GEMM, and it never waits on a second BLAS
    thread: on a shared host a threaded product stalls whenever either
    core is busy. Its bits can differ from a block's in the last place, so
    an encoder uses it for a whole batch of one item and never for part of
    a batch. The flag holds in the calling thread only; the pin, like the
    thread count, is process-wide."""
    token = _ROW_MODE.set(enabled)
    try:
        with blas.one_thread() if enabled else contextlib.nullcontext():
            yield
    finally:
        _ROW_MODE.reset(token)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- autodiff ------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar output to every leaf requiring grad.

        A node's gradient contributions are summed in arrival order, the
        later ones in place into the buffer that the first sum allocated.
        A contribution is never written to: a backward closure may hand one
        array to several parents, as add's does."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _toposort(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        owned: set[int] = set()  # keys whose buffer an earlier sum allocated
        for node in reversed(order):
            grad = grads.pop(id(node), None)
            if grad is None:
                continue
            if node._backward is None:
                node.grad = grad if node.grad is None else node.grad + grad
                continue
            for parent, pgrad in zip(node._parents, node._backward(grad)):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in owned:
                    grads[key] += pgrad
                elif key in grads:
                    grads[key] = grads[key] + pgrad
                    owned.add(key)
                else:
                    grads[key] = pgrad

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data) -> Tensor:
    """Wrap `data` as a trainable leaf (requires_grad=True). A float64
    array is adopted, not copied: an optimizer updates it in place."""
    return Tensor(data, requires_grad=True)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_MODE.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- arithmetic --------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _make(data, (a, b), backward)


# rows and columns of every GEMM tile in pairwise_inner's forward pass
SCORE_TILE = 32


def _tile_rows(x: np.ndarray) -> np.ndarray:
    """B x E x D as E x tiles x SCORE_TILE x D, B zero-padded to whole tiles."""
    count, experts, dim = x.shape
    tiles = -(-count // SCORE_TILE)
    out = np.zeros((experts, tiles * SCORE_TILE, dim))
    out[:, :count] = x.transpose(1, 0, 2)
    return out.reshape(experts, tiles, SCORE_TILE, dim)


def score_tiles(b: np.ndarray) -> np.ndarray:
    """The right operand of pairwise_inner (B x E x D) as its GEMM tiles
    take it: E x tiles x D x SCORE_TILE, B zero-padded to whole tiles. A
    caller that scores one operand many times lays it out once."""
    return np.ascontiguousarray(_tile_rows(b).swapaxes(-1, -2))


def pairwise_inner(a, b, b_tiles: np.ndarray | None = None) -> Tensor:
    """s[i, j, e] = <a_ie, b_je> for Bt x E x D and Ba x E x D operands.

    The forward pass multiplies each expert's rows of a against its rows of
    b in GEMMs of exactly SCORE_TILE x SCORE_TILE entries, both operands
    zero-padded to whole tiles, so an entry's bits never depend on Bt, Ba,
    its position or its batchmates. `b_tiles` is score_tiles(b.data), when
    the caller keeps it.
    """
    a, b = as_tensor(a), as_tensor(b)
    a_tiles = _tile_rows(a.data)
    if b_tiles is None:
        b_tiles = score_tiles(b.data)
    rows, cols = a_tiles.shape[1], b_tiles.shape[1]
    # E x row tiles x column tiles x SCORE_TILE x SCORE_TILE, a GEMM each
    blocks = a_tiles[:, :, None] @ b_tiles[:, None]
    # one copy per expert: a single 5-D transpose copy of the same bits
    # runs 1.3-3.7x slower
    out = np.empty((rows, SCORE_TILE, cols, SCORE_TILE, len(blocks)))
    for e, block in enumerate(blocks):
        out[..., e] = block.transpose(0, 2, 1, 3)
    data = out.reshape(rows * SCORE_TILE, cols * SCORE_TILE, -1)[
        :a.shape[0], :b.shape[0]]

    def backward(g):
        per_expert = g.transpose(2, 0, 1)  # E x Bt x Ba
        ga = per_expert @ b.data.transpose(1, 0, 2)
        gb = per_expert.transpose(0, 2, 1) @ a.data.transpose(1, 0, 2)
        return ga.transpose(1, 0, 2), gb.transpose(1, 0, 2)

    return _make(data, (a, b), backward)


# rows per GEMM call in stacked_matmul's padded blocks
ROW_BLOCK = 32
# only a weight with at least this many columns is checked: a row that a
# GEMM sums in another order differs from its block in most entries, but a
# narrow row can match by chance (a 300 x 2 product's 2 x 2 output did in 2
# of 20 draws), and a narrow product gains little from one GEMM
CHECK_MIN_WIDTH = 64
# a weight shape is checked at no more than this many row counts, so a
# product whose row count changes with every batch stops checking after
# its first few batches and keeps the padded blocks
CHECKS_PER_SHAPE = 8
# (K, N, weight layout, BLAS threads, rows) -> whether one GEMM over that
# many rows gives every row its padded block's bits, as checked once by
# this process; the shape part alone -> how many row counts were checked
_ONE_GEMM: dict[tuple, bool] = {}
_CHECKED: dict[tuple, int] = {}
_check_lock = threading.Lock()


def stacked_matmul(x, w, offsets=None, bias=None) -> Tensor:
    """x @ w (+ bias) for every row of x (any leading shape, last axis K)
    with a K x N matrix w.

    A row's forward result has the bits it gets in a GEMM of exactly
    ROW_BLOCK rows (the last block zero-padded), so it is bitwise the same
    whatever rows share its batch and wherever it sits; a GEMM's own
    per-row result can change with its row count. Where this process has
    checked that one GEMM over all the rows gives those bits (_batch_gemm),
    the rows take that one GEMM instead. With `offsets`, each row segment
    offsets[i]:offsets[i + 1] is instead one GEMM over its own rows, so a
    segment's result is bitwise that of the segment multiplied alone.
    Inside `rowwise()` it is one GEMV per row instead: a row's result is
    again independent of its batchmates, but agrees with a block's only to
    rounding. A `bias` of N values is added to the output in place, with
    the bits of a separate add. The backward pass is one GEMM per operand,
    and w's gradient takes w's memory layout: a transposed view of a
    row-major weight gets a gradient whose transpose is row-major.
    """
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"stacked_matmul: {x.shape} rows against {w.shape}")
    rows = np.ascontiguousarray(x.data.reshape(-1, w.shape[0]))
    n = rows.shape[0]
    out = np.empty((n, w.shape[1]))
    if _ROW_MODE.get():
        for i in range(n):
            np.matmul(rows[i], w.data, out=out[i])
    elif offsets is not None:
        for lo, hi in _segment_bounds(offsets):
            np.matmul(rows[lo:hi], w.data, out=out[lo:hi])
    else:
        _batch_gemm(rows, w.data, out)
    data = out.reshape(x.shape[:-1] + (w.shape[1],))
    bias = None if bias is None else as_tensor(bias)
    if bias is not None:
        data += bias.data

    def backward(g):
        g2 = g.reshape(n, w.shape[1])
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = rows.T @ g2 if w.data.flags.c_contiguous else (g2.T @ rows).T
        return gx, gw, None if bias is None else _unbroadcast(g, bias.shape)

    return _make(data, (x, w) if bias is None else (x, w, bias), backward)


def _blocks(rows: np.ndarray, w: np.ndarray, out: np.ndarray,
            starts=None) -> None:
    """out = rows @ w in GEMMs of exactly ROW_BLOCK rows, the last block
    zero-padded: the blocks that start at `starts`, or all of them."""
    n = rows.shape[0]
    for start in range(0, n, ROW_BLOCK) if starts is None else starts:
        stop = start + ROW_BLOCK
        if stop <= n:
            np.matmul(rows[start:stop], w, out=out[start:stop])
        else:
            tail = np.zeros((ROW_BLOCK, rows.shape[1]))
            tail[: n - start] = rows[start:]
            out[start:] = (tail @ w)[: n - start]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bits, signed zeros and NaN
    payloads included."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _batch_gemm(rows: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """out = rows @ w with the bits of padded ROW_BLOCK-row blocks: one GEMM
    over all the rows where this process has checked that it gives them,
    the blocks elsewhere.

    Those bits depend on the kernel OpenBLAS picks for this CPU, so the
    check is made per (K, N, weight layout, BLAS threads, rows), at the
    key's first use (_check), and its verdict kept for the life of the
    process. While one thread checks, another takes the blocks."""
    n, (k, m) = rows.shape[0], w.shape
    layout = "C" if w.flags.c_contiguous else "F" if w.flags.f_contiguous else ""
    shape = (k, m, layout, blas.threads())
    key = shape + (n,)
    one_gemm = _ONE_GEMM.get(key)
    if (one_gemm is None and 0 < n != ROW_BLOCK and m >= CHECK_MIN_WIDTH
            and _check_lock.acquire(False)):
        try:
            if key not in _ONE_GEMM and _CHECKED.get(shape, 0) < CHECKS_PER_SHAPE:
                _CHECKED[shape] = _CHECKED.get(shape, 0) + 1
                _ONE_GEMM[key] = _check(rows, w, out)
                return
        finally:
            _check_lock.release()
    if one_gemm:
        np.matmul(rows, w, out=out)
    else:
        _blocks(rows, w, out)


def _check(rows: np.ndarray, w: np.ndarray, out: np.ndarray) -> bool:
    """Whether one GEMM over all the rows gives the blocks holding the
    first and the last row their blocks' bits; out gets the blocks' bits
    either way. Those two blocks cost no more than the padded product the
    one GEMM replaces."""
    n = rows.shape[0]
    ends = {0, (n - 1) // ROW_BLOCK * ROW_BLOCK}
    blocks = np.empty_like(out)
    _blocks(rows, w, blocks, ends)
    np.matmul(rows, w, out=out)
    if all(_same_bits(blocks[s:s + ROW_BLOCK], out[s:s + ROW_BLOCK])
           for s in ends):
        return True
    _blocks(rows, w, blocks, set(range(0, n, ROW_BLOCK)) - ends)
    out[...] = blocks
    return False


def _segment_bounds(offsets) -> list[tuple[int, int]]:
    offsets = np.asarray(offsets, dtype=np.intp)
    return list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))


def _length_groups(offsets) -> list[tuple[np.ndarray, np.ndarray]]:
    """Segments offsets[i]:offsets[i + 1] grouped by length, shortest first:
    for each length L > 0, the segment numbers that have it and the matrix
    of their row numbers, one segment per row."""
    offsets = np.asarray(offsets, dtype=np.intp)
    lengths = np.diff(offsets)
    groups = []
    for length in np.unique(lengths[lengths > 0]):
        segments = np.flatnonzero(lengths == length)
        groups.append((segments, offsets[segments, None] + np.arange(length)))
    return groups


def _take(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m[rows] for a row-number matrix of _length_groups; a view of m, not a
    copy, when the rows are one range, as when all segments are equally
    long."""
    first = rows[0, 0]
    if rows[-1, -1] - first + 1 == rows.size:
        return m[first:first + rows.size].reshape(rows.shape + m.shape[1:])
    return m[rows]


def segment_matmul(a, x, offsets) -> Tensor:
    """out[s] = a[rows of s]^T @ x[rows of s] for row segments
    s = offsets[i]:offsets[i + 1] of an N x K and an N x D operand.

    The segments of one length go through one stacked matmul, a GEMM per
    segment over its own rows only, so a segment's result never depends on
    the other segments or on padding; an empty segment gives zeros. Both
    gradients are one stacked matmul per length too. Shape (S, K, D).
    """
    a, x = as_tensor(a), as_tensor(x)
    groups = _length_groups(offsets)
    data = np.zeros((len(offsets) - 1, a.shape[1], x.shape[1]))
    for segments, rows in groups:
        data[segments] = _take(a.data, rows).transpose(0, 2, 1) @ _take(x.data, rows)

    def backward(g):
        ga = np.empty_like(a.data)
        gx = np.empty_like(x.data) if x.requires_grad else None
        for segments, rows in groups:
            gs = g[segments]
            ga[rows] = _take(x.data, rows) @ gs.transpose(0, 2, 1)
            if gx is not None:
                gx[rows] = _take(a.data, rows) @ gs
        return ga, gx

    return _make(data, (a, x), backward)


def segment_sum(a, offsets) -> Tensor:
    """Sum the rows of each segment offsets[i]:offsets[i + 1], in row order.

    A segment's sum is ((0 + r0) + r1) + ... over its own rows only; an
    empty segment sums to zero. The segments of one length are summed
    together, one addition per row.
    """
    a = as_tensor(a)
    lengths = np.diff(np.asarray(offsets, dtype=np.intp))
    data = np.zeros((lengths.size,) + a.shape[1:])
    for segments, rows in _length_groups(offsets):
        hits = _take(a.data, rows).swapaxes(0, 1)  # step x segment x ...
        total = hits[0] + 0.0
        for hit in hits[1:]:
            total += hit
        data[segments] = total

    def backward(g):
        return (np.repeat(g, lengths, axis=0),)

    return _make(data, (a,), backward)


def segment_attention(q, k, v, offsets, heads: int, q_offsets=None) -> Tensor:
    """Multi-head scaled dot-product attention inside each row segment.

    q, k and v are N x D; segment s = offsets[i]:offsets[i + 1] attends
    only to itself, head h using columns h*D/heads:(h+1)*D/heads. With
    `q_offsets`, q is M x D and segment i's queries are its rows
    q_offsets[i]:q_offsets[i + 1].
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    dim = k.shape[1]
    hd = dim // heads
    scale = 1.0 / np.sqrt(hd)
    bounds = _segment_bounds(offsets)
    q_bounds = bounds if q_offsets is None else _segment_bounds(q_offsets)

    def split(m, lo, hi):  # (hi - lo, dim) -> (heads, hi - lo, hd)
        return m[lo:hi].reshape(hi - lo, heads, hd).transpose(1, 0, 2)

    def merge(m):
        return m.transpose(1, 0, 2).reshape(-1, dim)

    data = np.empty(q.shape)
    probs = []
    for (qlo, qhi), (lo, hi) in zip(q_bounds, bounds):
        keys = split(k.data, lo, hi).transpose(0, 2, 1)
        scores = (split(q.data, qlo, qhi) @ keys) * scale
        e = np.exp(scores - scores.max(axis=2, keepdims=True))
        p = e / e.sum(axis=2, keepdims=True)
        probs.append(p)
        data[qlo:qhi] = merge(p @ split(v.data, lo, hi))

    def backward(g):
        gq, gk, gv = (np.empty(m.shape) for m in (q, k, v))
        for (qlo, qhi), (lo, hi), p in zip(q_bounds, bounds, probs):
            gh, qh = split(g, qlo, qhi), split(q.data, qlo, qhi)
            kh, vh = split(k.data, lo, hi), split(v.data, lo, hi)
            dp = gh @ vh.transpose(0, 2, 1)
            ds = p * (dp - (dp * p).sum(axis=2, keepdims=True)) * scale
            gq[qlo:qhi] = merge(ds @ kh)
            gk[lo:hi] = merge(ds.transpose(0, 2, 1) @ qh)
            gv[lo:hi] = merge(p.transpose(0, 2, 1) @ gh)
        return gq, gk, gv

    return _make(data, (q, k, v), backward)


# -- shape ops ---------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _make(data, (a,), backward)


def transpose(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        return (g.T,)

    return _make(a.data.T, (a,), backward)


_BASIC_KEYS = (slice, int, np.integer, type(None), type(Ellipsis))


def getitem(a, key) -> Tensor:
    """Slice or fancy-index; backward scatter-adds into the source.

    A basic index (slices, integers) reaches each element once, so the
    backward pass adds g in one step; any other key goes through np.add.at.
    """
    a = as_tensor(a)
    data = a.data[key]

    def backward(g):
        out = np.zeros(a.shape)
        parts = key if isinstance(key, tuple) else (key,)
        if all(isinstance(part, _BASIC_KEYS) for part in parts):
            out[key] += g
        else:
            np.add.at(out, key, g)
        return (out,)

    return _make(data, (a,), backward)


def take_rows(a, indices) -> Tensor:
    """Gather rows; duplicate indices accumulate in the backward pass."""
    indices = np.asarray(indices, dtype=np.intp)
    return getitem(as_tensor(a), indices)


def place_rows(rows, index, shape) -> Tensor:
    """Zeros of `shape` with `rows` written at the fancy index `index`,
    which must name each position once. The backward pass gathers each
    row's gradient back, + 0.0 giving np.add.at's bits for -0.0."""
    rows = as_tensor(rows)
    data = np.zeros(shape)
    data[index] = rows.data

    def backward(g):
        return (g[index] + 0.0,)

    return _make(data, (rows,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(parts)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return _make(data, parts, backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new axis."""
    parts = [as_tensor(t) for t in tensors]
    data = np.stack([p.data for p in parts], axis=axis)

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0))

    return _make(data, parts, backward)


# -- reductions --------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(data, (a,), backward)


# -- elementwise nonlinearities ---------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0

    def backward(g):
        return (g * mask,)

    # np.maximum rather than a mask select so non-finite inputs propagate
    return _make(np.maximum(a.data, 0.0), (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    ex = np.exp(-np.abs(x))  # never overflows
    out = np.where(x >= 0, 1.0, ex) / (1.0 + ex)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / out,)

    return _make(out, (a,), backward)


def layernorm(x, gain, bias, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    scale = 1.0 / x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * scale + eps)
    normed = centered / std
    data = normed * gain.data + bias.data

    def backward(g):
        gn = g * gain.data
        gx = gn - gn.sum(axis=-1, keepdims=True) * scale
        gn *= normed
        gx -= normed * (gn.sum(axis=-1, keepdims=True) * scale)
        gx /= std
        return gx, _unbroadcast(g * normed, gain.shape), _unbroadcast(g, bias.shape)

    return _make(data, (x, gain, bias), backward)


def square(a) -> Tensor:
    return mul(a, a)


def clip_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient flows only where a > floor."""
    a = as_tensor(a)
    mask = a.data > floor

    def backward(g):
        return (g * mask,)

    return _make(np.maximum(a.data, floor), (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along `axis`."""
    a = as_tensor(a)
    x = a.data
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _make(out, (a,), backward)


# -- vector helpers ----------------------------------------------------

EPS = 1e-12


def row_normalize(a, eps: float = EPS) -> Tensor:
    """Normalize every vector along the last axis to unit length.

    The squared norm is floored at eps**2 under the root, so a zero row
    comes out as a / eps with a finite gradient."""
    a = as_tensor(a)
    return div(a, sqrt(clip_min(tsum(square(a), axis=-1, keepdims=True), eps * eps)))


def dot(a, b) -> Tensor:
    return tsum(mul(a, b))

