"""First-order optimizers over named parameter tensors.

All state is per-parameter numpy float64, keyed by parameter name, so a
training run is bit-reproducible given the same gradient sequence. The
rectified scheme follows the variance-rectification rule (warmup-free
adaptive moments that fall back to momentum SGD while the variance
estimate is untrustworthy); the slow/fast weight wrapper interpolates
toward the exploring inner optimizer every LOOKAHEAD_K steps. A caller
picks the rule, the learning rate and the weight decay; the rules' other
constants (BETA1, BETA2, EPS, LOOKAHEAD_K, LOOKAHEAD_ALPHA) are fixed.

Every update runs in place, chunk by chunk: each parameter and its state
are walked as flat row-major arrays in slices of CHUNK elements, and each
slice goes through the whole rule with numpy ufuncs writing into two
chunk-sized scratch buffers, so no step allocates a full-size temporary
and a slice's operands stay in cache between ufuncs. Each element gets
the textbook formula's operations in the textbook order, so the results
are the same bits as the whole-array expressions. Training hands every
parameter a row-major gradient (stacked_matmul gives a weight's gradient
the weight's own layout), so none is copied; a gradient that is not
row-major, from a caller that builds one, is copied whole, per
parameter, before the slices run.

When the model's largest parameter has at least blas.POOL_MIN_WEIGHTS
entries (blas.width, read at each step), a step shares its slices,
WIDE_CHUNK elements long, out in near-equal runs, one per BLAS thread,
through blas.run_pinned, each run with its own scratch; a smaller
model's step runs in the caller and starts no thread. numpy's ufuncs
release the GIL, so the runs share the cores, and an element's
operations do not depend on its run, so the bits are the serial step's.
A step that fans out first parks OpenBLAS's own workers (blas.park),
which would otherwise spin on a core for about 0.12 s after the backward
pass's threaded GEMMs; training holds the pin from the end of each
backward pass through the step and any validation due.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from . import blas

# elements per slice of an update in the caller; a slice of each operand
# the rule touches together (parameter, two moments, gradient, two
# scratch) fits in a core's L2 cache
CHUNK = 16384
# elements per slice of a step that fans out: the shares take the GIL
# around each ufunc, and slices twice as long hand it over half as often
# (the six operands' slices, 1.5 MB, still fit a 2 MB L2 cache)
WIDE_CHUNK = 2 * CHUNK
# the gradient slice of a parameter that has none, read by every share
_ZEROS = np.zeros(WIDE_CHUNK)
_ZEROS.flags.writeable = False
# the moment decay rates and the denominator's guard of every Adam
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Lookahead's sync period (inner steps) and its step toward the fast weights
LOOKAHEAD_K, LOOKAHEAD_ALPHA = 5, 0.5


def _shares(sizes: list[int], width: int) -> list[list[tuple[int, int, int]]]:
    """`width` near-equal runs, in order, of the slices of arrays of these
    sizes, CHUNK elements long or, when width > 1, WIDE_CHUNK, as (array
    index, start, end) triples: a slice goes to the run its first element,
    counted over all arrays, falls in."""
    length = CHUNK if width == 1 else WIDE_CHUNK
    total, offset = sum(sizes), 0
    shares = [[] for _ in range(width)]
    for k, size in enumerate(sizes):
        for start in range(0, size, length):
            shares[(offset + start) * width // total].append(
                (k, start, min(start + length, size)))
        offset += size
    return shares


def _share_scratch(params: dict[str, ad.Tensor], rows: int) -> list[np.ndarray]:
    """`rows` scratch slices, as long as the longest slice any step over
    `params` takes, for each share of a step over them. A model below
    blas.POOL_MIN_WEIGHTS always steps serially, in CHUNK slices; a larger
    one keeps WIDE_CHUNK, since _fan_out copies the first share's scratch
    when the width grows."""
    longest = max((p.data.size for p in params.values()), default=0)
    length = WIDE_CHUNK if longest >= blas.POOL_MIN_WEIGHTS else CHUNK
    return [np.empty((rows, min(length, longest)))
            for _ in range(blas.width(longest))]


def _fan_out(params: dict[str, ad.Tensor], work, scratch: list) -> None:
    """work(share, scratch[i]) for each of the _shares of the params'
    slices, as many as blas.width of the largest: one in the caller, or
    several through blas.run_pinned after parking OpenBLAS's workers. A
    share the scratch list lacks gets a copy of its first entry's shape."""
    sizes = [p.data.size for p in params.values()]
    width = blas.width(max(sizes, default=0))
    if width == 1:
        work(*_shares(sizes, 1), scratch[0])
        return
    while len(scratch) < width:
        scratch.append(np.empty_like(scratch[0]))
    with blas.one_thread():
        blas.park()
        blas.run_pinned([functools.partial(work, share, buffers) for share, buffers
                         in zip(_shares(sizes, width), scratch)], width)


class Adam:
    """Adaptive moments with bias correction; optional L2 term in the grad.

    The update runs in place, chunk by chunk, shared out over the BLAS
    threads for a large model, and gives the same bits as the textbook
    formulas (see the module docstring)."""

    def __init__(self, params: dict[str, ad.Tensor], lr: float,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = dict(params)
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} is not C-contiguous")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._scratch = _share_scratch(self.params, 2)  # per share

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _flat_grad(self, p: ad.Tensor) -> np.ndarray | None:
        """p.grad as a flat row-major array (a view of a row-major gradient,
        a whole copy of any other), or None."""
        return None if p.grad is None else p.grad.reshape(-1)

    def _update(self, scale: float, adaptive: bool) -> None:
        """One step over every parameter, slice by slice:
        g += wd * x; m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; then
        x -= scale * mhat / (sqrt(vhat) + eps), or x -= scale * mhat when
        not `adaptive`."""
        b1, b2, wd, eps = BETA1, BETA2, self.weight_decay, EPS
        c1, c2 = 1.0 - b1, 1.0 - b2
        bias1, bias2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        flat = [(p.data.reshape(-1), self.m[name].reshape(-1),
                 self.v[name].reshape(-1), self._flat_grad(p))
                for name, p in self.params.items()]

        def update_share(share, scratch) -> None:
            a, b = scratch
            for k, start, end in share:
                x, m, v, g = flat[k]
                xc, mc, vc = x[start:end], m[start:end], v[start:end]
                ac, bc = a[: end - start], b[: end - start]
                gc = _ZEROS[: end - start] if g is None else g[start:end]
                if wd:
                    # wd*x + g is g + wd*x: IEEE addition commutes
                    np.multiply(xc, wd, out=ac)
                    np.add(ac, gc, out=ac)
                    gc = ac
                np.multiply(mc, b1, out=mc)
                np.multiply(gc, c1, out=bc)
                np.add(mc, bc, out=mc)
                np.multiply(gc, c2, out=bc)
                np.multiply(bc, gc, out=bc)
                np.multiply(vc, b2, out=vc)
                np.add(vc, bc, out=vc)
                np.divide(mc, bias1, out=ac)
                np.multiply(ac, scale, out=ac)
                if adaptive:
                    np.divide(vc, bias2, out=bc)
                    np.sqrt(bc, out=bc)
                    np.add(bc, eps, out=bc)
                    np.divide(ac, bc, out=ac)
                np.subtract(xc, ac, out=xc)

        _fan_out(self.params, update_share, self._scratch)

    def step(self) -> None:
        self.t += 1
        self._update(self.lr, adaptive=True)


class RAdam(Adam):
    """Rectified adaptive moments: variance-aware trust ratio with an
    un-adapted momentum fallback for the first few steps."""

    def step(self) -> None:
        self.t += 1
        b2 = BETA2
        rho_inf = 2.0 / (1.0 - b2) - 1.0
        bias2 = 1.0 - b2 ** self.t
        rho_t = rho_inf - 2.0 * self.t * b2 ** self.t / bias2
        if rho_t > 4.0:
            rect = np.sqrt(((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                           / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t))
            self._update(self.lr * rect, adaptive=True)
        else:
            self._update(self.lr, adaptive=False)


class Lookahead:
    """Slow/fast weight wrapper: every LOOKAHEAD_K inner steps the slow
    weights move a fraction LOOKAHEAD_ALPHA toward the fast ones, and the
    fast weights reset."""

    def __init__(self, inner):
        self.inner = inner
        self.t = 0
        self.slow = {name: p.data.copy() for name, p in inner.params.items()}
        self._scratch = _share_scratch(self.params, 1)

    @property
    def lr(self) -> float:
        return self.inner.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.inner.lr = value

    @property
    def params(self) -> dict[str, ad.Tensor]:
        return self.inner.params

    def zero_grad(self) -> None:
        self.inner.zero_grad()

    def step(self) -> None:
        self.inner.step()
        self.t += 1
        if self.t % LOOKAHEAD_K == 0:
            flat = [(p.data.reshape(-1), self.slow[name].reshape(-1))
                    for name, p in self.params.items()]

            def sync_share(share, scratch) -> None:
                # slow += alpha * (fast - slow); fast = slow, slice by slice
                for k, start, end in share:
                    x, s = flat[k]
                    xc, sc = x[start:end], s[start:end]
                    dc = scratch[0, : end - start]
                    np.subtract(xc, sc, out=dc)
                    np.multiply(dc, LOOKAHEAD_ALPHA, out=dc)
                    np.add(sc, dc, out=sc)
                    xc[...] = sc

            _fan_out(self.params, sync_share, self._scratch)


def build_optimizer(kind: str, params: dict[str, ad.Tensor], lr: float,
                    weight_decay: float = 0.0):
    """Construct one of the supported update rules by name."""
    if kind == "adam":
        return Adam(params, lr=lr, weight_decay=weight_decay)
    if kind == "radam":
        return RAdam(params, lr=lr, weight_decay=weight_decay)
    if kind == "lookahead_radam":
        return Lookahead(RAdam(params, lr=lr, weight_decay=weight_decay))
    raise ValueError(f"unknown optimizer {kind!r}")
