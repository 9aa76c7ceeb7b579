"""First-order optimizers over named parameter tensors.

All state is per-parameter numpy float64, keyed by parameter name, so a
training run is bit-reproducible given the same gradient sequence. The
rectified scheme follows the variance-rectification rule (warmup-free
adaptive moments that fall back to momentum SGD while the variance
estimate is untrustworthy); the slow/fast weight wrapper interpolates
toward the exploring inner optimizer every k steps.

Every update runs in place, chunk by chunk: each parameter and its state
are walked as flat row-major arrays in slices of CHUNK elements, and each
slice goes through the whole rule with numpy ufuncs writing into two
chunk-sized scratch buffers, so no step allocates a full-size temporary
and a slice's operands stay in cache between ufuncs. Each element gets
the textbook formula's operations in the textbook order, so the results
are the same bits as the whole-array expressions. Training hands every
parameter a row-major gradient (stacked_matmul gives a weight's gradient
the weight's own layout), so none is copied; a gradient that is not
row-major, from a caller that builds one, is first copied to row-major
in square blocks.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

# elements per slice of an update; a slice of each operand the rule
# touches together (parameter, two moments, gradient, two scratch) fits
# in a core's L2 cache
CHUNK = 16384
# side of the square blocks in which a gradient is copied to row-major
COPY_BLOCK = 256


class Adam:
    """Adaptive moments with bias correction; optional L2 term in the grad.

    The update runs in place, chunk by chunk, and gives the same bits as
    the textbook formulas (see the module docstring); a gradient that is
    not row-major is copied to row-major in blocks first."""

    def __init__(self, params: dict[str, ad.Tensor], lr: float,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = dict(params)
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} is not C-contiguous")
        self.lr = float(lr)
        self.beta1, self.beta2 = (float(b) for b in betas)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        # two scratch slices and a zero slice standing in for a missing grad
        self._scratch = np.zeros((3, CHUNK))
        self._rows = np.empty(max((p.data.size for p in self.params.values()),
                                  default=0))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _flat_grad(self, p: ad.Tensor) -> np.ndarray | None:
        """p.grad as a flat row-major array (None when there is none)."""
        g = p.grad
        if g is None:
            return None
        if g.flags.c_contiguous:
            return g.reshape(-1)
        rows = self._rows[: g.size].reshape(g.shape)
        if g.ndim == 2:
            for i in range(0, g.shape[0], COPY_BLOCK):
                for j in range(0, g.shape[1], COPY_BLOCK):
                    rows[i:i + COPY_BLOCK, j:j + COPY_BLOCK] = \
                        g[i:i + COPY_BLOCK, j:j + COPY_BLOCK]
        else:
            rows[...] = g
        return rows.reshape(-1)

    def _update(self, scale: float, adaptive: bool) -> None:
        """One step over every parameter, slice by slice:
        g += wd * x; m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; then
        x -= scale * mhat / (sqrt(vhat) + eps), or x -= scale * mhat when
        not `adaptive`."""
        b1, b2, wd, eps = self.beta1, self.beta2, self.weight_decay, self.eps
        c1, c2 = 1.0 - b1, 1.0 - b2
        bias1, bias2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        a, b, zeros = self._scratch
        for name, p in self.params.items():
            x = p.data.reshape(-1)
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            g = self._flat_grad(p)
            for lo in range(0, x.size, CHUNK):
                xc, mc, vc = (x[lo:lo + CHUNK], m[lo:lo + CHUNK],
                              v[lo:lo + CHUNK])
                ac, bc = a[: xc.size], b[: xc.size]
                gc = zeros[: xc.size] if g is None else g[lo:lo + CHUNK]
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

    def step(self) -> None:
        self.t += 1
        self._update(self.lr, adaptive=True)


class RAdam(Adam):
    """Rectified adaptive moments: variance-aware trust ratio with an
    un-adapted momentum fallback for the first few steps."""

    def step(self) -> None:
        self.t += 1
        b2 = self.beta2
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
    """Slow/fast weight wrapper: every k inner steps the slow weights move
    a fraction alpha toward the fast ones, and the fast weights reset."""

    def __init__(self, inner, k: int = 5, alpha: float = 0.5):
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.inner = inner
        self.k = int(k)
        self.alpha = float(alpha)
        self.t = 0
        self.slow = {name: p.data.copy() for name, p in inner.params.items()}
        self._scratch = np.empty(CHUNK)

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
        if self.t % self.k == 0:
            # slow += alpha * (fast - slow); fast = slow, slice by slice
            for name, p in self.inner.params.items():
                x, s = p.data.reshape(-1), self.slow[name].reshape(-1)
                for lo in range(0, x.size, CHUNK):
                    xc, sc = x[lo:lo + CHUNK], s[lo:lo + CHUNK]
                    d = self._scratch[: xc.size]
                    np.subtract(xc, sc, out=d)
                    np.multiply(d, self.alpha, out=d)
                    np.add(sc, d, out=sc)
                    xc[...] = sc


def build_optimizer(kind: str, params: dict[str, ad.Tensor], lr: float,
                    weight_decay: float = 0.0, lookahead_k: int = 5,
                    lookahead_alpha: float = 0.5):
    """Construct one of the supported update rules by name."""
    if kind == "adam":
        return Adam(params, lr=lr, weight_decay=weight_decay)
    if kind == "radam":
        return RAdam(params, lr=lr, weight_decay=weight_decay)
    if kind == "lookahead_radam":
        return Lookahead(RAdam(params, lr=lr, weight_decay=weight_decay),
                         k=lookahead_k, alpha=lookahead_alpha)
    raise ValueError(f"unknown optimizer {kind!r}")
