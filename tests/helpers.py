"""Shared test utilities: finite differences and small reference models."""

from __future__ import annotations

import numpy as np
import pytest

import audioret.blas as blas

needs_openblas = pytest.mark.skipif(
    blas.describe()["threads"] is None,
    reason="numpy does not run on its bundled OpenBLAS")


def drop_pools() -> None:
    """Shut down every worker pool blas.run_pinned has made and forget it,
    so that the next fan-out makes its pool and starts its thread anew.
    blas._pool(n) of a width never used makes a pool with no thread, which
    shuts down at once."""
    for workers in range(1, 65):
        blas._pool(workers).shutdown()
    blas._pool.cache_clear()


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f() w.r.t. array x.

    f must read x by reference (the array is perturbed in place).
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-relative error between two gradients."""
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def check_gradients(build_loss, params: dict[str, np.ndarray],
                    tol: float = 1e-4, h: float = 1e-5) -> None:
    """Assert analytic grads of build_loss() match finite differences.

    build_loss() must construct a fresh graph over Tensors that wrap the
    arrays in `params` by reference and return the scalar loss Tensor.
    """
    loss = build_loss()
    loss.backward()
    analytic = {}
    for name, leaf in params.items():
        assert leaf.grad is not None, f"no gradient reached {name}"
        analytic[name] = leaf.grad.copy()
        leaf.grad = None
    for name, leaf in params.items():
        numeric = finite_difference(lambda: build_loss().item(), leaf.data, h=h)
        if np.linalg.norm(analytic[name] - numeric) < 1e-7:
            continue  # both sides vanish (a structurally dead direction)
        err = relative_grad_error(analytic[name], numeric)
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3e}"


# -- plain-numpy reference blocks (independent of the autodiff path) ---


def ref_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def ref_netvlad(frames: np.ndarray, centers: np.ndarray, assign_w: np.ndarray,
                assign_b: np.ndarray, clusters: int, eps: float = 1e-12) -> np.ndarray:
    """Reference ghost-aware soft-assignment pooling, straight numpy."""
    order = np.lexsort(frames.T[::-1])
    x = frames[order]
    logits = x @ assign_w + assign_b
    assign = ref_softmax(logits, axis=1)[:, :clusters]
    vlad = assign.T @ x - assign.sum(axis=0)[:, None] * centers[:clusters]
    norms = np.sqrt((vlad * vlad).sum(axis=1, keepdims=True))
    vlad = vlad / np.maximum(norms, eps)
    flat = vlad.reshape(-1)
    return flat / max(np.linalg.norm(flat), eps)


def ref_gated_unit(x: np.ndarray, w1, b1, w2, b2, eps: float = 1e-12) -> np.ndarray:
    """Reference gated projection with L2 output normalization."""
    y1 = w1 @ x + b1
    y = y1 / (1.0 + np.exp(-(w2 @ y1 + b2)))
    return y / max(np.linalg.norm(y), eps)


def ref_cosine(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> float:
    na = max(np.linalg.norm(a), eps)
    nb = max(np.linalg.norm(b), eps)
    return float(a @ b) / (na * nb)


def _ref_netvlad_block(block, rows: np.ndarray) -> np.ndarray:
    return ref_netvlad(rows, block.centers.data, block.assign_w.data,
                       block.assign_b.data, block.clusters)


def _ref_unit(block, x: np.ndarray) -> np.ndarray:
    return ref_gated_unit(x, block.w1.data, block.b1.data,
                          block.w2.data, block.b2.data)


def _ref_mix(weights: np.ndarray, cosines: dict, present: list) -> float:
    num = sum(weights[i] * cosines[e] for i, e in present)
    den = sum(weights[i] for i, _ in present)
    return num / den


def ref_moee_score(model, tokens, token_mask, streams) -> float:
    """Plain-numpy recomposition of the mixture-of-experts score."""
    if token_mask is not None and token_mask.any():
        tokens = tokens[token_mask]
    tv = _ref_netvlad_block(model.text_vlad, np.asarray(tokens, dtype=float))
    weights = ref_softmax(model.weight_head.w.data @ tv + model.weight_head.b.data)
    cosines, present = {}, []
    for i, expert in enumerate(model.cfg.experts):
        if expert not in streams:
            continue
        av = _ref_netvlad_block(model.audio_vlad[expert],
                                np.asarray(streams[expert], dtype=float))
        t_e = _ref_unit(model.text_units[expert], tv)
        a_e = _ref_unit(model.audio_units[expert], av)
        cosines[expert] = ref_cosine(t_e, a_e)
        present.append((i, expert))
    return _ref_mix(weights, cosines, present)


def ref_ce_score(model, tokens, token_mask, streams) -> float:
    """Plain-numpy recomposition of the collaboratively gated score."""
    if token_mask is not None and token_mask.any():
        tokens = tokens[token_mask]
    tv = _ref_netvlad_block(model.text_vlad, np.asarray(tokens, dtype=float))
    weights = ref_softmax(model.weight_head.w.data @ tv + model.weight_head.b.data)
    pooled = {}
    for expert in model.cfg.experts:
        if expert in streams:
            pooled[expert] = _ref_netvlad_block(
                model.audio_vlad[expert], np.asarray(streams[expert], dtype=float))
    present_names = [e for e in model.cfg.experts if e in pooled]
    proj = {e: model.gate_in[e].w.data @ pooled[e] + model.gate_in[e].b.data
            for e in present_names}
    cosines, present = {}, []
    for i, expert in enumerate(model.cfg.experts):
        if expert not in pooled:
            continue
        partners = [p for p in present_names if p != expert] or [expert]
        msg = None
        for p in partners:
            h = np.maximum(
                model.pair_fc1.w.data @ np.concatenate([proj[expert], proj[p]])
                + model.pair_fc1.b.data, 0.0)
            term = model.pair_fc2.w.data @ h + model.pair_fc2.b.data
            msg = term if msg is None else msg + term
        logits = model.gate_out[expert].w.data @ msg + model.gate_out[expert].b.data
        gate = 1.0 / (1.0 + np.exp(-logits))
        t_e = _ref_unit(model.text_units[expert], tv)
        a_e = _ref_unit(model.audio_units[expert], pooled[expert] * gate)
        cosines[expert] = ref_cosine(t_e, a_e)
        present.append((i, expert))
    return _ref_mix(weights, cosines, present)


def _ref_layernorm(x: np.ndarray, gain, bias, eps: float = 1e-5) -> np.ndarray:
    mean = x.mean(axis=1, keepdims=True)
    centered = x - mean
    var = (centered ** 2).mean(axis=1, keepdims=True)
    return centered / np.sqrt(var + eps) * gain + bias


def ref_mmt_encode(model, streams) -> dict:
    """Plain-numpy transformer forward returning aggregation states."""
    pieces, agg_pos, cursor = [], {}, 0
    present = [e for e in model.cfg.experts if e in streams]
    for expert in present:
        value = streams[expert]
        rows, mask = (value if isinstance(value, tuple) else (value, None))
        rows = np.asarray(rows, dtype=float)
        if mask is not None:
            rows = rows[np.asarray(mask, dtype=bool)]
        seg = rows @ model.proj[expert].w.data.T + model.proj[expert].b.data \
            + model.type_emb[expert].data + model.pos.data[: rows.shape[0]]
        agg_pos[expert] = cursor
        pieces.append(model.agg[expert].data[None, :])
        pieces.append(seg)
        cursor += 1 + rows.shape[0]
    x = np.concatenate(pieces, axis=0)
    for block in model.blocks:
        h = _ref_layernorm(x, block.ln1_g.data, block.ln1_b.data)
        q = h @ block.wq.w.data.T + block.wq.b.data
        k = h @ block.wk.w.data.T + block.wk.b.data
        v = h @ block.wv.w.data.T + block.wv.b.data
        head_dim = block.dim // block.heads
        ctx = np.zeros_like(q)
        for head in range(block.heads):
            cols = slice(head * head_dim, (head + 1) * head_dim)
            scores = q[:, cols] @ k[:, cols].T / np.sqrt(head_dim)
            ctx[:, cols] = ref_softmax(scores, axis=1) @ v[:, cols]
        x = x + ctx @ block.wo.w.data.T + block.wo.b.data
        h2 = _ref_layernorm(x, block.ln2_g.data, block.ln2_b.data)
        ff = np.maximum(h2 @ block.ff1.w.data.T + block.ff1.b.data, 0.0)
        x = x + ff @ block.ff2.w.data.T + block.ff2.b.data
    return {e: x[agg_pos[e]] for e in present}


def ref_mmt_score(model, tokens, token_mask, streams) -> float:
    """Plain-numpy recomposition of the transformer retrieval score."""
    tokens = np.asarray(tokens, dtype=float)
    if token_mask is None:
        token_mask = np.ones(tokens.shape[0], dtype=bool)
    pooled = (tokens[token_mask].mean(axis=0) if token_mask.any()
              else np.zeros(tokens.shape[1]))
    weights = ref_softmax(model.weight_head.w.data @ pooled + model.weight_head.b.data)
    audio = ref_mmt_encode(model, streams)
    cosines, present = {}, []
    for i, expert in enumerate(model.cfg.experts):
        if expert not in audio:
            continue
        t_e = _ref_unit(model.text_units[expert], pooled)
        cosines[expert] = ref_cosine(t_e, audio[expert])
        present.append((i, expert))
    return _ref_mix(weights, cosines, present)
