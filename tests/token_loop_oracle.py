"""The recurrent model's forward, backward and decoding passes written one
position at a time: every matrix-vector product, outer product and gradient
accumulation happens inside the token loop.

compsum.model and compsum.training take the input projections, input
gradients and weight gradients, the memory updates' weight gradients among
them, out of that loop.  The tests in
``test_token_loop.py`` require them to reproduce the forward and decoding
passes bit for bit, and the gradients to rtol 1e-12.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from compsum.corpus import BOS, EOS, PAD, Chunk
from compsum.model import (
    AblationFlags,
    ForwardTrace,
    MemoryTrace,
    ModelParams,
    _chunk_layout,
    softmax,
)
from compsum.training import Gradients


def clipped_sigmoid(x: np.ndarray) -> np.ndarray:
    """Sigmoid of x clipped below at -700, where exp(-x) stays finite."""
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -700.0)))


def cell(
    params: ModelParams, h_prev: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One cell step; returns (h, z, r, h_cand)."""
    t = params.tensors
    d = params.d
    # U_z h and U_r h as one product of the stacked (2d, d) matrix
    u_zr = np.concatenate([t["U_z"], t["U_r"]]) @ h_prev
    z = clipped_sigmoid(u_zr[:d] + (t["W_z"] @ x + t["b_z"]))
    r = clipped_sigmoid(u_zr[d:] + (t["W_r"] @ x + t["b_r"]))
    h_cand = np.tanh(t["U_h"] @ (r * h_prev) + (t["W_h"] @ x + t["b_h"]))
    h = h_prev + z * (h_cand - h_prev)
    return h, z, r, h_cand


def memory_update(
    params: ModelParams, mem_prev: np.ndarray, hiddens: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(q, ks, vs, alpha, attended, gate, mem_new) of one memory update."""
    t = params.tensors
    q = t["W_q"] @ mem_prev
    ks = hiddens @ t["W_k"].T
    vs = hiddens @ t["W_v"].T
    alpha = softmax(ks @ q / np.sqrt(params.d))
    attended = alpha @ vs
    gate = clipped_sigmoid(t["W_g"] @ np.concatenate([mem_prev, attended]) + t["b_g"])
    mem_new = (1.0 - gate) * mem_prev + gate * attended
    return q, ks, vs, alpha, attended, gate, mem_new


def memory_update_backward(
    params: ModelParams,
    trace: ForwardTrace,
    i: int,
    d_new: np.ndarray,
    grads: Gradients,
) -> tuple[np.ndarray, np.ndarray]:
    """Backprop the memory update that folds region i into the memory;
    returns (d_mem_prev, d_hiddens) for the memory in effect in region i and
    that region's hidden states."""
    t = params.tensors
    d = params.d
    m = trace.memory
    start, end = trace.region_spans[i]
    mem_prev, attended, gate = m.mems[i], m.attended[i], m.gates[i]
    alpha, ks, vs = m.alphas[start:end], m.ks[start:end], m.vs[start:end]
    hiddens = trace.hs[start:end]
    dg = d_new * (attended - mem_prev)
    d_att = d_new * gate
    d_mem_prev = d_new * (1.0 - gate)
    dg_pre = dg * gate * (1.0 - gate)
    grads["W_g"] += np.outer(dg_pre, np.concatenate([mem_prev, attended]))
    grads["b_g"] += dg_pre
    du = t["W_g"].T @ dg_pre
    d_mem_prev += du[:d]
    d_att = d_att + du[d:]
    dalpha = vs @ d_att
    dvs = np.outer(alpha, d_att)
    dscores = alpha * (dalpha - alpha @ dalpha)
    inv_sqrt_d = 1.0 / np.sqrt(d)
    dq = (ks.T @ dscores) * inv_sqrt_d
    dks = np.outer(dscores, m.qs[i]) * inv_sqrt_d
    grads["W_q"] += np.outer(dq, mem_prev)
    d_mem_prev += t["W_q"].T @ dq
    grads["W_k"] += dks.T @ hiddens
    grads["W_v"] += dvs.T @ hiddens
    d_hiddens = dks @ t["W_k"] + dvs @ t["W_v"]
    return d_mem_prev, d_hiddens


def run_stream(
    params: ModelParams,
    input_ids: Sequence[int],
    region_spans: Sequence[tuple[int, int]],
    memory_on: bool,
    logits_start: int,
) -> ForwardTrace:
    S = len(input_ids)
    d = params.d
    t = params.tensors
    xs = np.zeros((S, d))
    hs = np.zeros((S, d))
    zs = np.zeros((S, d))
    rs = np.zeros((S, d))
    h_cands = np.zeros((S, d))
    R, n = len(region_spans), region_spans[-1][0]
    mems = np.zeros((R, d))
    qs, attended, gates = np.zeros((R - 1, d)), np.zeros((R - 1, d)), np.zeros((R - 1, d))
    ks, vs, alphas = np.zeros((n, d)), np.zeros((n, d)), np.zeros(n)
    mem = np.zeros(d)
    h = np.zeros(d)
    for i, (start, end) in enumerate(region_spans):
        mems[i] = mem
        for p in range(start, end):
            tok = input_ids[p]
            x = t["E"][tok] + mem if memory_on else t["E"][tok]
            h, z, r, h_cand = cell(params, h, x)
            xs[p], hs[p], zs[p], rs[p], h_cands[p] = x, h, z, r, h_cand
        if memory_on and end < S:
            (qs[i], ks[start:end], vs[start:end], alphas[start:end], attended[i], gates[i],
             mem) = memory_update(params, mem, hs[start:end])
    memory = MemoryTrace(mems, qs, ks, vs, alphas, attended, gates) if memory_on else None
    logits = hs[logits_start:] @ t["W_o"].T + t["b_o"][None, :]
    return ForwardTrace(
        list(input_ids), list(region_spans), xs, hs, zs, rs, h_cands,
        memory, logits, logits_start,
    )


def backward_stream(
    params: ModelParams,
    trace: ForwardTrace,
    grads: Gradients,
    dlogits: np.ndarray | None = None,
    dh_seeds: np.ndarray | None = None,
) -> None:
    t = params.tensors
    d = params.d
    S = len(trace.input_ids)
    dhs = np.zeros((S, d))
    if dh_seeds is not None:
        dhs += dh_seeds
    if dlogits is not None:
        start = trace.logits_start
        grads["W_o"] += dlogits.T @ trace.hs[start:]
        grads["b_o"] += dlogits.sum(axis=0)
        dhs[start:] += dlogits @ t["W_o"]
    memory_on = trace.memory is not None
    d_mem = np.zeros(d)
    dh_carry = np.zeros(d)
    dE = grads["E"]
    for ri in range(len(trace.region_spans) - 1, -1, -1):
        start, end = trace.region_spans[ri]
        for p in range(end - 1, start - 1, -1):
            dh = dhs[p] + dh_carry
            z = trace.zs[p]
            r = trace.rs[p]
            h_cand = trace.h_cands[p]
            h_prev = trace.hs[p - 1] if p > 0 else np.zeros(d)
            x = trace.xs[p]
            dz = dh * (h_cand - h_prev)
            dh_prev = dh * (1.0 - z)
            da_h = (dh * z) * (1.0 - h_cand * h_cand)
            uh_t_da = t["U_h"].T @ da_h
            dr = uh_t_da * h_prev
            dh_prev += uh_t_da * r
            da_z = dz * z * (1.0 - z)
            da_r = dr * r * (1.0 - r)
            grads["W_h"] += np.outer(da_h, x)
            grads["U_h"] += np.outer(da_h, r * h_prev)
            grads["b_h"] += da_h
            grads["W_z"] += np.outer(da_z, x)
            grads["U_z"] += np.outer(da_z, h_prev)
            grads["b_z"] += da_z
            grads["W_r"] += np.outer(da_r, x)
            grads["U_r"] += np.outer(da_r, h_prev)
            grads["b_r"] += da_r
            dh_prev += t["U_z"].T @ da_z + t["U_r"].T @ da_r
            dx = t["W_z"].T @ da_z + t["W_r"].T @ da_r + t["W_h"].T @ da_h
            dE[trace.input_ids[p]] += dx
            if memory_on:
                d_mem += dx
            dh_carry = dh_prev
        if memory_on and ri > 0:
            d_mem, d_hiddens = memory_update_backward(params, trace, ri - 1, d_mem, grads)
            us, ue = trace.region_spans[ri - 1]
            dhs[us:ue] += d_hiddens


def decode(
    params: ModelParams,
    context_chunks: Sequence[Chunk],
    max_len: int,
    flags: AblationFlags | None,
    pick: Callable[[np.ndarray], int],
) -> list[int]:
    memory_on = flags is None or not flags.disable_memory
    context, spans = _chunk_layout(context_chunks)
    t = params.tensors
    mem = np.zeros(params.d)
    h = np.zeros(params.d)
    for start, end in spans:
        hiddens = np.zeros((end - start, params.d))
        for p in range(start, end):
            x = t["E"][context[p]] + mem if memory_on else t["E"][context[p]]
            h = cell(params, h, x)[0]
            hiddens[p - start] = h
        if memory_on:
            mem = memory_update(params, mem, hiddens)[-1]
    out: list[int] = []
    while len(out) < max_len:
        logits = t["W_o"] @ h + t["b_o"]
        logits[PAD] = -np.inf
        logits[BOS] = -np.inf
        tok = pick(logits)
        if tok == EOS:
            break
        out.append(tok)
        x = t["E"][tok] + mem if memory_on else t["E"][tok]
        h = cell(params, h, x)[0]
    return out


def sampler(V: int, temperature: float, seed: int) -> Callable[[np.ndarray], int]:
    """A pick for ``decode`` that draws each token from
    softmax((logits - max) / temperature) with one generator seeded by seed."""
    rng = np.random.default_rng(seed)
    return lambda logits: int(rng.choice(V, p=softmax((logits - logits.max()) / temperature)))
