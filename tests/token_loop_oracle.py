"""The recurrent model's forward, backward and decoding passes written one
position at a time: every matrix-vector product, outer product and gradient
accumulation happens inside the token loop.

compsum.model and compsum.training take the input projections, input
gradients and weight gradients out of that loop.  The tests in
``test_token_loop.py`` require them to reproduce these passes bit for bit.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from compsum.corpus import BOS, EOS, PAD, Chunk
from compsum.model import (
    AblationFlags,
    ForwardTrace,
    MemoryUpdateTrace,
    ModelParams,
    _chunk_layout,
    softmax,
)
from compsum.training import Gradients, _memory_update_backward


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """Sigmoid evaluated separately on each sign to avoid overflow in exp."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def cell(
    params: ModelParams, h_prev: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One cell step; returns (h, z, r, h_cand)."""
    t = params.tensors
    z = masked_sigmoid(t["W_z"] @ x + t["U_z"] @ h_prev + t["b_z"])
    r = masked_sigmoid(t["W_r"] @ x + t["U_r"] @ h_prev + t["b_r"])
    h_cand = np.tanh(t["W_h"] @ x + t["U_h"] @ (r * h_prev) + t["b_h"])
    h = (1.0 - z) * h_prev + z * h_cand
    return h, z, r, h_cand


def memory_update(
    params: ModelParams,
    span: tuple[int, int],
    mem_prev: np.ndarray,
    hiddens: np.ndarray,
) -> MemoryUpdateTrace:
    t = params.tensors
    q = t["W_q"] @ mem_prev
    ks = hiddens @ t["W_k"].T
    vs = hiddens @ t["W_v"].T
    alpha = softmax(ks @ q / np.sqrt(params.d))
    attended = alpha @ vs
    gate = masked_sigmoid(t["W_g"] @ np.concatenate([mem_prev, attended]) + t["b_g"])
    mem_new = (1.0 - gate) * mem_prev + gate * attended
    return MemoryUpdateTrace(span, mem_prev, q, ks, vs, alpha, attended, gate, mem_new)


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
    region_mems: list[np.ndarray] = []
    updates: list[MemoryUpdateTrace] = []
    mem = np.zeros(d)
    h = np.zeros(d)
    for start, end in region_spans:
        region_mems.append(mem)
        for p in range(start, end):
            tok = input_ids[p]
            x = t["E"][tok] + mem if memory_on else t["E"][tok]
            h, z, r, h_cand = cell(params, h, x)
            xs[p], hs[p], zs[p], rs[p], h_cands[p] = x, h, z, r, h_cand
        if memory_on and end < S:
            update = memory_update(params, (start, end), mem, hs[start:end])
            updates.append(update)
            mem = update.mem_new
    logits = hs[logits_start:] @ t["W_o"].T + t["b_o"][None, :]
    return ForwardTrace(
        list(input_ids), list(region_spans), xs, hs, zs, rs, h_cands,
        region_mems, updates, logits, logits_start, memory_on,
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
    memory_on = trace.memory_enabled
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
            update = trace.updates[ri - 1]
            us, ue = update.span
            d_mem, d_hiddens = _memory_update_backward(
                params, update, trace.hs[us:ue], d_mem, grads
            )
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
            mem = memory_update(params, (start, end), mem, hiddens).mem_new
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
