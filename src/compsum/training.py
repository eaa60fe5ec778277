"""Losses, exact backpropagation, optimizer, and the two training stages.

The scalar objective per example is ``l_stage = l_gen + lambda * l_comp``:
mean next-token cross-entropy plus a weighted contrastive term that pulls the
encodings of per-paper insight fragments toward the encoding of the reference
summary.  Gradients are hand-derived reverse-mode passes over the recorded
forward traces and are verified against central finite differences by
:func:`finite_difference_check`.

Stage one (``train_pretrain``) is next-token MLE over the flattened
context+summary stream; stage two (``train_comparative``) teacher-forces the
summary given the context and adds the contrastive term.  Both stages run one
example per optimizer step, which keeps training bitwise reproducible from
(seed, config, data).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .corpus import PAD, PaperSet, Vocabulary, assemble_context, chunk
from .errors import (
    ConfigError,
    EmptyCorpus,
    EmptyInput,
    EmptySet,
    LengthMismatch,
    MissingInsights,
    NonFiniteTraining,
    ShapeMismatch,
    StaleTrace,
)
from .model import (
    AblationFlags,
    ForwardTrace,
    MemoryUpdateTrace,
    ModelParams,
    _encode_traced,
    _matvec_rows,
    _run_stream,
    forward,
    init_params,
    softmax,
)

logger = logging.getLogger(__name__)

Gradients = dict[str, np.ndarray]


# --- loss values -----------------------------------------------------------


@dataclass
class LossBreakdown:
    """Per-example loss report.  ``l_stage = l_gen + lam * l_comp`` in that
    exact summation order; ``lam == 0`` makes l_stage bitwise equal l_gen."""

    l_gen: float
    l_comp: float
    lam: float
    l_stage: float
    token_count: int


def stage_loss(l_gen: float, l_comp: float, lam: float, token_count: int = 1) -> LossBreakdown:
    """Combine the generation and contrastive terms at weight lam."""
    l_stage = l_gen if lam == 0.0 else l_gen + lam * l_comp
    return LossBreakdown(l_gen, l_comp, lam, l_stage, token_count)


def total_loss(l_pretrain: float, l_comparative: float) -> float:
    """Reporting aggregate over the two training stages."""
    return l_pretrain + l_comparative


def _ce_rows(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross-entropy and softmax probabilities, stably."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    denom = ex.sum(axis=1)
    probs = ex / denom[:, None]
    rows = np.arange(len(targets))
    ce = np.log(denom) - shifted[rows, targets]
    return ce, probs


def _generation_loss_and_dlogits(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray, int]:
    if logits.shape[0] != len(targets):
        raise LengthMismatch(
            f"{logits.shape[0]} logit rows for {len(targets)} target positions"
        )
    counted = targets != PAD
    n = int(counted.sum())
    if n == 0:
        raise EmptySet("every target position is PAD")
    ce, probs = _ce_rows(logits, targets)
    loss = float(ce[counted].sum() / n)
    dlogits = probs
    dlogits[np.arange(len(targets)), targets] -= 1.0
    dlogits[~counted] = 0.0
    dlogits /= n
    return loss, dlogits, n


def generation_loss(trace: ForwardTrace, targets: Sequence[int]) -> float:
    """Mean cross-entropy (nats/token) of the trace's logits against targets;
    PAD target positions are excluded from the mean."""
    return _generation_loss_and_dlogits(trace.logits, np.asarray(targets))[0]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a, b) / (|a| |b| + 1e-8); 0 when either vector is all-zero."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"cosine inputs differ in shape: {a.shape} vs {b.shape}")
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-8))


def _cosine_backward(
    a: np.ndarray, b: np.ndarray, dc: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of dc * cosine_similarity(a, b) w.r.t. a and b."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return np.zeros_like(a), np.zeros_like(b)
    denom = na * nb + 1e-8
    c = (a @ b) / denom
    da = dc * (b - c * (nb / na) * a) / denom
    db = dc * (a - c * (na / nb) * b) / denom
    return da, db


def _lse(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + float(np.log(np.exp(x - m).sum()))


def _contrastive_parts(
    sims: np.ndarray, neg_sims: np.ndarray | None
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Loss and gradients w.r.t. the similarity values.

    Without negatives: L = n * logsumexp(sims) - sum(sims), the softmax
    cross-entropy where each insight is scored against all insights of the
    same example; dL/dsims = n * softmax(sims) - 1.  With an (n, m) matrix of
    extra negative similarities, row i extends the denominator of term i.
    """
    n = len(sims)
    if neg_sims is None or neg_sims.size == 0:
        loss = n * _lse(sims) - float(sims.sum())
        dsims = n * softmax(sims) - 1.0
        return loss, dsims, None
    loss = 0.0
    dsims = np.zeros(n)
    dnegs = np.zeros_like(neg_sims)
    for i in range(n):
        ext = np.concatenate([sims, neg_sims[i]])
        loss += _lse(ext) - float(sims[i])
        p = softmax(ext)
        dsims += p[:n]
        dnegs[i] = p[n:]
    dsims -= 1.0
    return loss, dsims, dnegs


def comparative_loss(
    insight_vecs: Sequence[np.ndarray],
    ref_vec: np.ndarray,
    negative_refs: Sequence[np.ndarray] = (),
) -> float:
    """Contrastive loss over cosine similarities of each insight encoding to
    the reference-summary encoding.

    L = -sum_i log(exp(s_i) / sum_j exp(s_j)), s_i = cos(C_i, ref);
    log-sum-exp is max-stabilized.  n = 1 gives exactly 0; for fixed n the
    minimum n*ln(n) is attained iff all similarities are equal.
    ``negative_refs`` optionally adds encodings of other examples' reference
    summaries to every denominator.
    """
    if len(insight_vecs) == 0:
        raise EmptySet("contrastive loss needs at least one insight vector")
    sims = np.array([cosine_similarity(v, ref_vec) for v in insight_vecs])
    neg = None
    if negative_refs:
        neg = np.array(
            [[cosine_similarity(v, nr) for nr in negative_refs] for v in insight_vecs]
        )
    return _contrastive_parts(sims, neg)[0]


# --- backward pass ---------------------------------------------------------


@dataclass
class LossSpec:
    """Which loss terms ``backward`` differentiates, and their weights.

    ``targets`` enables the generation term over the trace's logits.
    ``insights``/``ref_tokens`` enable the contrastive term at weight ``lam``
    (their encoding passes are recomputed inside backward).  ``scale``
    multiplies the whole objective.
    """

    targets: Sequence[int] | None = None
    lam: float = 0.0
    insights: Sequence[Sequence[int]] | None = None
    ref_tokens: Sequence[int] | None = None
    negative_refs: Sequence[Sequence[int]] = ()
    scale: float = 1.0


def _check_trace(trace: ForwardTrace, params: ModelParams) -> None:
    if trace.hs.shape[1] != params.d or trace.logits.shape[1] != params.V:
        raise StaleTrace(
            f"trace built for d={trace.hs.shape[1]}, V={trace.logits.shape[1]}; "
            f"params have d={params.d}, V={params.V}"
        )


def _memory_update_backward(
    params: ModelParams,
    update: MemoryUpdateTrace,
    hiddens: np.ndarray,
    d_new: np.ndarray,
    grads: Gradients,
) -> tuple[np.ndarray, np.ndarray]:
    """Backprop one memory update; returns (d_mem_prev, d_hiddens)."""
    t = params.tensors
    d = params.d
    dg = d_new * (update.attended - update.mem_prev)
    d_att = d_new * update.gate
    d_mem_prev = d_new * (1.0 - update.gate)
    dg_pre = dg * update.gate * (1.0 - update.gate)
    grads["W_g"] += np.outer(dg_pre, np.concatenate([update.mem_prev, update.attended]))
    grads["b_g"] += dg_pre
    du = t["W_g"].T @ dg_pre
    d_mem_prev += du[:d]
    d_att = d_att + du[d:]
    dalpha = update.vs @ d_att
    dvs = np.outer(update.alpha, d_att)
    dscores = update.alpha * (dalpha - update.alpha @ dalpha)
    inv_sqrt_d = 1.0 / np.sqrt(d)
    dq = (update.ks.T @ dscores) * inv_sqrt_d
    dks = np.outer(dscores, update.q) * inv_sqrt_d
    grads["W_q"] += np.outer(dq, update.mem_prev)
    d_mem_prev += t["W_q"].T @ dq
    grads["W_k"] += dks.T @ hiddens
    grads["W_v"] += dvs.T @ hiddens
    d_hiddens = dks @ t["W_k"] + dvs @ t["W_v"]
    return d_mem_prev, d_hiddens


# Positions per batch of (d, d) outer products in ``_backward_stream``, which
# bounds their buffer to _OUTER_BLOCK * d * d floats (128 KB at d = 32).  On
# the default pipeline, 16 positions raised peak RSS over a position-by-
# position backward by about 0.25 MB; 32 positions raised it by about
# 0.45 MB for a 5% faster backward pass.
_OUTER_BLOCK = 16


def _add_in_order(acc: np.ndarray, terms: np.ndarray) -> None:
    """``for term in terms: acc += term``, with that loop's roundings, in one
    reduction; ``terms`` is overwritten.

    numpy sums along axis 0 row after row, so the result is bitwise that of
    the loop; a reduction over rows of one element would be summed pairwise.
    """
    if acc.size == 1:
        for term in terms:
            acc += term
        return
    terms[0] += acc
    np.sum(terms, axis=0, out=acc)


def _backward_stream(
    params: ModelParams,
    trace: ForwardTrace,
    grads: Gradients,
    dlogits: np.ndarray | None = None,
    dh_seeds: np.ndarray | None = None,
) -> None:
    """Accumulate exact gradients of a scalar that feeds ``dlogits`` into the
    trace's logits and/or ``dh_seeds`` into its hidden states.

    Sweeps full depth (no truncation): regions last-to-first, positions
    last-to-first, backing through each memory update into the previous
    region's hidden states and the prior memory.  Only the hidden-state
    chain runs position by position; the input and weight gradients are
    formed afterwards from the stored gate gradients and summed in the
    sweep's order, so they equal a per-position accumulation bit for bit.
    """
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
    ids = np.asarray(trace.input_ids)
    zs, rs, h_cands = trace.zs, trace.rs, trace.h_cands
    h_prevs = np.zeros((S, d))
    h_prevs[1:] = trace.hs[:-1]
    U_h_T, U_z_T, U_r_T = t["U_h"].T, t["U_z"].T, t["U_r"].T
    da_z = np.empty((S, d))
    da_r = np.empty((S, d))
    da_h = np.empty((S, d))
    d_mem = np.zeros(d)
    dh_carry = np.zeros(d)
    for ri in range(len(trace.region_spans) - 1, -1, -1):
        start, end = trace.region_spans[ri]
        region = slice(start, end)
        # Factors of the chain rule that depend on the forward pass alone.
        one_minus_z = 1.0 - zs[region]
        one_minus_r = 1.0 - rs[region]
        tanh_slope = 1.0 - h_cands[region] * h_cands[region]
        cand_minus_prev = h_cands[region] - h_prevs[region]
        for i in range(end - start - 1, -1, -1):
            p = start + i
            dh = dhs[p] + dh_carry
            z = zs[p]
            r = rs[p]
            dz = dh * cand_minus_prev[i]
            dh_prev = dh * one_minus_z[i]
            a_h = (dh * z) * tanh_slope[i]
            uh_t_da = U_h_T @ a_h
            dr = uh_t_da * h_prevs[p]
            dh_prev += uh_t_da * r
            a_z = dz * z * one_minus_z[i]
            a_r = dr * r * one_minus_r[i]
            dh_prev += U_z_T @ a_z + U_r_T @ a_r
            da_z[p], da_r[p], da_h[p] = a_z, a_r, a_h
            dh_carry = dh_prev
        dx = (
            _matvec_rows(t["W_z"].T, da_z[region])
            + _matvec_rows(t["W_r"].T, da_r[region])
            + _matvec_rows(t["W_h"].T, da_h[region])
        )[::-1]
        np.add.at(grads["E"], ids[region][::-1], dx)
        if memory_on:
            _add_in_order(d_mem, dx.copy())
            if ri > 0:
                update = trace.updates[ri - 1]
                us, ue = update.span
                d_mem, d_hiddens = _memory_update_backward(
                    params, update, trace.hs[us:ue], d_mem, grads
                )
                dhs[us:ue] += d_hiddens
    # The weight gradients sum over positions S-1 ... 0, the order of the
    # sweep, so every array from here on is read backwards.
    xs = trace.xs[::-1]
    h_prevs, rh_prevs = h_prevs[::-1], (rs * h_prevs)[::-1]
    da_z, da_r, da_h = da_z[::-1], da_r[::-1], da_h[::-1]
    outer_terms = (
        ("W_h", da_h, xs), ("U_h", da_h, rh_prevs),
        ("W_z", da_z, xs), ("U_z", da_z, h_prevs),
        ("W_r", da_r, xs), ("U_r", da_r, h_prevs),
    )
    products = np.empty((min(S, _OUTER_BLOCK), d, d))
    for lo in range(0, S, _OUTER_BLOCK):
        block = slice(lo, lo + _OUTER_BLOCK)
        out = products[: min(_OUTER_BLOCK, S - lo)]
        for name, rows, cols in outer_terms:
            _add_in_order(grads[name], np.einsum("pi,pj->pij", rows[block], cols[block], out=out))
    for name, rows in (("b_h", da_h), ("b_z", da_z), ("b_r", da_r)):
        _add_in_order(grads[name], rows.copy())


def _comparative_backward(
    params: ModelParams,
    insights: Sequence[Sequence[int]],
    ref_tokens: Sequence[int],
    negative_refs: Sequence[Sequence[int]],
    weight: float,
    grads: Gradients,
) -> float:
    """Contrastive term: encode, differentiate through the similarities, and
    backprop ``weight`` times the loss through every encoding pass.  Returns
    the (unweighted) loss value."""
    if not insights:
        raise EmptySet("contrastive loss needs at least one insight sequence")
    ins = [_encode_traced(params, seq) for seq in insights]
    ref_trace, e_ref = _encode_traced(params, ref_tokens)
    negs = [_encode_traced(params, seq) for seq in negative_refs]
    sims = np.array([cosine_similarity(e, e_ref) for _, e in ins])
    neg_sims = None
    if negs:
        neg_sims = np.array(
            [[cosine_similarity(e, en) for _, en in negs] for _, e in ins]
        )
    loss, dsims, dnegs = _contrastive_parts(sims, neg_sims)
    d_ref = np.zeros(params.d)
    d_negs = [np.zeros(params.d) for _ in negs]
    for i, (trace, e) in enumerate(ins):
        de, db = _cosine_backward(e, e_ref, float(dsims[i]))
        d_ref += db
        if dnegs is not None:
            for j, (_, en) in enumerate(negs):
                da, dn = _cosine_backward(e, en, float(dnegs[i, j]))
                de += da
                d_negs[j] += dn
        _seed_encode_backward(params, trace, weight * de, grads)
    _seed_encode_backward(params, ref_trace, weight * d_ref, grads)
    for (trace, _), dn in zip(negs, d_negs):
        _seed_encode_backward(params, trace, weight * dn, grads)
    return loss


def _seed_encode_backward(
    params: ModelParams, trace: ForwardTrace, d_mean: np.ndarray, grads: Gradients
) -> None:
    """Backprop through a mean-of-hiddens encoding pass."""
    S = len(trace.input_ids)
    _backward_stream(params, trace, grads, dh_seeds=np.tile(d_mean / S, (S, 1)))


def backward(trace: ForwardTrace, params: ModelParams, loss_spec: LossSpec) -> Gradients:
    """Exact gradients of the selected scalar loss for every parameter tensor.

    The generation term is differentiated through the given trace, including
    the paths through every memory update into previous-region hidden states;
    the contrastive term re-runs its encoding passes internally.
    """
    _check_trace(trace, params)
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    if loss_spec.targets is not None:
        _, dlogits, _ = _generation_loss_and_dlogits(
            trace.logits, np.asarray(loss_spec.targets)
        )
        _backward_stream(params, trace, grads, dlogits=loss_spec.scale * dlogits)
    if loss_spec.lam != 0.0 and loss_spec.insights is not None:
        if loss_spec.ref_tokens is None:
            raise EmptyInput("contrastive term needs reference tokens")
        _comparative_backward(
            params,
            loss_spec.insights,
            loss_spec.ref_tokens,
            loss_spec.negative_refs,
            loss_spec.scale * loss_spec.lam,
            grads,
        )
    return grads


# --- finite-difference verification ---------------------------------------


def finite_difference_check(
    params: ModelParams,
    loss_fn: Callable[[ModelParams], float],
    grad_fn: Callable[[ModelParams], Gradients],
    eps: float = 1e-5,
    max_entries: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between grad_fn and central differences of loss_fn.

    Every parameter entry is probed ((L(t+eps) - L(t-eps)) / 2 eps), or a
    seeded random subsample of ``max_entries`` entries; relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).  Parameters are
    restored bitwise after probing.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    analytic = grad_fn(params)
    entries: list[tuple[str, int]] = []
    for name, tensor in params.tensors.items():
        entries.extend((name, i) for i in range(tensor.size))
    if max_entries is not None and max_entries < len(entries):
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[int(i)] for i in picked]
    worst = 0.0
    for name, flat_idx in entries:
        flat = params.tensors[name].reshape(-1)
        saved = flat[flat_idx]
        flat[flat_idx] = saved + eps
        up = loss_fn(params)
        flat[flat_idx] = saved - eps
        down = loss_fn(params)
        flat[flat_idx] = saved
        numeric = (up - down) / (2.0 * eps)
        a = float(analytic[name].reshape(-1)[flat_idx])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


@dataclass
class GradcheckProbe:
    """A fixed random model and example for verifying the backward pass."""

    params: ModelParams
    context_chunks: list
    targets: list[int]
    insights: list[list[int]]
    lam: float
    flags: AblationFlags

    def loss(self, params: ModelParams) -> float:
        trace = forward(params, self.context_chunks, self.targets, self.flags)
        l_gen = generation_loss(trace, self.targets)
        vecs = [_encode_traced(params, seq)[1] for seq in self.insights]
        ref_vec = _encode_traced(params, self.targets)[1]
        l_comp = comparative_loss(vecs, ref_vec)
        return stage_loss(l_gen, l_comp, self.lam, len(self.targets)).l_stage

    def grads(self, params: ModelParams) -> Gradients:
        trace = forward(params, self.context_chunks, self.targets, self.flags)
        spec = LossSpec(
            targets=self.targets, lam=self.lam,
            insights=self.insights, ref_tokens=self.targets,
        )
        return backward(trace, params, spec)


def gradcheck_probe(seed: int = 0) -> GradcheckProbe:
    """Standard probe: d=8, V=20, two context chunks, 12-token target, three
    insight fragments, lam=0.5, parameters large enough that no gradient
    entry sits below the finite-difference noise floor."""
    d, V, l_chunk, lam = 8, 20, 5, 0.5
    rng = np.random.default_rng(seed)
    # Scale 0.9 keeps every gradient entry, including the second-order-small
    # memory-path ones, well above the central-difference noise floor at
    # eps=1e-5 while staying clear of gate saturation.
    params = init_params(d, V, seed, scale=0.9)
    first = 7  # skip reserved ids so PAD never appears in targets
    context = [1] + list(rng.integers(first, V, size=9))
    targets = list(rng.integers(first, V, size=11)) + [2]
    insights = [list(rng.integers(first, V, size=5)) for _ in range(3)]
    return GradcheckProbe(
        params, chunk(context, l_chunk), targets, insights, lam, AblationFlags()
    )


# --- optimizer -------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators and the shared step counter."""

    step: int
    m: Gradients
    v: Gradients


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(
        0,
        {k: np.zeros_like(t) for k, t in params.tensors.items()},
        {k: np.zeros_like(t) for k, t in params.tensors.items()},
    )


def clip_gradients(grads: Gradients, max_norm: float = 5.0) -> float:
    """Scale all gradients in place so the global L2 norm is <= max_norm;
    returns the pre-clip norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def optimizer_step(
    params: ModelParams, grads: Gradients, opt_state: AdamState, config: "TrainConfig"
) -> None:
    """One Adam update in place; increments the step counter by 1."""
    for name, tensor in params.tensors.items():
        if name not in grads or grads[name].shape != tensor.shape:
            got = grads[name].shape if name in grads else None
            raise ShapeMismatch(f"gradient for '{name}' has shape {got}, want {tensor.shape}")
    opt_state.step += 1
    t = opt_state.step
    b1, b2 = config.adam_beta1, config.adam_beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name, g in grads.items():
        m = opt_state.m[name]
        v = opt_state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        params.tensors[name] -= config.learning_rate * (m / bias1) / (
            np.sqrt(v / bias2) + config.adam_eps
        )


# --- training loops --------------------------------------------------------


@dataclass
class TrainConfig:
    """Hyperparameters shared by both training stages."""

    stage: str = "pretrain"
    learning_rate: float = 0.005
    epochs: int = 3
    lam: float = 0.5
    l_chunk: int = 16
    d: int = 32
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    key_k: int = 2
    flags: AblationFlags = field(default_factory=AblationFlags)
    clip_norm: float = 5.0
    # Extra contrastive negatives drawn from other examples' reference
    # summaries (a rolling window of this many); 0 disables the variant.
    in_batch_negatives: int = 0


@dataclass
class StepRecord:
    """One training-log line."""

    step: int
    epoch: int
    l_gen: float
    l_comp: float
    lam: float
    l_stage: float

    def to_record(self) -> dict:
        return {
            "step": self.step,
            "epoch": self.epoch,
            "l_gen": self.l_gen,
            "l_comp": self.l_comp,
            "lambda": self.lam,
            "l_stage": self.l_stage,
        }


LogFn = Callable[[StepRecord], None]


def _apply_step(
    params: ModelParams,
    grads: Gradients,
    state: AdamState,
    config: TrainConfig,
    stage: str,
    step: int,
    loss: float,
) -> None:
    norm = clip_gradients(grads, config.clip_norm)
    if not (math.isfinite(loss) and math.isfinite(norm)):
        raise NonFiniteTraining(
            f"{stage} step {step}: loss {loss}, gradient norm {norm} (not finite)"
        )
    if norm > config.clip_norm:
        logger.info("step %d: clipped gradient norm %.3f -> %.1f", step, norm, config.clip_norm)
    optimizer_step(params, grads, state, config)


def _uniform_spans(length: int, l_chunk: int) -> list[tuple[int, int]]:
    return [(s, min(s + l_chunk, length)) for s in range(0, length, l_chunk)]


def _context_of(ps: PaperSet, config: TrainConfig, period_id: int | None) -> list[int]:
    return assemble_context(
        ps, config.key_k, period_id,
        include_key_elements=not config.flags.disable_key_extraction,
    )


def train_pretrain(
    corpus: Sequence[PaperSet],
    config: TrainConfig,
    vocab: Vocabulary,
    init: ModelParams | None = None,
    log_fn: LogFn | None = None,
) -> ModelParams:
    """Stage one: next-token MLE over each flattened context+summary stream.

    One Adam step per example, examples reshuffled each epoch from the config
    seed.  epochs=0 returns the (seeded or given) initialization unchanged.
    """
    if config.stage != "pretrain":
        raise ConfigError("stage", f"train_pretrain needs stage=pretrain, got '{config.stage}'")
    if len(corpus) == 0:
        raise EmptyCorpus("pretraining corpus is empty")
    params = init.copy() if init is not None else init_params(config.d, len(vocab), config.seed)
    state = init_adam_state(params)
    rng = np.random.default_rng(config.seed)
    period_id = vocab.id_of(".")
    memory_on = not config.flags.disable_memory
    streams = [_context_of(ps, config, period_id) + ps.ref_summary for ps in corpus]
    step = 0
    for epoch in range(1, config.epochs + 1):
        epoch_mean = 0.0
        for idx in rng.permutation(len(corpus)):
            stream = streams[int(idx)]
            inputs = stream[:-1]
            targets = np.asarray(stream[1:])
            trace = _run_stream(
                params, inputs, _uniform_spans(len(inputs), config.l_chunk), memory_on, 0
            )
            l_gen, dlogits, _ = _generation_loss_and_dlogits(trace.logits, targets)
            grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
            _backward_stream(params, trace, grads, dlogits=dlogits)
            step += 1
            _apply_step(params, grads, state, config, "pretrain", step, l_gen)
            epoch_mean += (l_gen - epoch_mean) / (step - (epoch - 1) * len(corpus))
            if log_fn is not None:
                log_fn(StepRecord(step, epoch, l_gen, 0.0, 0.0, l_gen))
        logger.info("pretrain epoch %d: mean loss %.6f nats/token", epoch, epoch_mean)
    return params


def train_comparative(
    dataset: Sequence[PaperSet],
    init: ModelParams,
    config: TrainConfig,
    vocab: Vocabulary,
    log_fn: LogFn | None = None,
) -> ModelParams:
    """Stage two: teacher-forced summary cross-entropy plus the weighted
    contrastive term, one Adam step per example.

    ``flags.disable_comparative`` forces the effective weight to zero, making
    the run exactly MLE fine-tuning.  Raises MissingInsights for an example
    with no non-empty insight while the weight is positive.
    """
    if config.stage != "comparative":
        raise ConfigError(
            "stage", f"train_comparative needs stage=comparative, got '{config.stage}'"
        )
    if len(dataset) == 0:
        raise EmptyCorpus("fine-tuning dataset is empty")
    lam = 0.0 if config.flags.disable_comparative else config.lam
    params = init.copy()
    state = init_adam_state(params)
    rng = np.random.default_rng(config.seed)
    period_id = vocab.id_of(".")
    contexts = [chunk(_context_of(ps, config, period_id), config.l_chunk) for ps in dataset]
    step = 0
    negative_pool: list[list[int]] = []
    for epoch in range(1, config.epochs + 1):
        epoch_mean = 0.0
        epoch_steps = 0
        for idx in rng.permutation(len(dataset)):
            ps = dataset[int(idx)]
            trace = forward(params, contexts[int(idx)], ps.ref_summary, config.flags)
            targets = np.asarray(ps.ref_summary)
            l_gen, dlogits, n_tok = _generation_loss_and_dlogits(trace.logits, targets)
            grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
            _backward_stream(params, trace, grads, dlogits=dlogits)
            l_comp = 0.0
            if lam != 0.0:
                insights = [doc.insight for doc in ps.docs if doc.insight]
                if not insights:
                    raise MissingInsights(
                        f"example '{ps.id}' has no non-empty insight but lambda > 0"
                    )
                negatives = list(negative_pool)
                l_comp = _comparative_backward(
                    params, insights, ps.ref_summary, negatives, lam, grads
                )
                if config.in_batch_negatives > 0:
                    negative_pool.append(list(ps.ref_summary))
                    del negative_pool[: -config.in_batch_negatives]
            breakdown = stage_loss(l_gen, l_comp, lam, n_tok)
            step += 1
            epoch_steps += 1
            _apply_step(params, grads, state, config, "comparative", step, breakdown.l_stage)
            epoch_mean += (breakdown.l_stage - epoch_mean) / epoch_steps
            if log_fn is not None:
                log_fn(StepRecord(step, epoch, l_gen, l_comp, lam, breakdown.l_stage))
        logger.info("comparative epoch %d: mean stage loss %.6f", epoch, epoch_mean)
    return params


def pretrain_config(config: TrainConfig) -> TrainConfig:
    return replace(config, stage="pretrain")


def comparative_config(config: TrainConfig) -> TrainConfig:
    return replace(config, stage="comparative")
