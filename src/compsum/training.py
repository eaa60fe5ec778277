"""Losses, exact backpropagation, optimizer, and the two training stages.

The scalar objective per example is ``l_stage = l_gen + lambda * l_comp``:
mean next-token cross-entropy plus a weighted contrastive term over the
similarities s_i = cos(insight_i, ref) of the per-paper insight encodings to
the reference-summary encoding.  That term, n * logsumexp(s) - sum(s), does
not change when every s_i moves by one constant (its gradient in s sums to
0), so it pulls an example's similarities toward each other, not toward the
reference; with one insight it is 0.  Gradients are hand-derived
reverse-mode passes over the recorded forward traces and are verified
against central finite differences by :func:`finite_difference_check`.

Stage one (``train_pretrain``) is next-token MLE over the flattened
context+summary stream; stage two (``train_comparative``) teacher-forces the
summary given the context and adds the contrastive term.  Each stage lays
its examples out once and hands them to one loop, ``_train``; the stages
differ only in their examples' ``LossSpec``.  One example per optimizer step
keeps training bitwise reproducible from (seed, config, data).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .corpus import PAD, PaperSet, Vocabulary, chunk
from .errors import DataError, InvariantError
from .model import (
    ForwardTrace,
    Tensors,
    _chunk_layout,
    _encode_traced,
    _run_stream,
    _teacher_forced_layout,
    forward,
    init_params,
    model_context,
    softmax,
)

Gradients = Tensors


# --- loss values -----------------------------------------------------------


def stage_loss(l_gen: float, l_comp: float, lam: float) -> float:
    """``l_gen + lam * l_comp`` in that exact summation order; ``lam == 0``
    returns l_gen bitwise, even when l_comp is not finite."""
    return l_gen if lam == 0.0 else l_gen + lam * l_comp


def _generation_loss_and_dlogits(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    if logits.shape[0] != len(targets):
        raise InvariantError(
            f"{logits.shape[0]} logit rows for {len(targets)} target positions"
        )
    counted = targets != PAD
    n = int(counted.sum())
    if n == 0:
        raise InvariantError("every target position is PAD")
    # Per-row cross-entropy and softmax probabilities, stably.
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    denom = ex.sum(axis=1)
    dlogits = ex / denom[:, None]
    rows = np.arange(len(targets))
    ce = np.log(denom) - shifted[rows, targets]
    loss = float(ce[counted].sum() / n)
    dlogits[rows, targets] -= 1.0
    dlogits[~counted] = 0.0
    dlogits /= n
    return loss, dlogits


def generation_loss(trace: ForwardTrace, targets: Sequence[int]) -> float:
    """Mean cross-entropy (nats/token) of the trace's logits against targets;
    PAD target positions are excluded from the mean."""
    return _generation_loss_and_dlogits(trace.logits, np.asarray(targets))[0]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a, b) / (|a| |b| + 1e-8); 0 when either vector is all-zero."""
    if a.shape != b.shape:
        raise InvariantError(f"cosine inputs differ in shape: {a.shape} vs {b.shape}")
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-8))


def _contrastive_parts(
    vecs: Sequence[np.ndarray], ref: np.ndarray
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Loss and its gradients w.r.t. each of ``vecs`` and ``ref``.

    L = n * logsumexp(s) - sum(s) over the similarities s_i = cos(vecs[i], ref),
    the softmax cross-entropy where each insight is scored against all
    insights of the same example; dL/ds = n * softmax(s) - 1.
    """
    sims = np.array([cosine_similarity(v, ref) for v in vecs])
    n = len(sims)
    m = float(np.max(sims))
    lse = m + float(np.log(np.exp(sims - m).sum()))
    nb = np.linalg.norm(ref)
    d_vecs, d_ref = [], np.zeros_like(ref)
    for v, c, ds in zip(vecs, sims, n * softmax(sims) - 1.0):
        na = np.linalg.norm(v)
        if na == 0.0 or nb == 0.0:
            d_vecs.append(np.zeros_like(v))
            continue
        denom = na * nb + 1e-8
        d_vecs.append(ds * (ref - c * (nb / na) * v) / denom)
        d_ref += ds * (v - c * (na / nb) * ref) / denom
    return n * lse - float(sims.sum()), d_vecs, d_ref


def comparative_loss(insight_vecs: Sequence[np.ndarray], ref_vec: np.ndarray) -> float:
    """Contrastive loss over cosine similarities of each insight encoding to
    the reference-summary encoding.

    L = -sum_i log(exp(s_i) / sum_j exp(s_j)), s_i = cos(C_i, ref);
    log-sum-exp is max-stabilized.  n = 1 gives exactly 0; for fixed n the
    minimum n*ln(n) is attained iff all similarities are equal.
    """
    if len(insight_vecs) == 0:
        raise InvariantError("contrastive loss needs at least one insight vector")
    return _contrastive_parts(insight_vecs, ref_vec)[0]


# --- backward pass ---------------------------------------------------------


@dataclass
class LossSpec:
    """Which loss terms ``backward`` differentiates, and their weights.

    ``targets`` enables the generation term over the trace's logits.
    ``insights``/``ref_tokens`` enable the contrastive term at weight ``lam``
    (``_loss_terms`` runs their encoding passes, and the backward sweeps each
    of them as a stream of its own).
    """

    targets: Sequence[int] | None = None
    lam: float = 0.0
    insights: Sequence[Sequence[int]] | None = None
    ref_tokens: Sequence[int] | None = None


def _check_trace(trace: ForwardTrace, params: Tensors) -> None:
    if trace.hs.shape[1] != params.d or trace.logits.shape[1] != params.V:
        raise InvariantError(
            f"trace built for d={trace.hs.shape[1]}, V={trace.logits.shape[1]}; "
            f"params have d={params.d}, V={params.V}"
        )


def _backward_stream(
    params: Tensors,
    trace: ForwardTrace,
    grads: Gradients,
    dlogits: np.ndarray | None = None,
    dh_seeds: np.ndarray | None = None,
) -> None:
    """Accumulate exact gradients of a scalar that feeds ``dlogits`` into the
    trace's logits and/or ``dh_seeds`` into its hidden states.

    Sweeps full depth: regions and positions last-to-first, backing through
    each memory update into the previous region's hidden states and the
    prior memory.  Only the hidden-state chain runs position by position; it
    stores each position's gate gradients [da_z | da_r | da_h], and each
    memory update its gate and query gradients and its region's [dk | dv]
    rows.  The input gradients and every weight gradient take one matrix
    product per stream (Appleyard et al., arXiv:1604.01946).
    """
    d = params.d
    S = len(trace.input_ids)
    dhs = np.zeros((S, d))
    if dh_seeds is not None:
        dhs += dh_seeds
    if dlogits is not None:
        start = trace.logits_start
        grads["W_o"] += dlogits.T @ trace.hs[start:]
        grads["b_o"] += dlogits.sum(axis=0)
        dhs[start:] += dlogits @ params["W_o"]
    m = trace.memory
    # Without the memory no gradient crosses a region boundary other than
    # along the chain, so the whole stream is one region.
    spans = trace.region_spans if m is not None else [(0, S)]
    zs, rs, h_cands = trace.zs, trace.rs, trace.h_cands
    h_prevs = np.zeros((S, d))
    h_prevs[1:] = trace.hs[:-1]
    U_h_T, U_zr_T = params["U_h"].T, params.U_zr.T
    # Rows [da_z | da_r | da_h] start as the chain rule's factors that depend
    # on the forward pass alone, [C_z | C_r | A_h], and the sweep multiplies
    # them in place: a_h = dh * A_h, a_z = dh * C_z, a_r = (U_h^T a_h) * C_r.
    da = np.empty((S, 3 * d))
    da_z, da_r, da_h, da_zr = da[:, :d], da[:, d : 2 * d], da[:, 2 * d :], da[:, : 2 * d]
    one_minus_z = 1.0 - zs
    np.multiply((h_cands - h_prevs) * zs, one_minus_z, out=da_z)
    np.multiply(h_prevs * rs, 1.0 - rs, out=da_r)
    np.multiply(zs, 1.0 - h_cands * h_cands, out=da_h)
    if m is not None:
        # Update i blends mems[i + 1] = (1 - g) * mems[i] + g * attended, so
        # its gate gradient is its d_mem times (attended - mems[i]) g (1 - g).
        n, keep = spans[-1][0], 1.0 - m.gates
        dg_pre = (m.attended - m.mems[:-1]) * m.gates * keep
        dq, dkv = np.empty_like(dg_pre), np.empty((n, 2 * d))
        scaled_ks, scaled_qs = m.ks / np.sqrt(d), m.qs / np.sqrt(d)
        W_g_T, W_q_T = params["W_g"].T, params["W_q"].T
    d_mem = np.zeros(d)
    carry = np.zeros(d)
    for ri in range(len(spans) - 1, -1, -1):
        start, end = spans[ri]
        for p in range(end - 1, start - 1, -1):
            dh = dhs[p] + carry
            a_z, a_r, a_h = da_z[p], da_r[p], da_h[p]
            a_h *= dh
            u = U_h_T @ a_h
            a_z *= dh
            a_r *= u
            carry = dh * one_minus_z[p] + u * rs[p] + U_zr_T @ da_zr[p]
        if m is None or ri == 0:
            continue
        # Back through update i, which folded region i into the memory.
        i = ri - 1
        s, e = spans[i]
        d_mem += da[start:end].sum(axis=0) @ params.W_zrh
        dg_pre[i] *= d_mem
        du = W_g_T @ dg_pre[i]
        d_att = d_mem * m.gates[i] + du[d:]
        alpha = m.alphas[s:e]
        dalpha = m.vs[s:e] @ d_att
        dscores = alpha * (dalpha - alpha @ dalpha)
        np.dot(scaled_ks[s:e].T, dscores, out=dq[i])
        np.multiply.outer(dscores, scaled_qs[i], out=dkv[s:e, :d])
        np.multiply.outer(alpha, d_att, out=dkv[s:e, d:])
        d_mem = d_mem * keep[i] + du[:d] + W_q_T @ dq[i]
        dhs[s:e] += dkv[s:e] @ params.W_kv
    np.add.at(grads["E"], trace.input_ids, da @ params.W_zrh)
    grads.W_zrh += da.T @ trace.xs
    grads.U_zr += da_zr.T @ h_prevs
    grads["U_h"] += da_h.T @ (rs * h_prevs)
    grads.b_zrh += da.sum(axis=0)
    if m is not None:
        grads["W_g"] += dg_pre.T @ np.concatenate([m.mems[:-1], m.attended], axis=1)
        grads["b_g"] += dg_pre.sum(axis=0)
        grads["W_q"] += dq.T @ m.mems[:-1]
        grads.W_kv += dkv.T @ trace.hs[:n]


def _loss_terms(
    trace: ForwardTrace, params: Tensors, spec: LossSpec
) -> tuple[float, float, list[tuple]]:
    """(l_gen, l_comp, seeds) from forward passes only: the unweighted value
    of each loss term (0.0 for a term the spec leaves out) and, for each
    stream the spec's scalar loss reads, one seed (trace, dlogits, dh_seeds)
    as ``_backward_stream`` takes them, in the order they are swept: the
    generation stream, then each insight encode, then the reference encode."""
    _check_trace(trace, params)
    l_gen = l_comp = 0.0
    seeds = []
    if spec.targets is not None:
        l_gen, dlogits = _generation_loss_and_dlogits(trace.logits, np.asarray(spec.targets))
        seeds.append((trace, dlogits, None))
    if spec.lam != 0.0 and spec.insights is not None:
        if spec.ref_tokens is None:
            raise InvariantError("contrastive term needs reference tokens")
        if not spec.insights:
            raise InvariantError("contrastive loss needs at least one insight sequence")
        encs = [_encode_traced(params, seq) for seq in [*spec.insights, spec.ref_tokens]]
        l_comp, d_vecs, d_ref = _contrastive_parts([e for _, e in encs[:-1]], encs[-1][1])
        # An encoding is the mean of its pass's hidden states, so each
        # position of the pass is seeded with 1/S of the weighted gradient.
        for (enc, _), d_mean in zip(encs, [*d_vecs, d_ref]):
            S = len(enc.input_ids)
            seeds.append((enc, None, np.tile(spec.lam * d_mean / S, (S, 1))))
    return l_gen, l_comp, seeds


def _losses_and_grads(
    trace: ForwardTrace, params: Tensors, loss_spec: LossSpec
) -> tuple[float, float, Gradients]:
    """(l_gen, l_comp, gradients): the loss terms of ``_loss_terms`` and the
    exact gradients of the spec's scalar loss, one backward sweep per seed."""
    l_gen, l_comp, seeds = _loss_terms(trace, params, loss_spec)
    grads = params.zeros_like()
    for stream, dlogits, dh_seeds in seeds:
        _backward_stream(params, stream, grads, dlogits, dh_seeds)
    return l_gen, l_comp, grads


def backward(trace: ForwardTrace, params: Tensors, loss_spec: LossSpec) -> Gradients:
    """Exact gradients of the selected scalar loss for every parameter tensor.

    The generation term is differentiated through the given trace, including
    the paths through every memory update into previous-region hidden states;
    the contrastive term runs its encoding passes and sweeps each of them.
    """
    return _losses_and_grads(trace, params, loss_spec)[2]


# --- finite-difference verification ---------------------------------------


def finite_difference_check(
    params: Tensors,
    loss_fn: Callable[[Tensors], float],
    grad_fn: Callable[[Tensors], Gradients],
    eps: float = 1e-5,
    max_entries: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between grad_fn and central differences of loss_fn.

    Every parameter entry is probed ((L(t+eps) - L(t-eps)) / 2 eps), or a
    seeded random subsample of ``max_entries`` entries; relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).  A non-finite
    error (from a NaN or infinite gradient or loss) is returned as soon as it
    is met.  Parameters are restored bitwise after probing.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and > 0")
    analytic = grad_fn(params).flat
    flat = params.flat
    entries: Sequence[int] = range(flat.size)
    if max_entries is not None and max_entries < flat.size:
        rng = np.random.default_rng(seed)
        entries = rng.choice(flat.size, size=max_entries, replace=False).tolist()
    worst = 0.0
    for i in entries:
        saved = flat[i]
        flat[i] = saved + eps
        up = loss_fn(params)
        flat[i] = saved - eps
        down = loss_fn(params)
        flat[i] = saved
        numeric = (up - down) / (2.0 * eps)
        a = float(analytic[i])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        if not math.isfinite(err):
            return err
        worst = max(worst, err)
    return worst


@dataclass
class GradcheckProbe:
    """A fixed random model and example for verifying the backward pass;
    ``loss`` and ``grads`` both read the example's terms from ``spec``."""

    params: Tensors
    context_chunks: list
    spec: LossSpec

    def loss(self, params: Tensors) -> float:
        # Forward passes only: this is the function whose finite differences
        # the gradients are checked against.
        trace = forward(params, self.context_chunks, self.spec.targets)
        l_gen, l_comp, _ = _loss_terms(trace, params, self.spec)
        return stage_loss(l_gen, l_comp, self.spec.lam)

    def grads(self, params: Tensors) -> Gradients:
        return backward(forward(params, self.context_chunks, self.spec.targets), params, self.spec)


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
        params, chunk(context, l_chunk), LossSpec(targets, lam, insights, targets)
    )


# --- optimizer -------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators and the shared step counter."""

    step: int
    m: Gradients
    v: Gradients


def init_adam_state(params: Tensors) -> AdamState:
    return AdamState(0, params.zeros_like(), params.zeros_like())


def clip_gradients(grads: Gradients, max_norm: float) -> float:
    """Scale all gradients in place so the global L2 norm is <= max_norm;
    returns the pre-clip norm."""
    # numpy's own dot kernel: OpenBLAS splits a dot of over 10,000 entries
    # across its threads, and the sum would round by the thread count.
    norm = math.sqrt(np.einsum("i,i->", grads.flat, grads.flat))
    if norm > max_norm:
        grads.flat *= max_norm / norm
    return norm


def optimizer_step(
    params: Tensors, grads: Gradients, opt_state: AdamState, config: "TrainConfig"
) -> None:
    """One Adam update at ``config.learning_rate`` in place, over the flat
    vectors of all tensors at once; increments the step counter by 1."""
    opt_state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    g, m, v = grads.flat, opt_state.m.flat, opt_state.v.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    params.flat -= config.learning_rate * (m / (1.0 - b1**opt_state.step)) / (
        np.sqrt(v / (1.0 - b2**opt_state.step)) + ADAM_EPS
    )


# --- training loops --------------------------------------------------------


@dataclass
class TrainConfig:
    """Hyperparameters shared by both training stages."""

    learning_rate: float = 0.005
    epochs: int = 3
    lam: float = 0.5
    l_chunk: int = 16
    d: int = 32
    seed: int = 0
    key_k: int = 2
    disable_memory: bool = False
    clip_norm: ClassVar[float] = 5.0  # a constant, not a config key


@dataclass
class StepRecord:
    """One training-log line.  ``grad_norm`` is the global gradient norm
    before clipping, so the step was clipped when it exceeds
    ``TrainConfig.clip_norm``."""

    step: int
    epoch: int
    l_gen: float
    l_comp: float
    lam: float
    l_stage: float
    grad_norm: float

    def to_record(self) -> dict:
        """The fields in declaration order, ``lam`` written as ``lambda``."""
        return {("lambda" if k == "lam" else k): v for k, v in asdict(self).items()}


LogFn = Callable[[StepRecord], None]
# (input ids, region spans, first logit position, loss spec): one example of
# a stage, laid out once and replayed every epoch.
Example = tuple[list[int], list[tuple[int, int]], int, LossSpec]


def _train(
    params: Tensors,
    examples: Sequence[Example],
    config: TrainConfig,
    stage: str,
    log_fn: LogFn | None,
) -> Tensors:
    """Train ``params`` in place on the examples, one clipped Adam step per
    example, reshuffled each epoch from the config seed; both stages run
    here and differ only in their examples' loss specs."""
    state = init_adam_state(params)
    rng = np.random.default_rng(config.seed)
    memory_on = not config.disable_memory
    step = 0
    for epoch in range(1, config.epochs + 1):
        for idx in rng.permutation(len(examples)):
            ids, spans, logits_start, spec = examples[int(idx)]
            trace = _run_stream(params, ids, spans, memory_on, logits_start)
            l_gen, l_comp, grads = _losses_and_grads(trace, params, spec)
            l_stage = stage_loss(l_gen, l_comp, spec.lam)
            step += 1
            norm = clip_gradients(grads, config.clip_norm)
            if not (math.isfinite(l_stage) and math.isfinite(norm)):
                raise InvariantError(
                    f"{stage} step {step}: loss {l_stage}, gradient norm {norm} (not finite)"
                )
            optimizer_step(params, grads, state, config)
            if log_fn is not None:
                log_fn(StepRecord(step, epoch, l_gen, l_comp, spec.lam, l_stage, norm))
    return params


def train_pretrain(
    corpus: Sequence[PaperSet],
    config: TrainConfig,
    vocab: Vocabulary,
    init: Tensors | None = None,
    log_fn: LogFn | None = None,
) -> Tensors:
    """Stage one: next-token MLE over each flattened context+summary stream.

    epochs=0 returns the (seeded or given) initialization unchanged.
    """
    if len(corpus) == 0:
        raise DataError("pretraining corpus is empty")
    params = init.copy() if init is not None else init_params(config.d, len(vocab), config.seed)
    examples = []
    for ps in corpus:
        stream = model_context(ps, vocab, config.key_k) + ps.ref_summary
        ids, spans = _chunk_layout(chunk(stream[:-1], config.l_chunk))
        examples.append((ids, spans, 0, LossSpec(targets=stream[1:])))
    return _train(params, examples, config, "pretrain", log_fn)


def train_comparative(
    dataset: Sequence[PaperSet],
    init: Tensors,
    config: TrainConfig,
    vocab: Vocabulary,
    log_fn: LogFn | None = None,
) -> Tensors:
    """Stage two: teacher-forced summary cross-entropy plus the contrastive
    term at weight ``config.lam``; a weight of zero makes the run exactly MLE
    fine-tuning.  Raises DataError for an example with no non-empty
    insight while the weight is positive.
    """
    if len(dataset) == 0:
        raise DataError("fine-tuning dataset is empty")
    examples = []
    for ps in dataset:
        context = chunk(model_context(ps, vocab, config.key_k), config.l_chunk)
        insights = [doc.insight for doc in ps.docs if doc.insight]
        if config.lam != 0.0 and not insights:
            raise DataError(f"example {ps.id!r} has no non-empty insight but lambda > 0")
        spec = LossSpec(ps.ref_summary, config.lam, insights, ps.ref_summary)
        examples.append((*_teacher_forced_layout(context, ps.ref_summary), spec))
    return _train(init.copy(), examples, config, "comparative", log_fn)
