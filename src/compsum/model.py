"""Chunked recurrent model with a cross-chunk gated attention memory.

The model reads a token stream split into fixed-length regions (chunks).
Within a region it runs a gated recurrent cell; at each region boundary it
updates a memory vector by attending over the hidden states of the region
just completed, and that memory is added to every input embedding of later
regions.  The hidden state itself is carried across boundaries unchanged, so
with the memory path disabled the model is an ordinary recurrent language
model and its outputs are independent of the region length.

All math is float64 numpy.  Forward passes record a full trace so the
hand-written backward pass in :mod:`compsum.training` can replay them.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from collections import UserDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import BOS, EOS, PAD, RESERVED_TOKENS, SENTENCE_DELIMITER, Chunk, PaperSet
from .corpus import Vocabulary, assemble_context
from .errors import CheckpointError, InvariantError
from .ioutil import atomic_write_bytes

@dataclass(frozen=True)
class AblationFlags:
    """Switches that remove one mechanism at a time."""

    disable_memory: bool = False


def model_context(paper_set: PaperSet, vocab: Vocabulary, key_k: int) -> list[int]:
    """The context the model reads for a paper set: ``assemble_context``,
    splitting sentences at the vocabulary's ``SENTENCE_DELIMITER``."""
    return assemble_context(paper_set, key_k, vocab.id_of(SENTENCE_DELIMITER))


def tensor_shapes(d: int, V: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {"E": (V, d)}
    for g in ("z", "r", "h"):
        shapes[f"W_{g}"] = (d, d)
        shapes[f"U_{g}"] = (d, d)
        shapes[f"b_{g}"] = (d,)
    shapes.update(W_q=(d, d), W_k=(d, d), W_v=(d, d), W_g=(d, 2 * d), b_g=(d,))
    shapes.update(W_o=(V, d), b_o=(V,))
    return shapes


TENSOR_NAMES = tuple(tensor_shapes(1, 1))
# The tensors' order in memory: the blocks of each stack lie side by side.
_LAYOUT = ("E", "W_z", "W_r", "W_h", "U_z", "U_r", "U_h", "b_z", "b_r", "b_h",
           "W_q", "W_k", "W_v", "W_g", "b_g", "W_o", "b_o")
_STACKS = {"W_zrh": ("W_z", "W_h"), "U_zr": ("U_z", "U_r"), "b_zrh": ("b_z", "b_h"),
           "W_kv": ("W_k", "W_v")}


class Tensors(UserDict):
    """A (d, V) model: every trainable tensor, keyed in TENSOR_NAMES order, as
    views into one float64 vector ``flat`` in ``_LAYOUT`` order; so are the
    stacks ``W_zrh`` (3d, d), ``U_zr`` (2d, d), ``b_zrh`` (3d,) and ``W_kv``
    (2d, d).  Gradients and Adam moments are such stores too.

    Shapes: E (V, d); gate matrices W_*/U_* (d, d) with biases (d,);
    attention projections W_q/W_k/W_v (d, d); memory gate W_g (d, 2d) with
    b_g (d,); output head W_o (V, d) with b_o (V,).

    Assigning a name copies into its view, so ``grads[name] += x`` adds in
    place; a wrong shape, an unknown name or a deletion raises InvariantError."""

    def __init__(self, d: int, V: int, flat: np.ndarray | None = None):
        shapes = tensor_shapes(d, V)
        ends = dict(zip(_LAYOUT, itertools.accumulate(math.prod(shapes[n]) for n in _LAYOUT)))
        starts = {n: ends[n] - math.prod(shapes[n]) for n in _LAYOUT}
        self.d, self.V = d, V
        self.flat = np.zeros(ends[_LAYOUT[-1]]) if flat is None else flat
        self.data = {n: self.flat[starts[n] : ends[n]].reshape(shapes[n]) for n in TENSOR_NAMES}
        for stack, (first, last) in _STACKS.items():
            view = self.flat[starts[first] : ends[last]]
            setattr(self, stack, view.reshape(-1, *shapes[first][1:]))

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        view = self.data.get(name)
        if view is None or np.shape(value) != view.shape:
            want = "no such tensor" if view is None else f"shape {view.shape}"
            raise InvariantError(f"tensor {name!r}: {want}, got shape {np.shape(value)}")
        view[...] = value

    def __delitem__(self, name: str) -> None:
        raise InvariantError(f"tensor {name!r} cannot be deleted")

    def copy(self) -> "Tensors":
        return Tensors(self.d, self.V, self.flat.copy())

    def zeros_like(self) -> "Tensors":
        return Tensors(self.d, self.V)

    @property
    def tensors(self) -> "Tensors":
        """The store itself, for ``bench/``, which reads ``params.tensors``."""
        return self


def init_params(d: int, V: int, seed: int, scale: float = 0.08) -> Tensors:
    """Uniform(-scale, scale) init, tensors drawn in TENSOR_NAMES order.
    ``V`` must cover the reserved tokens, as ``load_checkpoint`` requires."""
    if d < 1 or V < len(RESERVED_TOKENS):
        raise InvariantError(f"bad model size d={d}, V={V}")
    shapes = tensor_shapes(d, V)
    # Checked before drawing: an allocator may grant more than fits in memory.
    # Where the OS does not report its memory (no os.sysconf), or a cgroup
    # limit is lower, the allocator and numpy's size check refuse instead.
    size = 8 * sum(math.prod(shape) for shape in shapes.values())
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        physical = None
    if physical is not None and size > physical:
        raise MemoryError(
            f"model of d={d}, V={V} needs {size} bytes, more than the {physical} bytes "
            "of physical memory"
        )
    try:
        params = Tensors(d, V)
    except ValueError:
        # numpy refuses sizes whose byte count overflows its index type
        raise MemoryError(f"model of d={d}, V={V} is too large to allocate") from None
    rng = np.random.default_rng(seed)
    params.update((n, rng.uniform(-scale, scale, shapes[n])) for n in TENSOR_NAMES)
    return params


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-max(x, -700))), into ``out`` (x itself allowed); exp never overflows."""
    out = np.maximum(x, -700.0, out=out)
    np.exp(np.negative(out, out=out), out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


class _GatedCell:
    """The gated recurrent cell of one parameter set:

    z = sigmoid(U_z h_prev + (W_z x + b_z))         (update gate)
    r = sigmoid(U_r h_prev + (W_r x + b_r))         (reset gate)
    h~ = tanh(U_h (r * h_prev) + (W_h x + b_h))     (candidate)
    h = h_prev + z * (h~ - h_prev)

    ``project`` computes ``W x + b`` for a region's positions at once, and
    ``step`` runs the hidden-state chain into the caller's rows; each
    position gets bit for bit the values of the cell run on its own.  Once
    per region, the input matrices can stay a batch (3, d, d) of per-gate
    products, as the token-loop oracle takes them.  ``U_zr h`` runs at every
    step, so it is one (2d, d) product, one BLAS call instead of two, and
    the oracle takes that stacked product too: with OpenBLAS it rounds some
    rows unlike the separate U_z h and U_r h whenever d >= 9 is not a
    multiple of 4, but alike for one row and for each row of a batch.
    """

    def __init__(self, params: Tensors):
        self.d = params.d
        self.W, self.b = params.W_zrh.reshape(3, self.d, self.d), params.b_zrh
        self.U_zr, self.U_h = params.U_zr, params["U_h"]

    def project(self, xs: np.ndarray) -> np.ndarray:
        """Rows [W_z x + b_z; W_r x + b_r; W_h x + b_h] (n, 3d) for the rows x of xs (n, d)."""
        return np.matmul(self.W, xs[:, None, :, None]).reshape(len(xs), 3 * self.d) + self.b

    def step(self, h_prev: np.ndarray, xw: np.ndarray, h: np.ndarray,
             zr: np.ndarray, h_cand: np.ndarray) -> None:
        """One cell step from projected inputs into h, zr = [z; r] and h_cand.

        ``h_prev`` is one hidden state (d,) or a batch (n, d) with its rows
        ``xw`` (n, 3d); the outputs are shaped as it and must not overlap it.
        Every row rounds as it would on its own."""
        d = self.d
        np.matmul(self.U_zr, h_prev[..., None], out=zr[..., None])
        zr += xw[..., : 2 * d]
        sigmoid(zr, out=zr)
        c = np.matmul(self.U_h, (zr[..., d:] * h_prev)[..., None])
        np.add(c[..., 0], xw[..., 2 * d :], out=h_cand)
        np.tanh(h_cand, out=h_cand)
        np.subtract(h_cand, h_prev, out=h)
        h *= zr[..., :d]
        h += h_prev


def memory_update(params: Tensors, mem_prev: np.ndarray, hiddens: np.ndarray) -> np.ndarray:
    """Fold a completed region's hidden states (m, d) into the memory.

    q = W_q mem_prev; k_j = W_k h_j; v_j = W_v h_j;
    alpha = softmax(q . k / sqrt(d)); a = sum_j alpha_j v_j;
    g = sigmoid(W_g [mem_prev; a] + b_g); mem = (1 - g) * mem_prev + g * a.
    """
    if hiddens.ndim != 2 or hiddens.shape[0] == 0:
        raise InvariantError("memory update needs at least one hidden state")
    return _attend(params, mem_prev, hiddens)[-1]


def _attend(params: Tensors, mem_prev: np.ndarray, hiddens: np.ndarray) -> tuple[np.ndarray, ...]:
    """The memory update's (q, ks, vs, alpha, attended, gate, mem_new) for one
    memory (d,) and region (m, d), or for a batch (B, d) of memories and
    regions (B, m, d) of one length m.

    Products of a vector take the per-row form, which rounds like ``M @ v``;
    the region products are one GEMM per region in either shape.
    """
    q = np.matmul(params["W_q"], mem_prev[..., None])[..., 0]
    ks = hiddens @ params["W_k"].T
    vs = hiddens @ params["W_v"].T
    alpha = softmax(np.matmul(ks, q[..., None])[..., 0] / np.sqrt(params.d))
    attended = np.matmul(alpha[..., None, :], vs)[..., 0, :]
    both = np.concatenate([mem_prev, attended], axis=-1)
    gate = sigmoid(np.matmul(params["W_g"], both[..., None])[..., 0] + params["b_g"])
    mem_new = (1.0 - gate) * mem_prev + gate * attended
    return q, ks, vs, alpha, attended, gate, mem_new


@dataclass
class MemoryTrace:
    """The memory path of one forward pass, as arrays indexed by region.

    ``mems[i]`` is the memory in effect while region i is processed (zeros
    for the first region).  Every region but the last feeds one update:
    update i attends over region i with query ``qs[i]`` and blends
    ``attended[i]`` into ``mems[i]`` by ``gates[i]``, giving ``mems[i + 1]``.
    ``ks``, ``vs`` and ``alphas`` have one row per stream position before
    the last region, so region i's rows are its span.
    """

    mems: np.ndarray  # (R, d)
    qs: np.ndarray  # (R - 1, d)
    ks: np.ndarray  # (n, d)
    vs: np.ndarray  # (n, d)
    alphas: np.ndarray  # (n,)
    attended: np.ndarray  # (R - 1, d)
    gates: np.ndarray  # (R - 1, d)


@dataclass
class ForwardTrace:
    """Complete record of one forward pass over a token stream.

    Positions are stream indices.  ``region_spans[i]`` is the half-open span
    of region i.  ``memory`` records the memory path, or is None when the
    memory is disabled.  ``logits[j]`` scores the token following stream
    position ``logits_start + j``.
    """

    input_ids: list[int]
    region_spans: list[tuple[int, int]]
    xs: np.ndarray  # (S, d) embedding + memory actually fed to the cell
    hs: np.ndarray  # (S, d)
    zs: np.ndarray
    rs: np.ndarray
    h_cands: np.ndarray
    memory: MemoryTrace | None
    logits: np.ndarray  # (T, V)
    logits_start: int


def _check_token_ids(ids: np.ndarray, V: int) -> None:
    out_of_range = (ids < 0) | (ids >= V)
    if out_of_range.any():
        raise InvariantError(f"token id {ids[out_of_range][0]} out of range (V={V})")


def _run_stream(
    params: Tensors,
    input_ids: Sequence[int],
    region_spans: Sequence[tuple[int, int]],
    memory_on: bool,
    logits_start: int,
) -> ForwardTrace:
    """Run the recurrence over a non-empty stream with the given region
    layout, whose spans tile it, as the callers' layouts are checked to.

    The hidden state is carried across region boundaries; the memory vector
    is recomputed at each boundary from the region just completed.  Logits
    are produced for positions logits_start..S-1.
    """
    S, d = len(input_ids), params.d
    ids = np.asarray(input_ids)
    _check_token_ids(ids, params.V)
    cell = _GatedCell(params)
    xs = params["E"][ids]
    hs, zrs, h_cands = np.empty((S, d)), np.empty((S, 2 * d)), np.empty((S, d))
    memory = None
    if memory_on:
        R, n = len(region_spans), region_spans[-1][0]
        memory = m = MemoryTrace(
            np.zeros((R, d)), np.empty((R - 1, d)), np.empty((n, d)), np.empty((n, d)),
            np.empty(n), np.empty((R - 1, d)), np.empty((R - 1, d)),
        )
    h = np.zeros(d)
    for i, (start, end) in enumerate(region_spans):
        if memory_on:
            xs[start:end] += m.mems[i]
        # cell.project works row by row, so the projections do not depend on
        # the region layout: memory-off outputs stay chunking-invariant.
        for p, xw in zip(range(start, end), cell.project(xs[start:end])):
            cell.step(h, xw, hs[p], zrs[p], h_cands[p])
            h = hs[p]
        if memory_on and end < S:
            (m.qs[i], m.ks[start:end], m.vs[start:end], m.alphas[start:end], m.attended[i],
             m.gates[i], m.mems[i + 1]) = _attend(params, m.mems[i], hs[start:end])
    logits = hs[logits_start:] @ params["W_o"].T + params["b_o"][None, :]
    return ForwardTrace(
        list(input_ids), list(region_spans), xs, hs, zrs[:, :d], zrs[:, d:], h_cands,
        memory, logits, logits_start,
    )


def _chunk_layout(context_chunks: Sequence[Chunk]) -> tuple[list[int], list[tuple[int, int]]]:
    """Flatten context chunks into (token ids, region spans)."""
    if not context_chunks:
        raise InvariantError("context must have at least one chunk")
    ids: list[int] = []
    spans: list[tuple[int, int]] = []
    for c in context_chunks:
        if not c.tokens:
            raise InvariantError("context chunks must be non-empty")
        spans.append((len(ids), len(ids) + len(c.tokens)))
        ids.extend(c.tokens)
    return ids, spans


def _teacher_forced_layout(
    context_chunks: Sequence[Chunk], target: Sequence[int]
) -> tuple[list[int], list[tuple[int, int]], int]:
    """(stream, region spans, first logit position) of a teacher-forced pass:
    the stream is context + target[:-1], and the target forms one final
    region of its own."""
    if len(target) == 0:
        raise InvariantError("target must be non-empty")
    context, spans = _chunk_layout(context_chunks)
    stream = context + list(target[:-1])
    if len(target) > 1:
        spans.append((len(context), len(stream)))
    return stream, spans, len(context) - 1


def forward(
    params: Tensors,
    context_chunks: Sequence[Chunk],
    target: Sequence[int],
    flags: AblationFlags = AblationFlags(),
) -> ForwardTrace:
    """Teacher-forced pass: consume the context chunks, then score each
    target token.

    The stream is context + target[:-1]; logits row j predicts target[j].
    The target forms one final region of its own, so the memory folds in the
    last context chunk exactly once at the context/target boundary and stays
    fixed while the target is processed.
    """
    stream, spans, logits_start = _teacher_forced_layout(context_chunks, target)
    memory_on = not flags.disable_memory
    return _run_stream(params, stream, spans, memory_on, logits_start)


def encode_sequence(params: Tensors, tokens: Sequence[int]) -> np.ndarray:
    """Mean of hidden states over a single-region pass with memory off.

    Used to embed candidate and reference summaries for the similarity loss.
    """
    return _encode_traced(params, tokens)[1]


def _encode_traced(params: Tensors, tokens: Sequence[int]) -> tuple[ForwardTrace, np.ndarray]:
    if len(tokens) == 0:
        raise InvariantError("cannot encode an empty sequence")
    trace = _run_stream(params, tokens, [(0, len(tokens))], False, len(tokens))
    return trace, trace.hs.mean(axis=0)


# --- decoding --------------------------------------------------------------


# Contexts per batched prefill when a dataset is decoded.  A block holds its
# contexts' layouts, hidden states and memories, (PREFILL_BLOCK, d), and the
# hidden states of its longest region.  Evaluating the `evaluate` benchmark's
# 500 held-out contexts (about 100 tokens each, d = 32, l_chunk = 16) raised
# peak RSS over per-context prefills by 0.13 MB with blocks of 16 or 32,
# 0.67 MB with 64 and 10.3 MB with all 500 at once; 32 was as fast as 64.
PREFILL_BLOCK = 32


def prefill(
    params: Tensors,
    contexts: Sequence[Sequence[Chunk]],
    flags: AblationFlags = AblationFlags(),
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Run each context's chunks and fold its last chunk into the memory:
    the (h, mem) that decoding starts from, one pair per context, in order.

    The contexts run as one recurrence over a batch of rows, longest first,
    so the rows still running at a position are a prefix of the batch.  The
    memory updates of rows that end a region at the same position are
    batched by region length.  Every product is taken row by row, so each
    context gets bit for bit the state of a pass over it alone.
    """
    memory_on = not flags.disable_memory
    layouts = [_chunk_layout(c) for c in contexts]
    B, d = len(layouts), params.d
    order = sorted(range(B), key=lambda i: -len(layouts[i][0]))
    lengths = [len(layouts[i][0]) for i in order]
    ids = np.zeros((B, lengths[0] if B else 0), dtype=np.intp)
    # ends[p][m]: the rows whose region of length m ends at position p
    ends: dict[int, dict[int, list[int]]] = {}
    for row, i in enumerate(order):
        tokens, spans = layouts[i]
        ids[row, : len(tokens)] = tokens
        for start, end in spans:
            ends.setdefault(end - 1, {}).setdefault(end - start, []).append(row)
    _check_token_ids(ids, params.V)
    cell = _GatedCell(params)
    h, mem = np.zeros((B, d)), np.zeros((B, d))
    h_next, zr, h_cand = np.empty((B, d)), np.empty((B, 2 * d)), np.empty((B, d))
    longest_region = max((m for by_len in ends.values() for m in by_len), default=0)
    region_hs = np.empty((B, longest_region if memory_on else 0, d))
    region_start = np.zeros(B, dtype=np.intp)
    all_rows = np.arange(B)
    n = B
    for p in range(ids.shape[1]):
        while lengths[n - 1] <= p:
            n -= 1
        x = params["E"][ids[:n, p]]
        if memory_on:
            x += mem[:n]
        # Copied back, not swapped: rows that have finished keep their state.
        cell.step(h[:n], cell.project(x), h_next[:n], zr[:n], h_cand[:n])
        h[:n] = h_next[:n]
        if memory_on:
            region_hs[all_rows[:n], p - region_start[:n]] = h[:n]
            for m, rows in ends.get(p, {}).items():
                mem[rows] = _attend(params, mem[rows], region_hs[rows, :m])[-1]
                region_start[rows] = p + 1
    return [(h[row], mem[row]) for row in np.argsort(order)]


def _decode(
    params: Tensors,
    context_chunks: Sequence[Chunk],
    max_len: int,
    flags: AblationFlags,
    pick: Callable[[np.ndarray], int | None],
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[int]:
    """Decode from the context with ``pick``, which returns the next token of
    a step's logits, or None when the logits it reads are not finite."""
    if max_len < 1:
        raise InvariantError("max_len must be >= 1")
    memory_on = not flags.disable_memory
    # The generated summary forms the region after the context, so decoding
    # starts from the memory with the last context chunk folded in.
    h, mem = prefill(params, [context_chunks], flags)[0] if start is None else start
    if h.shape != (params.d,) or mem.shape != (params.d,):
        raise InvariantError(f"decoding start must be two ({params.d},) vectors")
    cell = _GatedCell(params)
    h, h_next = h.copy(), np.empty(params.d)  # the buffer swaps must not write into start
    zr, h_cand = np.empty(2 * params.d), np.empty(params.d)
    out: list[int] = []
    while len(out) < max_len:
        logits = params["W_o"] @ h + params["b_o"]
        logits[PAD] = logits[BOS] = -np.inf
        tok = pick(logits)
        if tok is None:
            raise InvariantError(f"logits not finite at decode position {len(out)}")
        if tok == EOS:
            break
        out.append(tok)
        x = params["E"][tok] + mem if memory_on else params["E"][tok]
        cell.step(h, cell.project(x[None])[0], h_next, zr, h_cand)
        h, h_next = h_next, h
    return out


def _argmax_pick(logits: np.ndarray) -> int | None:
    # argmax picks a NaN, else a +inf, else the largest logit, so the picked
    # logit is finite exactly when every logit but a -inf one is.
    tok = int(np.argmax(logits))
    return tok if math.isfinite(logits[tok]) else None


def greedy_decode(
    params: Tensors,
    context_chunks: Sequence[Chunk],
    max_len: int,
    flags: AblationFlags = AblationFlags(),
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[int]:
    """Argmax decoding; ties resolve to the lowest token id.  Stops at EOS
    (excluded from the output) or after max_len tokens.  Never emits PAD or
    BOS.  ``start``, the context's pair from ``prefill``, skips running the
    context again.  Logits that are not finite raise ``InvariantError``."""
    return _decode(params, context_chunks, max_len, flags, _argmax_pick, start)


def _sampler(V: int, temperature: float, seed: int) -> Callable[[np.ndarray], int | None]:
    """A ``pick`` that samples from softmax(logits / temperature), seeded.

    The logits are shifted to a maximum of 0 before the division, so a
    temperature too small for the quotients to stay finite samples the
    greedy token: every other quotient overflows to -inf.
    """
    rng = np.random.default_rng(seed)

    def pick(logits: np.ndarray) -> int | None:
        top = logits.max()
        if not math.isfinite(top):
            return None
        with np.errstate(over="ignore"):
            scaled = (logits - top) / temperature
        return int(rng.choice(V, p=softmax(scaled)))

    return pick


def decode_each(
    params: Tensors,
    contexts: Iterable[tuple[str, Sequence[Chunk]]],
    max_len: int,
    flags: AblationFlags = AblationFlags(),
    temperature: float = 0.0,
    seed: int = 0,
) -> Iterator[list[int]]:
    """Yield the tokens of each (example id, context chunks) pair in order:
    ``greedy_decode`` at temperature 0, else temperature sampling from a
    fresh generator seeded with ``seed`` for every example.  Contexts are
    ``prefill``-ed PREFILL_BLOCK at a time as decodes are asked for, and a
    decode's ``InvariantError`` is raised again naming the example."""
    it = iter(contexts)
    while block := list(itertools.islice(it, PREFILL_BLOCK)):
        starts = prefill(params, [chunks for _, chunks in block], flags)
        for (example_id, chunks), start in zip(block, starts):
            try:
                if temperature == 0.0:
                    ids = greedy_decode(params, chunks, max_len, flags, start=start)
                else:
                    pick = _sampler(params.V, temperature, seed)
                    ids = _decode(params, chunks, max_len, flags, pick, start)
            except InvariantError as exc:
                raise InvariantError(f"example {example_id!r}: {exc}") from None
            yield ids


# --- checkpoints -----------------------------------------------------------

_MAGIC = b"CFG1"
_VERSION = 4
# magic, version, d, V, l_chunk, ablation bitmask, key_k
_HEADER = struct.Struct("<4s6I")


def _first_non_finite(store: Tensors) -> str | None:
    """The first tensor, in TENSOR_NAMES order, holding a non-finite value."""
    return next((name for name, tensor in store.items() if not np.isfinite(tensor).all()), None)


def save_checkpoint(
    path: str, params: Tensors, l_chunk: int, flags: AblationFlags, key_k: int = 2
) -> None:
    """Binary checkpoint: fixed header, then the flat parameter vector.

    Header (``_HEADER``): magic 'CFG1', version, d, V, l_chunk, ablation
    bitmask (1 when ``disable_memory``, else 0), key_k (all little-endian
    uint32 after the magic).  Then ``params.flat`` as little-endian
    float64, the tensors in ``_LAYOUT`` order, each row-major with the shape
    ``tensor_shapes(d, V)`` gives it.  Non-finite values raise
    ``InvariantError`` before anything is written, since ``load_checkpoint``
    would reject the file.
    """
    bad = _first_non_finite(params)
    if bad is not None:
        raise InvariantError(
            f"checkpoint {path!r} not written: tensor '{bad}' holds non-finite values"
        )
    bits = int(flags.disable_memory)
    header = _HEADER.pack(_MAGIC, _VERSION, params.d, params.V, l_chunk, bits, key_k)
    atomic_write_bytes(path, header + params.flat.astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[Tensors, int, AblationFlags, int]:
    """Read a checkpoint as (params, l_chunk, flags, key_k), validating the
    header, the file's length and finiteness; the length is checked against
    the header's sizes before anything is allocated."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise CheckpointError(path, "truncated")
    magic, version, d, V, l_chunk, bits, key_k = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise CheckpointError(path, "bad magic number")
    if version != _VERSION:
        raise CheckpointError(path, f"unsupported checkpoint version {version}")
    if bits > 1:
        raise CheckpointError(path, f"unknown ablation bits in bitmask {bits}")
    if d < 1 or V < len(RESERVED_TOKENS) or l_chunk < 1:
        raise CheckpointError(path, f"bad header d={d} V={V} l_chunk={l_chunk}")
    size = _HEADER.size + 8 * sum(math.prod(shape) for shape in tensor_shapes(d, V).values())
    if len(data) != size:
        raise CheckpointError(path, "truncated" if len(data) < size else "trailing bytes")
    params = Tensors(d, V, np.frombuffer(data, "<f8", offset=_HEADER.size).astype(np.float64))
    bad = _first_non_finite(params)
    if bad is not None:
        raise CheckpointError(path, f"tensor '{bad}' contains non-finite values")
    return params, l_chunk, AblationFlags(bool(bits)), key_k
