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

import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import BOS, EOS, PAD, Chunk
from .errors import DimensionMismatch, EmptyChunk, EmptyInput, SchemaError
from .ioutil import atomic_write_bytes

TENSOR_NAMES = (
    "E",
    "W_z", "U_z", "b_z",
    "W_r", "U_r", "b_r",
    "W_h", "U_h", "b_h",
    "W_q", "W_k", "W_v", "W_g", "b_g",
    "W_o", "b_o",
)


@dataclass
class AblationFlags:
    """Switches that remove one mechanism at a time."""

    disable_memory: bool = False
    disable_key_extraction: bool = False
    disable_comparative: bool = False


@dataclass
class ModelParams:
    """All trainable tensors, keyed by the names in TENSOR_NAMES.

    Shapes: E (V, d); gate matrices W_*/U_* (d, d) with biases (d,);
    attention projections W_q/W_k/W_v (d, d); memory gate W_g (d, 2d) with
    b_g (d,); output head W_o (V, d) with b_o (V,).
    """

    d: int
    V: int
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def copy(self) -> "ModelParams":
        return ModelParams(self.d, self.V, {k: v.copy() for k, v in self.tensors.items()})

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}


def tensor_shapes(d: int, V: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {"E": (V, d)}
    for g in ("z", "r", "h"):
        shapes[f"W_{g}"] = (d, d)
        shapes[f"U_{g}"] = (d, d)
        shapes[f"b_{g}"] = (d,)
    shapes.update(W_q=(d, d), W_k=(d, d), W_v=(d, d), W_g=(d, 2 * d), b_g=(d,))
    shapes.update(W_o=(V, d), b_o=(V,))
    return shapes


def init_params(d: int, V: int, seed: int, scale: float = 0.08) -> ModelParams:
    """Uniform(-scale, scale) init, tensors drawn in TENSOR_NAMES order."""
    if d < 1 or V <= max(PAD, BOS, EOS):
        raise DimensionMismatch(f"bad model size d={d}, V={V}")
    rng = np.random.default_rng(seed)
    shapes = tensor_shapes(d, V)
    tensors = {name: rng.uniform(-scale, scale, shapes[name]) for name in TENSOR_NAMES}
    return ModelParams(d, V, tensors)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x)
    # below, with the same roundings as evaluating each branch on its own.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


def _matvec_rows(M: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``M @ v`` for every row v of ``rows`` in one call.

    Each row gets its own matrix-vector product, so it rounds exactly as
    ``M @ v`` alone; a GEMM such as ``rows @ M.T`` sums in another order.
    """
    return np.matmul(M, rows[:, :, None])[:, :, 0]


class _GatedCell:
    """The gated recurrent cell of one parameter set, split into the input
    projections, which do not depend on the hidden state and are computed
    for many positions at once, and the step along the hidden-state chain.

    Each gate keeps its own matrix-vector products, so every position gets
    bit for bit the values of evaluating the cell on its own.  One product
    with the gate matrices stacked would not: with OpenBLAS it rounds some
    rows differently whenever d >= 9 is not a multiple of 4, because the
    stacked rows fall into other blocks of the kernel.
    """

    def __init__(self, params: ModelParams):
        t = params.tensors
        self.d = params.d
        self.W = (t["W_z"], t["W_r"], t["W_h"])
        self.U_z, self.U_r, self.U_h = t["U_z"], t["U_r"], t["U_h"]
        self.b_zr = np.concatenate([t["b_z"], t["b_r"]])
        self.b_h = t["b_h"]

    def project(self, xs: np.ndarray) -> np.ndarray:
        """Rows [W_z x; W_r x; W_h x] (n, 3d) for the rows x of xs (n, d)."""
        d = self.d
        out = np.empty((len(xs), 3 * d))
        for g, W in enumerate(self.W):
            out[:, g * d : (g + 1) * d] = _matvec_rows(W, xs)
        return out

    def step(
        self, h_prev: np.ndarray, xw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One cell step from a projected input; returns (h, [z; r], h~)."""
        d = self.d
        a = np.empty(2 * d)
        np.matmul(self.U_z, h_prev, out=a[:d])
        np.matmul(self.U_r, h_prev, out=a[d:])
        a += xw[: 2 * d]  # (W x + U h) + b, the cell's order of additions
        a += self.b_zr
        zr = sigmoid(a)
        z, r = zr[:d], zr[d:]
        c = self.U_h @ (r * h_prev)
        c += xw[2 * d :]
        c += self.b_h
        h_cand = np.tanh(c)
        h = (1.0 - z) * h_prev + z * h_cand
        return h, zr, h_cand


def recurrent_cell(params: ModelParams, h_prev: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One step of the gated recurrent cell.

    z = sigmoid(W_z x + U_z h_prev + b_z)          (update gate)
    r = sigmoid(W_r x + U_r h_prev + b_r)          (reset gate)
    h~ = tanh(W_h x + U_h (r * h_prev) + b_h)      (candidate)
    h = (1 - z) * h_prev + z * h~

    With all-zero parameters z = r = 1/2 and h~ = 0, so h = h_prev / 2.
    """
    if x.shape != (params.d,) or h_prev.shape != (params.d,):
        raise DimensionMismatch(
            f"cell inputs must have shape ({params.d},), got {x.shape} and {h_prev.shape}"
        )
    cell = _GatedCell(params)
    return cell.step(h_prev, cell.project(x[None])[0])[0]


@dataclass
class MemoryUpdateTrace:
    """Everything produced by one memory update, for exact replay."""

    span: tuple[int, int]  # positions of the source region in the stream
    mem_prev: np.ndarray
    q: np.ndarray
    ks: np.ndarray  # (m, d)
    vs: np.ndarray  # (m, d)
    alpha: np.ndarray  # (m,)
    attended: np.ndarray
    gate: np.ndarray
    mem_new: np.ndarray


def memory_update(
    params: ModelParams, mem_prev: np.ndarray, hiddens: np.ndarray
) -> np.ndarray:
    """Fold a completed region's hidden states (m, d) into the memory.

    q = W_q mem_prev; k_j = W_k h_j; v_j = W_v h_j;
    alpha = softmax(q . k / sqrt(d)); a = sum_j alpha_j v_j;
    g = sigmoid(W_g [mem_prev; a] + b_g); mem = (1 - g) * mem_prev + g * a.
    """
    return _memory_update_traced(params, (0, 0), mem_prev, hiddens).mem_new


def _memory_update_traced(
    params: ModelParams,
    span: tuple[int, int],
    mem_prev: np.ndarray,
    hiddens: np.ndarray,
) -> MemoryUpdateTrace:
    if hiddens.ndim != 2 or hiddens.shape[0] == 0:
        raise EmptyChunk("memory update needs at least one hidden state")
    t = params.tensors
    d = params.d
    q = t["W_q"] @ mem_prev
    ks = hiddens @ t["W_k"].T
    vs = hiddens @ t["W_v"].T
    alpha = softmax(ks @ q / np.sqrt(d))
    attended = alpha @ vs
    gate = sigmoid(t["W_g"] @ np.concatenate([mem_prev, attended]) + t["b_g"])
    mem_new = (1.0 - gate) * mem_prev + gate * attended
    return MemoryUpdateTrace(span, mem_prev, q, ks, vs, alpha, attended, gate, mem_new)


@dataclass
class ForwardTrace:
    """Complete record of one forward pass over a token stream.

    Positions are stream indices.  ``region_spans[i]`` is the half-open span
    of region i; ``region_mems[i]`` is the memory vector in effect while
    region i was processed (zeros for the first region, and everywhere when
    the memory is disabled).  ``logits[j]`` scores the token following stream
    position ``logits_start + j``.
    """

    input_ids: list[int]
    region_spans: list[tuple[int, int]]
    xs: np.ndarray  # (S, d) embedding + memory actually fed to the cell
    hs: np.ndarray  # (S, d)
    zs: np.ndarray
    rs: np.ndarray
    h_cands: np.ndarray
    region_mems: list[np.ndarray]
    updates: list[MemoryUpdateTrace]
    logits: np.ndarray  # (T, V)
    logits_start: int
    memory_enabled: bool


def _run_stream(
    params: ModelParams,
    input_ids: Sequence[int],
    region_spans: Sequence[tuple[int, int]],
    memory_on: bool,
    logits_start: int,
) -> ForwardTrace:
    """Run the recurrence over a stream with the given region layout.

    The hidden state is carried across region boundaries; the memory vector
    is recomputed at each boundary from the region just completed.  Logits
    are produced for positions logits_start..S-1.
    """
    S = len(input_ids)
    if S == 0:
        raise EmptyInput("cannot run the model on an empty stream")
    if not region_spans or region_spans[0][0] != 0 or region_spans[-1][1] != S:
        raise DimensionMismatch("region spans must tile the stream")
    prev_end = 0
    for start, end in region_spans:
        if start != prev_end or end <= start:
            raise DimensionMismatch("region spans must tile the stream")
        prev_end = end
    d, V = params.d, params.V
    ids = np.asarray(input_ids)
    out_of_range = (ids < 0) | (ids >= V)
    if out_of_range.any():
        tok = ids[int(np.argmax(out_of_range))]
        raise DimensionMismatch(f"token id {tok} out of range (V={V})")
    t = params.tensors
    cell = _GatedCell(params)
    xs = t["E"][ids]
    hs = np.empty((S, d))
    zrs = np.empty((S, 2 * d))
    h_cands = np.empty((S, d))
    region_mems: list[np.ndarray] = []
    updates: list[MemoryUpdateTrace] = []
    mem = np.zeros(d)
    h = np.zeros(d)
    for start, end in region_spans:
        region_mems.append(mem)
        if memory_on:
            xs[start:end] += mem
        # cell.project works row by row, so the projections do not depend on
        # the region layout: memory-off outputs stay chunking-invariant.
        for p, x_proj in zip(range(start, end), cell.project(xs[start:end])):
            h, zrs[p], h_cands[p] = cell.step(h, x_proj)
            hs[p] = h
        if memory_on and end < S:
            update = _memory_update_traced(params, (start, end), mem, hs[start:end])
            updates.append(update)
            mem = update.mem_new
    n_logits = S - logits_start
    logits = hs[logits_start:] @ t["W_o"].T + t["b_o"][None, :]
    assert logits.shape == (n_logits, V)
    return ForwardTrace(
        list(input_ids), list(region_spans), xs, hs, zrs[:, :d], zrs[:, d:], h_cands,
        region_mems, updates, logits, logits_start, memory_on,
    )


def _chunk_layout(context_chunks: Sequence[Chunk]) -> tuple[list[int], list[tuple[int, int]]]:
    """Flatten context chunks into (token ids, region spans)."""
    if not context_chunks:
        raise EmptyInput("context must have at least one chunk")
    ids: list[int] = []
    spans: list[tuple[int, int]] = []
    for c in context_chunks:
        if not c.tokens:
            raise EmptyChunk("context chunks must be non-empty")
        spans.append((len(ids), len(ids) + len(c.tokens)))
        ids.extend(c.tokens)
    return ids, spans


def forward(
    params: ModelParams,
    context_chunks: Sequence[Chunk],
    target: Sequence[int],
    flags: AblationFlags | None = None,
) -> ForwardTrace:
    """Teacher-forced pass: consume the context chunks, then score each
    target token.

    The stream is context + target[:-1]; logits row j predicts target[j].
    The target forms one final region of its own, so the memory folds in the
    last context chunk exactly once at the context/target boundary and stays
    fixed while the target is processed.
    """
    if len(target) == 0:
        raise EmptyInput("target must be non-empty")
    context, spans = _chunk_layout(context_chunks)
    stream = context + list(target[:-1])
    if len(target) > 1:
        spans.append((len(context), len(stream)))
    memory_on = flags is None or not flags.disable_memory
    return _run_stream(params, stream, spans, memory_on, len(context) - 1)


def encode_sequence(params: ModelParams, tokens: Sequence[int]) -> np.ndarray:
    """Mean of hidden states over a single-region pass with memory off.

    Used to embed candidate and reference summaries for the similarity loss.
    """
    return _encode_traced(params, tokens)[1]


def _encode_traced(
    params: ModelParams, tokens: Sequence[int]
) -> tuple[ForwardTrace, np.ndarray]:
    if len(tokens) == 0:
        raise EmptyInput("cannot encode an empty sequence")
    trace = _run_stream(params, tokens, [(0, len(tokens))], False, len(tokens))
    return trace, trace.hs.mean(axis=0)


# --- decoding --------------------------------------------------------------


def _decode(
    params: ModelParams,
    context_chunks: Sequence[Chunk],
    max_len: int,
    flags: AblationFlags | None,
    pick: Callable[[np.ndarray], int],
) -> list[int]:
    if max_len < 1:
        raise EmptyInput("max_len must be >= 1")
    memory_on = flags is None or not flags.disable_memory
    context, spans = _chunk_layout(context_chunks)
    t = params.tensors
    prefill = _run_stream(params, context, spans, memory_on, len(context))
    h = prefill.hs[-1]
    mem = prefill.region_mems[-1]
    if memory_on:
        # The generated summary forms the next region, so the last context
        # chunk is folded into the memory too.
        mem = memory_update(params, mem, prefill.hs[spans[-1][0] :])
    cell = _GatedCell(params)
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
        h = cell.step(h, cell.project(x[None])[0])[0]
    return out


def greedy_decode(
    params: ModelParams,
    context_chunks: Sequence[Chunk],
    max_len: int,
    flags: AblationFlags | None = None,
) -> list[int]:
    """Argmax decoding; ties resolve to the lowest token id.  Stops at EOS
    (excluded from the output) or after max_len tokens.  Never emits PAD or
    BOS."""
    return _decode(params, context_chunks, max_len, flags, lambda lg: int(np.argmax(lg)))


def sample_decode(
    params: ModelParams,
    context_chunks: Sequence[Chunk],
    max_len: int,
    temperature: float,
    seed: int,
    flags: AblationFlags | None = None,
) -> list[int]:
    """Temperature sampling from softmax(logits / temperature), seeded.

    The logits are shifted to a maximum of 0 before the division, so a
    temperature too small for the quotients to stay finite samples the
    greedy token: every other quotient overflows to -inf.
    """
    if not (np.isfinite(temperature) and temperature > 0):
        raise ValueError("temperature must be finite and > 0 for sampling")
    rng = np.random.default_rng(seed)

    def pick(logits: np.ndarray) -> int:
        with np.errstate(over="ignore"):
            scaled = (logits - logits.max()) / temperature
        return int(rng.choice(params.V, p=softmax(scaled)))

    return _decode(params, context_chunks, max_len, flags, pick)


# --- checkpoints -----------------------------------------------------------

_MAGIC = b"CFG1"
_VERSION = 1


def _flag_bits(flags: AblationFlags) -> int:
    return (
        (1 if flags.disable_memory else 0)
        | (2 if flags.disable_key_extraction else 0)
        | (4 if flags.disable_comparative else 0)
    )


def save_checkpoint(
    path: str, params: ModelParams, l_chunk: int, flags: AblationFlags
) -> None:
    """Binary checkpoint: fixed header, then named float64 row-major tensors.

    Header: magic 'CFG1', version, d, V, l_chunk, ablation bitmask (all
    little-endian uint32 after the magic).  Each tensor: name length, name
    bytes, row count, then per row a column count and the row values.
    """
    parts = [struct.pack("<4s5I", _MAGIC, _VERSION, params.d, params.V, l_chunk, _flag_bits(flags))]
    for name in TENSOR_NAMES:
        tensor = np.atleast_2d(params.tensors[name])
        raw = name.encode()
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<I", tensor.shape[0]))
        for row in tensor:
            parts.append(struct.pack("<I", row.shape[0]))
            parts.append(row.astype("<f8").tobytes())
    atomic_write_bytes(path, b"".join(parts))


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise SchemaError(0, f"checkpoint '{self.path}' is truncated")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str) -> tuple[ModelParams, int, AblationFlags]:
    """Read a checkpoint, validating header, names, shapes, and finiteness."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    if reader.take(4) != _MAGIC:
        raise SchemaError(0, f"checkpoint '{path}' has a bad magic number")
    version, d, V, l_chunk, bits = (reader.u32() for _ in range(5))
    if version != _VERSION:
        raise SchemaError(0, f"unsupported checkpoint version {version}")
    if d < 1 or V < 7 or l_chunk < 1:
        raise SchemaError(0, f"bad checkpoint header d={d} V={V} l_chunk={l_chunk}")
    shapes = tensor_shapes(d, V)
    tensors: dict[str, np.ndarray] = {}
    for expected in TENSOR_NAMES:
        name = reader.take(reader.u32()).decode()
        if name != expected:
            raise SchemaError(0, f"expected tensor '{expected}', found '{name}'")
        n_rows = reader.u32()
        rows = []
        for _ in range(n_rows):
            n_cols = reader.u32()
            rows.append(np.frombuffer(reader.take(8 * n_cols), dtype="<f8"))
        tensor = np.array(rows)
        want = shapes[name]
        if tensor.shape != (want if len(want) == 2 else (1, want[0])):
            raise SchemaError(0, f"tensor '{name}' has shape {tensor.shape}, want {want}")
        if len(want) == 1:
            tensor = tensor[0]
        if not np.all(np.isfinite(tensor)):
            raise SchemaError(0, f"tensor '{name}' contains non-finite values")
        tensors[name] = tensor.copy()
    if reader.off != len(reader.data):
        raise SchemaError(0, f"checkpoint '{path}' has trailing bytes")
    flags = AblationFlags(bool(bits & 1), bool(bits & 2), bool(bits & 4))
    return ModelParams(d, V, tensors), l_chunk, flags
