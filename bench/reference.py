"""Reference computations, written from the definitions of the model and of
the metrics.

This module imports nothing from the program.  The benchmark compares the
program's outputs against these functions, so it must not share code with
the program: a fault in shared code would pass unseen.  The structure is
also different on purpose: the input projections of a region are one matrix
product here, where the program steps token by token.

Model (d hidden units, vocabulary V), per token with input x = E[tok] + mem:

    z  = sigmoid(W_z x + U_z h + b_z)
    r  = sigmoid(W_r x + U_r h + b_r)
    h~ = tanh(W_h x + U_h (r * h) + b_h)
    h  = (1 - z) * h + z * h~

At the end of a region with hidden states H (m, d), unless it is the last:

    alpha = softmax((H W_k^T)(W_q mem) / sqrt(d));  a = alpha (H W_v^T)
    g = sigmoid(W_g [mem; a] + b_g);  mem = (1 - g) * mem + g * a

Logits are W_o h + b_o.  With the memory off, mem stays zero and is never
updated.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np

# Reserved token ids, fixed by the dataset and checkpoint formats.
PAD, BOS, EOS = 0, 1, 2

# The G-Score's lexicon of comparative connectives.
CONNECTIVES = frozenset(
    "outperforms compared whereas however unlike both more less better worse "
    "similar contrast".split()
)


def sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def region_states(t: dict, h: np.ndarray, tokens: Sequence[int], mem: np.ndarray):
    """Hidden states (m, d) of one region, and the final hidden state."""
    x = t["E"][list(tokens)] + mem
    pre_z = x @ t["W_z"].T + t["b_z"]
    pre_r = x @ t["W_r"].T + t["b_r"]
    pre_h = x @ t["W_h"].T + t["b_h"]
    out = np.empty((len(tokens), h.shape[0]))
    for j in range(len(tokens)):
        z = sigmoid(pre_z[j] + t["U_z"] @ h)
        r = sigmoid(pre_r[j] + t["U_r"] @ h)
        cand = np.tanh(pre_h[j] + t["U_h"] @ (r * h))
        h = (1.0 - z) * h + z * cand
        out[j] = h
    return out, h


def fold_memory(t: dict, mem: np.ndarray, hiddens: np.ndarray) -> np.ndarray:
    d = mem.shape[0]
    scores = (hiddens @ t["W_k"].T) @ (t["W_q"] @ mem) / math.sqrt(d)
    alpha = np.exp(scores - scores.max())
    alpha /= alpha.sum()
    attended = alpha @ (hiddens @ t["W_v"].T)
    gate = sigmoid(t["W_g"][:, :d] @ mem + t["W_g"][:, d:] @ attended + t["b_g"])
    return (1.0 - gate) * mem + gate * attended


def _run(t: dict, regions: Sequence[Sequence[int]], memory_on: bool, fold_last: bool):
    """Hidden states of the whole stream, the final hidden state and the
    memory after the last region (folded in only when ``fold_last``)."""
    d = t["W_z"].shape[0]
    h = np.zeros(d)
    mem = np.zeros(d)
    blocks = []
    for i, tokens in enumerate(regions):
        hiddens, h = region_states(t, h, tokens, mem)
        blocks.append(hiddens)
        if memory_on and (fold_last or i < len(regions) - 1):
            mem = fold_memory(t, mem, hiddens)
    return np.vstack(blocks), h, mem


def teacher_forced_logits(
    t: dict, chunks: Sequence[Sequence[int]], target: Sequence[int], memory_on: bool
) -> np.ndarray:
    """Logits (len(target), V); row j scores target[j] given the context
    chunks and target[:j].  target[:-1] forms one last region."""
    regions = [list(c) for c in chunks]
    if len(target) > 1:
        regions.append(list(target[:-1]))
    hiddens, _, _ = _run(t, regions, memory_on, fold_last=False)
    first = sum(len(c) for c in chunks) - 1
    return hiddens[first:] @ t["W_o"].T + t["b_o"]


def cross_entropy(logits: np.ndarray, targets: Sequence[int]) -> float:
    """Mean of -log softmax(row)[target] over the positions whose target is
    not PAD."""
    total = 0.0
    n = 0
    for row, tok in zip(logits, targets):
        if tok == PAD:
            continue
        m = row.max()
        total += m + math.log(np.exp(row - m).sum()) - row[tok]
        n += 1
    return total / n


def generation_loss(
    t: dict, chunks: Sequence[Sequence[int]], target: Sequence[int], memory_on: bool
) -> float:
    return cross_entropy(teacher_forced_logits(t, chunks, target, memory_on), target)


def encode(t: dict, tokens: Sequence[int]) -> np.ndarray:
    """Mean hidden state of a single-region pass with the memory off."""
    hiddens, _, _ = _run(t, [list(tokens)], memory_on=False, fold_last=False)
    return hiddens.mean(axis=0)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)) + 1e-8)


def contrastive_loss(t: dict, insights: Sequence[Sequence[int]], reference: Sequence[int]) -> float:
    """-sum_i log softmax(s)_i with s_i = cos(encode(insight_i), encode(reference))."""
    ref = encode(t, reference)
    sims = np.array([cosine(encode(t, ins), ref) for ins in insights])
    m = sims.max()
    log_norm = m + math.log(np.exp(sims - m).sum())
    return float(sum(log_norm - s for s in sims))


def decode_logits(
    t: dict, chunks: Sequence[Sequence[int]], generated: Sequence[int], memory_on: bool
) -> np.ndarray:
    """Logits (len(generated) + 1, V) at each greedy step, teacher-forced
    along ``generated``.  Decoding folds every context chunk, the last one
    included, into the memory before the first step."""
    _, h, mem = _run(t, [list(c) for c in chunks], memory_on, fold_last=True)
    rows = [t["W_o"] @ h + t["b_o"]]
    if generated:
        hiddens, _ = region_states(t, h, generated, mem)
        rows.extend(hiddens @ t["W_o"].T + t["b_o"])
    return np.array(rows)


def greedy_pick(row: np.ndarray) -> int:
    """Argmax over the ids other than PAD and BOS, lowest id on ties."""
    best = -1
    for tok, value in enumerate(row):
        if tok in (PAD, BOS):
            continue
        if best < 0 or value > row[best]:
            best = tok
    return best


# --- metrics -----------------------------------------------------------------


def _f1(overlap: int, n_candidate: int, n_reference: int) -> float:
    """Harmonic mean of precision overlap/n_candidate and recall
    overlap/n_reference, in the textbook form 2pr/(p + r): the G-Score
    compares it with a threshold, so it must round as that form does."""
    if overlap == 0:
        return 0.0
    p = overlap / n_candidate
    r = overlap / n_reference
    return 2.0 * p * r / (p + r)


def rouge_n_f1(candidate: Sequence[str], reference: Sequence[str], n: int) -> float:
    def grams(seq):
        return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))

    cand, ref = grams(candidate), grams(reference)
    overlap = sum((cand & ref).values())
    return _f1(overlap, sum(cand.values()), sum(ref.values()))


def lcs(a: Sequence[str], b: Sequence[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a)):
        for j in range(len(b)):
            if a[i] == b[j]:
                table[i + 1][j + 1] = table[i][j] + 1
            else:
                table[i + 1][j + 1] = max(table[i][j + 1], table[i + 1][j])
    return table[len(a)][len(b)]


def rouge_l_f1(candidate: Sequence[str], reference: Sequence[str]) -> float:
    return _f1(lcs(candidate, reference), len(candidate), len(reference))


def g_score(candidate: Sequence[str], units: Sequence[Sequence[str]], tau: float) -> float:
    """100 x harmonic mean of coverage (share of insight units matched by
    some sentence at ROUGE-L F1 >= tau) and density (share of sentences with
    a comparative connective).  Sentences end at "." tokens."""
    sentences = []
    current: list[str] = []
    for tok in list(candidate) + ["."]:
        if tok == ".":
            if current:
                sentences.append(current)
            current = []
        else:
            current.append(tok)
    matched = sum(
        1 for unit in units if any(rouge_l_f1(unit, s) >= tau for s in sentences)
    )
    coverage = matched / len(units) if units else 0.0
    density = (
        sum(1 for s in sentences if CONNECTIVES.intersection(s)) / len(sentences)
        if sentences
        else 0.0
    )
    if coverage + density == 0.0:
        return 0.0
    return 100.0 * 2.0 * coverage * density / (coverage + density)
