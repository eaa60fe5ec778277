"""The batched prefill against the position-by-position oracle in
``token_loop_oracle.py``: every context's hidden state and memory, every
decoded token and every evaluation report must be bitwise equal to running
the contexts one at a time."""

import re

import numpy as np
import pytest

import token_loop_oracle as oracle
from compsum import metrics, model
from compsum.corpus import (
    BOS,
    EOS,
    Chunk,
    build_vocab,
    chunk,
    dataset_token_streams,
    generate_synthetic_corpus,
    load_dataset,
    write_dataset,
)
from compsum.errors import InvariantError
from compsum.model import AblationFlags, greedy_decode, init_params, prefill

DIMS = (1, 6, 10, 32)
CHUNK_SIZES = (1, 4, 16, None)  # None: the whole context in one chunk
# 1-token contexts, contexts shorter than every chunk size but the first,
# equal lengths and lengths that cross several chunks.
LENGTHS = (1, 2, 3, 5, 17, 30, 1, 29, 40, 16, 9, 30)
V = 23
ATTEND_FIELDS = ("q", "ks", "vs", "alpha", "attended", "gate", "mem_new")


def _params(d, seed=0):
    return init_params(d, V, seed, scale=0.6)


def _flags(memory_on):
    return AblationFlags(disable_memory=not memory_on)


def _context(rng, n):
    return [BOS] + [int(t) for t in rng.integers(7, V, size=n - 1)]


def _contexts(l_chunk, seed=1, lengths=LENGTHS):
    rng = np.random.default_rng(seed)
    return [chunk(c, l_chunk or len(c)) for c in (_context(rng, n) for n in lengths)]


def _uneven_contexts(seed=2):
    """Hand-made layouts whose chunks are of mixed, unaligned lengths."""
    rng = np.random.default_rng(seed)
    layouts = ((1,), (3, 1, 2), (2, 7), (5, 5, 1, 4), (1, 1, 1), (9,), (4, 2, 6, 3, 1))
    return [
        [Chunk([int(t) for t in rng.integers(7, V, size=m)]) for m in sizes]
        for sizes in layouts
    ]


def _oracle_start(params, chunks, memory_on):
    """(h, mem) after running the context and folding its last chunk, one
    position at a time."""
    ids, spans = model._chunk_layout(chunks)
    trace = oracle.run_stream(params, ids, spans, memory_on, len(ids))
    if not memory_on:
        return trace.hs[-1], np.zeros(params.d)
    last = spans[-1][0]
    return trace.hs[-1], oracle.memory_update(params, trace.memory.mems[-1], trace.hs[last:])[-1]


def _assert_starts_equal(params, contexts, memory_on, got):
    assert len(got) == len(contexts)
    for chunks, (h, mem) in zip(contexts, got):
        want_h, want_mem = _oracle_start(params, chunks, memory_on)
        assert np.array_equal(h, want_h)
        assert np.array_equal(mem, want_mem)


def _oracle_samples(params, contexts, flags):
    """Each context's 12 tokens sampled at temperature 0.7 from a generator
    seeded with 5, one position at a time."""
    return [oracle.decode(params, c, 12, flags, oracle.sampler(V, 0.7, 5)) for c in contexts]


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("memory_on", [True, False])
@pytest.mark.parametrize("l_chunk", CHUNK_SIZES)
def test_prefill_equals_oracle(d, memory_on, l_chunk):
    params = _params(d)
    contexts = _contexts(l_chunk)
    _assert_starts_equal(params, contexts, memory_on, prefill(params, contexts, _flags(memory_on)))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("memory_on", [True, False])
def test_prefill_unaligned_layouts(d, memory_on):
    params = _params(d, 3)
    contexts = _uneven_contexts() + _contexts(4, seed=4, lengths=(6, 11))
    _assert_starts_equal(params, contexts, memory_on, prefill(params, contexts, _flags(memory_on)))


@pytest.mark.parametrize("memory_on", [True, False])
def test_decode_each_spans_several_blocks(memory_on, monkeypatch):
    params = _params(6, 5)
    params["b_o"][EOS] = -3.0  # decode for a while before EOS
    flags = _flags(memory_on)
    contexts = _contexts(4, seed=6) + _uneven_contexts(7) + _contexts(None, seed=8)
    greedy = [greedy_decode(params, chunks, 12, flags) for chunks in contexts]
    sampled = _oracle_samples(params, contexts, flags)
    pairs = [(f"ex{i}", chunks) for i, chunks in enumerate(contexts)]
    monkeypatch.setattr(model, "PREFILL_BLOCK", 5)
    blocks = []
    real = model.prefill
    monkeypatch.setattr(model, "prefill", lambda p, c, f: blocks.append(len(c)) or real(p, c, f))
    decodes = model.decode_each(params, iter(pairs), 12, flags)
    assert next(decodes) == greedy[0]
    assert blocks == [5]  # a block is prefilled only when its decodes are asked for
    assert [greedy[0], *decodes] == greedy
    assert blocks == [5] * (len(contexts) // 5) + [len(contexts) % 5]
    assert list(model.decode_each(params, iter(pairs), 12, flags, 0.7, 5)) == sampled


def test_prefill_edge_cases():
    params = _params(4)
    assert prefill(params, []) == []
    assert list(model.decode_each(params, [], 4)) == []
    with pytest.raises(InvariantError, match="context must have at least one chunk"):
        prefill(params, [chunk([BOS, 7], 2), []])
    with pytest.raises(InvariantError, match="context chunks must be non-empty"):
        prefill(params, [[Chunk([7]), Chunk([])]])
    with pytest.raises(InvariantError, match=re.escape(f"token id {V} out of range (V={V})")):
        prefill(params, [chunk([BOS, 7], 2), chunk([BOS, V], 2)])


@pytest.mark.parametrize("d", (1, 10, 32))
@pytest.mark.parametrize("m", (1, 2, 3, 7, 16, 33))
def test_batched_memory_update_equals_single_calls(d, m):
    params = _params(d, m)
    rng = np.random.default_rng(d + m)
    mems = rng.normal(size=(9, d))
    regions = rng.normal(size=(9, m, d))
    batched = model._attend(params, mems, regions)
    for i in range(9):
        single = model._attend(params, mems[i], regions[i])
        want = oracle.memory_update(params, mems[i], regions[i])
        for name, rows, row, value in zip(ATTEND_FIELDS, batched, single, want):
            assert np.array_equal(rows[i], value), name
            assert np.array_equal(row, value), name
        assert np.array_equal(model.memory_update(params, mems[i], regions[i]), want[-1])


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("memory_on", [True, False])
def test_decoding_with_and_without_start(d, memory_on):
    params = _params(d, 9)
    params["b_o"][EOS] = -3.0  # decode for a while before EOS
    flags = _flags(memory_on)
    contexts = _contexts(4, seed=10) + _uneven_contexts(11)
    for chunks, start in zip(contexts, prefill(params, contexts, flags)):
        want = oracle.decode(params, chunks, 12, flags, lambda lg: int(np.argmax(lg)))
        assert greedy_decode(params, chunks, 12, flags) == want
        assert greedy_decode(params, chunks, 12, flags, start=start) == want
    # decode_each samples from each example's prefilled start
    sampled = _oracle_samples(params, contexts, flags)
    pairs = [(f"ex{i}", chunks) for i, chunks in enumerate(contexts)]
    assert list(model.decode_each(params, pairs, 12, flags, 0.7, 5)) == sampled


def test_decoding_start_shape_checked():
    params = _params(4)
    with pytest.raises(InvariantError, match=re.escape("decoding start must be two (4,) vectors")):
        greedy_decode(params, chunk([BOS, 7], 2), 3, start=(np.zeros(4), np.zeros(5)))


@pytest.mark.parametrize("memory_on", [True, False])
@pytest.mark.parametrize("l_chunk", (4, 16))
def test_evaluate_dataset_equals_per_example_oracle(tmp_path, monkeypatch, memory_on, l_chunk):
    path = str(tmp_path / "data.jsonl")
    write_dataset(path, generate_synthetic_corpus(21, 11, (2, 3)))
    vocab = build_vocab(dataset_token_streams(path))
    dataset = load_dataset(path, vocab)
    params = init_params(8, len(vocab), 2, scale=0.3)
    flags = _flags(memory_on)
    monkeypatch.setattr(model, "PREFILL_BLOCK", 4)  # three blocks
    got = metrics.evaluate_dataset(
        params, dataset, vocab, l_chunk, 20, tau=0.5, key_k=2, flags=flags
    )

    calls = []

    def per_example(params, chunks, max_len, flags, start=None):
        calls.append(start)
        return oracle.decode(params, chunks, max_len, flags, lambda lg: int(np.argmax(lg)))

    monkeypatch.setattr(model, "greedy_decode", per_example)
    want = metrics.evaluate_dataset(
        params, dataset, vocab, l_chunk, 20, tau=0.5, key_k=2, flags=flags
    )
    # one greedy_decode call per example, each from its prefilled start
    assert len(calls) == len(dataset) and None not in calls
    assert got.to_lines() == want.to_lines()
