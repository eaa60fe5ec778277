"""Per-layer timings by direct calls of the program's public functions on a
workload's own inputs and model.

``training_epoch`` replays one epoch of training steps through ``forward``,
``backward`` with each loss term alone, ``encode_sequence``,
``clip_gradients`` and ``optimizer_step``, which separates what the stage
loops fuse: forward from backward, and the generation term from the
contrastive term.  The other functions time the corpus and checkpoint
layers.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from compsum import corpus, model, training

REPEATS = 3  # median of this many timings for the short corpus/checkpoint calls


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def training_epoch(params, examples, keys: dict, period_id) -> dict:
    params = params.copy()
    state = training.init_adam_state(params)
    config = training.TrainConfig()
    rng = np.random.default_rng(0)
    d = params.d
    t = dict.fromkeys(("forward", "backward_gen", "encode", "backward_comp", "optimizer", "memory"), 0.0)
    n = dict.fromkeys(("positions", "encoded", "updates", "steps"), 0)
    for ps in examples:
        context = corpus.assemble_context(ps, keys["key_k"], period_id)
        chunks = corpus.chunk(context, keys["l_chunk"])
        insights = [doc.insight for doc in ps.docs if doc.insight]
        target = ps.ref_summary

        t0 = time.perf_counter()
        trace = model.forward(params, chunks, target)
        t1 = time.perf_counter()
        grads = training.backward(trace, params, training.LossSpec(targets=target))
        t2 = time.perf_counter()
        for seq in insights + [target]:
            model.encode_sequence(params, seq)
        t3 = time.perf_counter()
        comp = training.backward(
            trace, params,
            training.LossSpec(lam=keys["lambda"], insights=insights, ref_tokens=target),
        )
        t4 = time.perf_counter()
        for name in grads:
            grads[name] += comp[name]
        t5 = time.perf_counter()
        training.clip_gradients(grads, config.clip_norm)
        training.optimizer_step(params, grads, state, config)
        t6 = time.perf_counter()

        # Memory updates at the same shapes as this example's forward pass:
        # every context chunk is folded in when the summary has more than one
        # token.  Their cost does not depend on the values.
        folded = chunks if len(target) > 1 else chunks[:-1]
        regions = [np.tanh(rng.normal(size=(len(c.tokens), d))) for c in folded]
        mem = np.zeros(d)
        t7 = time.perf_counter()
        for hiddens in regions:
            mem = model.memory_update(params, mem, hiddens)
        t8 = time.perf_counter()

        t["forward"] += t1 - t0
        t["backward_gen"] += t2 - t1
        t["encode"] += t3 - t2
        t["backward_comp"] += t4 - t3
        t["optimizer"] += t6 - t5
        t["memory"] += t8 - t7
        n["positions"] += sum(len(c.tokens) for c in chunks) + len(target) - 1
        n["encoded"] += sum(len(seq) for seq in insights) + len(target)
        n["updates"] += len(folded)
        n["steps"] += 1
    return {
        "model.forward_us_per_token": 1e6 * t["forward"] / n["positions"],
        "training.backward_gen_us_per_token": 1e6 * t["backward_gen"] / n["positions"],
        "model.encode_us_per_token": 1e6 * t["encode"] / n["encoded"],
        "training.backward_comp_us_per_example": 1e6 * t["backward_comp"] / n["steps"],
        "training.optimizer_us_per_step": 1e6 * t["optimizer"] / n["steps"],
        "model.memory_update_us_per_call": 1e6 * t["memory"] / max(n["updates"], 1),
        "count.memory_updates": n["updates"],
    }


def corpus_and_checkpoint(data_path: str, vocab_path: str, params, keys: dict, scratch: str) -> dict:
    vocab = corpus.Vocabulary.load(vocab_path)
    examples = corpus.load_dataset(data_path, vocab)
    period_id = vocab.id_of(".")

    def assemble():
        for ps in examples:
            corpus.chunk(corpus.assemble_context(ps, keys["key_k"], period_id), keys["l_chunk"])

    flags = model.AblationFlags()
    path = os.path.join(scratch, "replay.ckpt")
    save = _median_seconds(lambda: model.save_checkpoint(path, params, keys["l_chunk"], flags))
    load = _median_seconds(lambda: model.load_checkpoint(path))
    os.remove(path)
    return {
        "corpus.vocab_ms": 1e3 * _median_seconds(
            lambda: corpus.build_vocab(corpus.dataset_token_streams(data_path), keys["min_freq"])
        ),
        "corpus.load_us_per_example": 1e6 * _median_seconds(
            lambda: corpus.load_dataset(data_path, vocab)
        ) / len(examples),
        "corpus.assemble_us_per_example": 1e6 * _median_seconds(assemble) / len(examples),
        "model.checkpoint_save_ms": 1e3 * save,
        "model.checkpoint_load_ms": 1e3 * load,
    }
