"""End-to-end acceptance checks for the comparative summarizer.

Every test prints exactly one ``[PASS]``/``[FAIL]`` line naming the property
it verifies, then asserts it, so a plain pytest run doubles as a checklist.
The heavier checks (cross-chunk recall, pipeline runs) train real models and
take a couple of minutes combined; each one also enforces its own wall-clock
budget.
"""

import json
import math
import time
from dataclasses import replace
from itertools import combinations

import numpy as np

from compsum import training
from compsum.corpus import (
    FACT_MARKER,
    assemble_context,
    build_vocab,
    chunk,
    dataset_token_streams,
    generate_synthetic_corpus,
    load_dataset,
    write_dataset,
)
from compsum.model import AblationFlags, _chunk_layout, _run_stream, forward, init_params
from compsum.metrics import lcs_length, rouge_l, rouge_n
from compsum.training import (
    TrainConfig,
    comparative_loss,
    finite_difference_check,
    gradcheck_probe,
    optimizer_step,
    stage_loss,
    train_pretrain,
)

from test_cli import invoke, write_config


def _criterion(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(tok in it for tok in sub)


def _brute_force_lcs(a, b):
    for k in range(min(len(a), len(b)), 0, -1):
        for idxs in combinations(range(len(a)), k):
            if _is_subsequence([a[i] for i in idxs], b):
                return k
    return 0


def _decay_rate_linearly(monkeypatch, n_examples):
    """Train each stage at lr * (T - s + 1) / T at its step s of T = epochs *
    n_examples.  The two learning criteria train this way: under the
    program's constant rate, late Adam spikes decide their last figures, and
    runs whose rates differ in the 15th digit passed or failed by chance."""

    def decayed(params, grads, state, config):
        total = config.epochs * n_examples
        rate = config.learning_rate * ((total - state.step) / total)
        optimizer_step(params, grads, state, replace(config, learning_rate=rate))

    monkeypatch.setattr(training, "optimizer_step", decayed)


RECALL_TRAIN_EXAMPLES = 200


def _recall_accuracy(workdir, seed, disable_memory):
    """Key-fact recall on held-out examples: the fact appears once in the
    first document and must be reproduced in the summary, at least two
    chunks later.  Returns (accuracy, training seconds)."""
    train_path = str(workdir / f"recall_train_{seed}.jsonl")
    eval_path = str(workdir / f"recall_eval_{seed}.jsonl")
    write_dataset(train_path, generate_synthetic_corpus(seed, RECALL_TRAIN_EXAMPLES, (2, 2)))
    vocab = build_vocab(dataset_token_streams(train_path), 1)
    train = load_dataset(train_path, vocab)
    write_dataset(eval_path, generate_synthetic_corpus(1000 + seed, 50, (2, 2)))
    heldout = load_dataset(eval_path, vocab)
    marker = vocab.id_of(FACT_MARKER)
    period = vocab.id_of(".")
    # One memory-off epoch first: Adam moments settle on the token statistics
    # before the recurrent memory path starts feeding back into the inputs.
    warm = TrainConfig(
        learning_rate=0.005, epochs=1, l_chunk=16,
        d=32, seed=seed, key_k=0,
        flags=AblationFlags(disable_memory=True),
    )
    main = replace(warm, epochs=9, flags=AblationFlags(disable_memory=disable_memory))
    t0 = time.perf_counter()
    params = train_pretrain(train, warm, vocab)
    params = train_pretrain(train, main, vocab, init=params)
    train_seconds = time.perf_counter() - t0
    hits = 0
    for ps in heldout:
        context = assemble_context(ps, 0, period)
        stream = context + list(ps.ref_summary)
        # Teacher-forced: score the position right after the summary's fact
        # marker, whose target is the fact value planted in document one.
        row = len(stream) - len(ps.ref_summary) + ps.ref_summary.index(marker)
        trace = _run_stream(
            params, *_chunk_layout(chunk(stream[:-1], 16)), not disable_memory, 0
        )
        hits += int(np.argmax(trace.logits[row])) == stream[row + 1]
    return hits / len(heldout), train_seconds


def _pipeline_config(workdir, name, **overrides):
    keys = {
        "data": str(workdir / f"{name}.jsonl"),
        "report": str(workdir / f"{name}.report"),
        "d": 32,
        "synth_count": 100,
        "synth_seed": 0,
        "seed": 0,
    }
    keys.update(overrides)
    return write_config(workdir, f"{name}.cfg", **keys), keys["report"]


def _run_pipeline(workdir, name, **overrides):
    cfg, report_path = _pipeline_config(workdir, name, **overrides)
    code, out, err = invoke(["pipeline", "--config", cfg])
    assert code == 0, f"pipeline run '{name}' failed: {err}"
    with open(report_path, "rb") as fh:
        return fh.read(), out


class TestAcceptance:
    def test_backward_matches_central_differences(self):
        probe = gradcheck_probe()
        t0 = time.perf_counter()
        err = finite_difference_check(probe.params, probe.loss, probe.grads, eps=1e-5)
        elapsed = time.perf_counter() - t0
        _criterion(
            "gradient check",
            err < 1e-4 and elapsed < 10.0,
            f"max relative error {err:.3e} over every entry ({elapsed:.1f}s)",
        )

    def test_loss_identities(self, tmp_path):
        rng = np.random.default_rng(7)
        v = rng.normal(size=6)
        single = abs(comparative_loss([v], 2.0 * v))
        equal_sims = max(
            abs(comparative_loss([v.copy() for _ in range(n)], v) - n * math.log(n))
            for n in (2, 3, 5)
        )
        draws = rng.normal(size=(50, 2))
        lam_zero = all(
            stage_loss(g, c, 0.0) == g for g, c in draws
        ) and stage_loss(0.25, float("nan"), 0.0) == 0.25
        cfg, _ = _pipeline_config(
            tmp_path, "identity", d=8, epochs=1, synth_count=6, max_len=16
        )
        code, out, _ = invoke(["pipeline", "--config", cfg])
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        total_ok = summary["total_loss"] == summary["l_pretrain"] + summary["l_comparative"]
        _criterion(
            "loss identities",
            single <= 1e-12 and equal_sims <= 1e-9 and lam_zero and total_ok,
            f"single-insight loss {single:.1e}, equal-sims gap {equal_sims:.1e}, "
            f"lam=0 bitwise {lam_zero}, pipeline total == stage sum {total_ok}",
        )

    def test_contrastive_loss_lower_bound(self):
        rng = np.random.default_rng(42)
        bound = 4.0 * math.log(4.0)
        min_margin = math.inf
        for _ in range(1000):
            vecs = [rng.normal(size=5) for _ in range(4)]
            min_margin = min(
                min_margin, comparative_loss(vecs, rng.normal(size=5)) - bound
            )
        u = rng.normal(size=5)
        uniform_gap = abs(comparative_loss([u.copy() for _ in range(4)], u) - bound)
        _criterion(
            "contrastive lower bound",
            min_margin >= -1e-9 and uniform_gap <= 1e-9,
            f"min margin over 1000 random sets {min_margin:.3e}, "
            f"uniform-set gap {uniform_gap:.1e}",
        )

    def test_chunking_invariance_without_memory(self):
        rng = np.random.default_rng(3)
        params = init_params(8, 20, seed=3, scale=0.5)
        context = [1] + [int(t) for t in rng.integers(7, 20, size=39)]
        targets = [int(t) for t in rng.integers(7, 20, size=5)] + [2]
        flags = AblationFlags(disable_memory=True)
        logits = [
            forward(params, chunk(context, l), targets, flags).logits
            for l in (1, 4, 7, len(context))
        ]
        identical = all(np.array_equal(logits[0], other) for other in logits[1:])
        _criterion(
            "chunking invariance",
            identical,
            f"logits bitwise identical across chunk sizes (1, 4, 7, {len(context)}) "
            f"with memory disabled: {identical}",
        )

    def test_memory_improves_cross_chunk_recall(self, tmp_path, monkeypatch):
        _decay_rate_linearly(monkeypatch, RECALL_TRAIN_EXAMPLES)
        results = []
        worst_seconds = 0.0
        for seed in (0, 1, 2):
            on, t_on = _recall_accuracy(tmp_path, seed, disable_memory=False)
            off, t_off = _recall_accuracy(tmp_path, seed, disable_memory=True)
            results.append((seed, on, off))
            worst_seconds = max(worst_seconds, t_on, t_off)
        ok = all(on >= 0.90 and off <= 0.60 for _, on, off in results)
        detail = ", ".join(
            f"seed {s}: memory-on {on:.2f} / memory-off {off:.2f}"
            for s, on, off in results
        )
        _criterion(
            "cross-chunk recall",
            ok and worst_seconds < 300.0,
            f"{detail} (slowest training run {worst_seconds:.0f}s)",
        )

    def test_single_example_overfit(self, tmp_path, monkeypatch):
        path = str(tmp_path / "one.jsonl")
        write_dataset(path, generate_synthetic_corpus(0, 1))
        vocab = build_vocab(dataset_token_streams(path), 1)
        data = load_dataset(path, vocab)
        _decay_rate_linearly(monkeypatch, len(data))
        config = TrainConfig(
            learning_rate=0.05, epochs=500, l_chunk=16, d=16, seed=0
        )
        losses = []
        t0 = time.perf_counter()
        train_pretrain(data, config, vocab, log_fn=lambda r: losses.append(r.l_gen))
        elapsed = time.perf_counter() - t0
        _criterion(
            "single-example overfit",
            len(losses) == 500 and losses[-1] < 0.1 and elapsed < 60.0,
            f"loss {losses[-1]:.4f} nats/token after 500 steps ({elapsed:.1f}s)",
        )

    def test_rouge_matches_hand_and_brute_force_oracles(self):
        cand = "the cat sat".split()
        ref = "the cat sat on the mat".split()
        r1, r2 = rouge_n(cand, ref, 1), rouge_n(cand, ref, 2)
        clipped = rouge_n("a a a".split(), ["a"], 1)
        crossed = rouge_l("a b c d".split(), "a c b d".split())
        hand_ok = (
            (r1.precision, r1.recall, r1.f1) == (1.0, 0.5, 2.0 / 3.0)
            and (r2.precision, r2.recall, r2.f1) == (1.0, 0.4, 0.5714285714285715)
            and (clipped.recall, clipped.f1) == (1.0, 0.5)
            and clipped.precision == 1.0 / 3.0
            and (crossed.precision, crossed.recall, crossed.f1) == (0.75, 0.75, 0.75)
        )
        rng = np.random.default_rng(11)
        letters = list("abcd")
        brute_ok = True
        for _ in range(200):
            a = [letters[i] for i in rng.integers(0, 4, size=rng.integers(0, 9))]
            b = [letters[i] for i in rng.integers(0, 4, size=rng.integers(0, 9))]
            want = _brute_force_lcs(a, b)
            got = rouge_l(a, b)
            p = want / len(a) if a else 0.0
            r = want / len(b) if b else 0.0
            f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
            brute_ok = brute_ok and lcs_length(a, b) == want
            brute_ok = brute_ok and (got.precision, got.recall, got.f1) == (p, r, f1)
        _criterion(
            "metric oracles",
            hand_ok and brute_ok,
            f"hand-derived values exact {hand_ok}, "
            f"200 brute-force subsequence pairs exact {brute_ok}",
        )

    def test_ablations_change_evaluation_reports(self, tmp_path):
        # epochs=4: enough training that each ablation flips decode outcomes
        # the metrics can see, not just which wrong token is substituted.
        full, _ = _run_pipeline(tmp_path, "full", epochs=4)
        flips = {}
        for name, setting in (
            ("memory", {"disable_memory": "true"}),
            ("keys", {"key_k": "0"}),
            ("comparative", {"lambda": "0"}),
        ):
            report, _ = _run_pipeline(tmp_path, name, epochs=4, **setting)
            flips[name] = report != full
        _criterion(
            "ablation reports differ",
            all(flips.values()),
            ", ".join(f"disable {k}: report changed {v}" for k, v in flips.items()),
        )

    def test_pipeline_runs_are_deterministic(self, tmp_path):
        reports = []
        worst_seconds = 0.0
        for name in ("rerun_a", "rerun_b"):
            t0 = time.perf_counter()
            report, _ = _run_pipeline(tmp_path, name, epochs=3)
            worst_seconds = max(worst_seconds, time.perf_counter() - t0)
            reports.append(report)
        _criterion(
            "pipeline determinism",
            reports[0] == reports[1] and worst_seconds < 600.0,
            f"two same-seed end-to-end runs byte-identical "
            f"{reports[0] == reports[1]} (slower run {worst_seconds:.0f}s)",
        )
