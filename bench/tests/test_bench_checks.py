"""Each output check passes on the program's real outputs and fails when one
of them is corrupted."""

import json

import numpy as np
import pytest

import checks
import reference as ref
import workloads
from compsum import corpus, metrics, model, training
from tracing import Recorder


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(5)
    params = model.init_params(6, 15, seed=5, scale=0.6)
    context = [corpus.BOS] + [int(x) for x in rng.integers(7, 15, size=11)]
    target = [int(x) for x in rng.integers(7, 15, size=5)] + [corpus.EOS]
    insights = [[int(x) for x in rng.integers(7, 15, size=4)] for _ in range(3)]
    return params, corpus.chunk(context, 4), target, insights


def test_forward_check_catches_a_changed_logit(case):
    params, chunks, target, _ = case
    trace = model.forward(params, chunks, target)
    loss = training.generation_loss(trace, target)
    plain = [c.tokens for c in chunks]
    want = ref.teacher_forced_logits(params.tensors, plain, target, True)
    want_loss = ref.generation_loss(params.tensors, plain, target, True)
    assert checks.check_forward(trace.logits, loss, want, want_loss) == []
    bad = trace.logits.copy()
    bad[2, 7] *= 1 + 1e-8
    assert checks.check_forward(bad, loss, want, want_loss)
    assert checks.check_forward(trace.logits, loss * (1 + 1e-8), want, want_loss)


@pytest.mark.parametrize("term", ["generation", "contrastive"])
def test_gradient_check_catches_one_perturbed_entry(case, term):
    params, chunks, target, insights = case
    plain = [c.tokens for c in chunks]
    trace = model.forward(params, chunks, target)
    if term == "generation":
        spec = training.LossSpec(targets=target)
        loss_fn = lambda p: ref.generation_loss(p, plain, target, True)  # noqa: E731
        rows = [tok for c in plain for tok in c] + target
    else:
        spec = training.LossSpec(lam=0.5, insights=insights, ref_tokens=target)
        loss_fn = lambda p: 0.5 * ref.contrastive_loss(p, insights, target)  # noqa: E731
        rows = [tok for seq in insights for tok in seq] + target
    grads = training.backward(trace, params, spec)
    work = {k: v.copy() for k, v in params.tensors.items()}
    entries = checks.sample_entries(work, np.random.default_rng(0), 2, rows)
    errors = checks.gradient_errors(grads, loss_fn, work, entries)
    assert checks.check_gradient(term, errors) == []
    assert all(np.array_equal(work[k], params.tensors[k]) for k in work)
    # Perturb the largest sampled entry by 1e-3 of its value.
    name, idx = max(entries, key=lambda e: abs(grads[e[0]].reshape(-1)[e[1]]))
    grads[name].reshape(-1)[idx] *= 1 + 1e-3
    errors = checks.gradient_errors(grads, loss_fn, work, entries)
    assert len(checks.check_gradient(term, errors)) == 1


def test_decode_check_catches_a_changed_token_and_an_early_stop(case):
    params, chunks, _, _ = case
    plain = [c.tokens for c in chunks]
    decoded = model.greedy_decode(params, chunks, 10)
    assert len(decoded) >= 2
    rows = ref.decode_logits(params.tensors, plain, decoded, True)
    assert checks.check_decode(decoded, rows, 10) == []
    changed = list(decoded)
    changed[1] = 7 if changed[1] != 7 else 8
    assert checks.check_decode(changed, ref.decode_logits(params.tensors, plain, changed, True), 10)
    short = decoded[:-1]
    assert checks.check_decode(short, ref.decode_logits(params.tensors, plain, short, True), 10)
    assert checks.check_decode(decoded, rows, len(decoded) - 1)


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """A report of the program's evaluate_dataset, and the decodes behind it."""
    d = tmp_path_factory.mktemp("eval")
    data = str(d / "data.jsonl")
    corpus.write_dataset(data, corpus.generate_synthetic_corpus(3, 6))
    vocab = corpus.build_vocab(corpus.dataset_token_streams(data))
    examples = corpus.load_dataset(data, vocab)
    params = model.init_params(8, len(vocab), seed=1, scale=0.5)
    rec = Recorder(["model.greedy_decode"], keep=["model.greedy_decode"])
    with rec:
        report = metrics.evaluate_dataset(params, examples, vocab, 16, 12)
    path = str(d / "report.jsonl")
    metrics.write_report(path, report)
    with open(path, "rb") as fh:
        text = fh.read()
    decodes = [s.result for s in rec.of("model.greedy_decode")]
    args = (
        [ps.id for ps in examples],
        [vocab.decode(ids) for ids in decodes],
        [vocab.decode(ps.ref_summary[:-1]) for ps in examples],
        [[vocab.decode(doc.insight) for doc in ps.docs] for ps in examples],
        0.5,
    )
    return text, args


def test_report_check_catches_an_altered_row(evaluated):
    text, args = evaluated
    assert checks.check_report(text, *args) == []
    lines = text.decode().splitlines()
    row = json.loads(lines[3])
    row["rougeL_f1"] += 1e-9
    altered = "\n".join(lines[:3] + [json.dumps(row)] + lines[4:]) + "\n"
    assert checks.check_report(altered.encode(), *args)


def test_summary_and_loss_checks():
    report = b'{"rouge1_f1": 0.5, "example_count": 2}\n'
    assert checks.check_summary_line(b'{"rouge1_f1": 0.5, "example_count": 2, "l": 1}\n', report) == []
    assert checks.check_summary_line(b'{"rouge1_f1": 0.25, "example_count": 2}\n', report)
    good = {"l_pretrain": 0.1, "l_comparative": 0.2, "total_loss": 0.1 + 0.2}
    assert checks.check_losses(good, 20) == []
    assert checks.check_losses(dict(good, total_loss=0.3), 20)
    assert checks.check_losses(dict(good, l_pretrain=3.0, total_loss=3.2), 20)


def test_repeat_with_different_bytes_fails(tmp_path):
    assert checks.check_same_bytes("report", b"a\n", b"a\n") == []
    assert checks.check_same_bytes("report", b"a\n", b"b\n")
    # Two set-ups from one seed make the same files; a change shows.
    one = workloads.Pipeline(str(tmp_path), 0, 16)
    (tmp_path / "data.jsonl").write_text("x\n")
    before = one.fingerprint()
    (tmp_path / "data.jsonl").write_text("y\n")
    assert one.fingerprint() != before
