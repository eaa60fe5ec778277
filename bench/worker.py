"""One workload in one process: set-up, timed rounds, output checks and,
with --trace 1, the per-layer numbers.

bench/run.py starts this script in a fresh process and reads the JSON object
it prints last.  Run it by hand only to debug a workload:

    OPENBLAS_NUM_THREADS=1 python3 bench/worker.py --workload pipeline \
        --seed 0 --seconds 40 --trace 0 --spawned-at 0 --workdir .bench_work/debug
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from compsum import corpus, model, training  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder  # noqa: E402

PRETRAIN = "training.train_pretrain"
COMPARATIVE = "training.train_comparative"
EVALUATE = "metrics.evaluate_dataset"
DECODE = "model.greedy_decode"
STAGES = (PRETRAIN, COMPARATIVE, EVALUATE)
# Traced runs also wrap the other public names the modules call each other
# through.  A name a later version drops is skipped with a warning.
TRACED = (
    "corpus.generate_synthetic_corpus", "corpus.write_dataset",
    "corpus.dataset_token_streams", "corpus.build_vocab", "corpus.load_dataset",
    "corpus.assemble_context", "corpus.chunk",
    "model.forward", "model.memory_update", "model.save_checkpoint",
    "model.load_checkpoint", "training.clip_gradients", "training.optimizer_step",
    "metrics.compute_rouge", "metrics.g_score", "metrics.write_report",
)
FORWARD_SAMPLE = 3  # examples whose forward pass is checked
GRAD_ENTRIES_PER_TENSOR = 2


def stage_recorder() -> Recorder:
    return Recorder(STAGES + (DECODE,), keep=(DECODE,))


def traced_recorder() -> Recorder:
    return Recorder(STAGES + (DECODE,), keep=(DECODE,), optional=TRACED)


def warm_up() -> None:
    """First calls of numpy and of every layer, on a toy model."""
    params = model.init_params(8, 20, 0)
    chunks = corpus.chunk([1, 7, 8, 9, 10, 11, 12], 4)
    trace = model.forward(params, chunks, [13, 14, 2])
    spec = training.LossSpec(targets=[13, 14, 2], lam=0.5, insights=[[7, 8]], ref_tokens=[13, 14, 2])
    grads = training.backward(trace, params, spec)
    training.clip_gradients(grads, 5.0)
    model.greedy_decode(params, chunks, 4)
    ref.teacher_forced_logits(params.tensors, [c.tokens for c in chunks], [13, 14, 2], True)
    workloads.run_cli(["--help"])


def blas_threads() -> int | None:
    """Threads of numpy's OpenBLAS, asked from the library itself; None where
    the library offers no such call."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {"numpy": np.__version__, "openblas": openblas, "blas_threads": blas_threads()}


# --- checks ------------------------------------------------------------------


def check_outputs(w: workloads.Workload, first: workloads.Round, decode_spans: list) -> list[str]:
    """Checks of the first round's outputs, which every other round repeats
    byte for byte."""
    problems = checks.check_summary_line(first.stdout, first.report)

    vocab = w.vocab()
    examples = w.load(w.eval_data())
    params = w.params()
    t = params.tensors
    keys = w.keys
    decodes = [s.result for s in decode_spans]
    contexts = [[list(c.tokens) for c in s.args[1]] for s in decode_spans]
    if len(decodes) != len(examples):
        return problems + [f"decode: {len(decodes)} decodes for {len(examples)} examples"]

    for i, (chunks, generated) in enumerate(zip(contexts, decodes)):
        rows = ref.decode_logits(t, chunks, generated, memory_on=True)
        problems += [f"{examples[i].id} {p}" for p in checks.check_decode(generated, rows, keys["max_len"])]

    def strip_eos(ids):
        return ids[:-1] if ids and ids[-1] == ref.EOS else ids

    problems += checks.check_report(
        first.report,
        [ps.id for ps in examples],
        [vocab.decode(ids) for ids in decodes],
        [vocab.decode(strip_eos(ps.ref_summary)) for ps in examples],
        [[vocab.decode(doc.insight) for doc in ps.docs if doc.insight] for ps in examples],
        keys["tau"],
    )

    rng = np.random.default_rng(w.seed)
    period_id = vocab.id_of(".")
    sample = rng.choice(len(examples), size=min(FORWARD_SAMPLE, len(examples)), replace=False)
    for k, idx in enumerate(sample):
        ps = examples[int(idx)]
        chunks = corpus.chunk(corpus.assemble_context(ps, keys["key_k"], period_id), keys["l_chunk"])
        plain = [list(c.tokens) for c in chunks]
        target = list(ps.ref_summary)
        trace = model.forward(params, chunks, target)
        problems += checks.check_forward(
            trace.logits, training.generation_loss(trace, target),
            ref.teacher_forced_logits(t, plain, target, True),
            ref.generation_loss(t, plain, target, True),
        )
        if k > 0:
            continue
        # Gradients of each loss term against central differences of the
        # reference loss, on the first sampled example.
        insights = [list(doc.insight) for doc in ps.docs if doc.insight]
        lam = keys["lambda"]
        gen = training.backward(trace, params, training.LossSpec(targets=target))
        comp = training.backward(
            trace, params, training.LossSpec(lam=lam, insights=insights, ref_tokens=target)
        )
        stream = [tok for c in plain for tok in c] + target
        work = {name: a.copy() for name, a in t.items()}
        errors = checks.gradient_errors(
            gen, lambda p: ref.generation_loss(p, plain, target, True), work,
            checks.sample_entries(work, rng, GRAD_ENTRIES_PER_TENSOR, stream),
        )
        problems += checks.check_gradient("generation term", errors)
        errors = checks.gradient_errors(
            comp, lambda p: lam * ref.contrastive_loss(p, insights, target), work,
            checks.sample_entries(work, rng, GRAD_ENTRIES_PER_TENSOR,
                                  [tok for seq in insights for tok in seq] + target),
        )
        problems += checks.check_gradient("contrastive term", errors)

    if isinstance(w, workloads.Pipeline):
        summary = json.loads(first.stdout.decode().strip().splitlines()[-1])
        problems += checks.check_losses(summary, len(vocab))
    else:
        problems += checks.check_pretrain_loss(w.pretrain_loss(), len(vocab))
    return problems


# --- metrics -----------------------------------------------------------------


def stage_rates(w, spans: list[tuple[Recorder, int]]) -> dict:
    """Work per second of each stage, median over the (recorder, round)
    pairs in which the stage ran: positions per epoch for the training
    stages, examples for evaluation."""
    positions = w.train_positions() * w.train_epochs
    n_eval = len(w.load(w.eval_data()))
    out = {}
    for name, stage, work in (
        ("pretrain_tokens_per_s", PRETRAIN, positions),
        ("comparative_tokens_per_s", COMPARATIVE, positions),
        ("eval_examples_per_s", EVALUATE, n_eval),
    ):
        rates = [work / rec.total(stage, i) for rec, i in spans if rec.of(stage, i)]
        if rates:
            out[name] = statistics.median(rates)
    return out


def per_layer(w, rec: Recorder, traced_round, untraced_rounds, rates: dict, scratch: str) -> dict:
    vocab = w.vocab()
    period_id = vocab.id_of(".")
    params = w.params()
    train_examples = w.load(w.train_data())
    out = replay.training_epoch(params, train_examples, w.keys, period_id)
    out.update(replay.corpus_and_checkpoint(w.train_data(), w.vocab_path, params, w.keys, scratch))

    decode_spans = rec.of(DECODE)
    decoded_tokens = sum(
        sum(len(c.tokens) for c in s.args[1]) + len(s.result) for s in decode_spans
    )
    rouge = rec.of("metrics.compute_rouge")
    gscore = rec.of("metrics.g_score")
    train_stages = len(rec.of(PRETRAIN)) + len(rec.of(COMPARATIVE))
    out.update({
        "count.steps": len(rec.of("training.optimizer_step")),
        "model.decode_us_per_token": 1e6 * rec.total(DECODE) / decoded_tokens,
        "count.decoded_tokens": decoded_tokens,
        "metrics.rouge_us_per_example": 1e6 * sum(s.seconds for s in rouge) / len(rouge),
        "metrics.gscore_us_per_example": 1e6 * sum(s.seconds for s in gscore) / len(gscore),
        "cli.pretrain_s": rec.total(PRETRAIN),
        "cli.comparative_s": rec.total(COMPARATIVE),
        "cli.evaluate_s": rec.total(EVALUATE),
        "cli.unattributed_s": sum(rec.uncovered(name) for name in STAGES),
        "count.train_tokens": w.train_positions() * w.train_epochs * train_stages,
        "trace.run_s": traced_round.seconds,
        "trace.untraced_run_s": statistics.median(r.seconds for r in untraced_rounds),
    })
    out.update(rates)
    return out


# --- main --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file to write the traced run's spans to")
    args = parser.parse_args(argv)

    # The two vCPUs of the machine this was sized on drift in speed
    # independently; one fixed CPU keeps that choice out of the spread.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(args.workdir, exist_ok=True)
    warm_up()
    w = workloads.make(args.workload, args.workdir, args.seed)
    rec = traced_recorder() if args.trace else stage_recorder()
    rec.round = 0
    with rec:
        w.setup()
    setup_s = time.monotonic() - args.spawned_at
    result = {
        "setup_s": setup_s,
        "fingerprint": w.fingerprint(),
        "env": environment(),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # Timed rounds, each the same command with the same inputs, until the
    # run has measured for --seconds.  Only the first round's outputs and
    # decodes are kept; each later round is compared with them as it ends,
    # so memory does not grow with the number of rounds.
    rounds = []
    problems = []
    rounds_rec = stage_recorder()
    start = time.perf_counter()
    with rounds_rec:
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds_rec.round = len(rounds) + 1
            r = w.run_round()
            rounds_rec.keep.clear()
            if r.code != 0:
                problems.append(f"round {len(rounds) + 1}: exit code {r.code}")
            if rounds:
                problems += checks.check_same_bytes("stdout", rounds[0].stdout, r.stdout)
                problems += checks.check_same_bytes("report", rounds[0].report, r.report)
                r.stdout = r.report = b""
            rounds.append(r)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not problems:
        problems = check_outputs(w, rounds[0], rounds_rec.of(DECODE, 1))

    # Stage rates of this process: its rounds, and on `evaluate` the
    # training stages of its set-up.
    rates = stage_rates(
        w, [(rec, 0)] + [(rounds_rec, i) for i in range(1, len(rounds) + 1)]
    )
    if args.trace:
        rec.round = len(rounds) + 1
        with rec:
            traced = w.run_round()
        problems += checks.check_same_bytes("traced round stdout", rounds[0].stdout, traced.stdout)
        problems += checks.check_same_bytes("traced round report", rounds[0].report, traced.report)
        metrics = per_layer(w, rec, traced, rounds, rates, args.workdir)
        if args.spans:
            rec.write(args.spans)
    else:
        metrics = {
            "run_s": statistics.median(r.seconds for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        result["stage_rates"] = rates
    # The rounds repeat one operation with the same inputs, so a problem in
    # their shared outputs fails every one of them.
    result.update(
        attempted=len(rounds), failed=len(rounds) if problems else 0,
        problems=problems, metrics=metrics,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
