"""Benchmark of compsum: runs one workload and prints its metrics.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 24 --trace 0

Run from anywhere; the program is imported from the ``src`` directory next to
``bench``.  The workload runs in fresh worker processes (bench/worker.py)
with BLAS fixed at one thread.  Set-up runs in SETUP_REPEATS processes, and
``setup_s`` is the median; the last process also runs the timed rounds and
checks the outputs.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("pipeline", "pipeline-chunk4", "evaluate")
SETUP_REPEATS = 3
TIME_LIMIT_S = 175.0  # for the whole invocation, all processes included
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
STAGE_RATES = {
    "pretrain_tokens_per_s": "tok/s",
    "comparative_tokens_per_s": "tok/s",
    "eval_examples_per_s": "ex/s",
}
PER_LAYER = {
    **STAGE_RATES,
    "model.forward_us_per_token": "us/token",
    "training.backward_gen_us_per_token": "us/token",
    "model.memory_update_us_per_call": "us/call",
    "count.memory_updates": "count",
    "model.encode_us_per_token": "us/token",
    "training.backward_comp_us_per_example": "us/example",
    "training.optimizer_us_per_step": "us/step",
    "count.steps": "count",
    "model.decode_us_per_token": "us/token",
    "count.decoded_tokens": "count",
    "metrics.rouge_us_per_example": "us/example",
    "metrics.gscore_us_per_example": "us/example",
    "corpus.vocab_ms": "ms",
    "corpus.load_us_per_example": "us/example",
    "corpus.assemble_us_per_example": "us/example",
    "model.checkpoint_save_ms": "ms",
    "model.checkpoint_load_ms": "ms",
    "cli.pretrain_s": "s",
    "cli.comparative_s": "s",
    "cli.evaluate_s": "s",
    "cli.unattributed_s": "s",
    "count.train_tokens": "count",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
}


class BenchError(Exception):
    pass


def spawn(args, workdir: str, deadline: float, setup_only: bool, spans: str | None) -> dict:
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    env = dict(os.environ, **THREAD_ENV)
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=remaining, check=False
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {remaining:.0f}s") from None
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def combine(args, setups: list[dict], main: dict) -> tuple[dict, list[str]]:
    """The metrics to report and the problems found."""
    problems = list(main["problems"])
    if len({s["fingerprint"] for s in setups}) != 1:
        problems.append("set-up: processes made different files from the same seed")
    for s in setups:
        if s["env"]["blas_threads"] not in (None, 1):
            problems.append(f"set-up: BLAS ran {s['env']['blas_threads']} threads, not 1")
    if args.trace:
        return {k: main["metrics"][k] for k in PER_LAYER}, problems
    metrics = dict(main["metrics"], setup_s=statistics.median(s["setup_s"] for s in setups))
    return {k: metrics[k] for k in END_TO_END}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "compsum", "__init__.py")):
        print(f"bench: no program at {os.path.join(ROOT, 'src', 'compsum')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    spans = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    # A traced run reports no set-up time, so it sets up once.
    n_setups = 1 if args.trace else SETUP_REPEATS
    try:
        setups = []
        for i in range(n_setups):
            last = i == n_setups - 1
            result = spawn(args, os.path.join(workdir, str(i)), deadline, not last, spans)
            setups.append(result)
        metrics, problems = combine(args, setups, setups[-1])
    except (BenchError, KeyError, ValueError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    main_result = setups[-1]
    attempted = main_result["attempted"]
    failed = attempted if problems else main_result["failed"]
    units = PER_LAYER if args.trace else END_TO_END
    env = main_result["env"]
    print(
        f"{args.workload} seed {args.seed}: {attempted} rounds, {failed} failed; "
        f"nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {env['numpy']}, openblas {env['openblas']}, blas threads {env['blas_threads']}"
    )
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.4f} {units[name]}")
    for name, value in main_result.get("stage_rates", {}).items():
        print(f"  {name:40s} {value:14.4f} {STAGE_RATES[name]} (per-layer metric, shown for reference)")
    for p in problems[:20]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
