"""Command-line surface: reproducible runs driven by a flat key=value config.

Subcommands: synth, build-vocab, train, generate, evaluate, gradcheck, and
pipeline (synth -> vocab -> pretrain -> comparative -> evaluate).  Exit codes:
0 success, 1 usage error, 2 bad data or config (or a model too large to
allocate), 3 violated internal invariant.  All file outputs are written
atomically, so a failed run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Sequence, get_type_hints

import numpy as np

from .corpus import (
    Vocabulary,
    build_vocab,
    chunk,
    dataset_token_streams,
    generate_synthetic_corpus,
    load_dataset,
    write_dataset,
)
from .errors import ConfigError, Error, InvariantError
from .ioutil import utf8_lines, write_lines
from .metrics import DEFAULT_TAU, aggregate_record, evaluate_dataset, mean_in_order, write_report
from .model import AblationFlags, decode_each, load_checkpoint, model_context, save_checkpoint
from .training import (
    StepRecord,
    TrainConfig,
    finite_difference_check,
    gradcheck_probe,
    train_comparative,
    train_pretrain,
)

GRADCHECK_TOLERANCE = 1e-4


@dataclass
class RunConfig(TrainConfig):
    """Everything a run needs, parsed from the config file: the training
    settings it inherits from ``TrainConfig`` plus the run's own.

    Path fields default to empty strings; each subcommand validates the paths
    it actually requires.
    """

    stage: str = "pretrain"
    data: str = ""
    vocab: str = ""
    checkpoint_in: str = ""
    checkpoint_out: str = ""
    report: str = ""
    max_len: int = 48
    temperature: float = 0.0
    tau: float = DEFAULT_TAU
    min_freq: int = 1
    synth_count: int = 100
    synth_seed: int = 0


# field type -> (conversion of the raw string, what a bad value was expected to be)
_PARSERS: dict[type, tuple[Callable[[str], object], str]] = {
    str: (str, "a string"),
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: ({"true": True, "false": False}.__getitem__, "true or false"),
}
# The config keys whose name is not their field's: 'lambda' is a Python
# keyword, and 'lr' is short for the learning rate.
_RENAMED_KEYS = {"lam": "lambda", "learning_rate": "lr"}


_HINTS = get_type_hints(RunConfig)
# key -> (field name, parser entry), one per field of RunConfig, the entry
# chosen by the field's type.
_CONFIG_KEYS: dict[str, tuple[str, tuple[Callable[[str], object], str]]] = {
    _RENAMED_KEYS.get(f.name, f.name): (f.name, _PARSERS[_HINTS[f.name]]) for f in fields(RunConfig)
}


def _validate(config: RunConfig) -> RunConfig:
    checks: list[tuple[str, bool, str]] = [
        ("stage", config.stage in ("pretrain", "comparative"), "must be pretrain or comparative"),
        ("d", config.d >= 1, "must be >= 1"),
        # the checkpoint header stores l_chunk and key_k as uint32s
        ("l_chunk", 1 <= config.l_chunk < 2**32, "must be in [1, 4294967295]"),
        ("lr", math.isfinite(config.learning_rate) and config.learning_rate > 0,
         "must be finite and > 0"),
        ("epochs", config.epochs >= 0, "must be >= 0"),
        ("lambda", math.isfinite(config.lam) and config.lam >= 0, "must be finite and >= 0"),
        ("seed", config.seed >= 0, "must be >= 0"),
        ("key_k", 0 <= config.key_k < 2**32, "must be in [0, 4294967295]"),
        ("max_len", config.max_len >= 1, "must be >= 1"),
        ("temperature", math.isfinite(config.temperature) and config.temperature >= 0,
         "must be finite and >= 0"),
        ("tau", 0 < config.tau <= 1, "must be in (0, 1]"),
        ("min_freq", config.min_freq >= 1, "must be >= 1"),
        ("synth_count", config.synth_count >= 0, "must be >= 0"),
        ("synth_seed", config.synth_seed >= 0, "must be >= 0"),
    ]
    for key, ok, reason in checks:
        if not ok:
            raise ConfigError(key, reason)
    return config


def load_config(path: str) -> RunConfig:
    """Parse a key=value config file; later duplicates win; unknown keys and
    out-of-range values are rejected with the offending key named."""
    config = RunConfig()
    for raw_line in utf8_lines(path):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(line, "expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(key, "unknown key")
        name, (convert, expected) = _CONFIG_KEYS[key]
        try:
            setattr(config, name, convert(raw))
        except (KeyError, ValueError):
            raise ConfigError(key, f"expected {expected}, got {raw!r}") from None
    return _validate(config)


def _require_path(config: RunConfig, key: str) -> str:
    value = getattr(config, key)
    if not value:
        raise ConfigError(key, "a path is required for this command")
    return value


def _load_vocab_and_data(config: RunConfig):
    vocab = Vocabulary.load(_require_path(config, "vocab"))
    dataset = load_dataset(_require_path(config, "data"), vocab)
    return vocab, dataset


def _load_matching_checkpoint(config: RunConfig, vocab: Vocabulary):
    params, l_chunk, flags, key_k = load_checkpoint(_require_path(config, "checkpoint_in"))
    if params.V != len(vocab):
        raise ConfigError(
            "vocab", f"vocabulary size {len(vocab)} does not match checkpoint V={params.V}"
        )
    return params, l_chunk, flags, key_k


def _final_epoch_mean(records: list[StepRecord], epochs: int, attr: str) -> float:
    return mean_in_order(getattr(r, attr) for r in records if r.epoch == epochs)


# --- subcommands -----------------------------------------------------------


def _cmd_synth(config: RunConfig) -> int:
    if config.synth_count < 1:
        raise ConfigError("synth_count", "must be >= 1 to synthesize a corpus")
    out = _require_path(config, "data")
    records = generate_synthetic_corpus(config.synth_seed, config.synth_count)
    write_dataset(out, records)
    print(f"wrote {len(records)} synthetic examples to {out}")
    return 0


def _cmd_build_vocab(config: RunConfig) -> int:
    streams = dataset_token_streams(_require_path(config, "data"))
    vocab = build_vocab(streams, config.min_freq)
    vocab.save(_require_path(config, "vocab"))
    print(f"wrote vocabulary of {len(vocab)} tokens to {config.vocab}")
    return 0


def _cmd_train(config: RunConfig) -> int:
    vocab, dataset = _load_vocab_and_data(config)
    records: list[StepRecord] = []
    init, flags = None, AblationFlags(config.disable_memory)
    # continued training keeps what the checkpoint header records; d comes with the tensors
    if config.checkpoint_in or config.stage == "comparative":
        init, config.l_chunk, flags, config.key_k = _load_matching_checkpoint(config, vocab)
        config.disable_memory = flags.disable_memory
    if config.stage == "pretrain":
        params = train_pretrain(dataset, config, vocab, init, records.append)
    else:
        params = train_comparative(dataset, init, config, vocab, records.append)
    if config.checkpoint_out:
        save_checkpoint(config.checkpoint_out, params, config.l_chunk, flags, config.key_k)
    if config.report:
        write_lines(config.report, (json.dumps(r.to_record()) for r in records))
    print(
        json.dumps(
            {
                "stage": config.stage,
                "steps": len(records),
                "final_epoch_mean_l_stage": _final_epoch_mean(
                    records, config.epochs, "l_stage"
                ),
            }
        )
    )
    return 0


def _cmd_generate(config: RunConfig) -> int:
    vocab, dataset = _load_vocab_and_data(config)
    params, l_chunk, flags, key_k = _load_matching_checkpoint(config, vocab)
    out = _require_path(config, "report")
    contexts = ((ps.id, chunk(model_context(ps, vocab, key_k), l_chunk)) for ps in dataset)
    decodes = decode_each(params, contexts, config.max_len, flags, config.temperature, config.seed)
    lines = [
        json.dumps({"id": ps.id, "summary": " ".join(vocab.decode(ids))})
        for ps, ids in zip(dataset, decodes)
    ]
    write_lines(out, lines)
    print(f"wrote {len(lines)} summaries to {out}")
    return 0


def _cmd_evaluate(config: RunConfig) -> int:
    vocab, dataset = _load_vocab_and_data(config)
    params, l_chunk, flags, key_k = _load_matching_checkpoint(config, vocab)
    rows = evaluate_dataset(
        params, dataset, vocab, l_chunk, config.max_len, tau=config.tau, key_k=key_k, flags=flags
    )
    if config.report:
        write_report(config.report, rows)
    print(json.dumps(aggregate_record(rows)))
    return 0


def _cmd_gradcheck(seed: int) -> int:
    probe = gradcheck_probe(seed)
    err = finite_difference_check(probe.params, probe.loss, probe.grads, eps=1e-5)
    ok = err < GRADCHECK_TOLERANCE
    print(f"gradcheck max relative error {err:.6e} ({'pass' if ok else 'fail'})")
    return 0 if ok else 3


def _cmd_pipeline(config: RunConfig) -> int:
    """synth (if synth_count > 0) -> vocab -> pretrain -> comparative ->
    evaluate; prints the aggregate report plus the two-stage loss total.

    A failure after the config is loaded propagates with the label of the
    stage it happened in, as its ``pipeline_stage`` attribute."""
    flags = AblationFlags(config.disable_memory)
    label = "synth"
    try:
        if config.synth_count > 0:
            out = _require_path(config, "data")
            write_dataset(out, generate_synthetic_corpus(config.synth_seed, config.synth_count))
        label = "vocab"
        vocab = build_vocab(dataset_token_streams(_require_path(config, "data")), config.min_freq)
        if config.vocab:
            vocab.save(config.vocab)
        label = "load"
        dataset = load_dataset(config.data, vocab)
        label = "pretrain"
        pre_records: list[StepRecord] = []
        params = train_pretrain(dataset, config, vocab, log_fn=pre_records.append)
        label = "comparative"
        comp_records: list[StepRecord] = []
        params = train_comparative(dataset, params, config, vocab, comp_records.append)
        label = "checkpoint"
        if config.checkpoint_out:
            save_checkpoint(config.checkpoint_out, params, config.l_chunk, flags, config.key_k)
        label = "evaluate"
        rows = evaluate_dataset(
            params, dataset, vocab, config.l_chunk, config.max_len,
            tau=config.tau, key_k=config.key_k, flags=flags,
        )
        if config.report:
            write_report(config.report, rows)
        l_pretrain = _final_epoch_mean(pre_records, config.epochs, "l_gen")
        l_comparative = _final_epoch_mean(comp_records, config.epochs, "l_stage")
        summary = aggregate_record(rows)
        summary["l_pretrain"] = l_pretrain
        summary["l_comparative"] = l_comparative
        summary["total_loss"] = l_pretrain + l_comparative
        print(json.dumps(summary))
        return 0
    except (Error, OSError, MemoryError) as exc:
        exc.pipeline_stage = label
        raise


def _non_negative_int(raw: str) -> int:
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got '{raw}'")
    return int(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compsum",
        description=(
            "Train and evaluate a chunked recurrent comparative summarizer "
            "with a cross-chunk attention memory."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    for name, handler, help_text in (
        ("synth", _cmd_synth, "generate a deterministic synthetic corpus"),
        ("build-vocab", _cmd_build_vocab, "build a vocabulary from a dataset"),
        ("train", _cmd_train, "run one training stage (per config 'stage')"),
        ("generate", _cmd_generate, "decode summaries for a dataset"),
        ("evaluate", _cmd_evaluate, "score decoded summaries against references"),
        ("pipeline", _cmd_pipeline, "synth, vocab, both training stages, evaluate"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.set_defaults(handler=handler)
    g = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    g.add_argument("--seed", type=_non_negative_int, default=0, help="probe seed")
    g.set_defaults(handler=_cmd_gradcheck)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point returning the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        # Overflow is checked explicitly where it matters (training steps,
        # checkpoint loads, config values), so numpy's warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(load_config(args.config) if "config" in args else args.seed)
    except (Error, OSError, MemoryError) as exc:
        stage = getattr(exc, "pipeline_stage", None)
        where = f"pipeline stage '{stage}': " if stage else ""
        what = f"out of memory: {exc}" if isinstance(exc, MemoryError) else exc
        print(f"error: {where}{what}", file=sys.stderr)
        return 3 if isinstance(exc, InvariantError) else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
