"""Command-line surface: reproducible runs driven by a flat key=value config.

Subcommands: synth, build-vocab, train, generate, evaluate, gradcheck, and
pipeline (synth -> vocab -> pretrain -> comparative -> evaluate).  Exit codes:
0 success, 1 usage error, 2 bad data or config, 3 violated internal
invariant.  All file outputs are written atomically, so a failed run never
leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .corpus import (
    Vocabulary,
    assemble_context,
    build_vocab,
    chunk,
    dataset_token_streams,
    generate_synthetic_corpus,
    load_dataset,
    write_dataset,
)
from .errors import ConfigError, DataError, InvariantError
from .ioutil import atomic_write_text
from .metrics import SENTENCE_DELIMITER, evaluate_dataset, write_report
from .model import (
    AblationFlags,
    greedy_decode,
    load_checkpoint,
    sample_decode,
    save_checkpoint,
)
from .training import (
    StepRecord,
    TrainConfig,
    finite_difference_check,
    gradcheck_probe,
    total_loss,
    train_comparative,
    train_pretrain,
)

GRADCHECK_TOLERANCE = 1e-4


@dataclass
class RunConfig:
    """Everything a run needs, parsed from the config file.

    Path fields default to empty strings; each subcommand validates the paths
    it actually requires.
    """

    stage: str = "pretrain"
    data: str = ""
    vocab: str = ""
    checkpoint_in: str = ""
    checkpoint_out: str = ""
    report: str = ""
    d: int = 32
    l_chunk: int = 16
    lr: float = 0.005
    epochs: int = 3
    lam: float = 0.5
    seed: int = 0
    key_k: int = 2
    max_len: int = 48
    temperature: float = 0.0
    tau: float = 0.5
    min_freq: int = 1
    disable_memory: bool = False
    disable_key_extraction: bool = False
    disable_comparative: bool = False
    synth_count: int = 100
    synth_seed: int = 0

    def flags(self) -> AblationFlags:
        return AblationFlags(
            self.disable_memory, self.disable_key_extraction, self.disable_comparative
        )

    def train_config(self, stage: str) -> TrainConfig:
        return TrainConfig(
            stage=stage,
            learning_rate=self.lr,
            epochs=self.epochs,
            lam=self.lam,
            l_chunk=self.l_chunk,
            d=self.d,
            seed=self.seed,
            key_k=self.key_k,
            flags=self.flags(),
        )


def _parse_bool(key: str, raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigError(key, f"expected true or false, got '{raw}'")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got '{raw}'") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a number, got '{raw}'") from None


# key -> (attribute, parser); parsers take (key, raw-string).
_CONFIG_KEYS: dict[str, tuple[str, Callable]] = {
    "stage": ("stage", lambda k, v: v),
    "data": ("data", lambda k, v: v),
    "vocab": ("vocab", lambda k, v: v),
    "checkpoint_in": ("checkpoint_in", lambda k, v: v),
    "checkpoint_out": ("checkpoint_out", lambda k, v: v),
    "report": ("report", lambda k, v: v),
    "d": ("d", _parse_int),
    "l_chunk": ("l_chunk", _parse_int),
    "lr": ("lr", _parse_float),
    "epochs": ("epochs", _parse_int),
    "lambda": ("lam", _parse_float),
    "seed": ("seed", _parse_int),
    "key_k": ("key_k", _parse_int),
    "max_len": ("max_len", _parse_int),
    "temperature": ("temperature", _parse_float),
    "tau": ("tau", _parse_float),
    "min_freq": ("min_freq", _parse_int),
    "disable_memory": ("disable_memory", _parse_bool),
    "disable_key_extraction": ("disable_key_extraction", _parse_bool),
    "disable_comparative": ("disable_comparative", _parse_bool),
    "synth_count": ("synth_count", _parse_int),
    "synth_seed": ("synth_seed", _parse_int),
}


def _validate(config: RunConfig) -> RunConfig:
    checks: list[tuple[str, bool, str]] = [
        ("stage", config.stage in ("pretrain", "comparative"), "must be pretrain or comparative"),
        ("d", config.d >= 1, "must be >= 1"),
        ("l_chunk", config.l_chunk >= 1, "must be >= 1"),
        ("lr", config.lr > 0, "must be > 0"),
        ("epochs", config.epochs >= 0, "must be >= 0"),
        ("lambda", config.lam >= 0, "must be >= 0"),
        ("key_k", config.key_k >= 0, "must be >= 0"),
        ("max_len", config.max_len >= 1, "must be >= 1"),
        ("temperature", math.isfinite(config.temperature) and config.temperature >= 0,
         "must be finite and >= 0"),
        ("tau", 0 < config.tau <= 1, "must be in (0, 1]"),
        ("min_freq", config.min_freq >= 1, "must be >= 1"),
        ("synth_count", config.synth_count >= 0, "must be >= 0"),
    ]
    for key, ok, reason in checks:
        if not ok:
            raise ConfigError(key, reason)
    return config


def load_config(path: str) -> RunConfig:
    """Parse a key=value config file; later duplicates win; unknown keys and
    out-of-range values are rejected with the offending key named."""
    config = RunConfig()
    with open(path, encoding="utf-8") as fh:
        for raw_line in fh:
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
            attr, parse = _CONFIG_KEYS[key]
            setattr(config, attr, parse(key, raw))
    return _validate(config)


def _require_path(config: RunConfig, key: str) -> str:
    value = getattr(config, _CONFIG_KEYS[key][0])
    if not value:
        raise ConfigError(key, "a path is required for this command")
    return value


def _load_vocab_and_data(config: RunConfig):
    vocab = Vocabulary.load(_require_path(config, "vocab"))
    dataset = load_dataset(_require_path(config, "data"), vocab)
    return vocab, dataset


def _load_matching_checkpoint(config: RunConfig, vocab: Vocabulary):
    params, l_chunk, flags = load_checkpoint(_require_path(config, "checkpoint_in"))
    if params.V != len(vocab):
        raise ConfigError(
            "vocab", f"vocabulary size {len(vocab)} does not match checkpoint V={params.V}"
        )
    return params, l_chunk, flags


def _final_epoch_mean(records: list[StepRecord], epochs: int, attr: str) -> float:
    if epochs == 0:
        return 0.0
    values = [getattr(r, attr) for r in records if r.epoch == epochs]
    return sum(values) / len(values) if values else 0.0


def _write_log(path: str, records: list[StepRecord]) -> None:
    lines = [json.dumps(r.to_record()) for r in records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


# --- subcommands -----------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if config.synth_count < 1:
        raise ConfigError("synth_count", "must be >= 1 to synthesize a corpus")
    out = _require_path(config, "data")
    records = generate_synthetic_corpus(config.synth_seed, config.synth_count)
    write_dataset(out, records)
    print(f"wrote {len(records)} synthetic examples to {out}")
    return 0


def _cmd_build_vocab(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    streams = dataset_token_streams(_require_path(config, "data"))
    vocab = build_vocab(streams, config.min_freq)
    vocab.save(_require_path(config, "vocab"))
    print(f"wrote vocabulary of {len(vocab)} tokens to {config.vocab}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    vocab, dataset = _load_vocab_and_data(config)
    records: list[StepRecord] = []
    train_config = config.train_config(config.stage)
    if config.stage == "pretrain":
        init = None
        if config.checkpoint_in:
            init, _, _ = _load_matching_checkpoint(config, vocab)
            if init.d != config.d:
                raise ConfigError("d", f"config d={config.d} but checkpoint has d={init.d}")
        params = train_pretrain(dataset, train_config, vocab, init, records.append)
    else:
        init, _, _ = _load_matching_checkpoint(config, vocab)
        if init.d != config.d:
            raise ConfigError("d", f"config d={config.d} but checkpoint has d={init.d}")
        params = train_comparative(dataset, init, train_config, vocab, records.append)
    if config.checkpoint_out:
        save_checkpoint(config.checkpoint_out, params, config.l_chunk, config.flags())
    if config.report:
        _write_log(config.report, records)
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


def _assemble_for(config: RunConfig, vocab: Vocabulary, ps, flags: AblationFlags):
    period_id = vocab.id_of(SENTENCE_DELIMITER)
    context = assemble_context(
        ps, config.key_k, period_id,
        include_key_elements=not flags.disable_key_extraction,
    )
    return chunk(context, config.l_chunk)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    vocab, dataset = _load_vocab_and_data(config)
    params, ck_l_chunk, flags = _load_matching_checkpoint(config, vocab)
    config = replace(config, l_chunk=ck_l_chunk)
    out = _require_path(config, "report")
    lines = []
    for ps in dataset:
        chunks = _assemble_for(config, vocab, ps, flags)
        if config.temperature == 0.0:
            ids = greedy_decode(params, chunks, config.max_len, flags)
        else:
            ids = sample_decode(
                params, chunks, config.max_len, config.temperature, config.seed, flags
            )
        lines.append(json.dumps({"id": ps.id, "summary": " ".join(vocab.decode(ids))}))
    atomic_write_text(out, "\n".join(lines) + ("\n" if lines else ""))
    print(f"wrote {len(lines)} summaries to {out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    vocab, dataset = _load_vocab_and_data(config)
    params, ck_l_chunk, flags = _load_matching_checkpoint(config, vocab)
    report = evaluate_dataset(
        params, dataset, vocab, ck_l_chunk, config.max_len,
        tau=config.tau, key_k=config.key_k, flags=flags,
    )
    if config.report:
        write_report(config.report, report)
    print(json.dumps(report.aggregate_record()))
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    probe = gradcheck_probe(args.seed)
    err = finite_difference_check(probe.params, probe.loss, probe.grads, eps=1e-5)
    ok = err < GRADCHECK_TOLERANCE
    print(f"gradcheck max relative error {err:.6e} ({'pass' if ok else 'fail'})")
    return 0 if ok else 3


def pipeline_end_to_end(config: RunConfig) -> int:
    """synth (if synth_count > 0) -> vocab -> pretrain -> comparative ->
    evaluate; prints the aggregate report plus the two-stage loss total."""
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
        flags = config.flags()
        label = "pretrain"
        pre_records: list[StepRecord] = []
        params = train_pretrain(
            dataset, config.train_config("pretrain"), vocab, log_fn=pre_records.append
        )
        label = "comparative"
        comp_records: list[StepRecord] = []
        params = train_comparative(
            dataset, params, config.train_config("comparative"), vocab, comp_records.append
        )
        label = "checkpoint"
        if config.checkpoint_out:
            save_checkpoint(config.checkpoint_out, params, config.l_chunk, flags)
        label = "evaluate"
        report = evaluate_dataset(
            params, dataset, vocab, config.l_chunk, config.max_len,
            tau=config.tau, key_k=config.key_k, flags=flags,
        )
        if config.report:
            write_report(config.report, report)
        l_pretrain = _final_epoch_mean(pre_records, config.epochs, "l_gen")
        l_comparative = _final_epoch_mean(comp_records, config.epochs, "l_stage")
        summary = report.aggregate_record()
        summary["l_pretrain"] = l_pretrain
        summary["l_comparative"] = l_comparative
        summary["total_loss"] = total_loss(l_pretrain, l_comparative)
        print(json.dumps(summary))
        return 0
    except DataError as exc:
        print(f"error: pipeline stage '{label}': {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: pipeline stage '{label}': {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: pipeline stage '{label}': {exc}", file=sys.stderr)
        return 2


def _cmd_pipeline(args: argparse.Namespace) -> int:
    return pipeline_end_to_end(load_config(args.config))


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
    g.add_argument("--seed", type=int, default=0, help="probe seed")
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
        return args.handler(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
