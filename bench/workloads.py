"""The benchmark's workloads.

Each drives the program through ``compsum.cli.run`` with config files it
writes itself, in a work directory of its own.  ``setup`` makes the inputs
and, for ``evaluate``, trains the checkpoint; ``run_round`` runs the timed
command once.  All config keys are written out, so a change of the
program's defaults cannot change a workload unseen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

from compsum import cli, corpus, model

# The default configuration of `compsum pipeline`.
DEFAULT_KEYS = {
    "d": 32, "l_chunk": 16, "lr": 0.005, "epochs": 3, "lambda": 0.5, "seed": 0,
    "key_k": 2, "max_len": 48, "temperature": 0.0, "tau": 0.5, "min_freq": 1,
}
SYNTH_COUNT = 100
HELDOUT_COUNT = 500
HELDOUT_SEED_OFFSET = 1_000_000
# `evaluate` trains its checkpoint on one fixed corpus; only the held-out set
# follows --seed.  After one epoch a checkpoint decodes nearly the same
# length for every example, and that length depends on the training corpus:
# corpora of seeds 1-8 gave 17, 22 or 48 (never EOS) tokens, which swung the
# generated tokens of a round 2.8-fold from seed to seed.  Corpus 1 gives
# decodes that stop at EOS at 17, 22 or 48 tokens.
CHECKPOINT_SEED = 1


@dataclass
class Round:
    seconds: float
    code: int
    stdout: bytes
    report: bytes


def write_config(path: str, keys: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in keys.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            fh.write(f"{key}={value}\n")


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """Run a subcommand in this process; returns (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue().encode("utf-8")


def positions(examples, key_k: int, period_id) -> int:
    """Teacher-forced positions of one epoch: context + summary - 1 per
    example."""
    return sum(
        len(corpus.assemble_context(ps, key_k, period_id)) + len(ps.ref_summary) - 1
        for ps in examples
    )


class Workload:
    """Common parts: paths, the timed round and the examples it used."""

    train_epochs: int
    command: str

    def __init__(self, workdir: str, seed: int):
        self.dir = workdir
        self.seed = seed
        self.keys = dict(DEFAULT_KEYS)
        self.report = self.path("report.jsonl")
        self.checkpoint = self.path("model.ckpt")
        self.vocab_path = self.path("vocab.txt")
        self.config = self.path(f"{self.command}.cfg")

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        t0 = time.perf_counter()
        code, stdout = run_cli([self.command, "--config", self.config])
        seconds = time.perf_counter() - t0
        report = b""
        if os.path.exists(self.report):
            with open(self.report, "rb") as fh:
                report = fh.read()
        return Round(seconds, code, stdout, report)

    def vocab(self):
        return corpus.Vocabulary.load(self.vocab_path)

    def load(self, data_path: str):
        return corpus.load_dataset(data_path, self.vocab())

    def train_data(self):
        raise NotImplementedError

    def eval_data(self):
        raise NotImplementedError

    def params(self):
        return model.load_checkpoint(self.checkpoint)[0]

    def train_positions(self) -> int:
        """Positions per epoch of the examples the training stages read."""
        vocab = self.vocab()
        return positions(self.load(self.train_data()), self.keys["key_k"], vocab.id_of("."))

    def fingerprint(self) -> str:
        """Digest of the files set-up made, config files aside (they name the
        work directory); equal across processes."""
        h = hashlib.sha256()
        for name in sorted(n for n in os.listdir(self.dir) if not n.endswith(".cfg")):
            with open(self.path(name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
        return h.hexdigest()


class Pipeline(Workload):
    """`compsum pipeline` at the default config: synth, vocab, both training
    stages, checkpoint, evaluation of the training set."""

    command = "pipeline"

    def __init__(self, workdir: str, seed: int, l_chunk: int):
        super().__init__(workdir, seed)
        self.train_epochs = self.keys["epochs"]
        self.keys.update(
            l_chunk=l_chunk, synth_count=SYNTH_COUNT, synth_seed=seed,
            data=self.path("data.jsonl"), vocab=self.vocab_path,
            report=self.report, checkpoint_out=self.checkpoint,
        )

    def setup(self) -> None:
        write_config(self.config, self.keys)

    def train_data(self) -> str:
        return self.keys["data"]

    def eval_data(self) -> str:
        return self.keys["data"]


class Evaluate(Workload):
    """`compsum evaluate` of a checkpoint over a large held-out synthetic
    set.  Set-up trains the checkpoint for one epoch per stage on its own
    synthetic corpus, through `compsum synth`, `build-vocab` and `train`.
    That corpus is the same for every seed; the held-out set is the
    seed's."""

    command = "evaluate"

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        self.train_epochs = 1
        self.keys.update(epochs=self.train_epochs, vocab=self.vocab_path)
        self.train_stdout: list[bytes] = []

    def train_data(self) -> str:
        return self.path("train.jsonl")

    def eval_data(self) -> str:
        return self.path("heldout.jsonl")

    def _cli(self, name: str, command: str, **keys) -> bytes:
        path = self.path(name)
        write_config(path, dict(self.keys, **keys))
        code, stdout = run_cli([command, "--config", path])
        if code != 0:
            raise RuntimeError(f"set-up command `compsum {command}` exited {code}")
        return stdout

    def setup(self) -> None:
        train = {"data": self.train_data(), "synth_count": SYNTH_COUNT,
                 "synth_seed": CHECKPOINT_SEED}
        self._cli("synth-train.cfg", "synth", **train)
        self._cli("vocab.cfg", "build-vocab", **train)
        self.train_stdout = [
            self._cli("pretrain.cfg", "train", stage="pretrain",
                      checkpoint_out=self.path("pretrain.ckpt"), **train),
            self._cli("comparative.cfg", "train", stage="comparative",
                      checkpoint_in=self.path("pretrain.ckpt"),
                      checkpoint_out=self.checkpoint, **train),
        ]
        heldout = {"data": self.eval_data(), "synth_count": HELDOUT_COUNT,
                   "synth_seed": HELDOUT_SEED_OFFSET + self.seed}
        self._cli("synth-heldout.cfg", "synth", **heldout)
        write_config(
            self.config,
            dict(self.keys, data=self.eval_data(), checkpoint_in=self.checkpoint,
                 report=self.report),
        )

    def pretrain_loss(self) -> float:
        return json.loads(self.train_stdout[0].decode().strip().splitlines()[-1])[
            "final_epoch_mean_l_stage"
        ]


def make(name: str, workdir: str, seed: int) -> Workload:
    if name == "pipeline":
        return Pipeline(workdir, seed, l_chunk=16)
    if name == "pipeline-chunk4":
        return Pipeline(workdir, seed, l_chunk=4)
    if name == "evaluate":
        return Evaluate(workdir, seed)
    raise KeyError(name)


NAMES = ("pipeline", "pipeline-chunk4", "evaluate")
