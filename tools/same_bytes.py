"""Byte identity of the working tree's outputs against a parent revision.

    python3 tools/same_bytes.py --parent HEAD~1 [--expect-change NAME ...]

The change is the tree this script lives in, as it stands on disk.  The
parent revision is checked out with ``git worktree add`` into a temporary
directory, which is removed afterwards.  One fixed table of commands
(``COMMANDS``) runs in each tree, in order, with that tree's ``src/`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``.  Each command runs in a fresh
work directory and reads what earlier commands wrote through relative paths,
so no path that names a tree reaches an output.

The outputs are every file a command writes, named ``<command>/<file>``,
plus its ``<command>.stdout``, ``<command>.stderr`` and ``<command>.exit``.
Each is printed as ``same`` or ``differs``, with the first differing line of
a text file or the first differing byte of a binary one.  The exit status is
1 if any output differs that no ``--expect-change`` pattern (a shell-style
pattern such as ``*/model.ckpt``) names, else 0.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PIPELINE = dict(data="data.jsonl", vocab="vocab.txt", checkpoint_out="model.ckpt",
                 report="report.jsonl")
# the held-out set, read by the model and vocabulary of the seed-0 pipeline
_HELD_OUT = dict(data="../synth-held-out/held.jsonl", vocab="../pipeline-s0/vocab.txt",
                 checkpoint_in="../pipeline-s0/model.ckpt")
_TRAIN = dict(data="../pipeline-s0/data.jsonl", vocab="../pipeline-s0/vocab.txt",
              checkpoint_out="model.ckpt", report="steps.jsonl", epochs=2)
# (name, argv after ``compsum``, config keys or None for a command without a
# config); a command may read the outputs of the commands above it.
COMMANDS: list[tuple[str, list[str], dict | None]] = [
    *((f"pipeline-s{s}", ["pipeline"], dict(_PIPELINE, synth_seed=s)) for s in range(3)),
    ("pipeline-no-memory", ["pipeline"], dict(_PIPELINE, disable_memory="true")),
    ("pipeline-key-k0", ["pipeline"], dict(_PIPELINE, key_k=0)),
    ("pipeline-lambda0", ["pipeline"], dict(_PIPELINE, **{"lambda": 0})),
    ("synth-held-out", ["synth"], dict(data="held.jsonl", synth_count=60, synth_seed=7)),
    ("evaluate-held-out", ["evaluate"], dict(_HELD_OUT, report="report.jsonl")),
    ("generate-t0", ["generate"], dict(_HELD_OUT, report="summaries.jsonl")),
    ("generate-t0.7", ["generate"], dict(_HELD_OUT, report="summaries.jsonl", temperature=0.7,
                                         seed=3)),
    ("build-vocab", ["build-vocab"], dict(data="../pipeline-s0/data.jsonl", vocab="vocab.txt",
                                          min_freq=2)),
    ("train-pretrain", ["train"], dict(_TRAIN, stage="pretrain")),
    ("train-comparative", ["train"], dict(_TRAIN, stage="comparative",
                                          checkpoint_in="../train-pretrain/model.ckpt")),
    ("gradcheck-s0", ["gradcheck", "--seed", "0"], None),
    ("gradcheck-s3", ["gradcheck", "--seed", "3"], None),
    ("error-float", ["pipeline"], dict(lr="fast")),
    ("error-int", ["pipeline"], dict(epochs="three")),
    ("error-bool", ["pipeline"], dict(disable_memory="yes")),
    ("error-unknown-key", ["pipeline"], dict(lambdaa=1)),
]


def run_table(tree: str, out: str) -> None:
    """Run ``COMMANDS`` with the program of ``tree``, writing into ``out``
    the work directory and the three stream files of each command."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    configs = os.path.join(os.path.dirname(out), "configs")
    os.makedirs(configs)
    for name, argv, keys in COMMANDS:
        work = os.path.join(out, name)
        os.makedirs(work)
        if keys is not None:
            with open(os.path.join(configs, f"{name}.cfg"), "w", encoding="utf-8") as fh:
                fh.writelines(f"{k}={v}\n" for k, v in keys.items())
            argv = argv + ["--config", f"../../configs/{name}.cfg"]
        proc = subprocess.run([sys.executable, "-m", "compsum.cli", *argv], cwd=work, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr),
                             ("exit", f"{proc.returncode}\n".encode())):
            with open(os.path.join(out, f"{name}.{stream}"), "wb") as fh:
                fh.write(data)
        print(f"{os.path.basename(os.path.dirname(out))}: {name} exited {proc.returncode}",
              file=sys.stderr)


def _files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), root).replace(os.sep, "/")
        for d, _, names in os.walk(root) for f in names
    }


def _read(path: str) -> bytes | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _mismatch(a, b) -> int:
    """The index of the first unequal item of two sequences, or the shorter length."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def first_difference(a: bytes, b: bytes) -> str:
    """Where two different byte strings first part: a line and column of
    text, with 40 characters each side, or a byte offset."""
    try:
        lines = a.decode("utf-8").splitlines(), b.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return f"byte {_mismatch(a, b)} of {len(a)} (parent) and {len(b)} (change)"
    i = _mismatch(*lines)
    if i == min(map(len, lines)):
        return f"{len(lines[0])} lines (parent) and {len(lines[1])} (change)"
    x, y = lines[0][i], lines[1][i]
    c = _mismatch(x, y)
    lo, hi = max(0, c - 40), c + 40
    return f"line {i + 1}, column {c + 1}: parent {x[lo:hi]!r}, change {y[lo:hi]!r}"


def compare(parent: str, change: str, expected: list[str]) -> int:
    """Print ``same`` or ``differs`` for every file of either output tree;
    1 if a difference is not named by a pattern of ``expected``, else 0."""
    unexpected = differing = 0
    names = _files(parent) | _files(change)
    for name in sorted(names):
        a, b = _read(os.path.join(parent, name)), _read(os.path.join(change, name))
        if a == b:
            print(f"same     {name}")
            continue
        differing += 1
        if a is None or b is None:
            where = "only in the " + ("change" if a is None else "parent")
        else:
            where = first_difference(a, b)
        named = any(fnmatch.fnmatchcase(name, pattern) for pattern in expected)
        unexpected += not named
        print(f"differs  {name}{' (expected)' if named else ''}: {where}")
    print(f"{len(names)} outputs: {len(names) - differing} same, {differing} differ, "
          f"{unexpected} not expected")
    return 1 if unexpected else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--expect-change", action="extend", nargs="+", default=[], metavar="NAME",
                        help="outputs allowed to differ (shell-style patterns)")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tree = os.path.join(tmp, "tree")
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", tree, rev],
                       cwd=ROOT, check=True)
        try:
            for side, source in (("parent", tree), ("change", ROOT)):
                run_table(source, os.path.join(tmp, side, "out"))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT, check=False)
        print(f"parent {rev}")
        return compare(os.path.join(tmp, "parent", "out"), os.path.join(tmp, "change", "out"),
                       args.expect_change)


if __name__ == "__main__":
    sys.exit(main())
