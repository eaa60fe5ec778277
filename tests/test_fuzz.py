"""Property tests of the four loaders of outside bytes: config files,
dataset JSONL, vocabulary files and checkpoints, of whole pipeline runs
from hostile config values, and of the commands that run a loaded model on
finite checkpoints with extreme values.

Each input is a small valid file, cut short, bit-flipped, or given invalid
UTF-8, deep nesting or huge header sizes and counts.  Every input must load
or raise ``compsum.Error`` or ``OSError``, the exceptions ``cli.run`` maps to
exit codes 2 and 3; anything else would end the program in a traceback.
A checkpoint that loads must save back to the same bytes.  A command run
must end in exit code 0, 2 or 3 with at most one line on stderr.
The examples are derandomized, so every run tries the same inputs.
"""

import io
import math
import struct
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from compsum import Error
from compsum.cli import load_config, run
from compsum.corpus import (
    Vocabulary,
    build_vocab,
    dataset_token_streams,
    generate_synthetic_corpus,
    load_dataset,
    write_dataset,
)
from compsum.model import (
    _LAYOUT,
    TENSOR_NAMES,
    AblationFlags,
    init_params,
    load_checkpoint,
    save_checkpoint,
    tensor_shapes,
)

FUZZ = settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

INVALID_UTF8 = (
    b"\xff",  # never valid
    b"\xc3",  # lead byte without its continuation
    b"\x80",  # continuation byte without a lead
    b"\xc0\xaf",  # overlong encoding of '/'
    b"\xed\xa0\x80",  # surrogate half
    b"\xf4\x90\x80\x80",  # above U+10FFFF
)
U32_EDGES = (0, 1, 7, 2**16, 2**31 - 1, 2**31, 2**32 - 1)


def _flip(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for index, bit in flips:
        out[index] ^= 1 << bit
    return bytes(out)


def mutations(valid: bytes, inserts=()):
    """Truncations, bit flips and insertions of ``valid``; half of the
    insertions go to the start of a line."""
    n = len(valid)
    line_starts = [0] + [i + 1 for i, byte in enumerate(valid) if byte == ord("\n")]
    cut = st.integers(0, n - 1).map(lambda k: valid[:k])
    flipped = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, 7)), min_size=1, max_size=4
    ).map(lambda flips: _flip(valid, flips))
    where = st.one_of(st.sampled_from(line_starts), st.integers(0, n))
    inserted = st.tuples(where, st.sampled_from(INVALID_UTF8 + tuple(inserts))).map(
        lambda a: valid[: a[0]] + a[1] + valid[a[0]:]
    )
    return st.one_of(cut, flipped, inserted)


def loads_or_refuses(load, directory, data: bytes):
    """What ``load`` returns for ``data``, or None if it refuses it."""
    path = directory / "fuzzed"
    path.write_bytes(data)
    try:
        return load(str(path))
    except (Error, OSError):
        return None


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.jsonl"
    write_dataset(str(data), generate_synthetic_corpus(3, 2))
    vocab = build_vocab(dataset_token_streams(str(data)))
    vocab.save(str(root / "vocab.txt"))
    save_checkpoint(str(root / "model.ckpt"), init_params(2, 9, 0), 4, AblationFlags())
    return root, vocab


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed")


CONFIG = (
    b"# a run\nstage=comparative\nd=8\nlr=0.01\nlambda=0.5\n\n"
    b"disable_memory=true\ndata=train.jsonl\ntau=0.25\n"
)


@FUZZ
@given(data=mutations(CONFIG, (b"d=" + b"9" * 5000 + b"\n", b"lr=1e999\n", b"tau=nan\n", b"=")))
def test_load_config(work_dir, data):
    loads_or_refuses(load_config, work_dir, data)


@FUZZ
@given(mutated=st.data())
def test_load_dataset(valid_files, work_dir, mutated):
    root, vocab = valid_files
    valid = (root / "data.jsonl").read_bytes()
    lines = valid.splitlines()
    hostile = (
        b"[" * 200_000,
        b'{"id": ' * 100_000,
        b'{"id": ' + b"1" * 5000 + b"}",  # past Python's digit limit for int()
        b"{}",
        b"",
    )

    def replace_line(at):
        index, line = at
        return b"\n".join(lines[:index] + [line] + lines[index + 1:])

    data = mutated.draw(st.one_of(
        mutations(valid, (b"\n", b'"', b"[" * 200_000)),
        st.tuples(st.integers(0, len(lines) - 1), st.sampled_from(hostile)).map(replace_line),
    ))
    loads_or_refuses(lambda path: load_dataset(path, vocab), work_dir, data)


@FUZZ
@given(mutated=st.data())
def test_vocabulary_load(valid_files, work_dir, mutated):
    root, _ = valid_files
    valid = (root / "vocab.txt").read_bytes()
    body = valid.split(b"\n", 1)[1]
    sizes = st.sampled_from([b"-1", b"0", b"2147483648", b"18446744073709551616", b"9" * 5000])
    data = mutated.draw(st.one_of(
        mutations(valid, (b"\r", b"\x1c", b"\n\n")),
        sizes.map(lambda size: b"v1 " + size + b"\n" + body),
    ))
    loads_or_refuses(Vocabulary.load, work_dir, data)


# The header's uint32 values: version, d, V, l_chunk, ablation bitmask, key_k.
HEADER_U32_OFFSETS = (4, 8, 12, 16, 20, 24)
# Values for one float64: the non-finite ones and the largest finite one.
F64_EDGES = (math.nan, math.inf, -math.inf, sys.float_info.max)


def _tensor_offsets(d: int, V: int) -> list[int]:
    """Offset of every tensor's first float64: after the 28-byte header and
    the tensors before it in ``_LAYOUT`` order."""
    shapes = tensor_shapes(d, V)
    sizes = [math.prod(shapes[name]) for name in _LAYOUT]
    return [28 + 8 * sum(sizes[:i]) for i in range(len(sizes))]


@FUZZ
@given(mutated=st.data())
def test_load_checkpoint(valid_files, work_dir, mutated):
    root, _ = valid_files
    valid = (root / "model.ckpt").read_bytes()

    def overwrite(offsets, fmt, values):
        def at(spot):
            offset, value = spot
            raw = struct.pack(fmt, value)
            return valid[:offset] + raw + valid[offset + len(raw):]
        return st.tuples(offsets, values).map(at)

    data = mutated.draw(st.one_of(
        mutations(valid),
        overwrite(st.sampled_from(HEADER_U32_OFFSETS), "<I", st.sampled_from(U32_EDGES)),
        overwrite(st.just(20), "<I", st.integers(0, 2**32 - 1)),  # ablation bitmask
        overwrite(st.sampled_from(_tensor_offsets(2, 9)), "<d", st.sampled_from(F64_EDGES)),
    ))
    loaded = loads_or_refuses(load_checkpoint, work_dir, data)
    if loaded is not None:
        # a file that loads holds nothing its load drops: saving it again
        # writes the same bytes
        resaved = work_dir / "resaved"
        save_checkpoint(str(resaved), *loaded)
        assert resaved.read_bytes() == data


# Keys that bound a pipeline run's size: an untrained model decodes max_len
# tokens for each example, so these stay small.
SMALL_KEYS = {"synth_count": 3, "d": 4, "epochs": 1, "max_len": 4}
# Every other key but the paths; a run sets up to three of them to any text.
FREE_KEYS = (
    "stage", "lr", "lambda", "l_chunk", "seed", "key_k", "temperature", "tau",
    "min_freq", "synth_seed", "disable_memory",
)
HOSTILE_VALUES = (
    "", "x", "nan", "-nan", "inf", "-inf", "1e999", "1e308", "-1", "0", "1", "0.5", "1e-320",
    "true", "false", "comparative", str(2**32), str(2**64), "9" * 5000, "-" + "9" * 30,
)
# Values stay on their line: the config reader splits lines at \n and \r.
ONE_LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=12
)


@settings(FUZZ, max_examples=150)
@given(
    small=st.fixed_dictionaries({
        key: st.integers(1 if key in ("d", "max_len") else 0, bound)
        for key, bound in SMALL_KEYS.items()
    }),
    free=st.dictionaries(
        st.sampled_from(FREE_KEYS),
        st.one_of(
            st.sampled_from(HOSTILE_VALUES),
            st.integers(-(2**70), 2**70).map(str),
            st.floats().map(repr),
            ONE_LINE_TEXT,
        ),
        max_size=3,
    ),
)
def test_pipeline_run(small, free):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            key: str(Path(tmp, name)) for key, name in (
                ("data", "data.jsonl"), ("vocab", "vocab.txt"),
                ("checkpoint_out", "model.ckpt"), ("report", "report.jsonl"),
            )
        }
        run_checked("pipeline", Path(tmp, "run.cfg"), {**paths, **small, **free})


def run_checked(command: str, config: Path, keys: dict) -> None:
    """Write ``keys`` to ``config`` and run ``command`` on it through
    ``cli.run``: it must exit 0, 2 or 3 with at most one stderr line and
    no warning."""
    lines = [f"{key}={value}" for key, value in keys.items()]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = run([command, "--config", str(config)])
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert len(err.splitlines()) <= 1, err
    # a warning would print on the command line's stderr too
    assert not caught, [str(w.message) for w in caught]


# The commands that run a loaded model, with their own keys.
LOADED_MODEL_RUNS = (
    ("evaluate", {}),
    ("generate", {"temperature": 0}),
    ("generate", {"temperature": 0.7}),
    ("train", {"stage": "comparative", "epochs": 1}),
)
EXPONENT_BITS = 0x7FF << 52


def _with_exponent(value: float, exponent: int) -> float:
    """``value`` with its float64 exponent field set to ``exponent``; below
    2047 the result stays finite."""
    raw = struct.unpack("<Q", struct.pack("<d", value))[0]
    return struct.unpack("<d", struct.pack("<Q", raw & ~EXPONENT_BITS | exponent << 52))[0]


@settings(FUZZ, max_examples=25)
@given(data=st.data())
def test_commands_run_a_loaded_model(valid_files, work_dir, data):
    root, vocab = valid_files
    params = init_params(2, len(vocab), 0)
    for name in TENSOR_NAMES:
        # None keeps the tensor; half the other draws are near the largest
        # finite exponent, where sums overflow
        exponent = data.draw(st.one_of(st.none(), st.integers(0, 2046), st.integers(2040, 2046)))
        if exponent is not None:
            flat = params[name].reshape(-1)
            one = st.integers(0, flat.size - 1).map(lambda i: [i])
            for i in data.draw(st.one_of(one, st.just(range(flat.size)))):
                flat[i] = _with_exponent(flat[i], exponent)
    checkpoint = str(work_dir / "loaded.ckpt")
    flags = AblationFlags(disable_memory=data.draw(st.booleans()))
    save_checkpoint(checkpoint, params, 4, flags, data.draw(st.integers(0, 2)))
    keys = {
        "data": root / "data.jsonl", "vocab": root / "vocab.txt",
        "checkpoint_in": checkpoint, "checkpoint_out": work_dir / "trained.ckpt",
        "report": work_dir / "out.jsonl", "d": 2, "max_len": 6,
    }
    for command, own in LOADED_MODEL_RUNS:
        run_checked(command, work_dir / "loaded.cfg", {**keys, **own})
