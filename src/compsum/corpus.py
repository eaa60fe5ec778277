"""Corpus layer: tokenization, vocabulary, key-sentence extraction, chunking,
dataset files, and a synthetic corpus generator for controlled experiments.

Dataset files are UTF-8 JSON lines, one record per line:

    {"id": "...", "papers": [{"id", "title", "text", "insight"}, ...],
     "ref_summary": "..."}

Vocabulary files carry a ``v1 <size>`` header followed by one token per line
in id order.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .errors import InvariantError, SchemaError
from .ioutil import utf8_lines, write_lines

# Reserved ids are pinned so checkpoints and encoded datasets stay
# interchangeable across runs.
PAD, BOS, EOS, UNK, SEP_DOC, SEP_SUM, KEY_MARK = range(7)
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>", "<doc>", "<sum>", "<key>")
# The token that ends a sentence, for key extraction and the G-Score alike.
SENTENCE_DELIMITER = "."


_TOKEN = re.compile(r"[^\W_]+|(?:[^\w\s]|_)+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, then split each piece into alternating
    runs of alphanumeric characters and runs of punctuation, as ``_TOKEN``
    matches them: in ``re``, ``\\w`` is ``str.isalnum()`` plus "_" and ``\\s``
    is ``str.isspace()``, so "_" is punctuation.

    "The cat sat." -> ["the", "cat", "sat", "."].  Deterministic; empty input
    yields an empty list.
    """
    return _TOKEN.findall(text.lower())


class Vocabulary:
    """Bijection between token strings and dense ids 0..V-1.

    The seven reserved tokens always occupy ids 0..6 in the order of
    ``RESERVED_TOKENS``; unknown tokens encode to ``UNK``.
    """

    def __init__(self, extra_tokens: Sequence[str] = ()):
        self.tokens: list[str] = list(RESERVED_TOKENS)
        seen = set(self.tokens)
        for tok in extra_tokens:
            if tok in seen:
                raise ValueError(f"duplicate token {tok!r}")
            seen.add(tok)
            self.tokens.append(tok)
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int | None:
        """Id for a known token, None for an unknown one."""
        return self._ids.get(token)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self._ids.get(t, UNK) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        out = []
        for i in ids:
            if not 0 <= i < len(self.tokens):
                raise ValueError(f"token id {i} out of range (V={len(self.tokens)})")
            out.append(self.tokens[i])
        return out

    def save(self, path: str) -> None:
        write_lines(path, [f"v1 {len(self.tokens)}", *self.tokens])

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        lines = "".join(utf8_lines(path)).splitlines()
        if not lines or not lines[0].startswith("v1 "):
            raise SchemaError(1, "vocabulary header must be 'v1 <size>'")
        try:
            size = int(lines[0].split()[1])
        except (IndexError, ValueError):
            raise SchemaError(1, "vocabulary header must be 'v1 <size>'") from None
        tokens = lines[1:]
        if len(tokens) != size:
            raise SchemaError(1, f"header says {size} tokens, file has {len(tokens)}")
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise SchemaError(2, "reserved tokens missing or out of order")
        seen: dict[str, int] = {}  # token -> first file line
        for line_no, tok in enumerate(tokens, start=2):
            if seen.setdefault(tok, line_no) != line_no:
                raise SchemaError(line_no, f"duplicate token {tok!r} (first on line {seen[tok]})")
        return cls(tokens[len(RESERVED_TOKENS) :])


def build_vocab(corpus: Iterable[Sequence[str]], min_freq: int = 1) -> Vocabulary:
    """Build a vocabulary from token streams.

    Tokens with frequency >= ``min_freq`` are kept, ordered by descending
    frequency then ascending lexicographic order, after the reserved block.
    Document order does not matter.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts: Counter[str] = Counter()
    for stream in corpus:
        counts.update(stream)
    for reserved in RESERVED_TOKENS:
        counts.pop(reserved, None)
    kept = [t for t, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


@dataclass
class PaperDocument:
    """One input paper: encoded body plus its reference comparative insight."""

    body: list[int]
    insight: list[int]


@dataclass
class PaperSet:
    """One example: a group of papers and the reference comparative summary.

    ``ref_summary`` is EOS-terminated.
    """

    id: str
    docs: list[PaperDocument]
    ref_summary: list[int]


@dataclass
class Chunk:
    """A contiguous token span; the unit the memory mechanism operates over."""

    tokens: list[int]


def chunk(tokens: Sequence[int], l_chunk: int) -> list[Chunk]:
    """Partition tokens into order-preserving chunks of length <= l_chunk.

    All chunks except possibly the last have length exactly l_chunk;
    concatenating them reproduces the input.
    """
    if l_chunk < 1:
        raise ValueError("l_chunk must be >= 1")
    if len(tokens) == 0:
        raise InvariantError("cannot chunk an empty token sequence")
    return [Chunk(list(tokens[s : s + l_chunk])) for s in range(0, len(tokens), l_chunk)]


def _sentence_spans(body: Sequence[int], period_id: int | None) -> list[tuple[int, int]]:
    """Spans ending just past each period token, or at end of body."""
    spans = []
    start = 0
    if period_id is not None:
        for i, tok in enumerate(body):
            if tok == period_id:
                spans.append((start, i + 1))
                start = i + 1
    if start < len(body):
        spans.append((start, len(body)))
    return spans


def extract_key_elements(
    doc: PaperDocument, k: int, period_id: int | None
) -> list[tuple[int, int]]:
    """Select the top-k salient sentences of a document body.

    Sentences are scored by the sum over token occurrences of
    ``ln(n_sentences / n_sentences_containing_token)`` (a tf-idf computed over
    this document's sentences).  Ties break toward the earlier sentence; the
    result is returned in source order as (start, end) spans into the body.
    """
    if len(doc.body) == 0:
        raise InvariantError("cannot extract key elements from an empty body")
    if k <= 0:
        return []
    spans = _sentence_spans(doc.body, period_id)
    n = len(spans)
    df: Counter[int] = Counter()
    for s, e in spans:
        df.update(set(doc.body[s:e]))
    idf = {tok: math.log(n / c) for tok, c in df.items()}
    # Rounded once, so sentences holding the same tokens tie in any order.
    scores = [math.fsum(idf[tok] for tok in doc.body[s:e]) for s, e in spans]
    top = sorted(range(n), key=lambda i: (-scores[i], i))[:k]
    return [spans[i] for i in sorted(top)]


def assemble_context(
    paper_set: PaperSet,
    key_k: int,
    period_id: int | None,
) -> list[int]:
    """Flatten a paper set into the model context.

    Layout: BOS, then each selected key sentence wrapped in KEY_MARK tokens
    (documents in order, sentences in source order; none when key_k is 0),
    then the document bodies separated by SEP_DOC, then SEP_SUM.  The summary
    is fed after SEP_SUM.
    """
    ids = [BOS]
    if key_k > 0:
        for doc in paper_set.docs:
            for s, e in extract_key_elements(doc, key_k, period_id):
                ids.append(KEY_MARK)
                ids.extend(doc.body[s:e])
                ids.append(KEY_MARK)
    for i, doc in enumerate(paper_set.docs):
        if i > 0:
            ids.append(SEP_DOC)
        ids.extend(doc.body)
    ids.append(SEP_SUM)
    return ids


# --- dataset files ---------------------------------------------------------


@dataclass
class RawPaper:
    """Un-encoded paper record as stored in a dataset file."""

    id: str
    title: str
    text: str
    insight: str


@dataclass
class RawPaperSet:
    """Un-encoded example record as stored in a dataset file."""

    id: str
    papers: list[RawPaper]
    ref_summary: str


def write_dataset(path: str, records: Iterable[RawPaperSet]) -> None:
    write_lines(path, (json.dumps(asdict(r)) for r in records))


def _require(record: dict, field: str, kind: type, line_no: int):
    if field not in record:
        raise SchemaError(line_no, f"missing field '{field}'")
    value = record[field]
    if not isinstance(value, kind):
        raise SchemaError(
            line_no, f"field '{field}' must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _read_records(path: str) -> list[tuple[int, dict]]:
    out = []
    for line_no, line in enumerate(utf8_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(line_no, f"invalid json: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            # too deeply nested, or an integer of too many digits
            raise SchemaError(line_no, f"invalid json: {exc}") from None
        if not isinstance(record, dict):
            raise SchemaError(line_no, "record must be a json object")
        _require(record, "id", str, line_no)
        papers = _require(record, "papers", list, line_no)
        if not papers:
            raise SchemaError(line_no, "papers array is empty")
        for p in papers:
            if not isinstance(p, dict):
                raise SchemaError(line_no, "papers entries must be objects")
            for field in ("id", "title", "text", "insight"):
                _require(p, field, str, line_no)
        _require(record, "ref_summary", str, line_no)
        out.append((line_no, record))
    return out


def dataset_token_streams(path: str) -> list[list[str]]:
    """All token streams of a dataset file (paper texts, insights, summaries);
    the input for vocabulary construction."""
    streams = []
    for _, record in _read_records(path):
        for p in record["papers"]:
            streams.append(tokenize(p["text"]))
            if p["insight"]:
                streams.append(tokenize(p["insight"]))
        streams.append(tokenize(record["ref_summary"]))
    return streams


def load_dataset(path: str, vocab: Vocabulary) -> list[PaperSet]:
    """Read a dataset file and encode it against a vocabulary.

    Unknown tokens become UNK; each ref_summary gets a terminating EOS.
    Raises SchemaError (with line number) for malformed records and records
    violating the data invariants (no papers, empty text, empty summary).
    """
    out = []
    for line_no, record in _read_records(path):
        docs = []
        for p in record["papers"]:
            body = vocab.encode(tokenize(p["text"]))
            if not body:
                raise SchemaError(line_no, f"paper {p['id']!r} has empty text")
            docs.append(PaperDocument(body, vocab.encode(tokenize(p["insight"]))))
        summary = vocab.encode(tokenize(record["ref_summary"]))
        if not summary:
            raise SchemaError(line_no, "ref_summary is empty")
        summary.append(EOS)
        out.append(PaperSet(record["id"], docs, summary))
    return out


# --- synthetic corpus ------------------------------------------------------

# Template pools.  All words are lowercase alphanumeric so they survive
# tokenization unchanged.  Method names and score pools are assigned by paper
# position, with disjoint descending score ranges, so paper j always outranks
# paper j+1 and the comparative structure is stable across examples.
_METHODS = ("alphanet", "betanet", "gammanet")
_SCORE_POOLS = ((83, 84, 85, 86, 87), (73, 74, 75, 76, 77), (63, 64, 65, 66, 67))
_ORDINALS = ("first", "second", "third")
FACT_MARKER = "codeword"
FACT_VALUES = tuple(f"v{i:02d}" for i in range(16))


def generate_synthetic_corpus(
    seed: int, count: int, n_papers_range: tuple[int, int] = (2, 3)
) -> list[RawPaperSet]:
    """Generate a deterministic synthetic corpus of comparable pseudo-papers.

    Each example holds n papers (n drawn from ``n_papers_range``), every paper
    a templated abstract with a unique method name and a numeric score.  The
    first paper opens by embedding a key-fact token pair (``codeword <value>``)
    in the first third of its body, and the reference summary repeats that
    pair verbatim, which makes cross-chunk recall measurable.  The value token
    is written in short repeated runs: the local repetitions give a model
    unambiguous next-token evidence for each value word, which is what makes
    the long-range recall of the same word learnable at small scale.  The
    summary has one sentence per paper plus comparative sentences of the form
    "<a> outperforms <b> on accuracy"; each paper's insight is its own
    comparative fragment.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = n_papers_range
    if not 1 <= lo <= hi <= len(_METHODS):
        raise ValueError(f"n_papers_range must satisfy 1 <= lo <= hi <= {len(_METHODS)}")
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(lo, hi)
        fact_value = rng.choice(FACT_VALUES)
        scores = [rng.choice(_SCORE_POOLS[j]) for j in range(n)]
        papers = []
        for j in range(n):
            m, s = _METHODS[j], scores[j]
            score_sentence = f"{m} achieves {s} accuracy on this benchmark ."
            if j == 0:
                text = " ".join(
                    [
                        f"the {FACT_MARKER} {fact_value} {fact_value} {fact_value} anchors .",
                        f"the {FACT_MARKER} {fact_value} {fact_value} {fact_value} repeats .",
                        score_sentence,
                        "results remain stable across runs .",
                    ]
                )
            else:
                text = " ".join(
                    [
                        score_sentence,
                        f"the {_ORDINALS[j]} approach stays rather simple here .",
                    ]
                )
            if j < n - 1:
                insight = f"{m} outperforms {_METHODS[j + 1]} on accuracy"
            else:
                insight = f"{m} trails {_METHODS[j - 1]} on accuracy"
            papers.append(RawPaper(f"s{seed}e{i:04d}p{j}", f"{m} study", text, insight))
        sentences = [f"the {FACT_MARKER} {fact_value} is confirmed ."]
        sentences.extend(f"{_METHODS[j]} is covered here ." for j in range(n))
        sentences.extend(
            f"{_METHODS[k]} outperforms {_METHODS[k + 1]} on accuracy ." for k in range(n - 1)
        )
        out.append(RawPaperSet(f"s{seed}e{i:04d}", papers, " ".join(sentences)))
    return out
