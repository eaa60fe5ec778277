"""Automatic evaluation: ROUGE-1/2/L, the comparative G-Score, and dataset
report aggregation.

Metrics operate on sequences of token strings (evaluation decodes model
output back to strings first).  No stemming or stopword removal is applied,
which keeps every score exactly reproducible by hand.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Sequence

from .corpus import EOS, SENTENCE_DELIMITER, Vocabulary, chunk
from .errors import DataError
from .ioutil import write_lines
from .model import AblationFlags, Tensors, decode_each, model_context
from .training import TrainConfig

# Fixed lexicon of comparative connectives used by the G-Score density term.
CONNECTIVES = frozenset(
    (
        "outperforms", "compared", "whereas", "however", "unlike", "both",
        "more", "less", "better", "worse", "similar", "contrast",
    )
)
# Default G-Score coverage threshold, and the default of the config key 'tau'.
DEFAULT_TAU = 0.5


@dataclass
class ScoreTriple:
    """Precision, recall, and their harmonic mean, each in [0, 1]."""

    precision: float
    recall: float
    f1: float


def _triple(overlap: float, n_candidate: int, n_reference: int) -> ScoreTriple:
    p = overlap / n_candidate if n_candidate > 0 else 0.0
    r = overlap / n_reference if n_reference > 0 else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return ScoreTriple(p, r, f1)


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> ScoreTriple:
    """Multiset (clipped) n-gram overlap; precision against the candidate
    n-gram count, recall against the reference n-gram count."""
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    cand = Counter(tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1))
    ref = Counter(tuple(reference[i : i + n]) for i in range(len(reference) - n + 1))
    overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
    return _triple(overlap, sum(cand.values()), sum(ref.values()))


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, one row of the LCS table per
    token of ``a`` (Allison-Dix / Hyyro bit-vector recurrence).

    Bit j of ``v`` is 1 where the table row does not step up at column j, so
    the LCS is the number of zero bits; a row costs a few big-int operations
    instead of one Python step per column.
    """
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> ScoreTriple:
    """LCS-based score: precision = LCS/|candidate|, recall = LCS/|reference|."""
    return _triple(lcs_length(candidate, reference), len(candidate), len(reference))


@dataclass
class RougeScores:
    """The three ROUGE variants for one candidate/reference pair."""

    rouge1: ScoreTriple
    rouge2: ScoreTriple
    rougeL: ScoreTriple


def compute_rouge(candidate: Sequence[str], reference: Sequence[str]) -> RougeScores:
    return RougeScores(
        rouge_n(candidate, reference, 1),
        rouge_n(candidate, reference, 2),
        rouge_l(candidate, reference),
    )


def split_sentences(tokens: Sequence[str]) -> list[list[str]]:
    """Split on "." tokens; the delimiter is excluded and empty segments are
    dropped."""
    out: list[list[str]] = []
    current: list[str] = []
    for tok in tokens:
        if tok == SENTENCE_DELIMITER:
            if current:
                out.append(current)
            current = []
        else:
            current.append(tok)
    if current:
        out.append(current)
    return out


@dataclass
class GScore:
    """Comparative quality on a 0-100 scale.

    coverage: fraction of insight units matched by some candidate sentence at
    rouge_l F1 >= tau.  density: fraction of candidate sentences containing a
    comparative connective.  value: 100 * harmonic mean of the two.
    """

    value: float
    coverage: float
    density: float


def g_score(
    candidate: Sequence[str],
    insight_units: Sequence[Sequence[str]],
    tau: float = DEFAULT_TAU,
) -> GScore:
    """Score how well a candidate summary covers the reference insight units
    while staying comparative in form."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    sentences = split_sentences(candidate)
    matched = 0
    for unit in insight_units:
        best = max((rouge_l(list(unit), s).f1 for s in sentences), default=0.0)
        if best >= tau:
            matched += 1
    coverage = matched / len(insight_units) if insight_units else 0.0
    comparative = sum(1 for s in sentences if any(tok in CONNECTIVES for tok in s))
    density = comparative / len(sentences) if sentences else 0.0
    if coverage + density == 0.0:
        return GScore(0.0, coverage, density)
    value = 100.0 * (2.0 * coverage * density) / (coverage + density)
    return GScore(value, coverage, density)


# --- dataset-level evaluation ----------------------------------------------


def mean_in_order(values: Iterable[float]) -> float:
    """The arithmetic mean, summed left to right; 0.0 for no values.  The
    built-in sum() is compensated from Python 3.12, so it would print other
    digits for the same run."""
    total, n = 0.0, 0
    for value in values:
        total += value
        n += 1
    return total / n if n else 0.0


@dataclass
class ExampleScores:
    """One per-example report row; every field but ``id`` is a score."""

    id: str
    rouge1_f1: float
    rouge2_f1: float
    rougeL_f1: float
    g_score: float


@dataclass
class EvalReport:
    """The per-example rows of a dataset evaluation."""

    rows: list[ExampleScores]

    def aggregate_record(self) -> dict:
        """The mean of each score in row order (``mean_in_order``), then
        ``example_count``."""
        record = {
            f.name: mean_in_order(getattr(row, f.name) for row in self.rows)
            for f in fields(ExampleScores) if f.name != "id"
        }
        record["example_count"] = len(self.rows)
        return record

    def to_lines(self) -> list[str]:
        lines = [json.dumps(self.aggregate_record())]
        lines.extend(json.dumps(asdict(row)) for row in self.rows)
        return lines


def write_report(path: str, report: EvalReport) -> None:
    write_lines(path, report.to_lines())


def evaluate_dataset(
    params: Tensors,
    dataset: Sequence,
    vocab: Vocabulary,
    l_chunk: int,
    max_len: int,
    tau: float = DEFAULT_TAU,
    key_k: int = TrainConfig.key_k,
    flags: AblationFlags = AblationFlags(),
) -> EvalReport:
    """Greedy-decode a summary for every example and score it against the
    reference summary (ROUGE) and the insight units (G-Score).

    The examples are decoded by ``model.decode_each``.  Aggregates are
    arithmetic means in dataset order, so reports are deterministic for a
    fixed checkpoint and dataset.
    """
    if len(dataset) == 0:
        raise DataError("cannot evaluate an empty dataset")
    rows = []
    contexts = ((ps.id, chunk(model_context(ps, vocab, key_k), l_chunk)) for ps in dataset)
    for ps, decoded in zip(dataset, decode_each(params, contexts, max_len, flags)):
        candidate = vocab.decode(decoded)
        ref_ids = ps.ref_summary[:-1] if ps.ref_summary[-1] == EOS else ps.ref_summary
        reference = vocab.decode(ref_ids)
        units = [vocab.decode(doc.insight) for doc in ps.docs if doc.insight]
        scores = compute_rouge(candidate, reference)
        g = g_score(candidate, units, tau)
        row = ExampleScores(
            ps.id, scores.rouge1.f1, scores.rouge2.f1, scores.rougeL.f1, g.value
        )
        rows.append(row)
    return EvalReport(rows)
