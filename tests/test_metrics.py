"""Tests for ROUGE, the comparative G-Score, sentence splitting, and
dataset-level evaluation reports."""

import inspect
import json
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compsum.cli import RunConfig
from compsum.corpus import (
    build_vocab,
    dataset_token_streams,
    generate_synthetic_corpus,
    load_dataset,
    write_dataset,
)
from compsum.errors import DataError
from compsum.metrics import (
    CONNECTIVES,
    EvalReport,
    ExampleScores,
    evaluate_dataset,
    g_score,
    lcs_length,
    rouge_l,
    rouge_n,
    split_sentences,
    write_report,
)
from compsum.model import AblationFlags, init_params


def is_subsequence(sub, seq):
    it = iter(seq)
    return all(tok in it for tok in sub)


def brute_force_lcs(a, b):
    """Longest common subsequence by enumerating every subsequence of a."""
    for k in range(min(len(a), len(b)), 0, -1):
        for idxs in combinations(range(len(a)), k):
            if is_subsequence([a[i] for i in idxs], b):
                return k
    return 0


def dp_lcs(a, b):
    """Longest common subsequence by the row-by-row dynamic programme."""
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b, start=1):
            row.append(prev[j - 1] + 1 if x == y else max(prev[j], row[j - 1]))
        prev = row
    return prev[len(b)]


class TestRougeN:
    CAND = "the cat sat".split()
    REF = "the cat sat on the mat".split()

    def test_unigram_hand_values(self):
        s = rouge_n(self.CAND, self.REF, 1)
        assert s.precision == 1.0
        assert s.recall == 0.5
        assert s.f1 == 2.0 / 3.0

    def test_bigram_hand_values(self):
        s = rouge_n(self.CAND, self.REF, 2)
        assert s.precision == 1.0
        assert s.recall == 0.4
        assert s.f1 == 0.5714285714285715

    def test_counts_are_clipped(self):
        s = rouge_n("a a a".split(), ["a"], 1)
        assert_allclose(s.precision, 1.0 / 3.0, rtol=1e-15)
        assert s.recall == 1.0
        assert s.f1 == 0.5

    def test_identical_and_disjoint(self):
        toks = "alpha beats beta".split()
        perfect = rouge_n(toks, list(toks), 1)
        assert (perfect.precision, perfect.recall, perfect.f1) == (1.0, 1.0, 1.0)
        nothing = rouge_n(toks, ["x", "y"], 1)
        assert (nothing.precision, nothing.recall, nothing.f1) == (0.0, 0.0, 0.0)

    def test_empty_sides(self):
        s = rouge_n([], ["a"], 1)
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
        s = rouge_n(["a"], [], 2)
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_swap_exchanges_precision_and_recall(self):
        rng = np.random.default_rng(1)
        letters = list("abcd")
        for _ in range(50):
            a = [letters[i] for i in rng.integers(0, 4, size=rng.integers(1, 7))]
            b = [letters[i] for i in rng.integers(0, 4, size=rng.integers(1, 7))]
            for n in (1, 2):
                fwd = rouge_n(a, b, n)
                rev = rouge_n(b, a, n)
                assert fwd.precision == rev.recall
                assert fwd.recall == rev.precision
                assert fwd.f1 == rev.f1

    def test_order_validation(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 3)


class TestRougeL:
    def test_hand_case_crossed_pair(self):
        s = rouge_l("a b c d".split(), "a c b d".split())
        assert (s.precision, s.recall, s.f1) == (0.75, 0.75, 0.75)

    def test_hand_case_sparse_candidate(self):
        s = rouge_l("x a y b z".split(), "a b".split())
        assert s.precision == 0.4
        assert s.recall == 1.0
        assert s.f1 == 0.5714285714285715

    def test_empty_sequences(self):
        assert lcs_length([], ["a"]) == 0
        s = rouge_l([], [])
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_identical(self):
        toks = "one two three".split()
        assert rouge_l(toks, list(toks)).f1 == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        letters = list("abcd")
        for _ in range(60):
            a = [letters[i] for i in rng.integers(0, 4, size=rng.integers(0, 9))]
            b = [letters[i] for i in rng.integers(0, 4, size=rng.integers(0, 9))]
            assert lcs_length(a, b) == brute_force_lcs(a, b)

    def test_matches_dynamic_programme(self):
        # Long pairs, past 64 bits of the bit-vector, with repeated tokens.
        rng = np.random.default_rng(11)
        for vocab_size in (1, 2, 5, 40):
            words = [f"w{i}" for i in range(vocab_size)]
            for _ in range(40):
                a = [words[i] for i in rng.integers(0, vocab_size, size=rng.integers(0, 90))]
                b = [words[i] for i in rng.integers(0, vocab_size, size=rng.integers(0, 90))]
                assert lcs_length(a, b) == dp_lcs(a, b)
                assert lcs_length(b, a) == dp_lcs(a, b)

    def test_subsequence_not_substring(self):
        assert lcs_length("a x b y c".split(), "a b c".split()) == 3


class TestSplitSentences:
    def test_basic(self):
        toks = "alpha beats beta . gamma runs .".split()
        assert split_sentences(toks) == [["alpha", "beats", "beta"], ["gamma", "runs"]]

    def test_empty_segments_dropped(self):
        assert split_sentences(". . a . . b".split()) == [["a"], ["b"]]

    def test_no_delimiter(self):
        assert split_sentences(["a", "b"]) == [["a", "b"]]

    def test_empty(self):
        assert split_sentences([]) == []


class TestGScore:
    def test_frozen_half_density(self):
        cand = "alphanet outperforms betanet . results remain stable .".split()
        units = [["alphanet", "outperforms", "betanet"]]
        g = g_score(cand, units)
        assert g.coverage == 1.0
        assert g.density == 0.5
        assert g.value == 66.66666666666667

    def test_perfect(self):
        cand = "alphanet outperforms betanet .".split()
        g = g_score(cand, [["alphanet", "outperforms", "betanet"]])
        assert (g.value, g.coverage, g.density) == (100.0, 1.0, 1.0)

    def test_zero_when_nothing_matches(self):
        g = g_score("plain words here .".split(), [["unrelated", "unit"]])
        assert (g.value, g.coverage, g.density) == (0.0, 0.0, 0.0)

    def test_zero_coverage_zeroes_value(self):
        g = g_score("alpha is better .".split(), [["unrelated", "claim", "entirely"]])
        assert g.coverage == 0.0 and g.density == 1.0
        assert g.value == 0.0

    def test_no_units_or_no_sentences(self):
        assert g_score("more is better .".split(), []).coverage == 0.0
        empty = g_score([], [["a", "b"]])
        assert (empty.value, empty.coverage, empty.density) == (0.0, 0.0, 0.0)

    def test_tau_threshold_is_inclusive(self):
        # unit vs sentence at rouge_l f1 exactly 0.5
        cand = "a b c d .".split()
        unit = [["a", "x", "y", "b"]]  # LCS 2 of 4 vs 4 -> f1 = 0.5
        assert g_score(cand, unit, tau=0.5).coverage == 1.0
        assert g_score(cand, unit, tau=0.51).coverage == 0.0

    def test_tau_monotonicity(self):
        rng = np.random.default_rng(9)
        words = ["alpha", "beta", "gamma", "more", "less", "."]
        for _ in range(30):
            cand = [words[i] for i in rng.integers(0, 6, size=12)]
            units = [[words[i] for i in rng.integers(0, 5, size=3)] for _ in range(2)]
            low = g_score(cand, units, tau=0.2)
            high = g_score(cand, units, tau=0.8)
            assert low.coverage >= high.coverage
            assert 0.0 <= low.value <= 100.0

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            g_score(["a"], [], tau=0.0)
        with pytest.raises(ValueError):
            g_score(["a"], [], tau=1.2)

    def test_connective_lexicon(self):
        assert "outperforms" in CONNECTIVES
        assert "the" not in CONNECTIVES


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("eval") / "data.jsonl")
    write_dataset(path, generate_synthetic_corpus(13, 3, (2, 2)))
    vocab = build_vocab(dataset_token_streams(path))
    dataset = load_dataset(path, vocab)
    params = init_params(8, len(vocab), 0)
    return params, dataset, vocab


EVAL_ARGS = dict(l_chunk=16, max_len=30, tau=0.5, key_k=2)


class TestEvaluateDataset:
    def test_report_shape_and_ranges(self, setup):
        params, dataset, vocab = setup
        report = evaluate_dataset(params, dataset, vocab, **EVAL_ARGS, flags=AblationFlags())
        assert len(report.rows) == 3
        assert [r.id for r in report.rows] == [ps.id for ps in dataset]
        for row in report.rows:
            assert 0.0 <= row.rouge1_f1 <= 1.0
            assert 0.0 <= row.rougeL_f1 <= 1.0
            assert 0.0 <= row.g_score <= 100.0

    def test_aggregate_is_mean_of_rows(self, setup):
        params, dataset, vocab = setup
        report = evaluate_dataset(params, dataset, vocab, **EVAL_ARGS, flags=AblationFlags())
        aggregate = report.aggregate_record()
        assert_allclose(aggregate["rouge1_f1"], np.mean([r.rouge1_f1 for r in report.rows]),
                        rtol=1e-12)
        assert_allclose(aggregate["g_score"], np.mean([r.g_score for r in report.rows]),
                        rtol=1e-12)

    def test_aggregate_sums_left_to_right(self):
        # 1e16 + 1 rounds back to 1e16, so the plain running sum is 0, where
        # a compensated sum (math.fsum, or sum() from Python 3.12) gives 1.
        rows = [ExampleScores(str(i), v, v, v, v) for i, v in enumerate((1e16, 1.0, -1e16))]
        aggregate = EvalReport(rows).aggregate_record()
        assert aggregate == {
            "rouge1_f1": 0.0, "rouge2_f1": 0.0, "rougeL_f1": 0.0, "g_score": 0.0,
            "example_count": 3,
        }

    def test_defaults_are_run_config_defaults(self):
        params = inspect.signature(evaluate_dataset).parameters
        config = RunConfig()
        assert params["tau"].default == config.tau
        assert params["key_k"].default == config.key_k
        assert params["flags"].default == AblationFlags()

    def test_deterministic(self, setup):
        params, dataset, vocab = setup
        a = evaluate_dataset(params, dataset, vocab, **EVAL_ARGS, flags=AblationFlags())
        b = evaluate_dataset(params, dataset, vocab, **EVAL_ARGS, flags=AblationFlags())
        assert a.to_lines() == b.to_lines()

    def test_ablation_flags_complete(self, setup):
        params, dataset, vocab = setup
        for flags, key_k in ((AblationFlags(disable_memory=True), 2), (AblationFlags(), 0)):
            args = dict(EVAL_ARGS, key_k=key_k)
            report = evaluate_dataset(params, dataset, vocab, **args, flags=flags)
            assert len(report.rows) == 3

    def test_report_file_round_trip(self, setup, tmp_path):
        params, dataset, vocab = setup
        report = evaluate_dataset(params, dataset, vocab, **EVAL_ARGS, flags=AblationFlags())
        path = str(tmp_path / "report.jsonl")
        write_report(path, report)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 1 + len(report.rows)
        aggregate = json.loads(lines[0])
        scores = ["rouge1_f1", "rouge2_f1", "rougeL_f1", "g_score"]
        assert list(aggregate) == scores + ["example_count"]
        assert aggregate["example_count"] == 3
        for line in lines[1:]:
            assert list(json.loads(line)) == ["id"] + scores

    def test_empty_dataset_rejected(self, setup):
        params, _, vocab = setup
        with pytest.raises(DataError, match="cannot evaluate an empty dataset"):
            evaluate_dataset(params, [], vocab, **EVAL_ARGS, flags=AblationFlags())
