"""Tests for tokenization, vocabulary, key-sentence extraction, chunking,
dataset files, and the synthetic corpus generator."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compsum.corpus import (
    BOS,
    EOS,
    KEY_MARK,
    PAD,
    RESERVED_TOKENS,
    SEP_DOC,
    SEP_SUM,
    UNK,
    FACT_MARKER,
    FACT_VALUES,
    PaperDocument,
    PaperSet,
    RawPaper,
    RawPaperSet,
    Vocabulary,
    assemble_context,
    build_vocab,
    chunk,
    dataset_token_streams,
    extract_key_elements,
    generate_synthetic_corpus,
    load_dataset,
    tokenize,
    write_dataset,
)
from compsum.errors import EmptyInput, SchemaError


def tokenize_oracle(text: str) -> list[str]:
    """The tokenizer as a character state machine: lowercase, split on
    whitespace, then cut each piece where it switches between alphanumeric
    and other characters."""
    out: list[str] = []
    for piece in text.lower().split():
        run: list[str] = []
        run_is_word = False
        for ch in piece:
            is_word = ch.isalnum()
            if run and is_word != run_is_word:
                out.append("".join(run))
                run = []
            run.append(ch)
            run_is_word = is_word
        if run:
            out.append("".join(run))
    return out


# underscore, dotted capital I (lowercases to two code points), superscript
# two and Arabic-Indic three (digits to isalnum), a combining acute accent,
# no-break space, line separator, and the file separator \x1c (whitespace)
EDGE_CHARACTERS = ("_", "\u0130", "\u00b2", "\u0663", "\u0301", "\u00a0", "\u2028", "\x1c")


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]

    def test_mixed_alnum_punct_runs(self):
        assert tokenize("a,b!?c") == ["a", ",", "b", "!?", "c"]
        assert tokenize("3.5% (approx)") == ["3", ".", "5", "%", "(", "approx", ")"]
        assert tokenize("it's") == ["it", "'", "s"]

    def test_case_folding_and_whitespace(self):
        assert tokenize("  A\tB\nc  ") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \n\t") == []

    def test_deterministic(self):
        text = "Alpha, beta; gamma-3 delta?!"
        assert tokenize(text) == tokenize(text)

    def test_numbers_survive(self):
        assert tokenize("score 87 beats 73") == ["score", "87", "beats", "73"]

    @pytest.mark.parametrize("c", EDGE_CHARACTERS)
    def test_edge_characters_match_state_machine(self, c):
        for text in (c, "a" + c + "b", c + "_", "1" + c + ".", "A" + c + c + "Z"):
            assert tokenize(text) == tokenize_oracle(text)

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(st.text())
    def test_matches_state_machine(self, text):
        assert tokenize(text) == tokenize_oracle(text)


class TestVocabulary:
    def test_reserved_block(self):
        v = Vocabulary()
        assert len(v) == 7
        assert (PAD, BOS, EOS, UNK, SEP_DOC, SEP_SUM, KEY_MARK) == tuple(range(7))
        for i, tok in enumerate(RESERVED_TOKENS):
            assert v.id_of(tok) == i
        assert v.decode(range(7)) == list(RESERVED_TOKENS)

    def test_extra_tokens_after_reserved(self):
        v = Vocabulary(["cat", "dog"])
        assert v.id_of("cat") == 7
        assert v.id_of("dog") == 8
        assert v.id_of("unseen") is None

    def test_duplicate_extra_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["cat", "cat"])
        with pytest.raises(ValueError):
            Vocabulary(["<pad>"])

    def test_unknown_encodes_to_unk(self):
        v = Vocabulary(["cat"])
        assert v.encode(["zebra"]) == [UNK]
        assert v.encode(["cat", "zebra", "cat"]) == [7, UNK, 7]
        assert v.id_of("zebra") is None

    def test_encode_decode_round_trip(self):
        v = Vocabulary(["cat", "dog", "sat"])
        tokens = ["dog", "sat", "cat", "cat"]
        assert v.decode(v.encode(tokens)) == tokens

    def test_decode_out_of_range(self):
        v = Vocabulary(["cat"])
        with pytest.raises(ValueError):
            v.decode([8])
        with pytest.raises(ValueError):
            v.decode([-1])

    def test_save_load_round_trip(self, tmp_path):
        v = Vocabulary(["cat", "dog", "87"])
        path = str(tmp_path / "vocab.txt")
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == v.tokens

    def test_load_header_errors(self, tmp_path):
        path = str(tmp_path / "vocab.txt")
        path_write = lambda text: (tmp_path / "vocab.txt").write_text(text)
        path_write("nonsense\n<pad>\n")
        with pytest.raises(SchemaError) as exc:
            Vocabulary.load(path)
        assert exc.value.line_no == 1
        path_write("v1 nine\n")
        with pytest.raises(SchemaError):
            Vocabulary.load(path)
        # header count disagrees with the body
        path_write("v1 9\n" + "\n".join(RESERVED_TOKENS) + "\n")
        with pytest.raises(SchemaError) as exc:
            Vocabulary.load(path)
        assert exc.value.line_no == 1

    def test_load_reserved_block_enforced(self, tmp_path):
        path = tmp_path / "vocab.txt"
        shuffled = list(RESERVED_TOKENS)
        shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
        path.write_text("v1 7\n" + "\n".join(shuffled) + "\n")
        with pytest.raises(SchemaError) as exc:
            Vocabulary.load(str(path))
        assert exc.value.line_no == 2


class TestBuildVocab:
    def test_frequency_then_lexicographic(self):
        v = build_vocab([["b", "a", "b"], ["c", "a"]])
        # a and b tie at 2 -> lexicographic; c trails at 1
        assert v.tokens[7:] == ["a", "b", "c"]

    def test_min_freq_filters(self):
        v = build_vocab([["b", "a", "b"], ["c", "a"]], min_freq=2)
        assert v.tokens[7:] == ["a", "b"]

    def test_document_order_irrelevant(self):
        streams = [["x", "y"], ["y", "z", "z"]]
        assert build_vocab(streams).tokens == build_vocab(streams[::-1]).tokens

    def test_reserved_tokens_ignored_in_counts(self):
        v = build_vocab([["<pad>", "cat", "<unk>"]])
        assert v.tokens[7:] == ["cat"]

    def test_min_freq_validation(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], min_freq=0)


class TestChunk:
    def test_partition_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            l_chunk = int(rng.integers(1, 12))
            tokens = [int(t) for t in rng.integers(0, 50, size=n)]
            chunks = chunk(tokens, l_chunk)
            flat = [t for c in chunks for t in c.tokens]
            assert flat == tokens
            assert all(len(c.tokens) == l_chunk for c in chunks[:-1])
            assert 1 <= len(chunks[-1].tokens) <= l_chunk

    def test_short_input_single_chunk(self):
        chunks = chunk([5, 6], 10)
        assert len(chunks) == 1
        assert chunks[0].tokens == [5, 6]

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk([1, 2], 0)
        with pytest.raises(EmptyInput):
            chunk([], 4)


def _doc_from(text, vocab):
    return PaperDocument(vocab.encode(tokenize(text)), [])


class TestKeyElements:
    # Three sentences of four tokens; per-sentence tf-idf sums are
    # 1.9095425048844386 twice (tie) and 3.295836866004329 for the third.
    TEXT = "the cat sat . the dog sat . birds fly away ."

    def _doc(self):
        vocab = build_vocab([tokenize(self.TEXT)])
        return _doc_from(self.TEXT, vocab), vocab.id_of(".")

    def test_top_sentence(self):
        doc, period = self._doc()
        assert extract_key_elements(doc, 1, period) == [(8, 12)]

    def test_tie_breaks_to_earlier_sentence(self):
        doc, period = self._doc()
        assert extract_key_elements(doc, 2, period) == [(0, 4), (8, 12)]

    def test_k_at_least_sentence_count_returns_all(self):
        doc, period = self._doc()
        for k in (3, 10):
            assert extract_key_elements(doc, k, period) == [(0, 4), (4, 8), (8, 12)]

    def test_k_zero(self):
        doc, period = self._doc()
        assert extract_key_elements(doc, 0, period) == []

    def test_unterminated_tail_is_a_sentence(self):
        vocab = build_vocab([tokenize("alpha beta . gamma")])
        doc = _doc_from("alpha beta . gamma", vocab)
        spans = extract_key_elements(doc, 5, vocab.id_of("."))
        assert spans == [(0, 3), (3, 4)]

    def test_no_period_single_span(self):
        vocab = build_vocab([["alpha", "beta"]])
        doc = _doc_from("alpha beta", vocab)
        assert extract_key_elements(doc, 1, None) == [(0, 2)]

    def test_empty_body(self):
        with pytest.raises(EmptyInput):
            extract_key_elements(PaperDocument([], []), 1, None)


class TestAssembleContext:
    def _paper_set(self):
        text1 = "the cat sat . birds fly away ."
        text2 = "dogs run ."
        vocab = build_vocab([tokenize(text1), tokenize(text2)])
        docs = [_doc_from(text1, vocab), _doc_from(text2, vocab)]
        return PaperSet("e0", docs, [EOS]), vocab

    def test_layout_with_key_elements(self):
        ps, vocab = self._paper_set()
        period = vocab.id_of(".")
        ctx = assemble_context(ps, 1, period)
        b1, b2 = ps.docs[0].body, ps.docs[1].body
        # doc 1 sentences tie on tf-idf, so the earlier one is the key span
        expected = (
            [BOS]
            + [KEY_MARK] + b1[:4] + [KEY_MARK]
            + [KEY_MARK] + b2 + [KEY_MARK]
            + b1 + [SEP_DOC] + b2 + [SEP_SUM]
        )
        assert ctx == expected

    def test_layout_without_key_elements(self):
        ps, vocab = self._paper_set()
        period = vocab.id_of(".")
        b1, b2 = ps.docs[0].body, ps.docs[1].body
        plain = [BOS] + b1 + [SEP_DOC] + b2 + [SEP_SUM]
        assert assemble_context(ps, 0, period) == plain

    def test_starts_bos_ends_sep_sum(self):
        ps, vocab = self._paper_set()
        ctx = assemble_context(ps, 2, vocab.id_of("."))
        assert ctx[0] == BOS and ctx[-1] == SEP_SUM


class TestDatasetFiles:
    def _write(self, tmp_path, records):
        path = str(tmp_path / "data.jsonl")
        write_dataset(path, records)
        return path

    def test_round_trip(self, tmp_path):
        records = generate_synthetic_corpus(3, 4)
        path = self._write(tmp_path, records)
        vocab = build_vocab(dataset_token_streams(path))
        loaded = load_dataset(path, vocab)
        assert [ps.id for ps in loaded] == [r.id for r in records]
        for ps, raw in zip(loaded, records):
            assert len(ps.docs) == len(raw.papers)
            for doc, paper in zip(ps.docs, raw.papers):
                assert vocab.decode(doc.body) == tokenize(paper.text)
                assert vocab.decode(doc.insight) == tokenize(paper.insight)
            assert ps.ref_summary[-1] == EOS
            assert vocab.decode(ps.ref_summary[:-1]) == tokenize(raw.ref_summary)

    def test_line_key_order(self, tmp_path):
        path = self._write(tmp_path, generate_synthetic_corpus(3, 1))
        with open(path, encoding="utf-8") as fh:
            record = json.loads(fh.readline())
        assert list(record) == ["id", "papers", "ref_summary"]
        for paper in record["papers"]:
            assert list(paper) == ["id", "title", "text", "insight"]

    def test_unknown_tokens_become_unk(self, tmp_path):
        path = self._write(
            tmp_path, [RawPaperSet("e", [RawPaper("p", "t", "zebra runs", "")], "zebra")]
        )
        loaded = load_dataset(path, Vocabulary(["runs"]))
        assert loaded[0].docs[0].body == [UNK, 7]
        assert loaded[0].ref_summary == [UNK, EOS]

    def test_token_streams_cover_texts_insights_summary(self, tmp_path):
        records = [
            RawPaperSet(
                "e",
                [RawPaper("p0", "t", "alpha beta", "alpha wins"), RawPaper("p1", "t", "gamma", "")],
                "alpha beats gamma",
            )
        ]
        streams = dataset_token_streams(self._write(tmp_path, records))
        assert ["alpha", "beta"] in streams
        assert ["alpha", "wins"] in streams
        assert ["gamma"] in streams
        assert ["alpha", "beats", "gamma"] in streams
        assert len(streams) == 4  # the empty insight contributes nothing

    def _expect_schema_error(self, tmp_path, text, line_no, fragment):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(SchemaError) as exc:
            load_dataset(str(path), Vocabulary())
        assert exc.value.line_no == line_no
        assert fragment in str(exc.value)

    def _record_line(self, **overrides):
        record = {
            "id": "e0",
            "papers": [{"id": "p", "title": "t", "text": "alpha", "insight": ""}],
            "ref_summary": "alpha",
        }
        record.update(overrides)
        return json.dumps(record)

    def test_invalid_json_reports_line(self, tmp_path):
        text = self._record_line() + "\n{broken\n"
        self._expect_schema_error(tmp_path, text, 2, "invalid json")

    def test_blank_lines_keep_numbering(self, tmp_path):
        text = self._record_line() + "\n\n{broken\n"
        self._expect_schema_error(tmp_path, text, 3, "invalid json")

    def test_missing_field(self, tmp_path):
        record = json.dumps({"id": "e0", "papers": [{"id": "p", "title": "t", "text": "a", "insight": ""}]})
        self._expect_schema_error(tmp_path, record + "\n", 1, "ref_summary")

    def test_wrong_field_type(self, tmp_path):
        self._expect_schema_error(tmp_path, self._record_line(id=5) + "\n", 1, "must be str")

    def test_non_object_record(self, tmp_path):
        self._expect_schema_error(tmp_path, "[1, 2]\n", 1, "json object")

    def test_empty_papers(self, tmp_path):
        self._expect_schema_error(tmp_path, self._record_line(papers=[]) + "\n", 1, "empty")

    def test_paper_not_object(self, tmp_path):
        self._expect_schema_error(tmp_path, self._record_line(papers=["x"]) + "\n", 1, "objects")

    def test_empty_paper_text(self, tmp_path):
        bad = self._record_line(papers=[{"id": "p", "title": "t", "text": " ", "insight": ""}])
        self._expect_schema_error(tmp_path, bad + "\n", 1, "empty text")

    def test_empty_ref_summary(self, tmp_path):
        self._expect_schema_error(
            tmp_path, self._record_line(ref_summary=" ") + "\n", 1, "ref_summary is empty"
        )


class TestSyntheticCorpus:
    def test_deterministic_per_seed(self):
        a = [asdict(r) for r in generate_synthetic_corpus(5, 8)]
        b = [asdict(r) for r in generate_synthetic_corpus(5, 8)]
        assert a == b

    def test_seeds_differ(self):
        a = [asdict(r) for r in generate_synthetic_corpus(0, 8)]
        b = [asdict(r) for r in generate_synthetic_corpus(1, 8)]
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(0, 0)
        for bad in ((0, 2), (2, 1), (2, 4)):
            with pytest.raises(ValueError):
                generate_synthetic_corpus(0, 1, bad)

    def test_paper_count_range(self):
        assert all(len(r.papers) == 2 for r in generate_synthetic_corpus(2, 10, (2, 2)))
        sizes = {len(r.papers) for r in generate_synthetic_corpus(2, 40, (2, 3))}
        assert sizes == {2, 3}

    def test_key_fact_pair_placement(self):
        for r in generate_synthetic_corpus(9, 20):
            body = tokenize(r.papers[0].text)
            # pair opens the first sentence, well inside the first third
            assert body[1] == FACT_MARKER
            value = body[2]
            assert value in FACT_VALUES
            assert body.index(FACT_MARKER) + 2 <= len(body) // 3
            summary = tokenize(r.ref_summary)
            assert summary[1] == FACT_MARKER
            assert summary[2] == value

    def test_body_shapes(self):
        for r in generate_synthetic_corpus(4, 12):
            assert len(tokenize(r.papers[0].text)) == 28
            for paper in r.papers[1:]:
                assert len(tokenize(paper.text)) == 16

    def test_summary_is_comparative(self):
        for r in generate_synthetic_corpus(6, 15):
            assert "outperforms" in tokenize(r.ref_summary)

    def test_insights_name_their_method(self):
        methods = ("alphanet", "betanet", "gammanet")
        for r in generate_synthetic_corpus(7, 10):
            for method, paper in zip(methods, r.papers):
                insight = tokenize(paper.insight)
                assert insight, "every paper carries an insight fragment"
                assert method in insight
            assert "trails" in tokenize(r.papers[-1].insight)

    def test_scores_strictly_ordered(self):
        # paper j always outscores paper j+1, so the comparative claims hold
        for r in generate_synthetic_corpus(8, 20):
            scores = [int(tokenize(r.papers[0].text)[16])]
            scores.extend(int(tokenize(p.text)[2]) for p in r.papers[1:])
            for hi, lo in zip(scores, scores[1:]):
                assert hi > lo

    def test_ids_unique(self):
        records = generate_synthetic_corpus(1, 30)
        ids = [r.id for r in records]
        assert len(set(ids)) == len(ids)
        paper_ids = [p.id for r in records for p in r.papers]
        assert len(set(paper_ids)) == len(paper_ids)
